"""Solution procedures: exact branch-and-bound, greedy approximations, oracles.

All solvers return ``(Solution, SolverReport)`` and are deterministic for a
fixed instance: each breaks ties by the total order stated in its docstring,
with the basic RB cost serving as the SINR proxy. EVA, ELVA, bb and brute
force place each user only at its eligible cells (``_eligible_cells``); SINR,
the baseline, takes the max-SINR cell. EVA and ELVA pick a user's cell among
equal scores by one rule, ``_row_best``.

Every enhanced-view fill, the unicast cell allocator's and EVA's and ELVA's
per-user ones, goes through ``_fill``: items are taken in the caller's order,
each with y = min(1, (max(left, 0) + g) / cost), paying max(0, y * cost - g)
from the budget left, where g is what its sharing group already pays (0 for
an item outside a group). Once the budget is spent, only a member whose
group already pays takes a share: it rides the group's transmission.

Both cell allocators take a cell's pairs from ``_cell_pairs``. The multicast
one puts every pair in a group, a pair outside a sharing group being a group
of one.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .problem import (
    Instance,
    Solution,
    MULTICAST,
    UNICAST,
    broadcast_cost,
    objective,
)


# Masks non-tied pairs out of the tie-break argmin over basic RB costs.
_NO_TIE = np.iinfo(np.int64).max


class BruteForceCapError(RuntimeError):
    """The association space exceeds the brute-force enumeration cap."""


@dataclass
class SolverReport:
    """Outcome bookkeeping for one solver run."""

    solver: str
    objective: float
    wall_time: float
    nodes_explored: int | None = None
    nodes_pruned: int | None = None
    node_budget_hit: bool | None = None
    tie_breaks: int | None = None
    params: dict = field(default_factory=dict)


@dataclass
class CellAllocation:
    """Per-cell allocation: (user, view) -> fraction, and its value."""

    alloc: dict[tuple[int, int], float]
    value: float


def _fill(items, left: float, paid: dict):
    """Fill ``(cost, key, group)`` items in order from the budget ``left``.

    ``group`` is None outside a sharing group, else the key under which
    ``paid`` holds what the group already pays; ``paid`` is updated in place.
    Returns the ``(key, y)`` pairs taken, in order, and the budget left.
    """
    taken = []
    for cost, key, group in items:
        if left <= 0 and not paid:  # spent, and no group to ride on
            break
        charge = paid.get(group, 0.0)
        y = min(1.0, (max(left, 0.0) + charge) / cost)
        if left <= 0 and y <= 0:
            continue
        taken.append((key, y))
        left -= max(0.0, y * cost - charge)
        if group is not None:
            paid[group] = max(charge, y * cost)
    return taken, left


def _view_items(instance: Instance, i: int, j: int, multicast: bool) -> list:
    """User i's rewardable views at cell j as fill items, by ascending
    enhanced cost, then view; a sharing-group member's group is its view."""
    costs = instance.rb_enhanced[i, j].tolist()
    shared = instance.sharing[i].tolist() if multicast else None
    views = sorted((costs[k], k) for k in np.flatnonzero(instance.w[i, j]).tolist())
    return [(cost, (i, k), k if shared and shared[k] else None) for cost, k in views]


def _cell_pairs(instance: Instance, cell: int, users):
    """The rewardable (user, view) pairs of ``users`` at ``cell`` as
    ``(users, views, costs)`` arrays, by ascending enhanced cost, then user,
    then view."""
    users = np.asarray(users, dtype=np.int64)
    rows, views = np.nonzero(instance.w[users, cell])
    owners = users[rows]
    costs = instance.rb_enhanced[owners, cell, views]
    order = np.lexsort((views, owners, costs))
    return owners[order], views[order], costs[order]


def solve_cell_subproblem(
    instance: Instance, cell: int, users, budget: float
) -> CellAllocation:
    """Exact fractional-knapsack optimum of the per-cell allocation problem.

    Candidates are the (user, view) pairs with w=1, ranked by reward per RB
    (equivalently ascending enhanced cost, then user, then view), and filled
    in that order. The pairs that fit receive y=1 and the next a fraction;
    the float remainder that fraction leaves can give later pairs shares
    below 1e-9. A negative budget, the basic broadcast alone exceeding the
    cell budget, gets no enhanced view.
    """
    owners, views, costs = _cell_pairs(instance, cell, users)
    items = zip(
        costs.tolist(),
        zip(owners.tolist(), views.tolist()),
        itertools.repeat(None),
    )
    taken, _ = _fill(items, float(budget), {})
    value = 0.0
    for _, y in taken:
        value += y
    return CellAllocation(alloc=dict(taken), value=value)


def solve_cell_subproblem_multicast(
    instance: Instance, cell: int, users, budget: float
) -> CellAllocation:
    """Exact per-cell optimum under multicast RB accounting.

    Every pair is in a group: view k's sharing-group members, keyed
    ``(0, k)``, or a group of one, keyed ``(1, user, k)``. A group rides one
    transmission charged at its max member cost, so its reward is a concave
    piecewise-linear function of the charge. Filling all groups' segments by
    reward per RB (ties: key, then level) is exact, because segment densities
    decrease within each group; each share is then min(1, charge / cost).
    A negative budget gets no enhanced view.
    """
    # Members by ascending cost, then user: the order of the cell's pairs.
    groups: dict[tuple, list[tuple[int, int]]] = {}
    owners, views, costs = _cell_pairs(instance, cell, users)
    shared = instance.sharing[owners, views].tolist()
    pairs = zip(owners.tolist(), views.tolist(), costs.tolist(), shared)
    for i, k, cost, member in pairs:
        groups.setdefault((0, k) if member else (1, i, k), []).append((cost, i))

    # (density, key, level, length) segments; key and level order ties.
    segments = []
    for key, members in groups.items():
        inv = [1.0 / c for c, _ in members]
        prev = 0.0
        for lvl, (c, _) in enumerate(members):
            if c > prev:
                segments.append((sum(inv[lvl:]), key, lvl, c - prev))
            prev = c
    segments.sort(key=lambda s: (-s[0], s[1], s[2]))

    remaining = float(budget)
    value = 0.0
    charge: dict[tuple, float] = {}
    for density, key, _, length in segments:
        if remaining <= 0:
            break
        take = min(length, remaining)
        remaining -= take
        value += density * take
        charge[key] = charge.get(key, 0.0) + take

    alloc = {}
    for key, paid in charge.items():
        for cost, i in groups[key]:
            alloc[(i, key[-1])] = min(1.0, paid / cost)
    return CellAllocation(alloc=alloc, value=value)


def _cell_allocator(mode: str):
    if mode == UNICAST:
        return solve_cell_subproblem
    if mode == MULTICAST:
        return solve_cell_subproblem_multicast
    raise ValueError(f"unknown mode {mode!r}")


def compute_nbar(instance: Instance) -> int:
    """Upper bound on any cell's broadcast cost under best-cell association:
    max over users of their cheapest basic-view cost, 0 with no users."""
    return int(instance.rb_basic.min(axis=1).max(initial=0))


def _eligible_cells(instance: Instance) -> np.ndarray:
    """(M, S) bool: each user's affordable cells, those whose budget covers
    the user's basic cost, or every cell for a user with none: the cells EVA,
    ELVA, bb and brute force may choose (SINR takes the max-SINR cell)."""
    affordable = instance.rb_basic <= instance.rb_budget[None, :]
    return affordable | ~affordable.any(axis=1, keepdims=True)


def _row_best(scores: np.ndarray, nb: np.ndarray):
    """Per row of an (M, S) score matrix: the best score, how many cells tie
    at it, and the tied cell with the lowest basic cost, then the lowest
    index."""
    best = scores.max(axis=1)
    tied = scores == best[:, None]
    cell = np.where(tied, nb, _NO_TIE).argmin(axis=1)
    return best, tied.sum(axis=1), cell


def _report(solver: str, instance: Instance, solution: Solution, start, **fields):
    """The solution and its report, timed from ``start``."""
    value = objective(instance, solution)
    wall_time = time.perf_counter() - start
    return solution, SolverReport(solver, value, wall_time, **fields)


def _finalize(
    instance: Instance, assoc: np.ndarray, mode: str
) -> tuple[Solution, float]:
    """Re-solve every cell at its true residual budget for a fixed association."""
    allocator = _cell_allocator(mode)
    solution = Solution(assoc=assoc.copy())
    residual = (instance.rb_budget - broadcast_cost(instance, assoc)).tolist()
    total = 0.0
    for j in range(instance.n_cells):
        users = np.flatnonzero(assoc == j)
        if users.size == 0:
            continue
        cell = allocator(instance, j, users.tolist(), float(residual[j]))
        solution.alloc.update(cell.alloc)
        total += cell.value
    return solution, total


def solve_sinr(instance: Instance, mode: str = UNICAST) -> tuple[Solution, SolverReport]:
    """Baseline: each user takes its max-SINR cell (lowest basic RB cost,
    ties to the lowest cell index), then each cell allocates via the exact
    subproblem."""
    start = time.perf_counter()
    assoc = instance.rb_basic.argmin(axis=1).astype(np.int64)
    solution, _ = _finalize(instance, assoc, mode)
    return _report("sinr", instance, solution, start)


def solve_eva(
    instance: Instance, p: float = 1.0, mode: str = UNICAST
) -> tuple[Solution, SolverReport]:
    """Knapsack-flavored greedy: rank cells by (reward count)^p / basic cost.

    Users associate with their best-ranked affordable cell, the broadcast
    cost is charged per cell, and users then fill views by reward per RB in
    descending rank order. p=0 reduces the association to the SINR baseline.

    A user with no affordable cell ranks all cells. Ties among a user's
    best-ranked cells go to the lower basic RB cost, then the lower cell
    index; ``tie_breaks`` counts the users with more than one such cell.
    Users fill views in descending rank, then ascending user index.
    """
    if mode not in (UNICAST, MULTICAST):
        raise ValueError(f"unknown mode {mode!r}")
    start = time.perf_counter()
    counts = instance.reward_counts().astype(float)
    nb = instance.rb_basic
    scores = counts**p / nb

    masked = np.where(_eligible_cells(instance), scores, -np.inf)
    _, ties, assoc = _row_best(masked, nb)
    tie_breaks = int((ties > 1).sum())

    residual = instance.rb_budget - broadcast_cost(instance, assoc)
    residual = residual.astype(float).tolist()

    solution = Solution(assoc=assoc)
    paid = [{} for _ in range(instance.n_cells)]
    multicast = mode == MULTICAST
    order = sorted(range(instance.n_users), key=lambda i: (-scores[i, assoc[i]], i))
    for i in order:
        j = int(assoc[i])
        taken, residual[j] = _fill(
            _view_items(instance, i, j, multicast), residual[j], paid[j]
        )
        solution.alloc.update(taken)

    return _report(
        "eva", instance, solution, start, tie_breaks=tie_breaks, params={"p": p}
    )


def _single_user_gain_tables(instance: Instance):
    """Per cell, the enhanced costs of each user's rewardable views sorted
    ascending and padded with +inf to E + 1 rows, and their prefix sums,
    which are +inf past the view count. Both are (S, E + 1, M), so that one
    cell's tables are contiguous. Back the vectorized gain lookups."""
    m, s, e = instance.n_users, instance.n_cells, instance.n_views
    costs = np.full((s, e + 1, m), np.inf)
    np.copyto(
        costs[:, :e],
        instance.rb_enhanced.transpose(1, 2, 0),
        where=instance.w.transpose(1, 2, 0).astype(bool),
    )
    costs[:, :e].sort(axis=1)
    prefix = np.zeros((s, e + 1, m))
    np.cumsum(costs[:, :e], axis=1, out=prefix[:, 1:])
    return costs, prefix


def _gain_column(costs_j, prefix_j, budget: float) -> np.ndarray:
    """Single-user fractional-knapsack values for every user against one cell:
    the views that fit whole plus the share of the next one that fits.
    ``costs_j`` and ``prefix_j`` are the cell's (E + 1, M) gain tables."""
    if budget <= 0:
        return np.zeros(costs_j.shape[1])
    full = (prefix_j[1:] <= budget).sum(axis=0)
    users = np.arange(costs_j.shape[1])
    # base <= budget < base + next, so the share lies in [0, 1]; past the
    # last view the next cost is +inf and the share 0.
    return full + (budget - prefix_j[full, users]) / costs_j[full, users]


class _PairRanking:
    """ELVA's greedy pick over an (M, S) score matrix, kept per row.

    Each row keeps its ``_row_best`` summary. ``pick`` compares rows only,
    and a column rewrite re-summarizes only the rows whose best it can
    change. Scores must not be NaN.
    """

    def __init__(self, scores: np.ndarray, nb: np.ndarray):
        self.scores = scores
        self.nb = nb
        self.best, self.ties, self.cell = _row_best(scores, nb)

    def pick(self) -> tuple[int, int, bool]:
        """The best pair, by lowest basic cost, then user, then cell among
        equal scores, and whether more than one pair had that score."""
        i = int(self.best.argmax())
        at_best = self.best == self.best[i]
        rows_tied = np.count_nonzero(at_best) > 1
        if rows_tied:
            top = at_best.nonzero()[0]
            i = int(top[self.nb[top, self.cell[top]].argmin()])
        return i, int(self.cell[i]), bool(rows_tied or self.ties[i] > 1)

    def drop_row(self, i: int):
        # An all -inf row ties at every cell; keep its summary exact.
        self.scores[i] = -np.inf
        self.best[i] = -np.inf
        self.ties[i] = self.scores.shape[1]
        self.cell[i] = self.nb[i].argmin()

    def set_column(self, j: int, values: np.ndarray):
        old = self.scores[:, j]
        # A row's summary moves only if cell j was at its best or reaches it.
        stale = (values != old) & (np.maximum(old, values) >= self.best)
        self.scores[:, j] = values
        rows = stale.nonzero()[0]
        if rows.size:
            self.best[rows], self.ties[rows], self.cell[rows] = _row_best(
                self.scores[rows], self.nb[rows]
            )


def solve_elva(instance: Instance, mode: str = UNICAST) -> tuple[Solution, SolverReport]:
    """Submodular-style greedy association with layered budgets.

    Every cell starts from the reduced budget N_j - nbar, where nbar bounds
    any broadcast cost under best-cell association. Each round scores every
    unassigned user at each of its eligible cells (``_eligible_cells``) by
    the user's single-user fractional-knapsack gain at the cell's live
    budget, assigns the best pair, and provisionally allocates that user's
    views. After all users are placed, each cell re-solves its allocation at
    the true residual budget, which is the returned allocation.

    Eligibility is keyed to the cell budget, not to nbar: it keeps users off
    cells that cannot carry their broadcast yet lets them reach views cached
    only at cells costlier than their best one. A user with no affordable
    cell ranks all cells.

    Ties among the best-scored pairs go to the lower basic RB cost, then the
    lower user index, then the lower cell index; ``tie_breaks`` counts the
    rounds with more than one such pair.
    """
    start = time.perf_counter()
    m, s = instance.n_users, instance.n_cells
    nbar = compute_nbar(instance)
    budgets = (instance.rb_budget.astype(float) - nbar).tolist()
    costs, prefix = _single_user_gain_tables(instance)

    gains = np.empty((m, s))
    for j in range(s):
        gains[:, j] = _gain_column(costs[j], prefix[j], budgets[j])

    assoc = np.full(m, -1, dtype=np.int64)
    paid = [{} for _ in range(s)]
    multicast = mode == MULTICAST
    tie_breaks = 0

    # Scores of the open pairs (eligible, user unassigned), -inf elsewhere;
    # gains are finite, so -inf marks a closed pair. Only the assigned
    # user's row and the chosen cell's column change per round.
    ranking = _PairRanking(
        np.where(_eligible_cells(instance), gains, -np.inf), instance.rb_basic
    )
    for _ in range(m):
        i, j, tied = ranking.pick()
        tie_breaks += tied
        assoc[i] = j
        ranking.drop_row(i)

        _, budgets[j] = _fill(
            _view_items(instance, i, j, multicast), budgets[j], paid[j]
        )
        gain = _gain_column(costs[j], prefix[j], budgets[j])
        column = ranking.scores[:, j]
        ranking.set_column(j, np.where(column == -np.inf, column, gain))

    solution, _ = _finalize(instance, assoc, mode)
    return _report("elva", instance, solution, start, tie_breaks=tie_breaks)


def _cell_value(costs: list, budget: float) -> float:
    """Fractional-knapsack value of a cell's enhanced ``costs``, sorted
    ascending, at ``budget``: the running sum takes costs while
    ``spent + cost`` stays within the budget, then the share of the next."""
    if budget <= 0:
        return 0.0
    spent = 0.0
    full = 0
    for cost in costs:
        if spent + cost > budget:
            return full + (budget - spent) / cost
        spent += cost
        full += 1
    return float(full)


def solve_bb(
    instance: Instance,
    node_budget: int | None = None,
    mode: str = UNICAST,
) -> tuple[Solution, SolverReport]:
    """Depth-first branch-and-bound over user-cell assignments.

    Each user branches over its eligible cells (``_eligible_cells``). A
    node's potential is the sum, over unassigned users, of their best per-cell
    reward count; branches whose partial value plus potential cannot beat
    the incumbent are pruned. Branching follows the highest-potential pair
    first (ties: lower basic cost, then lowest indices); because pair
    potentials are node-independent this yields a static user order with a
    static per-user cell order. Unbudgeted runs return the best feasible
    association whenever every user has an affordable cell; with
    ``node_budget`` the best incumbent found is returned and flagged.

    Each cell keeps one list (its members in multicast, its enhanced costs
    sorted ascending in unicast), its largest basic cost and its value; a
    child adds the user to its cell's list and revalues only that cell. A
    parent enters each child in turn (node limit, node count, then the leaf
    or prune test) and recurses only into children that are neither.
    """
    start = time.perf_counter()
    m, s = instance.n_users, instance.n_cells
    wsum = instance.reward_counts()
    nb = instance.rb_basic
    budgets = instance.rb_budget.astype(float).tolist()
    multicast = mode == MULTICAST
    allocator = _cell_allocator(mode)
    limit = float("inf") if node_budget is None else node_budget

    def pair_key(i, j):
        return (-wsum[i, j], nb[i, j], j)

    eligible = _eligible_cells(instance)
    cell_order = [
        sorted(np.flatnonzero(eligible[i]).tolist(), key=lambda j: pair_key(i, j))
        for i in range(m)
    ]
    best_w = wsum.max(axis=1)
    user_order = sorted(
        range(m), key=lambda i: (-best_w[i], nb[i, cell_order[i][0]], i)
    )
    suffix = [0.0] * (m + 1)
    for t in range(m - 1, -1, -1):
        suffix[t] = suffix[t + 1] + int(best_w[user_order[t]])

    # Per depth, the user and its children in branching order, each as
    # (cell, basic cost, the user's enhanced costs there in ascending order).
    levels = []
    for i in user_order:
        children = []
        for j in cell_order[i]:
            views = instance.w[i, j].astype(bool)
            user_costs = instance.rb_enhanced[i, j][views].astype(float).tolist()
            children.append((j, int(nb[i, j]), sorted(user_costs)))
        levels.append((i, children))

    contents = [[] for _ in range(s)]
    max_basic = [0] * s
    values = [0.0] * s
    assoc = [0] * m
    best_value = -float("inf")
    best_assoc: list[int] | None = None
    nodes = 0
    pruned = 0
    budget_hit = False

    def descend(t: int, partial: float):
        """Enter the children of an entered, unpruned node at depth t."""
        nonlocal nodes, pruned, best_value, best_assoc, budget_hit
        i, children = levels[t]
        leaf = t + 1 == m
        potential = suffix[t + 1]
        for j, basic, user_costs in children:
            if nodes >= limit:
                budget_hit = True
                return
            nodes += 1
            cell_basic = max_basic[j]
            if basic > cell_basic:
                cell_basic = basic
            budget = budgets[j] - cell_basic
            if multicast:
                cell = contents[j] + [i]
                value = allocator(instance, j, cell, budget).value
            else:
                cell = sorted(contents[j] + user_costs)
                value = _cell_value(cell, budget)
            child = partial + value - values[j]
            assoc[i] = j
            if leaf:
                if child >= best_value:
                    best_value = child
                    best_assoc = assoc.copy()
                continue
            if best_assoc is not None and potential <= best_value - child:
                pruned += 1
                continue
            saved = contents[j], max_basic[j], values[j]
            contents[j], max_basic[j], values[j] = cell, cell_basic, value
            descend(t + 1, child)
            contents[j], max_basic[j], values[j] = saved
            if budget_hit:
                return

    # The root passes the node limit and is counted like any node; it is
    # never pruned, as no incumbent exists yet.
    if limit <= 0:
        budget_hit = True
    else:
        nodes = 1
        if m:
            descend(0, 0.0)

    if best_assoc is None:
        # Node budget exhausted before the first dive reached a leaf, or no
        # users: the dive's association (first child at every depth).
        best_assoc = [cell_order[i][0] for i in range(m)]
    solution, _ = _finalize(instance, np.array(best_assoc, dtype=np.int64), mode)
    return _report(
        "bb", instance, solution, start, nodes_explored=nodes, nodes_pruned=pruned,
        node_budget_hit=budget_hit, params={"node_budget": node_budget},
    )


def solve_bruteforce(
    instance: Instance, cap: int = 10**6, mode: str = UNICAST
) -> tuple[Solution, SolverReport]:
    """Exhaustive association scan; the verification oracle for tiny instances.

    Each user ranges over its eligible cells (``_eligible_cells``), so
    whenever every user has an affordable cell, the result is the best
    feasible association. Of equal-valued associations, the first in
    lexicographic order wins. ``cap`` bounds the number of associations
    scanned."""
    start = time.perf_counter()
    choices = [np.flatnonzero(row).tolist() for row in _eligible_cells(instance)]
    total = math.prod(len(cells) for cells in choices)
    if total > cap:
        raise BruteForceCapError(
            f"{total} eligible associations exceed the cap of {cap}"
        )
    best_value = -np.inf
    for combo in itertools.product(*choices):
        candidate, value = _finalize(instance, np.array(combo, dtype=np.int64), mode)
        if value > best_value:
            best_value = value
            solution = candidate

    return _report("bruteforce", instance, solution, start)
