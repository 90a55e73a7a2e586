"""Solution procedures: exact branch-and-bound, greedy approximations, oracles.

All solvers return ``(Solution, SolverReport)`` and are deterministic for a
fixed instance: each breaks ties by the total order stated in its docstring,
with the basic RB cost serving as the SINR proxy. EVA, ELVA, bb and brute
force place each user only at its eligible cells (``_eligible_cells``); SINR,
the baseline, takes the max-SINR cell. Among equal scores, EVA and ELVA both
prefer the lower basic cost, then the lower index: EVA per user through
``_row_best``, ELVA over all pairs through its slot order (``solve_elva``).

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
from collections.abc import Iterator
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
        # The module docstring's min/max rule, bit for bit, in branches.
        y = ((0.0 if left < 0 else left) + charge) / cost
        if not y < 1.0:
            y = 1.0
        if left <= 0 and y <= 0:
            continue
        taken.append((key, y))
        spend = y * cost
        if spend > charge:
            left -= spend - charge
            charge = spend
        if group is not None:
            paid[group] = charge
    return taken, left


def _view_items(instance: Instance, i: int, j: int, multicast: bool) -> list:
    """User i's rewardable views at cell j as fill items, by ascending
    enhanced cost, then view; a sharing-group member's group is its view."""
    costs = instance.rb_enhanced[i, j].tolist()
    shared = instance.sharing[i].tolist() if multicast else None
    views = sorted((costs[k], k) for k in np.flatnonzero(instance.w[i, j]).tolist())
    return [(cost, (i, k), k if shared and shared[k] else None) for cost, k in views]


def _gathered_view_items(
    instance: Instance, users: np.ndarray, cells: np.ndarray, multicast: bool
) -> Iterator[list]:
    """Yields ``_view_items`` of each pair ``(users[t], cells[t])`` in turn,
    from one gather. Each row's views are stably sorted by enhanced cost with
    an unrewardable view keyed 0, below every cost, so that a row's
    rewardable views are its last ones, by cost, then view. A list is built
    only when it is asked for, so that only one is alive at a time."""
    w = instance.w.view(bool)[users, cells]
    keys = np.where(w, instance.rb_enhanced[users, cells], 0)
    views = keys.argsort(axis=1, kind="stable")
    costs = np.take_along_axis(keys, views, axis=1)
    shared = instance.sharing[users].view(bool) if multicast else np.zeros_like(w)
    shared = np.take_along_axis(shared, views, axis=1)
    starts = instance.n_views - w.sum(axis=1)
    rows = zip(users.tolist(), starts.tolist(), costs.tolist(), views.tolist(), shared.tolist())
    for i, t, c, v, sh in rows:
        yield [(cost, (i, k), k if g else None) for cost, k, g in zip(c[t:], v[t:], sh[t:])]


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
    Users fill views in descending rank, then ascending user index, each
    from its row of one gather of the reward and cost tables over every
    user's chosen cell (``_gathered_view_items``).
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
    users = np.arange(instance.n_users)
    order = np.lexsort((users, -scores[users, assoc]))
    cells = assoc[order]
    items = _gathered_view_items(instance, order, cells, mode == MULTICAST)
    for j, user_items in zip(cells.tolist(), items):
        taken, residual[j] = _fill(user_items, residual[j], paid[j])
        solution.alloc.update(taken)

    return _report(
        "eva", instance, solution, start, tie_breaks=tie_breaks, params={"p": p}
    )


def _single_user_gain_tables(instance: Instance):
    """Per cell, the enhanced costs of each user's rewardable views sorted
    ascending and padded with +inf to R + 1 rows, R the largest reward count
    of any pair, and their prefix sums, which are +inf past the view count.
    Row R is all +inf. Both are (S, R + 1, M), so that one cell's tables are
    contiguous. Back the vectorized gain lookups."""
    m, s = instance.n_users, instance.n_cells
    r = int(instance.reward_counts().max(initial=0))
    ranked = np.where(instance.w.view(bool), instance.rb_enhanced, np.inf)
    ranked.sort(axis=2, kind="stable")
    costs = np.full((s, r + 1, m), np.inf)
    costs[:, :r] = ranked[:, :, :r].transpose(1, 2, 0)
    prefix = np.zeros((s, r + 1, m))
    for row in range(r):
        np.add(prefix[:, row], costs[:, row], out=prefix[:, row + 1])
    return costs, prefix


def _gain_column(costs_j, prefix_j, budget: float) -> np.ndarray:
    """Single-user fractional-knapsack values for every user against one cell:
    the views that fit whole plus the share of the next one that fits.
    ``costs_j`` and ``prefix_j`` are the cell's (R + 1, M) gain tables."""
    if budget <= 0:
        return np.zeros(costs_j.shape[1])
    full = (prefix_j[1:] <= budget).sum(axis=0)
    users = np.arange(costs_j.shape[1])
    # base <= budget < base + next, so the share lies in [0, 1]; past the
    # last view the next cost is +inf and the share 0.
    return full + (budget - prefix_j[full, users]) / costs_j[full, users]


def _slot_order(rb_basic: np.ndarray) -> np.ndarray:
    """The flat (user, cell) pair indices by ascending basic RB cost, then
    index: ``np.argsort(rb_basic.ravel(), kind="stable")``. The keys
    nb * n + index are unique, so any sort gives that order; a cost too large
    for them (numpy wraps silently) falls back to the stable sort."""
    nb = rb_basic.ravel()
    n = nb.size
    if int(nb.max(initial=0)) * n <= np.iinfo(np.int64).max - n:
        return np.argsort(nb * n + np.arange(n))
    return np.argsort(nb, kind="stable")


def _settle_zero_rounds(scores, order, user_slots, assoc) -> int:
    """ELVA's remaining rounds once every open score is 0, in one step.

    Each round would pick the first open slot, so each unassigned user takes
    its own first open slot's cell, and the users are placed in the order of
    those slots. Sets ``assoc`` and returns the rounds' tie-breaks: every
    round but the last has other users' open slots at 0, and the last ties
    when its user has more than one open slot."""
    users = np.flatnonzero(assoc < 0)
    slots = user_slots[users]
    is_open = scores[slots] > -np.inf
    first = np.where(is_open, slots, scores.size).min(axis=1)
    assoc[users] = order[first] % user_slots.shape[1]
    last = first.argmax()
    return users.size - 1 + int(is_open[last].sum() > 1)


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

    Every pair holds one slot of a flat score vector, in ELVA's tie-break
    order: ascending basic RB cost, then user index, then cell index. Each
    round takes the first maximum, so among equal scores the lower basic
    cost wins, then the lower user, then the lower cell; ``tie_breaks``
    counts the rounds with more than one slot at the maximum.

    The rounds stop at the first whose best score is 0, and
    ``_settle_zero_rounds`` places the users left at once. This is exact.
    Every open score is then 0 and stays 0: a fill only ever lowers a
    budget, and a gain of 0 stays 0 as its budget falls. So each later round
    would take the first open slot, and the provisional fills skipped change
    nothing returned, as every cell is re-solved at the end.
    """
    start = time.perf_counter()
    m, s = instance.n_users, instance.n_cells
    nbar = compute_nbar(instance)
    budgets = (instance.rb_budget.astype(float) - nbar).tolist()
    costs, prefix = _single_user_gain_tables(instance)

    gains = np.empty((m, s))
    for j in range(s):
        gains[:, j] = _gain_column(costs[j], prefix[j], budgets[j])

    # Slot t holds pair order[t]'s score while the pair is open (eligible,
    # user unassigned), -inf once closed; gains are finite, so -inf marks a
    # closed pair. Only the assigned user's and the chosen cell's slots
    # change per round.
    order = _slot_order(instance.rb_basic)
    scores = np.where(_eligible_cells(instance), gains, -np.inf).ravel()[order]
    slot = np.empty(m * s, dtype=np.int64)
    slot[order] = np.arange(m * s)
    user_slots = slot.reshape(m, s)
    cell_slots = user_slots.T.copy()

    assoc = np.full(m, -1, dtype=np.int64)
    paid = [{} for _ in range(s)]
    multicast = mode == MULTICAST
    tie_breaks = 0
    for _ in range(m):
        top = scores.argmax()
        if scores[top] == 0:
            tie_breaks += _settle_zero_rounds(scores, order, user_slots, assoc)
            break
        # argmax takes the first maximum, so a tie can only lie after it.
        tie_breaks += int(scores[top + 1:].max(initial=-np.inf) == scores[top])
        i, j = divmod(int(order[top]), s)
        assoc[i] = j
        scores[user_slots[i]] = -np.inf

        before = budgets[j]
        _, budgets[j] = _fill(
            _view_items(instance, i, j, multicast), budgets[j], paid[j]
        )
        # A cell's gains move only with its budget, and are 0 at or below 0.
        if budgets[j] != before and (before > 0 or budgets[j] > 0):
            gain = _gain_column(costs[j], prefix[j], budgets[j])
            column = scores[cell_slots[j]]
            scores[cell_slots[j]] = np.where(column == -np.inf, column, gain)

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
