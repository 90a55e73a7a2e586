"""Solution procedures: exact branch-and-bound, greedy approximations, oracles.

All solvers return ``(Solution, SolverReport)`` and are deterministic for a
fixed instance: each breaks ties by the total order stated in its docstring,
with the basic RB cost serving as the SINR proxy.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .problem import Instance, Solution, MULTICAST, UNICAST, objective


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
    """Per-cell allocation: (user, view) -> fraction, its value, and a flag
    set when the basic view alone exceeds the cell budget."""

    alloc: dict[tuple[int, int], float]
    value: float
    basic_infeasible: bool = False


def solve_cell_subproblem(
    instance: Instance, cell: int, users, budget: float
) -> CellAllocation:
    """Exact fractional-knapsack optimum of the per-cell allocation problem.

    Candidates are the (user, view) pairs with w=1, ranked by reward per RB
    (equivalently ascending enhanced cost, then user, then view). All but the
    last chosen pair receive y=1; the last may be fractional. A negative
    budget signals that the basic broadcast alone exceeds the cell budget.
    """
    if budget < 0:
        return CellAllocation(alloc={}, value=0.0, basic_infeasible=True)
    candidates = sorted(
        (
            (int(instance.rb_enhanced[i, cell, k]), i, k)
            for i in users
            for k in np.flatnonzero(instance.w[i, cell])
        ),
    )
    alloc: dict[tuple[int, int], float] = {}
    value = 0.0
    remaining = float(budget)
    for cost, i, k in candidates:
        if remaining <= 0:
            break
        y = min(1.0, remaining / cost)
        alloc[(i, int(k))] = y
        value += y
        remaining -= y * cost
    return CellAllocation(alloc=alloc, value=value)


def solve_cell_subproblem_multicast(
    instance: Instance, cell: int, users, budget: float
) -> CellAllocation:
    """Exact per-cell optimum under multicast RB accounting.

    A view's sharing-group members ride a single transmission charged at the
    group's max cost, making the per-view reward a concave piecewise-linear
    function of the charge. Pooling its linear segments with the unicast
    items and filling by marginal reward per RB is exact, because segment
    densities decrease within each view.
    """
    if budget < 0:
        return CellAllocation(alloc={}, value=0.0, basic_infeasible=True)

    # (density, tag, payload) pooled segments; tag orders determinism only.
    segments = []
    group_members: dict[int, list[tuple[int, int]]] = {}
    for k in range(instance.n_views):
        group = instance.sharing_group(cell, k)
        members = sorted(
            (int(instance.rb_enhanced[i, cell, k]), i)
            for i in users
            if instance.w[i, cell, k] and i in group
        )
        if members:
            group_members[k] = members
            costs = [c for c, _ in members]
            inv = [1.0 / c for c in costs]
            prev = 0.0
            for lvl, c in enumerate(costs):
                length = c - prev
                if length > 0:
                    density = sum(inv[lvl:])
                    segments.append((density, ("g", k, lvl), length))
                prev = c
        for i in users:
            if instance.w[i, cell, k] and i not in group:
                cost = int(instance.rb_enhanced[i, cell, k])
                segments.append((1.0 / cost, ("u", i, k), float(cost)))

    segments.sort(key=lambda s: (-s[0], s[1]))

    remaining = float(budget)
    value = 0.0
    group_charge: dict[int, float] = {}
    alloc: dict[tuple[int, int], float] = {}
    for density, tag, length in segments:
        if remaining <= 0:
            break
        take = min(length, remaining)
        remaining -= take
        value += density * take
        if tag[0] == "g":
            k = tag[1]
            group_charge[k] = group_charge.get(k, 0.0) + take
        else:
            _, i, k = tag
            alloc[(i, k)] = take * density  # take / cost

    for k, charge in group_charge.items():
        if charge <= 0:
            continue
        for cost, i in group_members[k]:
            alloc[(i, k)] = min(1.0, charge / cost)
    return CellAllocation(alloc=alloc, value=value)


def _cell_allocator(mode: str):
    if mode == UNICAST:
        return solve_cell_subproblem
    if mode == MULTICAST:
        return solve_cell_subproblem_multicast
    raise ValueError(f"unknown mode {mode!r}")


def compute_nbar(instance: Instance) -> int:
    """Upper bound on any cell's broadcast cost under best-cell association:
    max over users of their cheapest basic-view cost."""
    return int(instance.rb_basic.min(axis=1).max())


def _finalize(
    instance: Instance, assoc: np.ndarray, mode: str
) -> tuple[Solution, float]:
    """Re-solve every cell at its true residual budget for a fixed association."""
    allocator = _cell_allocator(mode)
    solution = Solution(assoc=assoc.copy())
    total = 0.0
    for j in range(instance.n_cells):
        users = np.flatnonzero(assoc == j)
        if users.size == 0:
            continue
        residual = float(instance.rb_budget[j] - instance.rb_basic[users, j].max())
        cell = allocator(instance, j, [int(i) for i in users], residual)
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
    return solution, SolverReport(
        solver="sinr",
        objective=objective(instance, solution),
        wall_time=time.perf_counter() - start,
    )


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
    start = time.perf_counter()
    counts = instance.reward_counts().astype(float)
    nb = instance.rb_basic
    with np.errstate(invalid="ignore"):
        scores = counts**p / nb

    # A user with no affordable cell may pick among all cells.
    affordable = nb <= instance.rb_budget[None, :]
    eligible = affordable | ~affordable.any(axis=1, keepdims=True)
    masked = np.where(eligible, scores, -np.inf)
    tied = masked == masked.max(axis=1, keepdims=True)
    tie_breaks = int((np.count_nonzero(tied, axis=1) > 1).sum())
    assoc = np.where(tied, nb, _NO_TIE).argmin(axis=1)

    residual = instance.rb_budget.astype(float).copy()
    for j in range(instance.n_cells):
        users = np.flatnonzero(assoc == j)
        if users.size:
            residual[j] -= nb[users, j].max()

    solution = Solution(assoc=assoc)
    group_charge: dict[tuple[int, int], float] = {}
    order = sorted(range(instance.n_users), key=lambda i: (-scores[i, assoc[i]], i))
    for i in order:
        j = int(assoc[i])
        views = sorted(
            np.flatnonzero(instance.w[i, j]),
            key=lambda k: (instance.rb_enhanced[i, j, k], k),
        )
        for k in views:
            cost = float(instance.rb_enhanced[i, j, k])
            if mode == MULTICAST and i in instance.sharing_group(j, int(k)):
                gmax = group_charge.get((j, int(k)), 0.0)
                y = min(1.0, (max(residual[j], 0.0) + gmax) / cost)
                charge = max(0.0, y * cost - gmax)
                if y > 0:
                    group_charge[(j, int(k))] = max(gmax, y * cost)
            else:
                y = min(1.0, max(residual[j], 0.0) / cost)
                charge = y * cost
            if y > 0:
                solution.alloc[(i, int(k))] = y
                residual[j] -= charge

    return solution, SolverReport(
        solver="eva",
        objective=objective(instance, solution),
        wall_time=time.perf_counter() - start,
        tie_breaks=tie_breaks,
        params={"p": p},
    )


def _single_user_gain_tables(instance: Instance):
    """Per (user, cell): enhanced costs of rewardable views sorted ascending,
    padded with +inf, plus prefix sums. Backs the vectorized gain lookups."""
    m, s, e = instance.n_users, instance.n_cells, instance.n_views
    costs = np.where(instance.w.astype(bool), instance.rb_enhanced, np.inf)
    costs = np.sort(costs.astype(float), axis=2)
    prefix = np.zeros((m, s, e + 1))
    finite = np.where(np.isfinite(costs), costs, 0.0)
    prefix[:, :, 1:] = np.cumsum(finite, axis=2)
    n_items = np.isfinite(costs).sum(axis=2)
    # Prefix entries beyond the item count would replicate the last sum and
    # miscount; push them out of reach.
    idx = np.arange(e + 1)[None, None, :]
    prefix = np.where(idx > n_items[:, :, None], np.inf, prefix)
    return costs, prefix


def _gain_column(costs_j, prefix_j, budget: float) -> np.ndarray:
    """Single-user fractional-knapsack values for every user against one cell."""
    if budget <= 0:
        return np.zeros(costs_j.shape[0])
    full = (prefix_j[:, 1:] <= budget).sum(axis=1)
    rows = np.arange(costs_j.shape[0])
    base = prefix_j[rows, full]
    nxt = costs_j[rows, np.minimum(full, costs_j.shape[1] - 1)]
    nxt = np.where(full >= costs_j.shape[1], np.inf, nxt)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.clip((budget - base) / nxt, 0.0, 1.0)
    frac = np.where(np.isfinite(nxt), frac, 0.0)
    return full + frac


def solve_elva(
    instance: Instance, T: float | None = None, mode: str = UNICAST
) -> tuple[Solution, SolverReport]:
    """Submodular-style greedy association with layered budgets.

    Every cell starts from the reduced budget N_j - nbar, where nbar bounds
    any broadcast cost under best-cell association. Each round scores every
    unassigned (user, cell) pair by a penalty for unaffordable basic costs
    plus the user's single-user fractional-knapsack gain at the cell's live
    budget, assigns the best pair, and provisionally allocates that user's
    views. After all users are placed, each cell re-solves its allocation at
    the true residual budget, which is the returned allocation.

    The penalty fires when a pair's basic cost exceeds the cell budget (the
    association could never be served), scaled by the deficit times T, which
    by default dominates any achievable reward. Keying the penalty to the
    cell budget rather than to nbar keeps users away from cells that cannot
    carry their broadcast while still letting them reach views cached only
    at cells costlier than their best one.

    Ties among the best-scored pairs go to the lower basic RB cost, then the
    lower user index, then the lower cell index; ``tie_breaks`` counts the
    rounds with more than one such pair.
    """
    start = time.perf_counter()
    m, s = instance.n_users, instance.n_cells
    if T is None:
        T = float(m * instance.n_views + 1)
    nbar = compute_nbar(instance)
    nb = instance.rb_basic

    penalty = (
        np.minimum(instance.rb_budget[None, :] - nb.astype(float), 0.0) * T
    )
    budgets = instance.rb_budget.astype(float) - nbar
    costs, prefix = _single_user_gain_tables(instance)

    gains = np.empty((m, s))
    for j in range(s):
        gains[:, j] = _gain_column(costs[:, j], prefix[:, j], budgets[j])

    assoc = np.full(m, -1, dtype=np.int64)
    unassigned = np.ones(m, dtype=bool)
    group_charge: dict[tuple[int, int], float] = {}
    tie_breaks = 0

    # Scores of the unassigned pairs; assigned users' rows hold -inf. Only
    # the assigned user's row and the chosen cell's column change per round.
    dq = penalty + gains
    for _ in range(m):
        tied = dq == dq.max()
        if np.count_nonzero(tied) > 1:
            tie_breaks += 1
        # Row-major argmin returns the first minimum: lowest basic cost,
        # then lowest user, then lowest cell.
        i, j = divmod(int(np.where(tied, nb, _NO_TIE).argmin()), s)
        assoc[i] = j
        unassigned[i] = False
        dq[i] = -np.inf

        views = sorted(
            np.flatnonzero(instance.w[i, j]),
            key=lambda k: (instance.rb_enhanced[i, j, k], k),
        )
        for k in views:
            if budgets[j] <= 0:
                break
            cost = float(instance.rb_enhanced[i, j, k])
            if mode == MULTICAST and i in instance.sharing_group(j, int(k)):
                gmax = group_charge.get((j, int(k)), 0.0)
                y = min(1.0, (budgets[j] + gmax) / cost)
                charge = max(0.0, y * cost - gmax)
                group_charge[(j, int(k))] = max(gmax, y * cost)
            else:
                y = min(1.0, budgets[j] / cost)
                charge = y * cost
            budgets[j] -= charge
        gains[:, j] = _gain_column(costs[:, j], prefix[:, j], budgets[j])
        dq[:, j] = np.where(unassigned, penalty[:, j] + gains[:, j], -np.inf)

    solution, _ = _finalize(instance, assoc, mode)
    return solution, SolverReport(
        solver="elva",
        objective=objective(instance, solution),
        wall_time=time.perf_counter() - start,
        tie_breaks=tie_breaks,
        params={"T": T},
    )


class _CellState:
    """Incrementally maintained per-cell subproblem value for the search."""

    __slots__ = ("members", "costs", "max_basic", "value")

    def __init__(self):
        self.members: list[int] = []
        self.costs = np.empty(0)
        self.max_basic = 0
        self.value = 0.0


def _cell_value_from_costs(costs: np.ndarray, budget: float) -> float:
    if budget <= 0 or costs.size == 0:
        return 0.0
    prefix = np.cumsum(costs)
    full = int(np.searchsorted(prefix, budget, side="right"))
    if full >= costs.size:
        return float(costs.size)
    spent = prefix[full - 1] if full else 0.0
    return full + (budget - spent) / costs[full]


def solve_bb(
    instance: Instance,
    node_budget: int | None = None,
    mode: str = UNICAST,
) -> tuple[Solution, SolverReport]:
    """Depth-first branch-and-bound over user-cell assignments.

    A node's potential is the sum, over unassigned users, of their best
    per-cell reward count; branches whose partial value plus potential cannot
    beat the incumbent are pruned. Branching follows the highest-potential
    pair first (ties: lower basic cost, then lowest indices); because pair
    potentials are node-independent this yields a static user order with a
    static per-user cell order. Unbudgeted runs return the global optimum;
    with ``node_budget`` the best incumbent found is returned and flagged.
    """
    start = time.perf_counter()
    m, s = instance.n_users, instance.n_cells
    wsum = instance.reward_counts()
    nb = instance.rb_basic
    budgets = instance.rb_budget.astype(float)
    multicast = mode == MULTICAST
    allocator = _cell_allocator(mode)

    user_costs = [
        [
            np.sort(instance.rb_enhanced[i, j][instance.w[i, j].astype(bool)]).astype(
                float
            )
            for j in range(s)
        ]
        for i in range(m)
    ]

    def pair_key(i, j):
        return (-wsum[i, j], nb[i, j], j)

    cell_order = [sorted(range(s), key=lambda j: pair_key(i, j)) for i in range(m)]
    best_w = wsum.max(axis=1)
    user_order = sorted(
        range(m), key=lambda i: (-best_w[i], nb[i, cell_order[i][0]], i)
    )
    suffix = np.zeros(m + 1)
    for t in range(m - 1, -1, -1):
        suffix[t] = suffix[t + 1] + best_w[user_order[t]]

    cells = [_CellState() for _ in range(s)]
    assoc = np.zeros(m, dtype=np.int64)
    best_value = -np.inf
    best_assoc: np.ndarray | None = None
    nodes = 0
    pruned = 0
    budget_hit = False

    def cell_value(state: _CellState, j: int) -> float:
        budget = budgets[j] - state.max_basic
        if multicast:
            if budget < 0:
                return 0.0
            return allocator(instance, j, state.members, budget).value
        return _cell_value_from_costs(state.costs, budget)

    def descend(t: int, partial: float):
        nonlocal nodes, pruned, best_value, best_assoc, budget_hit
        if budget_hit:
            return
        if node_budget is not None and nodes >= node_budget:
            budget_hit = True
            return
        nodes += 1
        if t == m:
            if partial >= best_value:
                best_value = partial
                best_assoc = assoc.copy()
            return
        if best_assoc is not None and suffix[t] <= best_value - partial:
            pruned += 1
            return
        i = user_order[t]
        for j in cell_order[i]:
            state = cells[j]
            saved = (state.members, state.costs, state.max_basic, state.value)
            state.members = state.members + [i]
            state.costs = np.sort(np.concatenate((state.costs, user_costs[i][j])))
            state.max_basic = max(state.max_basic, int(nb[i, j]))
            old_value = state.value
            state.value = cell_value(state, j)
            assoc[i] = j
            descend(t + 1, partial + state.value - old_value)
            state.members, state.costs, state.max_basic, state.value = saved
            if budget_hit:
                return

    descend(0, 0.0)

    if best_assoc is None:
        # Node budget exhausted before the first dive reached a leaf; fall
        # back to the dive's association (first child at every depth).
        best_assoc = np.array(
            [cell_order[i][0] for i in range(m)], dtype=np.int64
        )
    solution, _ = _finalize(instance, best_assoc, mode)
    return solution, SolverReport(
        solver="bb",
        objective=objective(instance, solution),
        wall_time=time.perf_counter() - start,
        nodes_explored=nodes,
        nodes_pruned=pruned,
        node_budget_hit=budget_hit if node_budget is not None else False,
        params={"node_budget": node_budget},
    )


def solve_bruteforce(
    instance: Instance, cap: int = 10**6, mode: str = UNICAST
) -> tuple[Solution, SolverReport]:
    """Exhaustive association scan; the verification oracle for tiny instances.

    Of equal-valued associations, the first in lexicographic order wins."""
    start = time.perf_counter()
    m, s = instance.n_users, instance.n_cells
    total = s**m
    if total > cap:
        raise BruteForceCapError(
            f"{s}^{m} = {total} associations exceed the cap of {cap}"
        )
    allocator = _cell_allocator(mode)

    best_value = -np.inf
    best_assoc = None
    for combo in itertools.product(range(s), repeat=m):
        value = 0.0
        for j in range(s):
            users = [i for i in range(m) if combo[i] == j]
            if not users:
                continue
            residual = float(
                instance.rb_budget[j] - max(instance.rb_basic[i, j] for i in users)
            )
            value += allocator(instance, j, users, residual).value
        if value > best_value:
            best_value = value
            best_assoc = np.array(combo, dtype=np.int64)

    solution, _ = _finalize(instance, best_assoc, mode)
    return solution, SolverReport(
        solver="bruteforce",
        objective=objective(instance, solution),
        wall_time=time.perf_counter() - start,
    )
