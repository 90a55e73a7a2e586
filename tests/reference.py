"""Scalar reference implementations that the array code must match bit for bit.

Each is a plain loop over the allocation dict or over a sorted candidate
list, adding its terms one at a time in order. They are the oracles for the
allocation ledger in ``tiercast.problem``; in ``tiercast.solvers``, for
the allocation kernel ``_allocate`` cell by cell, EVA's association and
tie-breaks, ELVA's per-user fills, the single-user gain lookup and ELVA's
rounds; and, in ``tiercast.scenario``, for the 1 m user redraw, one user
at a time, and for the demand draw and the cache placement, as per-user
view tuples and per-cell view sets.

``fill`` is the enhanced-view fill item by item, in two branches: a view
whose group charge plus the budget left covers its cost is taken whole, and
a lower charge rises to its cost; any other takes the share that the charge
plus the budget left buys, and spends exactly the budget left. While
budgets and costs are integers below 2**53, every step is exact. It is the
oracle for ``_fill``'s budget left and group charges, and the source of the
shares where a test builds an allocation from fills. ``view_items`` is a
user's fill items at a cell, by ascending cost, then view, built from the
instance as ELVA did before it read them from its gain tables;
``fill_items`` drops their keys, as ``_fill`` takes them.

``solve_cell_subproblem`` is the unicast fill pair by pair: each takes
``min(cost, remaining)`` RBs at a share of take / cost, and its value adds
the shares in order. ``solve_cell_subproblem_multicast`` is the per-view
loop with separate group and unicast segments that the one-kind group fill
replaced; a pair outside a group is a segment of its own cost, at a share
of take / cost. Like the kernel, both take a whole cost or the budget
left, and subtracting an integer cost from a budget below 2**53 is exact,
so both give the kernel's shares bit for bit. The multicast loop's value
adds density * take per segment, another statement of the cell's LP
objective, within 1e-12 relative of the kernel's, which adds the shares.
Both return ``(alloc, value)``, as the kernel's one-cell form
``solvers._one_cell`` does.

``group_fill`` is that one-kind group fill, the per-cell Python loop the
kernel replaced: the kernel's entries bit for bit and in order.

``solve_elva`` is ELVA as it was before it ranked only eligible cells: an
unaffordable pair scored ``(N_j - nb_ij) * T`` plus its gain, which is
negative, below every affordable pair. Wherever every user has an
affordable cell it is the solver's oracle bit for bit, tie-breaks included.
``solve_elva_full_scan`` ranks eligible cells only, as the solver does, and
is its oracle everywhere. Both scan the whole score matrix each round
(``FullMatrixRanking``) and rewrite the chosen cell's gains after every fill.
They run every round, with its fill, to the last: the rounds after the best
score first reaches 0, which the solver settles in one step, included.

``solve_bb`` is the other way round: the numpy branch-and-bound that the
list-based search in ``tiercast.solvers`` replaced, kept as the oracle for
its nodes, prune counts and results.

``solve_bruteforce`` scans every eligible association: the exact oracle,
with no scipy, that ``tiercast.solvers.solve_bb`` is checked against on
tiny instances.
"""

import itertools
import time

import numpy as np

from tiercast.problem import (
    FEAS_TOL,
    MULTICAST,
    UNICAST,
    FeasibilityReport,
    Instance,
    Solution,
    Violation,
)
from tiercast.problem import objective as ledger_objective
from tiercast.scenario import MIN_USER_CELL_DISTANCE, _uniform_disc
from tiercast.solvers import (
    SolverReport,
    _eligible_cells,
    _fill,
    _finalize,
    _gain_column,
    _report,
    _gain_tables,
    compute_nbar,
)
from tiercast import solvers

_NO_TIE = np.iinfo(np.int64).max


def objective(instance, solution):
    total = 0.0
    for (i, k), y in solution.alloc.items():
        total += y * instance.w[i, solution.assoc[i], k]
    return total


def per_user_rewards(instance, solution):
    rewards = np.zeros(instance.n_users)
    for (i, k), y in solution.alloc.items():
        rewards[i] += y * instance.w[i, solution.assoc[i], k]
    return rewards


def rb_usage(instance, solution, mode=UNICAST):
    if mode not in (UNICAST, MULTICAST):
        raise ValueError(f"unknown mode {mode!r}")
    assoc = solution.assoc
    if assoc.shape != (instance.n_users,):
        raise ValueError("one cell index required per user")
    if ((assoc < 0) | (assoc >= instance.n_cells)).any():
        raise ValueError("cell index out of range")
    usage = np.zeros(instance.n_cells)
    basic = instance.rb_basic[np.arange(instance.n_users), assoc]
    np.maximum.at(usage, assoc, basic)

    if mode == UNICAST:
        for (i, k), y in solution.alloc.items():
            usage[assoc[i]] += y * instance.rb_enhanced[i, assoc[i], k]
        return usage

    group_max = {}
    for (i, k), y in solution.alloc.items():
        j = assoc[i]
        cost = y * instance.rb_enhanced[i, j, k]
        if instance.sharing[i, k]:
            key = (j, k)
            group_max[key] = max(group_max.get(key, 0.0), cost)
        else:
            usage[j] += cost
    for (j, _k), cost in group_max.items():
        usage[j] += cost
    return usage


def is_feasible(instance, solution, mode=UNICAST):
    """The per-entry loop; needs an association with in-range cells."""
    violations = []
    for i, j in enumerate(solution.assoc):
        if not 0 <= j < instance.n_cells:
            raise ValueError("reference needs an in-range association")
    indices_ok = True
    for (i, k), y in solution.alloc.items():
        if not (0 <= i < instance.n_users and 0 <= k < instance.n_views):
            violations.append(Violation("alloc-index", (i, k), "index out of range"))
            indices_ok = False
            continue
        j = solution.assoc[i]
        if not -FEAS_TOL <= y <= 1.0 + FEAS_TOL:
            violations.append(Violation("alloc-bounds", (i, k), f"y={y} outside [0, 1]"))
        if y > FEAS_TOL and instance.w[i, j, k] == 0:
            violations.append(Violation("alloc-mask", (i, int(j), k), f"y={y} but w=0"))
    if indices_ok:
        usage = rb_usage(instance, solution, mode)
        for j in range(instance.n_cells):
            if usage[j] > instance.rb_budget[j] + FEAS_TOL:
                violations.append(
                    Violation(
                        "budget",
                        (j,),
                        f"usage {usage[j]:.6f} exceeds budget {instance.rb_budget[j]}",
                    )
                )
    return FeasibilityReport(not violations, tuple(violations))


def view_items(instance, i, j, multicast):
    """User i's rewardable views at cell j as ``(cost, key, group)`` fill
    items, by ascending enhanced cost, then view; a sharing-group member's
    group is its view."""
    costs = instance.rb_enhanced[i, j].tolist()
    shared = instance.sharing[i].tolist() if multicast else None
    views = sorted((costs[k], k) for k in np.flatnonzero(instance.w[i, j]).tolist())
    return [(cost, (i, k), k if shared and shared[k] else None) for cost, k in views]


def fill_items(items):
    """``(cost, key, group)`` items as ``_fill`` takes them: ``(cost, group)``."""
    return [(cost, group) for cost, _, group in items]


def fill(items, left, paid):
    taken = []
    for cost, key, group in items:
        charge = paid.get(group, 0.0)
        budget = left if left > 0 else 0.0
        if charge + budget >= cost:
            taken.append((key, 1.0))
            if charge < cost:
                left -= cost - charge
                charge = cost
        elif charge + budget > 0:
            taken.append((key, (charge + budget) / cost))
            left -= budget
            charge += budget
        else:
            continue
        if group is not None:
            paid[group] = charge
    return taken, left


def solve_cell_subproblem(instance, cell, users, budget):
    if budget < 0:
        return {}, 0.0
    candidates = sorted(
        (int(instance.rb_enhanced[i, cell, k]), i, k)
        for i in users
        for k in np.flatnonzero(instance.w[i, cell])
    )
    alloc = {}
    value = 0.0
    remaining = float(budget)
    for cost, i, k in candidates:
        if remaining <= 0:
            break
        take = min(cost, remaining)
        alloc[(i, int(k))] = take / cost
        value += take / cost
        remaining -= take
    return alloc, value


def solve_cell_subproblem_multicast(instance, cell, users, budget):
    """Exact per-cell optimum under multicast RB accounting.

    A view's sharing-group members ride a single transmission charged at the
    group's max cost, making the per-view reward a concave piecewise-linear
    function of the charge. Pooling its linear segments with the unicast
    items and filling by marginal reward per RB is exact, because segment
    densities decrease within each view.
    """
    if budget < 0:
        return {}, 0.0

    # (density, tag, payload) pooled segments; tag orders determinism only.
    segments = []
    group_members: dict[int, list[tuple[int, int]]] = {}
    for k in range(instance.n_views):
        shared = instance.sharing[:, k].tolist()
        members = sorted(
            (int(instance.rb_enhanced[i, cell, k]), i)
            for i in users
            if instance.w[i, cell, k] and shared[i]
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
            if instance.w[i, cell, k] and not shared[i]:
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
            alloc[(i, k)] = take / length

    for k, charge in group_charge.items():
        if charge <= 0:
            continue
        for cost, i in group_members[k]:
            alloc[(i, k)] = min(1.0, charge / cost)
    return alloc, value


def group_fill(instance, cell, users, budget):
    """The per-cell multicast fill that ``solvers._allocate`` replaced, as
    an allocation dict: every pair in a group, view k's members keyed
    ``(0, k)`` and any other pair a group of one keyed ``(1, user, k)``;
    segments by density, then key, then level, each density summed left to
    right; the groups in the order of their first charged segment, members
    by cost, then user."""
    pairs = sorted(
        (int(instance.rb_enhanced[i, cell, k]), i, int(k))
        for i in users
        for k in np.flatnonzero(instance.w[i, cell])
    )
    groups = {}
    for cost, i, k in pairs:
        key = (0, k) if instance.sharing[i, k] else (1, i, k)
        groups.setdefault(key, []).append((cost, i))
    segments = []
    for key, members in groups.items():
        inv = [1.0 / c for c, _ in members]
        prev = 0
        for lvl, (c, _) in enumerate(members):
            if c > prev:
                segments.append((sum(inv[lvl:]), key, lvl, c - prev))
            prev = c
    segments.sort(key=lambda seg: (-seg[0], seg[1], seg[2]))
    remaining = float(budget)
    charge = {}
    for _, key, _, length in segments:
        if remaining <= 0:
            break
        take = min(length, remaining)
        remaining -= take
        charge[key] = charge.get(key, 0.0) + take
    return {
        (i, key[-1]): min(1.0, paid / cost)
        for key, paid in charge.items()
        for cost, i in groups[key]
    }


def single_user_gain(costs, budget):
    """One user's fractional-knapsack value at one cell: the cheapest views
    whole while their running sum fits, then the share of the next."""
    if budget <= 0:
        return 0.0
    spent = 0.0
    full = 0
    for cost in sorted(float(c) for c in costs):
        if spent + cost > budget:
            return full + (budget - spent) / cost
        spent += cost
        full += 1
    return float(full)


class FullMatrixRanking:
    """ELVA's pick by scanning the whole score matrix every round."""

    def __init__(self, scores, nb):
        self.scores = scores
        self.nb = nb

    def pick(self):
        tied = self.scores == self.scores.max()
        # Row-major argmin: lowest basic cost, then user, then cell.
        flat = int(np.where(tied, self.nb, _NO_TIE).argmin())
        i, j = divmod(flat, self.scores.shape[1])
        return i, j, bool(np.count_nonzero(tied) > 1)

    def drop_row(self, i):
        self.scores[i] = -np.inf

    def set_column(self, j, values):
        self.scores[:, j] = values


def solve_eva(instance, p=1.0):
    """EVA's association and tie-break count, from its scalar score and the
    eligible cells, each user's ties counted and broken one by one."""
    counts = instance.reward_counts().astype(float)
    nb = instance.rb_basic
    affordable = nb <= instance.rb_budget[None, :]
    assoc = np.zeros(instance.n_users, dtype=np.int64)
    tie_breaks = 0
    for i in range(instance.n_users):
        cells = range(instance.n_cells)
        if affordable[i].any():
            cells = [j for j in cells if affordable[i, j]]
        scores = {j: counts[i, j] ** p / nb[i, j] for j in cells}
        best = max(scores.values())
        tied = [j for j in cells if scores[j] == best]
        tie_breaks += len(tied) > 1
        assoc[i] = min(tied, key=lambda j: (nb[i, j], j))
    return assoc, tie_breaks


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
    m = instance.n_users
    if T is None:
        T = float(m * instance.n_views + 1)
    penalty = (
        np.minimum(instance.rb_budget[None, :] - instance.rb_basic.astype(float), 0.0) * T
    )
    return _elva_full_scan(instance, penalty, mode, {"T": T})


def solve_elva_full_scan(instance, mode=UNICAST):
    """ELVA as the solver states it: each round scans every open pair at its
    eligible cells (``_eligible_cells``), and every fill rewrites the chosen
    cell's gains."""
    base = np.where(_eligible_cells(instance), 0.0, -np.inf)
    return _elva_full_scan(instance, base, mode, {})


def _elva_full_scan(instance, base, mode, params):
    """ELVA's rounds over the (M, S) scores ``base + gain``, ranked by
    ``FullMatrixRanking``."""
    start = time.perf_counter()
    m, s = instance.n_users, instance.n_cells
    nbar = compute_nbar(instance)
    budgets = (instance.rb_budget.astype(float) - nbar).tolist()
    costs, prefix, _ = _gain_tables(instance)

    gains = np.empty((m, s))
    for j in range(s):
        gains[:, j] = _gain_column(costs[j], prefix[j], budgets[j])

    assoc = np.full(m, -1, dtype=np.int64)
    unassigned = np.ones(m, dtype=bool)
    paid = [{} for _ in range(s)]
    multicast = mode == MULTICAST
    tie_breaks = 0

    # Scores of the unassigned pairs; assigned users' rows hold -inf.
    ranking = FullMatrixRanking(base + gains, instance.rb_basic)
    for _ in range(m):
        i, j, tied = ranking.pick()
        tie_breaks += tied
        assoc[i] = j
        unassigned[i] = False
        ranking.drop_row(i)

        items = fill_items(view_items(instance, i, j, multicast))
        budgets[j] = _fill(items, budgets[j], paid[j])
        gain = _gain_column(costs[j], prefix[j], budgets[j])
        ranking.set_column(j, np.where(unassigned, base[:, j] + gain, -np.inf))

    return _report(
        "elva", _finalize(instance, assoc, mode), start, tie_breaks=tie_breaks,
        params=params,
    )


def uniform_topology(n_cells, n_users, map_radius, seed):
    """``generate_topology("uniform", ...)``'s positions: each user, in index
    order, drawn again until it lies MIN_USER_CELL_DISTANCE or more from
    every cell."""
    rng = np.random.default_rng(seed)
    cells = _uniform_disc(rng, n_cells, map_radius)
    users = _uniform_disc(rng, n_users, map_radius)
    for idx in range(n_users):
        while np.linalg.norm(cells - users[idx], axis=1).min() < MIN_USER_CELL_DISTANCE:
            users[idx] = _uniform_disc(rng, 1, map_radius)[0]
    return cells, users


def generate_demands(n_users, n_views, views_per_user, popularity_skew, seed):
    """Each user's desired views as a sorted tuple, one draw per user."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_views + 1) ** popularity_skew
    probs = weights / weights.sum()
    return tuple(
        tuple(sorted(rng.choice(n_views, size=views_per_user, replace=False, p=probs)))
        for _ in range(n_users)
    )


def place_caches(demands, nearest, n_cells, n_views, cache_capacity):
    """Per-cell sets of cached views. Phase 1 gives each view to the least
    loaded cell, lowest index first; phase 2 fills each cell by the demand
    of the users nearest it, ties by view index."""
    caches = [set() for _ in range(n_cells)]
    for k in range(n_views):
        j = min(range(n_cells), key=lambda j: (len(caches[j]), j))
        caches[j].add(k)
    counts = np.zeros((n_cells, n_views), dtype=np.int64)
    for i, vs in enumerate(demands):
        for k in vs:
            counts[nearest[i], k] += 1
    for j in range(n_cells):
        ranked = sorted(range(n_views), key=lambda k: (-counts[j, k], k))
        for k in ranked:
            if len(caches[j]) >= cache_capacity:
                break
            caches[j].add(k)
    return caches


class _CellState:
    """Incrementally maintained per-cell subproblem value for the search."""

    __slots__ = ("members", "costs", "max_basic", "value")

    def __init__(self):
        self.members = []
        self.costs = np.empty(0)
        self.max_basic = 0
        self.value = 0.0


def cell_value_from_costs(costs, budget):
    """A cell's fractional-knapsack value from its sorted enhanced costs:
    ``np.cumsum`` prefix sums and a right-sided ``searchsorted``."""
    if budget <= 0 or costs.size == 0:
        return 0.0
    prefix = np.cumsum(costs)
    full = int(np.searchsorted(prefix, budget, side="right"))
    if full >= costs.size:
        return float(costs.size)
    spent = prefix[full - 1] if full else 0.0
    return full + (budget - spent) / costs[full]


def solve_bb(instance, node_budget=None, mode=UNICAST):
    """The branch-and-bound with a numpy cost array per cell, re-sorted and
    re-summed at every node, and a recursive call per node."""
    start = time.perf_counter()
    m, s = instance.n_users, instance.n_cells
    wsum = instance.reward_counts()
    nb = instance.rb_basic
    budgets = instance.rb_budget.astype(float)
    multicast = mode == MULTICAST

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

    affordable = nb <= instance.rb_budget[None, :]
    eligible = affordable | ~affordable.any(axis=1, keepdims=True)
    cell_order = [
        sorted(np.flatnonzero(eligible[i]), key=lambda j: pair_key(i, j))
        for i in range(m)
    ]
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
    best_assoc = None
    nodes = 0
    pruned = 0
    budget_hit = False

    def cell_value(state, j):
        budget = budgets[j] - state.max_basic
        if multicast:
            if budget < 0:
                return 0.0
            return solvers._one_cell(instance, j, state.members, budget, MULTICAST)[1]
        return cell_value_from_costs(state.costs, budget)

    def descend(t, partial):
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
        best_assoc = np.array([cell_order[i][0] for i in range(m)], dtype=np.int64)
    solution, _ = _finalize(instance, best_assoc, mode)
    return solution, SolverReport(
        solver="bb",
        objective=ledger_objective(instance, solution),
        wall_time=time.perf_counter() - start,
        nodes_explored=nodes,
        nodes_pruned=pruned,
        node_budget_hit=budget_hit if node_budget is not None else False,
        params={"node_budget": node_budget},
    )


def solve_bruteforce(instance, mode=UNICAST):
    """Exhaustive scan of the eligible associations (``_eligible_cells``),
    each scored by ``_finalize``: whenever every user has an affordable cell,
    the best feasible association. Of equal-valued associations, the first in
    lexicographic order wins."""
    start = time.perf_counter()
    choices = [np.flatnonzero(row).tolist() for row in _eligible_cells(instance)]
    best_value = -np.inf
    for combo in itertools.product(*choices):
        candidate, value = _finalize(instance, np.array(combo, dtype=np.int64), mode)
        if value > best_value:
            best_value = value
            solution = candidate
    return _report("bruteforce", (solution, best_value), start)
