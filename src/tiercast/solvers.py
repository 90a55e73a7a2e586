"""Solution procedures: exact branch-and-bound and greedy approximations.

All solvers return ``(Solution, SolverReport)`` and are deterministic for a
fixed instance: each breaks ties by the total order stated in its docstring,
with the basic RB cost serving as the SINR proxy. EVA, ELVA and bb place
each user only at its eligible cells (``_eligible_cells``); SINR, the
baseline, takes the max-SINR cell. Among equal scores, EVA and ELVA both
prefer the lower basic cost, then the lower index: EVA per user through
``_row_best``, ELVA over all pairs through its slot order (``solve_elva``).

Every solver returns ``_finalize``'s allocation at its own association, each
cell solved exactly at its residual budget: this repository's one allocation
rule, so that solvers differ only in their associations.

``_allocate`` solves every cell at once. Each served (user, view) pair with
w=1 is in a group, view k's sharing-group members at a cell in multicast or
else a group of one: unicast is multicast without members. A group's level
t (costs ascending, c_(-1) = 0) opens a segment of length c_t - c_(t-1) and
density sum(1 / c_s for s >= t), added left to right. Segments sort by cell
and falling density, ties to the views' groups by view and level, then to
the groups of one by cost, user and view. Each takes clip(budget - before,
0, length), ``before`` being the exact length ahead in its cell, so no float
remainder is handed on; a group's members get min(1, its takes' sum / cost).
A group rides one transmission charged at its members' largest cost, for a
concave piecewise-linear reward. In unicast the pairs that fit get 1, the next
the share the budget leaves, the rest no entry, however the float budget rounds.

ELVA's provisional per-user fills go through ``_fill``, in both modes, with
each pair's views read from the gain tables by ascending cost, then view.
Each item raises what its sharing group pays, g (0 for an item outside a
group), to min(cost, g + max(left, 0)), and the budget left pays the rise:
the view whole for cost - g, or exactly the budget left. While budgets and
costs are integers below 2**53 (every preset's: budgets of 50,000, costs of
at most UNREACHABLE_RBS = 2**40), so are the budget left and every charge,
and each score ELVA reads from a budget is one correctly rounded division.

ELVA takes each run of rounds at one maximum score in one batch
(``solve_elva``), exactly: a fill only lowers its cell's budget, and a gain
never rises as its budget falls.

ELVA's re-score of a pair in a batch and bb's value of a cell are
``_cell_value``, the list form of ``_gain_column``, over each pair's costs
read from the gain tables by ``_pair_costs``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .problem import (
    Instance,
    Solution,
    MULTICAST,
    UNICAST,
    broadcast_cost,
    objective,  # noqa: F401 (bench/spans.py wraps it here by name)
)


# Masks non-tied pairs out of the tie-break argmin over basic RB costs.
_NO_TIE = np.iinfo(np.int64).max


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


def _fill(items, left: float, paid: dict) -> float:
    """Fill ``(cost, group)`` items in order from the budget ``left``; return
    the budget left. ``group`` is None outside a sharing group, else the key
    under which ``paid`` holds what the group already pays; ``paid`` is
    updated in place. Each item takes its view whole or exactly the budget
    left, by the module docstring's rule: a spent budget changes nothing."""
    for cost, group in items:
        if left <= 0:
            break
        charge = paid.get(group, 0.0)
        rise = min(cost - charge, left)
        if rise > 0:
            left -= rise
            if group is not None:
                paid[group] = charge + rise
    return left


def _allocate(instance: Instance, assoc, budgets, mode: str) -> tuple[dict, float]:
    """The module docstring's allocation for ``assoc`` (each user's cell, -1
    for none) at ``budgets``: an entry per member of a group with a positive
    take, even at a share of 0, by cell, the group's first segment, cost and
    user; and the entries' running sum, the objective."""
    # Built after the kernel's arrays are freed, lest its table pin the heap.
    users, views, shares = _ledger_arrays(instance, assoc, budgets, mode)
    alloc = dict(zip(zip(users.tolist(), views.tolist()), shares.tolist()))
    return alloc, float(np.cumsum(shares)[-1]) if shares.size else 0.0


def _ledger_arrays(instance: Instance, assoc, budgets, mode: str):
    """``_allocate``'s entries as ``(users, views, shares)`` arrays."""
    if mode not in (UNICAST, MULTICAST):
        raise ValueError(f"unknown mode {mode!r}")
    served = instance.w[np.arange(instance.n_users), assoc] * (assoc >= 0)[:, None]
    owners, views = np.nonzero(served)
    cells = assoc[owners]
    costs = instance.rb_enhanced[owners, cells, views]
    member = (instance.sharing[owners, views] == 1) & (mode == MULTICAST)

    # Pairs by cell, each view's group, then the groups of one, by cost, user
    # and view (they come by user and view to a stable sort): one run a group.
    runs = cells * (instance.n_views + 1) + np.where(member, views, instance.n_views)
    order = np.lexsort((costs, runs))
    cells, costs, runs, member = (a[order] for a in (cells, costs, runs, member))
    first = np.ones(order.size, dtype=bool)
    first[1:] = (runs[1:] != runs[:-1]) | ~member[1:]
    starts = np.flatnonzero(first)
    ends = np.concatenate((starts[1:], [order.size]))
    group = np.cumsum(first) - 1
    prev = np.where(first, 0, costs[np.arange(order.size) - 1])  # the level below
    seg = np.flatnonzero(costs > prev)

    # A member segment's density sums its group's 1 / cost from its level on
    # along a zero-padded row. Without members the pairs come by density.
    density = 1.0 / costs
    rows = seg[member[seg]]
    if rows.size:
        stop = ends[group[rows]]
        at = rows[:, None] + np.arange((stop - rows).max())
        terms = np.where(at < stop[:, None], density[np.minimum(at, order.size - 1)], 0.0)
        density[rows] = np.cumsum(terms, axis=1)[:, -1]
        # The stable sort keeps equal densities in their order above.
        seg = seg[np.lexsort((-density[seg], cells[seg]))]
    length = (costs[seg] - prev[seg]).astype(float)
    seg_cell = cells[seg]
    budget = budgets[seg_cell].astype(float)
    # ``before`` sums lengths capped at the budget: a capped length ends its
    # cell's takes either way, and no huge cost spoils another cell's sums.
    before = np.zeros(seg.size)
    np.cumsum(np.minimum(length, np.maximum(budget, 0.0))[:-1], out=before[1:])
    before -= before[np.searchsorted(seg_cell, seg_cell)]
    take = np.minimum(np.maximum(budget - before, 0.0), length)
    charge = np.bincount(group[seg], weights=take, minlength=starts.size)

    # Positive takes are a prefix of each cell's segments, and a group's
    # segments sort by level (a suffix sum over more members is no smaller),
    # so the charged groups' level-0 segments come in first-segment order.
    charged = group[seg[(take > 0) & first[seg]]]
    idx = starts[charged]
    if rows.size:  # each charged view group's run of pairs
        sizes = (ends - starts)[charged]
        idx = np.repeat(idx - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
    shares = np.minimum(1.0, charge[group[idx]] / costs[idx])
    return owners[order[idx]], views[order[idx]], shares


def _one_cell(instance: Instance, cell: int, users, budget: float, mode: str):
    """``_allocate``'s ``(alloc, value)`` for the distinct ``users`` at ``cell`` alone."""
    assoc = np.full(instance.n_users, -1, dtype=np.int64)
    assoc[np.asarray(users, dtype=np.int64)] = cell
    budgets = np.full(instance.n_cells, float(budget))  # only ``cell`` has pairs
    return _allocate(instance, assoc, budgets, mode)


# Aliases only for bench/spans.py to wrap by name; ROADMAP step 1b deletes both.
def solve_cell_subproblem(instance: Instance, cell: int, users, budget: float):
    return _one_cell(instance, cell, users, budget, UNICAST)


def solve_cell_subproblem_multicast(instance: Instance, cell: int, users, budget: float):
    return _one_cell(instance, cell, users, budget, MULTICAST)


def compute_nbar(instance: Instance) -> int:
    """Upper bound on any cell's broadcast cost under best-cell association:
    max over users of their cheapest basic-view cost, 0 with no users."""
    return int(instance.rb_basic.min(axis=1).max(initial=0))


def _eligible_cells(instance: Instance) -> np.ndarray:
    """(M, S) bool: each user's affordable cells, those whose budget covers
    the user's basic cost, or every cell for a user with none: the cells EVA,
    ELVA and bb may choose (SINR takes the max-SINR cell)."""
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


def _report(solver: str, finalized: tuple[Solution, float], start, **fields):
    """``_finalize``'s solution and its report, whose objective is
    ``_finalize``'s total, timed from ``start``."""
    solution, value = finalized
    wall_time = time.perf_counter() - start
    return solution, SolverReport(solver, value, wall_time, **fields)


def _finalize(instance: Instance, assoc: np.ndarray, mode: str) -> tuple[Solution, float]:
    """Every cell allocated at its true residual budget for a fixed
    association: the solution and its objective, bit for bit."""
    residual = instance.rb_budget - broadcast_cost(instance, assoc)
    alloc, total = _allocate(instance, assoc, residual, mode)
    return Solution(assoc=assoc.copy(), alloc=alloc), total


def solve_sinr(instance: Instance, mode: str = UNICAST) -> tuple[Solution, SolverReport]:
    """Baseline: each user takes its max-SINR cell (lowest basic RB cost,
    ties to the lowest cell index), then each cell allocates via the exact
    subproblem."""
    start = time.perf_counter()
    assoc = instance.rb_basic.argmin(axis=1).astype(np.int64)
    return _report("sinr", _finalize(instance, assoc, mode), start)


def solve_eva(
    instance: Instance, p: float = 1.0, mode: str = UNICAST
) -> tuple[Solution, SolverReport]:
    """Knapsack-flavored greedy: rank cells by (reward count)^p / basic cost.

    Each user associates with its best-ranked eligible cell
    (``_eligible_cells``), then each cell allocates via the exact
    subproblem, as in every other solver. p=0 ranks by basic cost alone,
    which is the SINR baseline's association wherever each user's max-SINR
    cell is affordable, as on every preset.

    A user with no affordable cell ranks all cells. Ties among a user's
    best-ranked cells go to the lower basic RB cost, then the lower cell
    index; ``tie_breaks`` counts the users with more than one such cell.

    Raises ``ValueError`` when an eligible cell's rank overflows float64:
    every overflowed rank would be +inf and tie with the others.
    """
    start = time.perf_counter()
    counts = instance.reward_counts().astype(float)
    nb = instance.rb_basic
    with np.errstate(over="ignore"):  # an overflowed rank is refused below
        masked = np.where(_eligible_cells(instance), counts**p / nb, -np.inf)
    if np.isposinf(masked).any():
        raise ValueError(f"eva_p = {p:g} overflows a rank, (reward count)^p / basic cost")
    _, ties, assoc = _row_best(masked, nb)
    tie_breaks = int((ties > 1).sum())
    return _report(
        "eva", _finalize(instance, assoc, mode), start, tie_breaks=tie_breaks,
        params={"p": p},
    )


def _gain_tables(instance: Instance, multicast: bool = False):
    """Per cell, the enhanced costs of each user's rewardable views sorted
    ascending (equal floats by view) and padded with +inf to R + 1 rows, R
    the largest reward count of any pair, and their prefix sums, which are
    +inf past the view count. Row R is all +inf. Both are (S, R + 1, M), so
    that one cell's tables are contiguous. In multicast, also the view at
    each of the first R ranks, (S, R, M); else None. Back the gain lookups
    and every read of a pair's costs (``_pair_costs``)."""
    m, s = instance.n_users, instance.n_cells
    keyed = np.where(instance.w.view(bool), instance.rb_enhanced, np.inf)
    # A second sort is faster than gathering along the ranks.
    rank = np.argsort(keyed, axis=2, kind="stable") if multicast else None
    ranked = keyed
    ranked.sort(axis=2, kind="stable")
    # A pair's +inf pads sort last, so the ranks some pair fills come first.
    r = int(np.isfinite(ranked.min(axis=(0, 1), initial=np.inf)).sum())
    costs = np.full((s, r + 1, m), np.inf)
    costs[:, :r] = ranked[:, :, :r].transpose(1, 2, 0)
    prefix = np.zeros((s, r + 1, m))
    for row in range(r):
        np.add(prefix[:, row], costs[:, row], out=prefix[:, row + 1])
    views = rank[:, :, :r].transpose(1, 2, 0) if multicast else None
    return costs, prefix, views


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


def _cell_value(costs: list, budget: float) -> float:
    """Fractional-knapsack value of ascending ``costs`` at ``budget``, bit for
    bit ``_gain_column``'s for one pair: costs are taken while ``spent + cost``
    stays within the budget, then the share of the next. ELVA re-scores a
    pair with it, bb values a cell with it over its users' merged costs."""
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


def _pair_costs(costs, i: int, j: int) -> list:
    """User i's rewardable enhanced costs at cell j, ascending: its gain
    table row up to the first +inf pad."""
    row = costs[j, :, i].tolist()
    return row[: row.index(np.inf)]


def _pair_items(costs, views, shared, i: int, j: int) -> list:
    """User i's ``_fill`` items at cell j, read from the gain tables: its
    rewardable views' ``(cost, group)`` by ascending cost, then view. With
    ``views`` (multicast), a sharing-group member's group is its view."""
    row = _pair_costs(costs, i, j)
    if views is None:
        return [(cost, None) for cost in row]
    ranked = views[j, : len(row), i].tolist()
    return [(cost, k if shared[i][k] else None) for cost, k in zip(row, ranked)]


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
    views (``_fill``). After all users are placed, each cell re-solves its
    allocation at the true residual budget, which is the returned
    allocation.

    Eligibility is keyed to the cell budget, not to nbar: it keeps users off
    cells that cannot carry their broadcast yet lets them reach views cached
    only at cells costlier than their best one. A user with no affordable
    cell ranks all cells.

    Every pair holds one slot of a flat score vector, in ELVA's tie-break
    order: ascending basic RB cost, then user index, then cell index. Each
    round takes the first maximum, so among equal scores the lower basic
    cost wins, then the lower user, then the lower cell; ``tie_breaks``
    counts the rounds with more than one slot at the maximum.

    The rounds run in batches, one per run at one maximum ``best``. A batch
    lists the open slots at ``best`` in slot order and takes each in turn
    whose user is open and which still scores ``best``, re-scored
    (``_cell_value``) only if an earlier fill of the batch moved its cell's
    budget; a round ties when a later listed slot is live before its fill.
    Then the batch closes its users and rewrites each moved cell's gains.
    This is the one-round-per-scan loop, bit for bit: a fill only lowers
    its cell's budget and a gain never rises as its budget falls, so a slot
    below ``best`` stays below it, and while a listed slot is live the
    first is the round's first maximum (Minoux's accelerated greedy, 1978).

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
    multicast = mode == MULTICAST
    costs, prefix, views = _gain_tables(instance, multicast)

    gains = np.empty((m, s))
    for j in range(s):
        gains[:, j] = _gain_column(costs[j], prefix[j], budgets[j])

    # Slot t holds pair order[t]'s score while the pair is open (eligible,
    # user unassigned), -inf once closed; gains are finite, so -inf marks a
    # closed pair.
    order = _slot_order(instance.rb_basic)
    scores = np.where(_eligible_cells(instance), gains, -np.inf).ravel()[order]
    slot = np.empty(m * s, dtype=np.int64)
    slot[order] = np.arange(m * s)
    user_slots = slot.reshape(m, s)
    cell_slots = user_slots.T.copy()

    assoc = [-1] * m
    paid = [{} for _ in range(s)]
    shared = instance.sharing.tolist()
    tie_breaks = 0
    placed = 0

    def live(i, j):
        """Whether listed pair (i, j) is open and still scores ``best``."""
        return assoc[i] < 0 and (
            j not in moved or _cell_value(_pair_costs(costs, i, j), budgets[j]) == best
        )

    def next_live():
        """The batch's next live listed pair, or None."""
        return next((pair for pair in listed if live(*pair)), None)

    while placed < m:
        best = scores.max()
        if best == 0:
            break
        users, cells = np.divmod(order[scores == best], s)
        listed = zip(users.tolist(), cells.tolist())
        moved = set()  # the cells whose budgets the batch moved
        picked = []
        pick = next(listed)  # the first listed pair is live
        while pick is not None:
            nxt = next_live()
            tie_breaks += nxt is not None
            i, j = pick
            assoc[i] = j
            picked.append(i)
            left = _fill(_pair_items(costs, views, shared, i, j), budgets[j], paid[j])
            if left != budgets[j]:
                budgets[j] = left
                moved.add(j)
            # The fill may have closed or lowered the next live pair.
            if nxt is not None and not live(*nxt):
                nxt = next_live()
            pick = nxt

        placed += len(picked)
        scores[user_slots[picked]] = -np.inf
        for j in moved:
            column = scores[cell_slots[j]]
            gain = _gain_column(costs[j], prefix[j], budgets[j])
            scores[cell_slots[j]] = np.where(column == -np.inf, column, gain)

    assoc = np.array(assoc, dtype=np.int64)
    if placed < m:
        tie_breaks += _settle_zero_rounds(scores, order, user_slots, assoc)
    return _report("elva", _finalize(instance, assoc, mode), start, tie_breaks=tie_breaks)


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
    costs, _, _ = _gain_tables(instance)
    levels = [
        (i, [(j, int(nb[i, j]), _pair_costs(costs, i, j)) for j in cell_order[i]])
        for i in user_order
    ]

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
                value = _one_cell(instance, j, cell, budget, MULTICAST)[1]
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
    finalized = _finalize(instance, np.array(best_assoc, dtype=np.int64), mode)
    return _report(
        "bb", finalized, start, nodes_explored=nodes, nodes_pruned=pruned,
        node_budget_hit=budget_hit, params={"node_budget": node_budget},
    )
