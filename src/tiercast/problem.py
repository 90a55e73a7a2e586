"""Canonical optimization instance, solutions, feasibility, and RB accounting.

An instance couples a binary reward tensor ``w`` (user i wants view k AND cell
j caches it), per-cell RB budgets, and integer RB cost tables for the basic
broadcast and each enhanced view. A solution is a per-user cell association
plus a sparse fractional allocation ``(user, view) -> y`` on the chosen cell.

The objective, per-user rewards, RB usage and feasibility checks read the
allocation as one ledger: ``(users, views, y)`` arrays in the dict's order.
Every float sum over it adds its terms one at a time in that order, starting
from 0.0, exactly as a loop over ``alloc.items()`` does: the objective by a
cumulative sum, per-user rewards and per-cell usage by ``np.add.at``. In
multicast, a cell's sharing-group charges are added after its non-member
costs, in the order the groups first appear. Results are therefore
bit-for-bit those of the loop; they may differ from a pairwise ``np.sum`` in
the last bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance on the fractional part of RB sums; integer terms exact.
FEAS_TOL = 1e-9

UNICAST = "unicast"
MULTICAST = "multicast"

SharingGroups = dict[int, dict[int, frozenset[int]]]


@dataclass
class Instance:
    """Inputs of the joint association/allocation problem."""

    n_users: int
    n_cells: int
    n_views: int
    w: np.ndarray            # (M, S, E) int8 in {0, 1}
    rb_budget: np.ndarray    # (S,) int64, > 0
    rb_basic: np.ndarray     # (M, S) int64, >= 1
    rb_enhanced: np.ndarray  # (M, S, E) int64, >= 1
    sharing: SharingGroups | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.int8)
        self.rb_budget = np.asarray(self.rb_budget, dtype=np.int64)
        self.rb_basic = np.asarray(self.rb_basic, dtype=np.int64)
        self.rb_enhanced = np.asarray(self.rb_enhanced, dtype=np.int64)
        self.validate()

    def validate(self):
        m, s, e = self.n_users, self.n_cells, self.n_views
        if self.w.shape != (m, s, e):
            raise ValueError(f"w shape {self.w.shape} != {(m, s, e)}")
        if self.rb_basic.shape != (m, s) or self.rb_enhanced.shape != (m, s, e):
            raise ValueError("RB table shape mismatch")
        if self.rb_budget.shape != (s,):
            raise ValueError("budget shape mismatch")
        if not np.isin(self.w, (0, 1)).all():
            raise ValueError("w entries must be 0/1")
        if (self.rb_basic < 1).any() or (self.rb_enhanced < 1).any():
            raise ValueError("RB costs must be >= 1")
        if (self.rb_budget <= 0).any():
            raise ValueError("budgets must be positive")
        if self.sharing is not None:
            for j, groups in self.sharing.items():
                if not 0 <= j < s:
                    raise ValueError(f"sharing cell {j} out of range")
                for k, users in groups.items():
                    if not 0 <= k < e:
                        raise ValueError(f"sharing view {k} out of range")
                    for i in users:
                        if not 0 <= i < m:
                            raise ValueError(f"sharing user {i} out of range")

    def sharing_group(self, j: int, k: int) -> frozenset[int]:
        """Users able to share view ``k`` on cell ``j`` (empty if no sharing)."""
        if self.sharing is None:
            return frozenset()
        return self.sharing.get(j, {}).get(k, frozenset())

    def reward_counts(self) -> np.ndarray:
        """(M, S) number of rewardable views per user-cell pair."""
        return self.w.sum(axis=2, dtype=np.int64)


@dataclass
class Solution:
    """Association (one cell per user) and sparse fractional allocation."""

    assoc: np.ndarray                    # (M,) int64 cell indices
    alloc: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        self.assoc = np.asarray(self.assoc, dtype=np.int64)

    def alloc_for_user(self, i: int) -> dict[int, float]:
        return {k: y for (u, k), y in self.alloc.items() if u == i}


@dataclass(frozen=True)
class Violation:
    """One violated constraint, with enough indices to locate it."""

    constraint: str
    where: tuple
    detail: str

    def __str__(self):
        return f"{self.constraint}{self.where}: {self.detail}"


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[Violation, ...]

    def __str__(self):
        if self.feasible:
            return "feasible"
        return "infeasible:\n" + "\n".join(f"  {v}" for v in self.violations)


def _ledger(solution: Solution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The allocation as ``(users, views, y)`` arrays in the dict's order."""
    n = len(solution.alloc)
    keys = np.fromiter(
        itertools.chain.from_iterable(solution.alloc), np.int64, 2 * n
    ).reshape(n, 2)
    y = np.fromiter(solution.alloc.values(), np.float64, n)
    return keys[:, 0], keys[:, 1], y


def objective(instance: Instance, solution: Solution) -> float:
    """Total reward: sum of y * w over the associated cells."""
    users, views, y = _ledger(solution)
    if not y.size:
        return 0.0
    terms = y * instance.w[users, solution.assoc[users], views]
    # Adding +0.0 gives what a running total started at +0.0 gives when
    # every term is -0.0.
    return float(np.cumsum(terms)[-1]) + 0.0


def per_user_rewards(instance: Instance, solution: Solution) -> np.ndarray:
    """Reward earned by each user (the objective's natural decomposition)."""
    users, views, y = _ledger(solution)
    rewards = np.zeros(instance.n_users)
    np.add.at(rewards, users, y * instance.w[users, solution.assoc[users], views])
    return rewards


def _sharing_members(
    instance: Instance, users: np.ndarray, cells: np.ndarray, views: np.ndarray
) -> np.ndarray:
    """Whether each entry's user is in the sharing group of its (cell, view)."""
    member = np.zeros(
        (instance.n_users, instance.n_cells, instance.n_views), dtype=bool
    )
    for j, groups in (instance.sharing or {}).items():
        for k, group in groups.items():
            member[np.fromiter(group, np.int64, len(group)), j, k] = True
    return member[users, cells, views]


def rb_usage(instance: Instance, solution: Solution, mode: str = UNICAST) -> np.ndarray:
    """Per-cell RB consumption of a solution.

    Unicast charges the broadcast basic view (max cost over associated users,
    0 for an empty cell) plus the full enhanced cost of every allocation.
    Multicast charges, per view, the max cost over the view's sharing-group
    members plus the sum over non-members. Raises ``ValueError`` unless the
    association holds one in-range cell index per user.
    """
    if mode not in (UNICAST, MULTICAST):
        raise ValueError(f"unknown mode {mode!r}")
    assoc = solution.assoc
    if assoc.shape != (instance.n_users,):
        raise ValueError("one cell index required per user")
    if ((assoc < 0) | (assoc >= instance.n_cells)).any():
        raise ValueError("cell index out of range")
    usage = np.zeros(instance.n_cells)
    # Broadcast: max basic cost over each cell's users; empty cells stay 0.
    basic = instance.rb_basic[np.arange(instance.n_users), assoc]
    np.maximum.at(usage, assoc, basic)

    users, views, y = _ledger(solution)
    cells = assoc[users]
    cost = y * instance.rb_enhanced[users, cells, views]
    if mode == UNICAST:
        np.add.at(usage, cells, cost)
        return usage

    member = _sharing_members(instance, users, cells, views)
    np.add.at(usage, cells[~member], cost[~member])
    # Each (cell, view) group is charged its members' max cost, floored at 0
    # and blind to NaN like a running max() from 0.0, after the non-members
    # and in the order the groups first appear.
    n_views = instance.n_views
    group = cells[member] * n_views + views[member]
    charge = np.zeros(instance.n_cells * n_views)
    np.fmax.at(charge, group, cost[member])
    keys, first = np.unique(group, return_index=True)
    keys = keys[np.argsort(first)]
    np.add.at(usage, keys // n_views, charge[keys])
    return usage


def is_feasible(
    instance: Instance, solution: Solution, mode: str = UNICAST
) -> FeasibilityReport:
    """Check every constraint; returns a verdict plus all violations found.

    Violations come in user order for the association, then in allocation
    order per entry (index, else bounds then mask), then in cell order for
    the budgets, which are checked only when every index is in range.
    """
    violations: list[Violation] = []

    assoc = solution.assoc
    if assoc.shape != (instance.n_users,):
        violations.append(
            Violation("association", (), "one cell index required per user")
        )
        return FeasibilityReport(False, tuple(violations))
    for i in np.flatnonzero((assoc < 0) | (assoc >= instance.n_cells)):
        violations.append(
            Violation("association", (int(i),), f"cell index {assoc[i]} out of range")
        )
    indices_ok = not violations

    users, views, y = _ledger(solution)
    in_range = (
        (users >= 0)
        & (users < instance.n_users)
        & (views >= 0)
        & (views < instance.n_views)
    )
    cells = np.full(y.size, -1, dtype=np.int64)
    cells[in_range] = assoc[users[in_range]]
    served = (cells >= 0) & (cells < instance.n_cells)
    out_of_bounds = (y < -FEAS_TOL) | (y > 1.0 + FEAS_TOL)
    unrewarded = np.zeros(y.size, dtype=bool)
    unrewarded[served] = instance.w[users[served], cells[served], views[served]] == 0
    unrewarded &= y > FEAS_TOL
    flagged = np.flatnonzero(~in_range | out_of_bounds | unrewarded)
    if flagged.size:
        items = list(solution.alloc.items())
        for t in flagged:
            (i, k), value = items[t]
            if not in_range[t]:
                violations.append(Violation("alloc-index", (i, k), "index out of range"))
                indices_ok = False
                continue
            if out_of_bounds[t]:
                violations.append(
                    Violation("alloc-bounds", (i, k), f"y={value} outside [0, 1]")
                )
            if unrewarded[t]:
                violations.append(
                    Violation("alloc-mask", (i, int(cells[t]), k), f"y={value} but w=0")
                )

    if indices_ok:
        usage = rb_usage(instance, solution, mode)
        for j in np.flatnonzero(usage > instance.rb_budget + FEAS_TOL):
            violations.append(
                Violation(
                    "budget",
                    (int(j),),
                    f"usage {usage[j]:.6f} exceeds budget {instance.rb_budget[j]}",
                )
            )

    return FeasibilityReport(not violations, tuple(violations))


def round_discrete(
    instance: Instance, solution: Solution, levels: int, mode: str = UNICAST
) -> Solution:
    """Snap allocations onto the grid {0, 1/F, ..., 1} and repair budgets.

    Each value rounds to the nearest level (halves round up). Cells pushed
    over budget by rounding are repaired by stepping entries back down one
    level at a time, largest enhanced cost first, until feasible.
    """
    if levels < 1:
        raise ValueError("level count must be >= 1")
    rounded = Solution(assoc=solution.assoc.copy())
    for (i, k), y in solution.alloc.items():
        q = np.floor(y * levels + 0.5) / levels
        if q > 0:
            rounded.alloc[(i, k)] = min(1.0, q)

    usage = rb_usage(instance, rounded, mode)
    for j in range(instance.n_cells):
        if usage[j] <= instance.rb_budget[j] + FEAS_TOL:
            continue
        entries = sorted(
            (e for e in rounded.alloc if rounded.assoc[e[0]] == j),
            key=lambda e: (-instance.rb_enhanced[e[0], j, e[1]], e),
        )
        for i, k in entries:
            while (
                rounded.alloc.get((i, k), 0.0) > 0
                and usage[j] > instance.rb_budget[j] + FEAS_TOL
            ):
                rounded.alloc[(i, k)] -= 1.0 / levels
                if rounded.alloc[(i, k)] <= FEAS_TOL:
                    del rounded.alloc[(i, k)]
                usage = rb_usage(instance, rounded, mode)
            if usage[j] <= instance.rb_budget[j] + FEAS_TOL:
                break
    return rounded
