"""Canonical optimization instance, solutions, feasibility, and RB accounting.

An instance couples a binary reward tensor ``w`` (user i wants view k AND cell
j caches it), per-cell RB budgets, and integer RB cost tables for the basic
broadcast and each enhanced view. A solution is a per-user cell association
plus a sparse fractional allocation ``(user, view) -> y`` on the chosen cell.
"""

from __future__ import annotations

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


def objective(instance: Instance, solution: Solution) -> float:
    """Total reward: sum of y * w over the associated cells."""
    total = 0.0
    for (i, k), y in solution.alloc.items():
        total += y * instance.w[i, solution.assoc[i], k]
    return total


def per_user_rewards(instance: Instance, solution: Solution) -> np.ndarray:
    """Reward earned by each user (the objective's natural decomposition)."""
    rewards = np.zeros(instance.n_users)
    for (i, k), y in solution.alloc.items():
        rewards[i] += y * instance.w[i, solution.assoc[i], k]
    return rewards


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

    if mode == UNICAST:
        for (i, k), y in solution.alloc.items():
            usage[solution.assoc[i]] += y * instance.rb_enhanced[i, solution.assoc[i], k]
        return usage

    group_max: dict[tuple[int, int], float] = {}
    for (i, k), y in solution.alloc.items():
        j = solution.assoc[i]
        cost = y * instance.rb_enhanced[i, j, k]
        if i in instance.sharing_group(j, k):
            key = (j, k)
            group_max[key] = max(group_max.get(key, 0.0), cost)
        else:
            usage[j] += cost
    for (j, _k), cost in group_max.items():
        usage[j] += cost
    return usage


def is_feasible(
    instance: Instance, solution: Solution, mode: str = UNICAST
) -> FeasibilityReport:
    """Check every constraint; returns a verdict plus all violations found."""
    violations: list[Violation] = []

    if solution.assoc.shape != (instance.n_users,):
        violations.append(
            Violation("association", (), "one cell index required per user")
        )
        return FeasibilityReport(False, tuple(violations))
    for i, j in enumerate(solution.assoc):
        if not 0 <= j < instance.n_cells:
            violations.append(
                Violation("association", (i,), f"cell index {j} out of range")
            )

    indices_ok = not violations
    for (i, k), y in solution.alloc.items():
        if not (0 <= i < instance.n_users and 0 <= k < instance.n_views):
            violations.append(Violation("alloc-index", (i, k), "index out of range"))
            indices_ok = False
            continue
        j = solution.assoc[i]
        if y < -FEAS_TOL or y > 1.0 + FEAS_TOL:
            violations.append(
                Violation("alloc-bounds", (i, k), f"y={y} outside [0, 1]")
            )
        if y > FEAS_TOL and instance.w[i, j, k] == 0:
            violations.append(
                Violation("alloc-mask", (i, int(j), k), f"y={y} but w=0")
            )

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
