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

Multicast sharing is one ``(n_users, n_views)`` 0/1 mask: ``sharing[i, k]``
is 1 when user i joins view k's multicast at whichever cell serves it, so a
cell's group for view k is its served users with that bit set. ``rb_usage``
has one path for both modes: unicast is the case in which no entry is a
group member.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance on the fractional part of RB sums; integer terms exact.
FEAS_TOL = 1e-9

UNICAST = "unicast"
MULTICAST = "multicast"


# Each array field of an instance: its dtype and its shape in the counts.
INSTANCE_ARRAYS = (
    ("w", np.int8, ("n_users", "n_cells", "n_views")),
    ("rb_budget", np.int64, ("n_cells",)),
    ("rb_basic", np.int64, ("n_users", "n_cells")),
    ("rb_enhanced", np.int64, ("n_users", "n_cells", "n_views")),
    ("sharing", np.int8, ("n_users", "n_views")),
)


@dataclass
class Instance:
    """Inputs of the joint association/allocation problem. Raises
    ``ValueError`` on no cell, on an array of the wrong shape, or with an
    entry that its dtype cannot hold exactly (257 in int8, 1.7 in int64) or
    out of range."""

    n_users: int
    n_cells: int
    n_views: int
    w: np.ndarray            # (M, S, E) int8 in {0, 1}
    rb_budget: np.ndarray    # (S,) int64, > 0
    rb_basic: np.ndarray     # (M, S) int64, >= 1
    rb_enhanced: np.ndarray  # (M, S, E) int64, >= 1
    sharing: np.ndarray | None = None  # (M, E) int8 in {0, 1}; None: all 0

    def __post_init__(self):
        if self.sharing is None:
            self.sharing = np.zeros((self.n_users, self.n_views), dtype=np.int8)
        for name, dtype, dims in INSTANCE_ARRAYS:
            given = np.asarray(getattr(self, name))
            shape = tuple(getattr(self, d) for d in dims)
            if given.shape != shape:
                raise ValueError(f"{name} shape {given.shape} != {shape}")
            # An array of the field's dtype is taken as it is. Any other is
            # compared as given, so that no cast turns a bad entry into a
            # valid one before the range checks.
            if given.dtype != dtype:
                with np.errstate(invalid="ignore"):
                    try:
                        stored = given.astype(dtype)
                    except OverflowError:  # a Python int beyond int64
                        stored = None
                    if stored is None or not (stored == given).all():
                        raise ValueError(f"{name} entries must be {dtype.__name__} integers")
                given = stored
            setattr(self, name, given)
        for name in ("w", "sharing"):
            mask = getattr(self, name)
            if mask.min(initial=0) < 0 or mask.max(initial=0) > 1:
                raise ValueError(f"{name} entries must be 0/1")
        if (self.rb_basic < 1).any() or (self.rb_enhanced < 1).any():
            raise ValueError("RB costs must be >= 1")
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be >= 1, got {self.n_cells}")
        if (self.rb_budget <= 0).any():
            raise ValueError("budgets must be positive")

    def reward_counts(self) -> np.ndarray:
        """(M, S) number of rewardable views per user-cell pair."""
        return np.einsum("ijk->ij", self.w, dtype=np.int64)


@dataclass
class Solution:
    """Association (one cell per user) and sparse fractional allocation."""

    assoc: np.ndarray                    # (M,) int64 cell indices
    alloc: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        self.assoc = np.asarray(self.assoc, dtype=np.int64)


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
    usage: np.ndarray | None = field(default=None, compare=False)  # per cell

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


def broadcast_cost(instance: Instance, assoc: np.ndarray) -> np.ndarray:
    """(S,) int64 broadcast charge per cell: the max basic cost over the
    cell's users under ``assoc``, 0 for an empty cell."""
    charge = np.zeros(instance.n_cells, dtype=np.int64)
    basic = instance.rb_basic[np.arange(instance.n_users), assoc]
    np.maximum.at(charge, assoc, basic)
    return charge


def rb_usage(instance: Instance, solution: Solution, mode: str = UNICAST) -> np.ndarray:
    """Per-cell RB consumption of a solution.

    Every cell pays its broadcast basic view (``broadcast_cost``) plus, per
    view, the max cost over the view's sharing-group members plus the sum
    over non-members. Only multicast has members, so unicast pays the full
    enhanced cost of every allocation. Raises ``ValueError`` unless the
    association holds one in-range cell index per user.
    """
    if mode not in (UNICAST, MULTICAST):
        raise ValueError(f"unknown mode {mode!r}")
    assoc = solution.assoc
    if assoc.shape != (instance.n_users,):
        raise ValueError("one cell index required per user")
    if ((assoc < 0) | (assoc >= instance.n_cells)).any():
        raise ValueError("cell index out of range")
    usage = broadcast_cost(instance, assoc).astype(float)

    users, views, y = _ledger(solution)
    cells = assoc[users]
    cost = y * instance.rb_enhanced[users, cells, views]
    member = (mode == MULTICAST) & (instance.sharing[users, views] == 1)
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
    the budgets, which are checked only when every index is in range. The
    report's ``usage`` is ``rb_usage``'s per-cell array, and ``None`` exactly
    when an ``association`` or ``alloc-index`` violation was reported.
    """
    if mode not in (UNICAST, MULTICAST):
        raise ValueError(f"unknown mode {mode!r}")
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
    # Written as a negated range test so that NaN is out of bounds.
    out_of_bounds = ~((y >= -FEAS_TOL) & (y <= 1.0 + FEAS_TOL))
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

    usage = rb_usage(instance, solution, mode) if indices_ok else None
    if indices_ok:
        for j in np.flatnonzero(usage > instance.rb_budget + FEAS_TOL):
            violations.append(
                Violation(
                    "budget",
                    (int(j),),
                    f"usage {usage[j]:.6f} exceeds budget {instance.rb_budget[j]}",
                )
            )

    return FeasibilityReport(not violations, tuple(violations), usage)
