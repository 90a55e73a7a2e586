"""Scalar reference implementations that the array code must match bit for bit.

Each is a plain loop over the allocation dict or over a sorted candidate
list, adding its terms one at a time in order. They are the oracles for the
allocation ledger in ``tiercast.problem`` and, in ``tiercast.solvers``, for
the unicast cell kernel, the single-user gain lookup and ELVA's pair ranking.
"""

import numpy as np

from tiercast.problem import (
    FEAS_TOL,
    MULTICAST,
    UNICAST,
    FeasibilityReport,
    Violation,
)
from tiercast.solvers import CellAllocation

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
        if i in instance.sharing_group(j, k):
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
        if y < -FEAS_TOL or y > 1.0 + FEAS_TOL:
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


def solve_cell_subproblem(instance, cell, users, budget):
    if budget < 0:
        return CellAllocation(alloc={}, value=0.0, basic_infeasible=True)
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
        y = min(1.0, remaining / cost)
        alloc[(i, int(k))] = y
        value += y
        remaining -= y * cost
    return CellAllocation(alloc=alloc, value=value)


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
