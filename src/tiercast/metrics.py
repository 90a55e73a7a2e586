"""Scoring and reporting: utilization, Jain fairness, cross-solver summaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import FEAS_TOL, Instance, Solution, UNICAST, per_user_rewards, rb_usage
from .solvers import SolverReport


def resource_utilization(
    instance: Instance, solution: Solution, mode: str = UNICAST
) -> np.ndarray:
    """Fraction of each cell's RB budget consumed by the solution."""
    return rb_usage(instance, solution, mode) / instance.rb_budget


def jain_index(rewards) -> float | None:
    """Jain's fairness index (sum r)^2 / (n * sum r^2); None when all zero."""
    r = np.asarray(rewards, dtype=float)
    if (r < 0).any():
        raise ValueError("rewards must be nonnegative")
    denom = (r**2).sum()
    if denom == 0:
        return None
    return float(r.sum() ** 2 / (r.size * denom))


@dataclass
class SolverSummary:
    solver: str
    gap: float | None  # None for an over-budget result
    jain: float | None
    mean_utilization: float


@dataclass
class RunSummary:
    """Cross-solver scorecard for one instance."""

    solvers: dict[str, SolverSummary] = field(default_factory=dict)
    reference: str = ""


def summarize(
    instance: Instance,
    solutions: dict[str, tuple[Solution, SolverReport]],
    mode: str = UNICAST,
) -> RunSummary:
    """Aggregate objectives, utilizations, fairness, and gaps per solver.

    A result is over budget when its RB usage tops some cell budget by more
    than ``FEAS_TOL``, as in ``is_feasible``. Such a result is never the
    reference and has no gap. Gaps are relative to the branch-and-bound
    objective when bb is present and within budget, otherwise to the best
    objective within budget; with no result within budget the reference is
    empty.
    """
    if not solutions:
        raise ValueError("no solutions to summarize")
    usage = {name: rb_usage(instance, sol, mode) for name, (sol, _) in solutions.items()}
    within = {
        name: rep.objective
        for name, (_, rep) in solutions.items()
        if not (usage[name] > instance.rb_budget + FEAS_TOL).any()
    }
    best = max(within, key=lambda n: (within[n], n), default="")
    reference = "bb" if "bb" in within else best
    ref_obj = within.get(reference, 0.0)

    summary = RunSummary(reference=reference)
    for name, (sol, rep) in sorted(solutions.items()):
        gap = None
        if name in within:
            gap = rep.objective / ref_obj if ref_obj > 0 else 1.0
        summary.solvers[name] = SolverSummary(
            solver=name,
            gap=gap,
            jain=jain_index(per_user_rewards(instance, sol)),
            mean_utilization=float((usage[name] / instance.rb_budget).mean()),
        )
    return summary
