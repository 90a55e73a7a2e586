"""Scoring and reporting: utilization, Jain fairness, cross-solver summaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import Instance, Solution, UNICAST, per_user_rewards, rb_usage
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
    gap: float
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

    Gaps are relative to the branch-and-bound objective when present,
    otherwise to the best objective among the given solvers.
    """
    if not solutions:
        raise ValueError("no solutions to summarize")
    objectives = {name: rep.objective for name, (_, rep) in solutions.items()}
    if "bb" in solutions:
        reference = "bb"
    else:
        reference = max(objectives, key=lambda n: (objectives[n], n))
    ref_obj = objectives[reference]

    summary = RunSummary(reference=reference)
    for name, (sol, rep) in sorted(solutions.items()):
        util = resource_utilization(instance, sol, mode)
        rewards = per_user_rewards(instance, sol)
        gap = rep.objective / ref_obj if ref_obj > 0 else 1.0
        summary.solvers[name] = SolverSummary(
            solver=name,
            gap=gap,
            jain=jain_index(rewards),
            mean_utilization=float(util.mean()),
        )
    return summary
