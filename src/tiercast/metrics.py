"""Scoring and reporting: utilization, Jain fairness, cross-solver summaries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import Instance, Solution, UNICAST, is_feasible, per_user_rewards
from .problem import rb_usage  # noqa: F401 (bench/spans.py wraps it here by name)
from .solvers import SolverReport


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
    gap: float | None  # None for an infeasible result
    jain: float | None
    mean_utilization: float
    feasible: bool


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

    Each result's verdict comes from one ``is_feasible`` call. An infeasible
    result is never the reference and has no gap. Gaps are relative to the
    best feasible objective of the run, ties going to the later solver name;
    with no feasible result the reference is empty. That is not a certified
    gap: the reference may itself be below the optimum (ROADMAP step 1a
    divides by a proven bound here instead). Raises ``ValueError`` on a
    result with an index out of range.
    """
    if not solutions:
        raise ValueError("no solutions to summarize")
    verdicts = {}
    for name, (sol, _) in solutions.items():
        verdicts[name] = verdict = is_feasible(instance, sol, mode)
        if verdict.usage is None:
            raise ValueError(f"{name} has an index out of range: {verdict}")
    feasible = {n: solutions[n][1].objective for n, v in verdicts.items() if v.feasible}
    reference = max(feasible, key=lambda n: (feasible[n], n), default="")
    ref_obj = feasible.get(reference, 0.0)

    summary = RunSummary(reference=reference)
    for name, (sol, rep) in sorted(solutions.items()):
        gap = None
        if name in feasible:
            gap = rep.objective / ref_obj if ref_obj > 0 else 1.0
        summary.solvers[name] = SolverSummary(
            solver=name,
            gap=gap,
            jain=jain_index(per_user_rewards(instance, sol)),
            mean_utilization=float((verdicts[name].usage / instance.rb_budget).mean()),
            feasible=verdicts[name].feasible,
        )
    return summary
