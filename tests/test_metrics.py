"""Utilization, Jain fairness, and cross-solver summaries."""

import dataclasses

import numpy as np
import pytest

from tiercast.experiments import preset_config, run_sweep
from tiercast.metrics import jain_index, resource_utilization, summarize
from tiercast.problem import Solution, is_feasible, objective
from tiercast.solvers import SolverReport, solve_bb, solve_elva, solve_sinr

from conftest import fig1_instance, random_tiny_instance


def test_utilization_empty_solution_is_zero():
    inst = fig1_instance()
    sol = Solution(assoc=np.array([0, 0, 1]))
    util = resource_utilization(inst, sol)
    assert util[0] == pytest.approx(2 / 1000)
    sol_none = Solution(assoc=np.array([1, 1, 1]))
    assert resource_utilization(inst, sol_none)[0] == 0.0


def test_utilization_exhausted_cell_reaches_one():
    inst = fig1_instance(ample_budget=False)  # budget 24
    sol = Solution(assoc=np.array([0, 0, 1]), alloc={(0, 0): 1.0, (0, 2): 1.0, (1, 0): 0.2})
    util = resource_utilization(inst, sol)
    assert util[0] == pytest.approx(1.0, abs=1e-9)


def test_utilization_never_exceeds_one_for_feasible(rng):
    for _ in range(50):
        inst = random_tiny_instance(rng)
        sol, _ = solve_elva(inst)
        assert is_feasible(inst, sol).feasible
        assert (resource_utilization(inst, sol) <= 1 + 1e-9).all()


def test_jain_values():
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert jain_index([3.0, 0.0, 0.0]) == pytest.approx(1 / 3)
    assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(6 / 7)
    assert jain_index([0.0, 0.0]) is None
    with pytest.raises(ValueError):
        jain_index([-1.0, 2.0])


def test_jain_scale_invariance(rng):
    r = rng.uniform(0.1, 5.0, size=12)
    assert jain_index(r) == pytest.approx(jain_index(3.7 * r))


def test_summarize_single_solver_gap_is_one(rng):
    inst = random_tiny_instance(rng)
    sol, rep = solve_sinr(inst)
    summary = summarize(inst, {"sinr": (sol, rep)})
    assert summary.solvers["sinr"].gap == pytest.approx(1.0)
    assert summary.reference == "sinr"


def test_summarize_bb_reference_dominates(rng):
    for _ in range(20):
        inst = random_tiny_instance(rng)
        results = {
            "bb": solve_bb(inst),
            "elva": solve_elva(inst),
            "sinr": solve_sinr(inst),
        }
        summary = summarize(inst, results)
        assert summary.reference == "bb"
        assert summary.solvers["bb"].gap == pytest.approx(1.0)
        for name in ("elva", "sinr"):
            assert summary.solvers[name].gap <= 1.0 + 1e-9


def test_summarize_gap_ordering_matches_objectives(rng):
    inst = random_tiny_instance(rng)
    results = {"elva": solve_elva(inst), "sinr": solve_sinr(inst)}
    summary = summarize(inst, results)
    objs = {n: r.objective for n, (_, r) in results.items()}
    gaps = {n: summary.solvers[n].gap for n in results}
    assert (objs["elva"] >= objs["sinr"]) == (gaps["elva"] >= gaps["sinr"])


def _report(name, inst, sol):
    return sol, SolverReport(name, objective(inst, sol), 0.0)


def test_summarize_never_takes_an_over_budget_reference():
    inst = fig1_instance(ample_budget=False)  # budget 24 per cell
    # Cell 0 pays 2 RBs of broadcast plus three 10-RB views: 32 > 24.
    over = Solution(assoc=np.array([0, 0, 1]), alloc={(0, 0): 1.0, (0, 2): 1.0, (1, 0): 1.0})
    within = Solution(assoc=np.array([0, 0, 1]), alloc={(0, 0): 1.0, (0, 2): 1.0})
    assert not is_feasible(inst, over).feasible and is_feasible(inst, within).feasible
    results = {"bb": _report("bb", inst, over), "sinr": _report("sinr", inst, within)}
    summary = summarize(inst, results)
    assert summary.reference == "sinr"
    assert summary.solvers["bb"].gap is None
    assert summary.solvers["sinr"].gap == 1.0
    assert summary.solvers["bb"].mean_utilization == pytest.approx((32 / 24 + 2 / 24) / 2)
    summary = summarize(inst, {"bb": results["bb"]})
    assert summary.reference == ""
    assert summary.solvers["bb"].gap is None


def test_summarize_never_takes_a_mask_violating_reference():
    inst = fig1_instance()  # ample budget
    # Within budget, but user 0 holds view 1, which cell 0 does not cache.
    masked = Solution(
        assoc=np.array([0, 0, 1]),
        alloc={(0, 0): 1.0, (0, 2): 1.0, (1, 0): 1.0, (2, 2): 1.0, (0, 1): 1.0},
    )
    clean = Solution(assoc=np.array([0, 0, 1]), alloc={(0, 0): 1.0, (0, 2): 1.0})
    verdict = is_feasible(inst, masked)
    assert [v.constraint for v in verdict.violations] == ["alloc-mask"]
    results = {"bb": _report("bb", inst, masked), "sinr": _report("sinr", inst, clean)}
    assert results["bb"][1].objective > results["sinr"][1].objective
    summary = summarize(inst, results)
    assert summary.reference == "sinr"
    assert summary.solvers["bb"].gap is None
    assert summary.solvers["bb"].feasible is False
    assert summary.solvers["sinr"].gap == 1.0
    assert summary.solvers["sinr"].feasible is True


def test_summarize_refuses_an_out_of_range_index():
    inst = fig1_instance()
    results = {"sinr": _report("sinr", inst, Solution(assoc=np.array([0, 0, 2])))}
    with pytest.raises(ValueError, match="out of range"):
        summarize(inst, results)


def test_sweep_gives_over_budget_rows_no_gap():
    # fig6 at two cells, seed 0: three users can afford neither cell, so
    # every solver's result is over budget.
    config = dataclasses.replace(
        preset_config("fig6"), sweep_values=[2], seeds=[0], solvers=["elva", "eva", "sinr"]
    )
    rows = list(run_sweep(config))
    assert [r["solver"] for r in rows] == ["elva", "eva", "sinr"]
    for row in rows:
        assert row["status"] == "ok" and row["feasible"] is False
        assert row["gap"] == ""
