"""Utilization, Jain fairness, and cross-solver summaries."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiercast.experiments import preset_config, run_sweep
from tiercast.metrics import jain_index, summarize
from tiercast.problem import MULTICAST, UNICAST, Instance, Solution, is_feasible, objective
from tiercast.solvers import SolverReport, solve_bb, solve_elva, solve_eva, solve_sinr

from conftest import AFFORDABLE, fig1_instance, instances


def _mean_utilization(inst, sol):
    return summarize(inst, {"x": _report("x", inst, sol)}).solvers["x"].mean_utilization


def test_summarize_utilization_of_an_empty_allocation_is_the_broadcast_share():
    inst = fig1_instance()  # budget 1000 per cell
    # Each cell pays its users' largest basic cost: 2 and 2.
    sol = Solution(assoc=np.array([0, 0, 1]))
    assert _mean_utilization(inst, sol) == pytest.approx((2 / 1000 + 2 / 1000) / 2)
    # An empty cell pays nothing; cell 1 pays 4.
    sol_none = Solution(assoc=np.array([1, 1, 1]))
    assert _mean_utilization(inst, sol_none) == pytest.approx((0 + 4 / 1000) / 2)


def test_summarize_utilization_of_an_exhausted_cell_reaches_one():
    inst = fig1_instance(ample_budget=False)  # budget 24 per cell
    # Cell 0 pays 2 + 10 + 10 + 0.2 * 10 = 24; cell 1 pays user 2's 2.
    sol = Solution(assoc=np.array([0, 0, 1]), alloc={(0, 0): 1.0, (0, 2): 1.0, (1, 0): 0.2})
    assert _mean_utilization(inst, sol) == pytest.approx((1.0 + 2 / 24) / 2, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(instances(slack=AFFORDABLE))
def test_summarize_utilization_of_a_feasible_elva_result_is_at_most_one(inst):
    row = summarize(inst, {"elva": solve_elva(inst)}).solvers["elva"]
    assert row.feasible
    assert 0.0 < row.mean_utilization <= 1 + 1e-9


def test_jain_values():
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert jain_index([3.0, 0.0, 0.0]) == pytest.approx(1 / 3)
    assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(6 / 7)
    assert jain_index([0.0, 0.0]) is None
    with pytest.raises(ValueError):
        jain_index([-1.0, 2.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=12))
def test_jain_scale_invariance(r):
    assert jain_index(r) == pytest.approx(jain_index(3.7 * np.array(r)))


@settings(max_examples=20, deadline=None)
@given(instances(slack=AFFORDABLE))
def test_summarize_single_solver_gap_is_one(inst):
    sol, rep = solve_sinr(inst)
    summary = summarize(inst, {"sinr": (sol, rep)})
    assert summary.solvers["sinr"].gap == pytest.approx(1.0)
    assert summary.reference == "sinr"


@settings(max_examples=20, deadline=None)
@given(instances(slack=AFFORDABLE))
def test_summarize_bb_reference_dominates(inst):
    results = {
        "bb": solve_bb(inst),
        "elva": solve_elva(inst),
        "sinr": solve_sinr(inst),
    }
    summary = summarize(inst, results)
    assert summary.solvers["bb"].gap == pytest.approx(1.0)
    for name in ("elva", "sinr"):
        assert summary.solvers[name].gap <= 1.0 + 1e-9


@pytest.mark.parametrize("mode", [UNICAST, MULTICAST])
@settings(max_examples=40, deadline=None)
@given(instances(), st.integers(0, 50))
# Stopped at 0 nodes, bb keeps the user at cell 0, whose budget its
# broadcast spends, and scores 0; ELVA takes cell 1 and one view.
@example(
    inst=Instance(n_users=1, n_cells=2, n_views=1, w=[[[1], [1]]], rb_budget=[1, 2],
                  rb_basic=[[1, 1]], rb_enhanced=[[[1], [1]]]),
    node_budget=0,
)
def test_summarize_reference_is_the_best_feasible_result(mode, inst, node_budget):
    # bb at a node budget of 0-50 may stop below a heuristic, and any result
    # may be over budget; the reference is still the largest feasible
    # objective, or none, and no gap exceeds 1.
    results = {
        "bb": solve_bb(inst, node_budget=node_budget, mode=mode),
        "elva": solve_elva(inst, mode=mode),
        "eva": solve_eva(inst, mode=mode),
        "sinr": solve_sinr(inst, mode=mode),
    }
    summary = summarize(inst, results, mode)
    feasible = {
        name: rep.objective
        for name, (sol, rep) in results.items()
        if is_feasible(inst, sol, mode).feasible
    }
    assert feasible.get(summary.reference) == max(feasible.values(), default=None)
    for name, row in summary.solvers.items():
        assert (row.gap is None) == (name not in feasible)
        assert row.gap is None or 0.0 <= row.gap <= 1.0


def test_sweep_gap_is_not_taken_against_a_stopped_bb():
    # fig3 n_views=5, seed 0: bb stops at 2,000 nodes at 71.394, below
    # ELVA's 76.803, so ELVA is the reference.
    config = dataclasses.replace(
        preset_config("fig3"), sweep_values=[5], seeds=[0], node_budget=2000
    )
    rows = {row["solver"]: row for row in run_sweep(config)}
    assert rows["bb"]["objective"] < rows["elva"]["objective"]
    assert rows["elva"]["gap"] == 1.0
    assert all(0.0 <= row["gap"] <= 1.0 for row in rows.values())


@settings(max_examples=20, deadline=None)
@given(instances(slack=AFFORDABLE))
def test_summarize_gap_ordering_matches_objectives(inst):
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


def test_summarize_refuses_no_results():
    with pytest.raises(ValueError, match="no solutions to summarize"):
        summarize(fig1_instance(), {})


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
        assert row["gap"] is None
