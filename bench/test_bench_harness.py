"""Tests of the benchmark itself, on shrunken workloads that run in well
under a second each: metric names and units, failure counting, span
nesting, and the refusals of ``run.py``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import tiercast.problem  # noqa: E402
import tiercast.solvers  # noqa: E402
from tiercast.problem import UNICAST, Solution, objective, rb_usage  # noqa: E402

LISTED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(harness.WORKLOADS)


def tiny_run(name: str, trace: bool, work_dir: Path) -> harness.Run:
    result = harness.Run(harness.make_workload(name, seed=3, tiny=True), work_dir)
    result.execute(0, trace)
    return result


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in LISTED["workloads"]] == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result = tiny_run(name, False, tmp_path)
    assert result.attempted > 0 and result.failed == 0, result.problems
    assert result.tracer.spans == []
    figures = result.end_to_end()
    for metric in LISTED["end_to_end"]:
        if metric["name"] != "setup_s":  # measured by run.main
            value, unit = figures[metric["name"]]
            assert unit == metric["unit"] and value > 0, metric
    for name_ in ("failed_share", "point_samples", "objective.eva", "point_p50_wall_ms", "probe_p50_ms"):
        assert name_ in figures
    assert len(result.speed.probes) >= 2  # at least one probe at each end of the pass
    if name != "fig10-cli":
        for name_ in ("objective.elva", "objective.sinr", "objective.ref", "ref_certified_share"):
            assert name_ in figures


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    result = tiny_run(name, True, tmp_path)
    assert result.failed == 0, result.problems
    assert [p.traced for p in result.passes] == [False, True]
    figures = result.per_layer()
    for metric in LISTED["per_layer"]:
        assert figures[metric["name"]][1] == metric["unit"], metric
    assert figures["experiments.points"][0] == len(result.passes[1].point_ns)
    assert figures["scenario.instances"][0] > 0 and figures["channel.links"][0] > 0


def test_record_holds_rows_environment_and_layers(tmp_path):
    result = tiny_run("fig4-multicast", True, tmp_path)
    record = json.loads(json.dumps(result.record(seed=3, seconds=0, trace=True, root=ROOT, extra={})))
    assert record["environment"]["numpy"] == np.__version__
    assert len(record["rows"]) == result.attempted // 2 and record["per_layer"]


def test_setup_is_measured_in_fresh_interpreters():
    samples = harness.measure_setup(ROOT / "src", repeats=2)
    assert len(samples) == 2 and all(wall > 0 and adjusted > 0 for wall, adjusted in samples)


def test_adjusted_time_leaves_out_probes_and_scales_by_host_speed():
    speed = hostspeed.HostSpeed()
    ms = 1_000_000
    ref = hostspeed.REFERENCE_MS
    # The host ran at half the reference speed; a 2 ms probe interrupted
    # the first segment, and one far away must not count.
    speed.probes = [(5 * ms, int(2 * ref * ms)), (10_000 * ms, int(10 * ref * ms))]
    speed._pause_starts = [4 * ms]
    speed._pause_total = [0, 2 * ms]
    adjusted = speed.adjusted_ms([(0, 20 * ms), (30 * ms, 40 * ms)])
    assert adjusted == pytest.approx((20 - 2 + 10) / 2)
    # A stretch with no probe within the window takes the nearest one's.
    assert speed.probe_ms_around([(9_000 * ms, 9_001 * ms)]) == pytest.approx(10 * ref)


def test_sampling_probes_while_the_program_runs():
    speed = hostspeed.HostSpeed(period_s=0.01)
    with speed.sampling():
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(speed.probes) >= 5 and len(speed._pause_starts) == len(speed.probes)
    assert speed.paused_ns(0, time.perf_counter_ns()) == speed._pause_total[-1] > 0


def _overfill(instance, solution):
    """Every rewardable view of every user at y=1: far past any budget."""
    alloc = {
        (i, int(k)): 1.0
        for i in range(instance.n_users)
        for k in np.flatnonzero(instance.w[i, solution.assoc[i]])
    }
    return Solution(assoc=solution.assoc, alloc=alloc)


@pytest.mark.parametrize("name", WORKLOADS)
def test_over_budget_solution_counts_as_failed(name, tmp_path, monkeypatch):
    real_eva = tiercast.solvers.solve_eva

    def over_budget_eva(instance, p=1.0, mode=UNICAST):
        solution, report = real_eva(instance, p=p, mode=mode)
        bad = _overfill(instance, solution)
        assert (rb_usage(instance, bad, mode) > instance.rb_budget).any()
        report.objective = objective(instance, bad)
        return bad, report

    monkeypatch.setattr(tiercast.solvers, "solve_eva", over_budget_eva)
    result = tiny_run(name, False, tmp_path)
    eva_rows = [row for row in result.rows if row["solver"] == "eva"]
    assert eva_rows and result.failed == len(eva_rows)
    assert result.end_to_end()["failed_share"][0] == len(eva_rows) / result.attempted


def test_objective_mismatch_counts_as_failed(tmp_path, monkeypatch):
    real_sinr = tiercast.solvers.solve_sinr

    def misreporting_sinr(instance, mode=UNICAST):
        solution, report = real_sinr(instance, mode=mode)
        report.objective += 1.0
        return solution, report

    monkeypatch.setattr(tiercast.solvers, "solve_sinr", misreporting_sinr)
    result = tiny_run("fig7-exact", False, tmp_path)
    assert result.failed == 1 and "reported" in result.problems[0]


@pytest.mark.parametrize("name", ["fig10-elva", "fig10-cli"])
def test_spans_nest(name, tmp_path):
    original = tiercast.problem.rb_usage
    result = tiny_run(name, True, tmp_path)
    assert tiercast.problem.rb_usage is original
    recorded = result.tracer.spans
    parents = {}
    for span_name, parent, start, end in recorded:
        assert start <= end
        if parent is None:
            assert span_name in (spans.RUN_SWEEP, *spans.CLI_SPANS)
            continue
        p_name, _, p_start, p_end = recorded[parent]
        assert p_start <= start and end <= p_end
        parents.setdefault(span_name, set()).add(p_name)
    assert parents["channel.rb_tables"] == {"scenario.build_instance"}
    assert parents["scenario.build_instance"] == {"experiments.build_experiment_instance"}
    table = result.tracer.self_times()
    assert all(ns >= 0 for ns, _ in table.values())
    roots = sum(end - start for _, parent, start, end in recorded if parent is None)
    assert sum(ns for ns, _ in table.values()) == roots


def test_seed_order_only_permutes_points():
    a, b = harness.make_workload("fig4-multicast", 1), harness.make_workload("fig4-multicast", 2)
    assert a.config == harness.make_workload("fig4-multicast", 1).config
    assert a.config.seeds != b.config.seeds
    assert sorted(a.config.seeds) == sorted(b.config.seeds) == list(range(harness.FIG4_SEEDS))
    assert sorted(a.config.sweep_values) == sorted(b.config.sweep_values)


ARGS = ["--workload", "fig7-exact", "--seed", "0", "--seconds", "1", "--trace", "0"]


def test_refuses_when_seed_variable_is_set(monkeypatch, capsys):
    monkeypatch.setenv(run.SEED_ENV_VAR, "7")
    assert run.main(ARGS) == run.EXIT_REFUSED
    captured = capsys.readouterr()
    assert "TIERCAST_SEED" in captured.err and captured.out == ""


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "records"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *ARGS], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "no tiercast source tree" in proc.stderr
