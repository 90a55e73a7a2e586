"""Workloads, output checks and metrics of the tiercast benchmark.

A workload is a fixed set of points. On the sweep workloads a point is one
(sweep value, seed, mode) of ``experiments.run_sweep``: the instance is
generated (charged to the first mode of its seed), every listed solver runs,
every solution goes through ``is_feasible`` and the point through
``summarize``. On ``fig10-cli`` a point is one seed's ``generate``, ``solve
--solver eva`` and ``verify`` through ``cli.main``, in process.

A run repeats whole passes over the points until the next pass would end
after ``seconds``; it makes at least one pass, and a traced run makes at
least one untraced and one traced pass, alternating. The benchmark's
``--seed`` only shuffles the order of the points: the instances are the
fixed seeds the figures use, so objectives and counts repeat exactly and
can be compared across commits.

Every row of every pass is checked: status ``ok``, ``is_feasible`` re-run
in its mode, the recomputed ``objective`` equal to the solver's report, and
the objective equal to the first pass's. Rows that fail any check are
counted, never dropped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import tiercast
import tiercast.cli
import tiercast.experiments
from tiercast.experiments import ExperimentConfig, preset_config
from tiercast.problem import UNICAST, is_feasible, objective
from tiercast.serialize import load_instance, load_solution

import spans
from hostspeed import HostSpeed
from spans import RUN_SWEEP, Tracer

# Why each workload exists, and which layers it stresses.
WORKLOADS = {
    "fig10-elva": "large scale (500/100/20, seeds 0-2): ELVA's tie-break and rescoring, then instance build",
    "fig4-multicast": "thousands of small unicast and multicast points spread over every in-memory layer",
    "fig7-exact": "fig7's 10-user point: the branch-and-bound reference at its default node budget",
    "fig10-cli": "fig10 seeds 0-2 through the CLI: JSON save and load of 8 MB instances dominate",
}

# Seed count of fig4-multicast: 5 view counts x 20 seeds x 2 modes is 200
# points, about 4 s a pass on a 2-core machine, so p90 rests on 200 samples.
FIG4_SEEDS = 20

# Shrunken sizes for the benchmark's own tests; same code paths.
TINY = {
    "fig10-elva": dict(n_users=20, n_cells=5, n_views=4),
    "fig4-multicast": dict(seeds=[0, 1], sweep_values=[1, 2]),
    "fig7-exact": dict(sweep_values=[5], n_cells=4, node_budget=2000),
    "fig10-cli": dict(n_users=20, n_cells=5, n_views=4),
}

OBJECTIVE_RTOL = 1e-9
MAX_PROBLEMS = 20


@dataclass
class Workload:
    name: str
    config: ExperimentConfig
    cli: bool = False


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's fixed points, in an order drawn from ``seed``."""
    if name == "fig10-elva" or name == "fig10-cli":
        config = preset_config("fig10")
    elif name == "fig4-multicast":
        config = dataclasses.replace(preset_config("fig4"), seeds=list(range(FIG4_SEEDS)))
    elif name == "fig7-exact":
        config = dataclasses.replace(preset_config("fig7"), sweep_values=[10], seeds=[0])
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if tiny:
        config = dataclasses.replace(config, **TINY[name])
    rng = random.Random(seed)
    seeds = rng.sample(config.seeds, len(config.seeds))
    values = rng.sample(config.sweep_values, len(config.sweep_values))
    config = dataclasses.replace(config, master_seed=0, seeds=seeds, sweep_values=values)
    return Workload(name=name, config=config, cli=name == "fig10-cli")


@dataclass
class Pass:
    traced: bool
    point_ns: dict = field(default_factory=dict)  # point key -> program time
    segments: dict = field(default_factory=dict)  # point key -> [(start ns, end ns), ...] in the program
    wall_ns: int = 0

    def add(self, key, start: int, end: int) -> None:
        self.point_ns[key] = self.point_ns.get(key, 0) + end - start
        self.segments.setdefault(key, []).append((start, end))

    @property
    def program_ns(self) -> int:
        return sum(self.point_ns.values())


class Run:
    """One run of a workload: its passes, checks and per-row records."""

    def __init__(self, workload: Workload, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.tracer = Tracer()
        self.speed: HostSpeed | None = None  # probes of an untraced run
        self.passes: list[Pass] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rows: list[dict] = []  # the first pass, in order
        self._first_objective: dict[tuple, float] = {}
        self._instance = None
        self._results: dict[tuple, tuple] = {}
        self._summaries: dict[str, object] = {}
        self._verified: dict[str, tuple] = {}  # CLI files' digest -> verdict, objective

    # -- collecting what the program returned --------------------------

    def observe(self, attr, args, result):
        if attr == "build_experiment_instance":
            self._instance = result[0]
            self._results = {}
            self._summaries = {}
        elif attr == "run_solver":
            self._results[(args[0], args[3])] = result
        elif attr == "summarize":
            self._summaries[args[2]] = result

    # -- passes ---------------------------------------------------------

    def execute(self, seconds: float, trace: bool) -> None:
        start = time.perf_counter()
        if not trace:
            self.speed = HostSpeed()
        sampling = self.speed.sampling() if self.speed else contextlib.nullcontext()
        with spans.instrumented(self.tracer, self.observe), sampling:
            while True:
                traced = trace and len(self.passes) % 2 == 1
                t0 = time.perf_counter()
                ok = self._pass(traced)
                last = time.perf_counter() - t0
                enough = len(self.passes) >= (2 if trace else 1)
                if not ok or (enough and time.perf_counter() - start + last > seconds):
                    break

    def _pass(self, traced: bool) -> bool:
        current = Pass(traced=traced)
        self.passes.append(current)
        self.tracer.enabled = traced
        if self.speed:
            self.speed.sample()  # every pass has probes at both ends
        wall = perf_counter_ns()
        try:
            if self.workload.cli:
                self._cli_pass(current)
            else:
                self._sweep_pass(current)
            return True
        except Exception:  # a program bug escaping the sweep fails the run
            self.attempted += 1
            self._fail("pass", [traceback.format_exc(limit=4)])
            return False
        finally:
            self.tracer.enabled = False
            current.wall_ns = perf_counter_ns() - wall
            if self.speed:
                self.speed.sample()
            if traced:
                self.tracer.counters["experiments.points"] += len(current.point_ns)

    def _sweep_pass(self, current: Pass) -> None:
        tracer = self.tracer
        rows = tiercast.experiments.run_sweep(self.workload.config)
        key = None
        while True:
            t0 = perf_counter_ns()
            index = tracer.open(RUN_SWEEP) if current.traced else None
            try:
                row = next(rows, None)
            finally:
                if index is not None:
                    tracer.close(index)
            t1 = perf_counter_ns()
            if row is None:
                if key is not None:
                    current.add(key, t0, t1)
                return
            key = (row["sweep_value"], row["seed"], row["mode"])
            current.add(key, t0, t1)
            with tracer.paused():
                self._check_sweep_row(row, first_pass=len(self.passes) == 1)

    def _cli_pass(self, current: Pass) -> None:
        config = self.workload.config
        for seed in config.seeds:
            instance_path = self.work_dir / f"instance-{seed}.json"
            solution_path = self.work_dir / f"solution-{seed}.json"
            steps = (
                ("generate", [
                    "generate", "--preset", "fig10",
                    "--n-users", str(config.n_users), "--n-cells", str(config.n_cells),
                    "--n-views", str(config.n_views), "--master-seed", str(config.master_seed),
                    "--seed", str(seed), "--out", str(instance_path),
                ]),
                ("solve", ["solve", str(instance_path), "--solver", "eva",
                           "--solution-out", str(solution_path)]),
                ("verify", ["verify", str(instance_path), str(solution_path)]),
            )
            outputs = {}
            t0 = perf_counter_ns()
            for step, argv in steps:
                outputs[step] = self._cli_call(step, argv, current.traced)
                if outputs[step][0] != 0:
                    break
            current.add((None, seed, UNICAST), t0, perf_counter_ns())
            with self.tracer.paused():
                self._check_cli_point(seed, outputs, instance_path, solution_path,
                                      first_pass=len(self.passes) == 1)

    def _cli_call(self, step: str, argv: list[str], traced: bool):
        """(exit code or None if it raised, captured stdout)."""
        out = io.StringIO()
        index = self.tracer.open(f"cli.{step}") if traced else None
        try:
            with contextlib.redirect_stdout(out):
                code = tiercast.cli.main(argv)
        except Exception:
            code = None
            out.write(traceback.format_exc(limit=4))
        finally:
            if index is not None:
                self.tracer.close(index)
        if code != 0 and traced:
            self.tracer.counters["cli.nonzero_exits"] += 1
        return code, out.getvalue()

    # -- output checks --------------------------------------------------

    def _fail(self, where: str, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{where}: {'; '.join(problems)}")

    def _check_objective(self, row_id, value: float, problems: list[str]) -> None:
        first = self._first_objective.setdefault(row_id, value)
        if first != value:
            problems.append(f"objective {value!r} differs from the first pass's {first!r}")

    def _check_sweep_row(self, row: dict, first_pass: bool) -> None:
        self.attempted += 1
        row_id = (row["sweep_value"], row["seed"], row["mode"], row["solver"])
        record = {name: row[name] for name in ("sweep_value", "seed", "mode", "solver", "status")}
        problems = []
        if row["status"] != "ok":
            problems.append(f"status {row['status']!r}")
        else:
            solution, report = self._results[(row["solver"], row["mode"])]
            summary = self._summaries.get(row["mode"])
            verdict = is_feasible(self._instance, solution, row["mode"])
            recomputed = objective(self._instance, solution)
            if row["feasible"] is not True or not verdict.feasible:
                problems.append(f"infeasible: {verdict}")
            if not math.isclose(recomputed, report.objective, rel_tol=OBJECTIVE_RTOL, abs_tol=OBJECTIVE_RTOL):
                problems.append(f"objective {recomputed!r} != reported {report.objective!r}")
            if row["objective"] != report.objective:
                problems.append(f"row objective {row['objective']!r} != reported {report.objective!r}")
            self._check_objective(row_id, report.objective, problems)
            record.update(
                objective=report.objective,
                feasible=verdict.feasible,
                reference=summary is not None and summary.reference == row["solver"],
                tie_breaks=report.tie_breaks,
                nodes_explored=report.nodes_explored,
                nodes_pruned=report.nodes_pruned,
                node_budget_hit=report.node_budget_hit,
            )
        if problems:
            self._fail(str(row_id), problems)
        if first_pass:
            self.rows.append(record)

    def _check_cli_point(self, seed, outputs, instance_path, solution_path, first_pass: bool) -> None:
        self.attempted += 1
        row_id = (None, seed, UNICAST, "eva")
        record = {"sweep_value": None, "seed": seed, "mode": UNICAST, "solver": "eva"}
        problems = [
            f"cli {step} exited {code}: {text.strip()[-300:]}"
            for step, (code, text) in outputs.items()
            if code != 0
        ]
        if not problems:
            solved = json.loads(outputs["solve"][1].strip().splitlines()[-1])
            verified = json.loads(outputs["verify"][1].strip().splitlines()[-1])
            # Later passes write the same bytes; check each distinct pair once.
            digest = hashlib.sha256(instance_path.read_bytes() + solution_path.read_bytes()).hexdigest()
            if digest not in self._verified:
                instance = load_instance(instance_path)
                solution = load_solution(solution_path)
                self._verified[digest] = (is_feasible(instance, solution, UNICAST), objective(instance, solution))
            verdict, recomputed = self._verified[digest]
            if not (solved["feasible"] and verified["feasible"] and verdict.feasible):
                problems.append(f"infeasible: {verdict}")
            for label, value in (("recomputed", recomputed), ("verify", verified["objective"])):
                if not math.isclose(value, solved["objective"], rel_tol=OBJECTIVE_RTOL, abs_tol=OBJECTIVE_RTOL):
                    problems.append(f"{label} objective {value!r} != reported {solved['objective']!r}")
            self._check_objective(row_id, solved["objective"], problems)
            record.update(
                objective=solved["objective"],
                feasible=verdict.feasible,
                reference=False,
                tie_breaks=solved["tie_breaks"],
                instance_bytes=os.path.getsize(instance_path),
            )
        record["status"] = "ok" if not problems else "failed"
        if problems:
            self._fail(str(row_id), problems)
        if first_pass:
            self.rows.append(record)

    # -- metrics --------------------------------------------------------

    def untraced_passes(self) -> list[Pass]:
        return [p for p in self.passes if not p.traced]

    def traced_passes(self) -> list[Pass]:
        return [p for p in self.passes if p.traced]

    def point_samples_ms(self) -> dict[tuple, list[float]]:
        """Point key -> its program time in each untraced pass, adjusted to
        the reference host speed (see ``hostspeed``)."""
        samples = defaultdict(list)
        for p in self.untraced_passes():
            for key, segments in p.segments.items():
                samples[key].append(self.speed.adjusted_ms(segments) if self.speed else p.point_ns[key] / 1e6)
        return samples

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Every end-to-end figure of the run: name -> (value, unit).

        A point's latency is the median of its untraced passes, each
        adjusted to the reference host speed; the ``_wall`` figures are the
        same medians unadjusted, probe time included.
        """
        latencies = sorted(statistics.median(values) for values in self.point_samples_ms().values())
        wall = sorted(statistics.median(v) for v in _point_samples_ms(self.untraced_passes()).values())
        metrics = {
            "points_per_s": (len(latencies) / sum(latencies) * 1e3 if latencies else 0.0, "1/s"),
            "point_p50_ms": (statistics.median(latencies) if latencies else 0.0, "ms"),
            "point_samples": (len(latencies), "count"),
            "points_per_wall_s": (len(wall) / sum(wall) * 1e3 if wall else 0.0, "1/s"),
            "point_p50_wall_ms": (statistics.median(wall) if wall else 0.0, "ms"),
        }
        if self.speed and self.speed.probes:
            metrics["probe_p50_ms"] = (statistics.median(ns for _, ns in self.speed.probes) / 1e6, "ms")
        if len(latencies) >= 100:
            metrics["point_p90_ms"] = (statistics.quantiles(latencies, n=10, method="inclusive")[-1], "ms")
        ok_rows = [r for r in self.rows if "objective" in r]
        for solver in dict.fromkeys(r["solver"] for r in ok_rows):
            metrics[f"objective.{solver}"] = (sum(r["objective"] for r in ok_rows if r["solver"] == solver), "reward")
        refs = [r for r in ok_rows if r["reference"]]
        if refs:
            metrics["objective.ref"] = (sum(r["objective"] for r in refs), "reward")
            # Certified: the reference solver reports a limit and did not hit it.
            certified = sum(1 for r in refs if r["node_budget_hit"] is False)
            metrics["ref_certified_share"] = (certified / len(refs), "ratio")
        metrics["objective_total"] = (sum(r["objective"] for r in ok_rows), "reward")
        metrics["failed_share"] = (self.failed / self.attempted if self.attempted else 0.0, "ratio")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["passes"] = (len(self.untraced_passes()), "count")
        return metrics

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per traced pass: self time and calls of every span, the counts,
        and the tracing overhead: the fastest traced pass minus the fastest
        untraced one, point by point."""
        traced = self.traced_passes()
        n = len(traced) or 1
        table = self.tracer.self_times()
        metrics = {}
        for name in spans.SPAN_NAMES:
            ns, calls = table.get(name, (0, 0))
            metrics[spans.ms_metric(name)] = (ns / 1e6 / n, "ms")
            metrics[spans.calls_metric(name)] = (calls / n, "count")
        counters = self.tracer.counters
        for name, unit in spans.COUNTERS.items():
            metrics[name] = (counters[name] / n, unit)
        nodes = counters["solvers.bb_nodes"]
        metrics["solvers.bb_prune_ratio"] = (counters["solvers.bb_pruned"] / nodes if nodes else 0.0, "ratio")
        traced_ms = _fastest_pass_ms(traced)
        untraced_ms = _fastest_pass_ms(self.untraced_passes())
        metrics["trace.pass_ms"] = (traced_ms, "ms")
        metrics["trace.untraced_pass_ms"] = (untraced_ms, "ms")
        metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
        metrics["trace.overhead_share"] = ((traced_ms - untraced_ms) / untraced_ms if untraced_ms else 0.0, "ratio")
        # Share of the traced program time that some layer's self time covers.
        traced_ns = sum(p.program_ns for p in traced)
        attributed = sum(ns for ns, _ in table.values())
        metrics["trace.attributed_share"] = (attributed / traced_ns if traced_ns else 0.0, "ratio")
        return metrics

    def record(self, seed: int, seconds: float, trace: bool, root: Path, extra: dict) -> dict:
        latencies = self.point_samples_ms()
        wall = _point_samples_ms(self.untraced_passes())
        record = {
            "schema": "tiercast-bench-record/v1",
            "workload": self.workload.name,
            "why": WORKLOADS[self.workload.name],
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "environment": environment(root),
            "config": self.workload.config.to_dict(),
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in {**self.end_to_end(), **extra}.items()},
            "passes": [
                {"traced": p.traced, "points": len(p.point_ns), "program_ms": p.program_ns / 1e6,
                 "wall_ms": p.wall_ns / 1e6}
                for p in self.passes
            ],
            "point_latency_ms": [
                {"sweep_value": k[0], "seed": k[1], "mode": k[2], "samples": [round(x, 4) for x in v],
                 "wall_samples": [round(x, 4) for x in wall[k]]}
                for k, v in latencies.items()
            ],
            "rows": self.rows,
        }
        if trace:
            record["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in self.per_layer().items()}
        return record


def _point_samples_ms(passes: list[Pass]) -> dict[tuple, list[float]]:
    samples = defaultdict(list)
    for p in passes:
        for key, ns in p.point_ns.items():
            samples[key].append(ns / 1e6)
    return samples


def _fastest_pass_ms(passes: list[Pass]) -> float:
    """A pass made of every point's fastest time among ``passes``."""
    return sum(min(values) for values in _point_samples_ms(passes).values())


# A bare interpreter's start-up time on the host of ``hostspeed.REFERENCE_MS``
# in its fast state; it sets the scale of the adjusted set-up times.
BARE_START_REFERENCE_S = 0.06


def measure_setup(src: Path, repeats: int = 5) -> list[tuple[float, float]]:
    """(wall seconds, seconds at the reference host speed) of fresh
    interpreters that import the CLI and exit.

    The host speed of each sample is read from bare interpreters (``-c
    pass``: no ``tiercast`` code) started just before and after it; they
    pay the same process start, and slow down with the host alike.
    No timeout: ``subprocess`` polls a timed wait in 50 ms steps, which
    would round every sample up to the next step.
    """
    env = dict(os.environ, PYTHONPATH=str(src))

    def start(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return time.perf_counter() - t0

    samples = []
    for _ in range(repeats):
        before = start("pass")
        wall = start("import tiercast.cli")
        bare = (before + start("pass")) / 2
        samples.append((wall, wall * BARE_START_REFERENCE_S / bare))
    return samples


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tiercast": tiercast.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }
