"""Run one workload of the tiercast benchmark and print its metrics.

    python3 bench/run.py --workload fig10-elva --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0 --record bench/records

Run it from the root of a source checkout; it imports ``tiercast`` from
``src/`` there and nowhere else. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; every metric is printed with its
unit, one per line, and the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--record PATH``
also writes the run record (environment, per-row objectives and counters,
per-point latencies); ``--spans PATH`` writes the traced run's spans as
JSON lines. ``--workload all`` runs every workload listed in
``BENCHMARK.json`` in turn, each in its own process, with ``--record`` taken
as a directory; it exits non-zero if any of them does.

Exit codes: 0 every output checked out, 1 some check failed, 2 the run was
refused (bad arguments, ``TIERCAST_SEED`` set, no source tree).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Read by ExperimentConfig.__post_init__ on every dataclasses.replace; it
# would silently replace the workloads' master seed.
SEED_ENV_VAR = "TIERCAST_SEED"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

EXIT_OK, EXIT_CHECK_FAILED, EXIT_REFUSED = 0, 1, 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description="tiercast benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True, help="shuffles the order of the workload's points")
    parser.add_argument("--seconds", type=float, required=True, help="measure whole passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", type=Path, help="write the run record (JSON) here")
    parser.add_argument("--spans", type=Path, help="write the traced run's spans (JSON lines) here")
    return parser.parse_args(argv)


def refusal(args) -> str | None:
    if SEED_ENV_VAR in os.environ:
        return f"{SEED_ENV_VAR} is set; unset it, the benchmark passes every seed itself"
    if not (SRC / "tiercast" / "__init__.py").is_file():
        return f"no tiercast source tree at {SRC.relative_to(ROOT)}/tiercast; run from a source checkout"
    if args.seconds < 0:
        return "--seconds must be >= 0"
    return None


def run_all(args) -> int:
    status = EXIT_OK
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        name = workload["name"]
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            suffix = ".trace" if args.trace else ""
            argv += ["--record", str(args.record / f"{name}{suffix}.json")]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(argv).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    reason = refusal(args)
    if reason:
        print(f"bench: refusing to run: {reason}", file=sys.stderr)
        return EXIT_REFUSED
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    # One CPU for the run and the interpreters it starts: on a shared host
    # each CPU is slowed by other tenants on its own, and the host-speed
    # probes must see the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import harness

    if Path(harness.tiercast.__file__).resolve().parent != SRC / "tiercast":
        print(f"bench: tiercast imported from {harness.tiercast.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_REFUSED
    if args.workload not in harness.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return EXIT_REFUSED

    workload = harness.make_workload(args.workload, args.seed)
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    run = harness.Run(workload, work_dir)
    # Set-up is sampled before and after the passes; the median of the
    # samples, adjusted to the reference host speed, counts.
    setup = [] if args.trace else harness.measure_setup(SRC)
    try:
        run.execute(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    extra = {}
    if not args.trace:
        setup += harness.measure_setup(SRC)
        extra["setup_s"] = (statistics.median(adjusted for _, adjusted in setup), "s")
        extra["setup_wall_s"] = (statistics.median(wall for wall, _ in setup), "s")
        extra["setup_samples"] = (len(setup), "count")
    figures = {**run.end_to_end(), **extra} if not args.trace else run.per_layer()
    for name, (value, unit) in figures.items():
        print(f"{name} = {value:.10g} {unit}")
    for problem in run.problems:
        print(f"FAILED {problem}")

    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        record = run.record(args.seed, args.seconds, bool(args.trace), ROOT, extra)
        if not args.trace:
            record["setup_samples_s"] = [{"wall": wall, "adjusted": adjusted} for wall, adjusted in setup]
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    if args.spans and args.trace:
        run.tracer.write_spans(args.spans)

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return EXIT_OK if run.failed == 0 else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
