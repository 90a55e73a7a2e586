"""Command-line entry point: generate | solve | sweep | verify.

Exit codes: 0 success, 1 validation/input error, 2 infeasible result or
enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import serialize
from .experiments import (
    ExperimentConfig,
    SOLVERS,
    SWEEP_CSV_COLUMNS,
    build_experiment_instance,
    preset_config,
    run_solver,
    run_sweep,
)
from .problem import MULTICAST, UNICAST, is_feasible, objective
from .solvers import BruteForceCapError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2


def _load_config(args) -> ExperimentConfig:
    """Config from preset, file or defaults; then the flags, which take
    precedence.

    Raises ``ValueError`` on an invalid preset or config, and ``OSError`` on
    an unreadable config file."""
    if getattr(args, "preset", None):
        config = preset_config(args.preset)
    elif getattr(args, "config", None):
        config = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        config = ExperimentConfig()
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ExperimentConfig)
        if getattr(args, f.name, None) is not None
    }
    if getattr(args, "seeds", None) is not None:
        overrides["seeds"] = list(range(args.seeds))
    if getattr(args, "solvers", None) is not None:
        overrides["solvers"] = args.solvers.split(",")
    if getattr(args, "mode", None) is not None:
        overrides["modes"] = args.mode.split(",")
    return dataclasses.replace(config, **overrides) if overrides else config


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON experiment config file")
    parser.add_argument("--preset", help="named preset (fig3, fig4, ... fig10)")
    parser.add_argument("--scenario", choices=["hotspot", "uniform"])
    parser.add_argument("--n-users", dest="n_users", type=int)
    parser.add_argument("--n-cells", dest="n_cells", type=int)
    parser.add_argument("--n-views", dest="n_views", type=int)
    parser.add_argument("--cache-capacity", dest="cache_capacity", type=int)
    parser.add_argument("--views-per-user", dest="views_per_user", type=int)
    parser.add_argument("--rb-budget", dest="rb_budget", type=int)
    parser.add_argument("--sharing-fraction", dest="sharing_fraction", type=float)
    parser.add_argument("--master-seed", dest="master_seed", type=int)


def _cannot_write(path, exc: OSError) -> int:
    print(f"cannot write {path}: {exc}", file=sys.stderr)
    return EXIT_VALIDATION


def cmd_generate(args) -> int:
    try:
        config = _load_config(args)
    except (OSError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        instance, topology = build_experiment_instance(config, args.seed)
    except ValueError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        serialize.save_instance(instance, out)
    except OSError as exc:
        return _cannot_write(out, exc)
    if args.topology_out:
        try:
            serialize.save_topology(topology, args.topology_out)
        except OSError as exc:
            out.unlink()  # no instance without the topology asked for
            return _cannot_write(args.topology_out, exc)
    print(
        json.dumps(
            {
                "instance": str(out),
                "n_users": instance.n_users,
                "n_cells": instance.n_cells,
                "n_views": instance.n_views,
                "seed": args.seed,
            }
        )
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    try:
        instance = serialize.load_instance(args.instance)
    except (OSError, ValueError) as exc:
        print(f"cannot load instance: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        # Flags not given keep the defaults of ExperimentConfig.
        config = _load_config(args)
        solution, report = run_solver(args.solver, instance, config, args.mode)
    except BruteForceCapError as exc:
        print(f"enumeration cap exceeded: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.solution_out:
        try:
            serialize.save_solution(solution, args.solution_out)
        except OSError as exc:
            return _cannot_write(args.solution_out, exc)
    feasible = is_feasible(instance, solution, args.mode)
    payload = dataclasses.asdict(report)
    payload["feasible"] = feasible.feasible
    payload["violations"] = [str(v) for v in feasible.violations]
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if feasible.feasible else EXIT_INFEASIBLE


def cmd_sweep(args) -> int:
    try:
        config = _load_config(args)
    except (OSError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        fh = out.open("w", newline="")
    except OSError as exc:
        return _cannot_write(out, exc)
    n_rows = 0
    failures = 0
    with fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_CSV_COLUMNS)
        writer.writeheader()
        for row in run_sweep(config):
            if row["sweep_value"] is None:
                row = {**row, "sweep_value": ""}
            writer.writerow(row)
            n_rows += 1
            if row["status"] != "ok":
                failures += 1
    print(json.dumps({"csv": str(out), "rows": n_rows, "failures": failures}))
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def cmd_verify(args) -> int:
    try:
        instance = serialize.load_instance(args.instance)
        solution = serialize.load_solution(args.solution)
    except (OSError, ValueError) as exc:
        print(f"cannot load inputs: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    report = is_feasible(instance, solution, args.mode)
    # An index out of range leaves nothing to score: numpy would raise, or
    # wrap a negative index round to another user's reward.
    scorable = report.usage is not None
    result = {
        "feasible": report.feasible,
        "violations": [str(v) for v in report.violations],
        "objective": objective(instance, solution) if scorable else None,
    }
    # As in summarize, only a feasible result has a gap; then every user has
    # an affordable cell, so the brute-force oracle is feasible too.
    if args.oracle and report.feasible:
        try:
            _, oracle = run_solver("bruteforce", instance, _load_config(args), args.mode)
            result["oracle_objective"] = oracle.objective
            result["optimality_gap"] = (
                result["objective"] / oracle.objective if oracle.objective > 0 else 1.0
            )
        except BruteForceCapError as exc:
            result["oracle_objective"] = None
            result["oracle_skipped"] = str(exc)
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiercast",
        description="Two-tier 360 video association/allocation solvers and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate and save an instance")
    _add_config_flags(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="instance JSON path")
    gen.add_argument("--topology-out", dest="topology_out", help="topology JSON path")
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="run one solver on a saved instance")
    solve.add_argument("instance", help="instance JSON path")
    solve.add_argument("--solver", required=True, choices=list(SOLVERS))
    solve.add_argument("--mode", default=UNICAST, choices=[UNICAST, MULTICAST])
    solve.add_argument("--eva-p", dest="eva_p", type=float)
    solve.add_argument("--node-budget", dest="node_budget", type=int)
    solve.add_argument(
        "--cap", dest="bruteforce_cap", type=int, help="brute-force enumeration cap"
    )
    solve.add_argument("--solution-out", dest="solution_out")
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="run a (preset) sweep and write CSV")
    _add_config_flags(sweep)
    sweep.add_argument("--eva-p", dest="eva_p", type=float)
    sweep.add_argument("--node-budget", dest="node_budget", type=int)
    sweep.add_argument("--seeds", type=int, help="replicate seeds 0..N-1")
    sweep.add_argument("--solvers", help="comma-separated solver list")
    sweep.add_argument("--mode", help="unicast, multicast, or both (comma-separated)")
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="check a solution file against an instance")
    verify.add_argument("instance")
    verify.add_argument("solution")
    verify.add_argument("--mode", default=UNICAST, choices=[UNICAST, MULTICAST])
    verify.add_argument("--oracle", action="store_true", help="brute-force cross-check")
    verify.add_argument(
        "--cap", dest="bruteforce_cap", type=int, help="brute-force enumeration cap"
    )
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
