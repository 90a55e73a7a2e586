"""Command-line entry point: generate | solve | sweep | verify.

Exit codes: 0 success, 1 validation/input error, 2 infeasible result or
enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import serialize
from .experiments import (
    SEED_ENV_VAR,
    ExperimentConfig,
    SWEEP_CSV_COLUMNS,
    build_experiment_instance,
    preset_config,
    run_solver,
    run_sweep,
)
from .problem import MULTICAST, UNICAST, is_feasible, objective
from .solvers import BruteForceCapError, solve_bruteforce

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2


def _load_config(args) -> ExperimentConfig:
    """Config from preset, file or defaults; then the ``TIERCAST_SEED``
    environment variable; then the flags, which take precedence.

    Raises ``ValueError`` on an invalid preset, config or seed variable."""
    if args.preset:
        config = preset_config(args.preset)
    elif args.config:
        config = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        config = ExperimentConfig()
    overrides = {}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            overrides["master_seed"] = int(env_seed)
        except ValueError:
            raise ValueError(
                f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
            ) from None
    for name in (
        "scenario",
        "n_users",
        "n_cells",
        "n_views",
        "cache_capacity",
        "views_per_user",
        "rb_budget",
        "sharing_fraction",
        "eva_p",
        "node_budget",
        "master_seed",
    ):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "seeds", None) is not None:
        overrides["seeds"] = list(range(args.seeds))
    if getattr(args, "solvers", None):
        overrides["solvers"] = args.solvers.split(",")
    if getattr(args, "mode", None):
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
    parser.add_argument("--eva-p", dest="eva_p", type=float)
    parser.add_argument("--node-budget", dest="node_budget", type=int)
    parser.add_argument("--master-seed", dest="master_seed", type=int)
    parser.add_argument("--seeds", type=int, help="replicate seeds 0..N-1")
    parser.add_argument("--solvers", help="comma-separated solver list")
    parser.add_argument("--mode", help="unicast, multicast, or both (comma-separated)")


def cmd_generate(args) -> int:
    try:
        config = _load_config(args)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        instance, topology = build_experiment_instance(config, args.seed)
    except Exception as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    serialize.save_instance(instance, out)
    if args.topology_out:
        serialize.save_topology(topology, args.topology_out)
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
    except Exception as exc:
        print(f"cannot load instance: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    config = ExperimentConfig(
        solvers=[args.solver],
        eva_p=args.eva_p if args.eva_p is not None else 1.0,
        node_budget=args.node_budget,
        bruteforce_cap=args.cap,
        seeds=[0],
    )
    try:
        solution, report = run_solver(args.solver, instance, config, args.mode)
    except BruteForceCapError as exc:
        print(f"enumeration cap exceeded: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.solution_out:
        serialize.save_solution(solution, args.solution_out)
    feasible = is_feasible(instance, solution, args.mode)
    payload = dataclasses.asdict(report)
    payload["feasible"] = feasible.feasible
    payload["violations"] = [str(v) for v in feasible.violations]
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if feasible.feasible else EXIT_INFEASIBLE


def cmd_sweep(args) -> int:
    try:
        config = _load_config(args)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n_rows = 0
    failures = 0
    with out.open("w", newline="") as fh:
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
    except Exception as exc:
        print(f"cannot load inputs: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    report = is_feasible(instance, solution, args.mode)
    result = {
        "feasible": report.feasible,
        "violations": [str(v) for v in report.violations],
        "objective": objective(instance, solution),
    }
    if args.oracle:
        try:
            _, oracle = solve_bruteforce(instance, cap=args.cap, mode=args.mode)
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
    solve.add_argument(
        "--solver",
        required=True,
        choices=["bb", "elva", "eva", "sinr", "bruteforce"],
    )
    solve.add_argument("--mode", default=UNICAST, choices=[UNICAST, MULTICAST])
    solve.add_argument("--eva-p", dest="eva_p", type=float)
    solve.add_argument("--node-budget", dest="node_budget", type=int)
    solve.add_argument("--cap", type=int, default=10**6)
    solve.add_argument("--solution-out", dest="solution_out")
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="run a (preset) sweep and write CSV")
    _add_config_flags(sweep)
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="check a solution file against an instance")
    verify.add_argument("instance")
    verify.add_argument("solution")
    verify.add_argument("--mode", default=UNICAST, choices=[UNICAST, MULTICAST])
    verify.add_argument("--oracle", action="store_true", help="brute-force cross-check")
    verify.add_argument("--cap", type=int, default=10**6)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
