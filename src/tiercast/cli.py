"""Command-line entry point: generate | solve | sweep | verify.

Exit codes: 0 success, 1 validation/input error (a malformed or unknown
flag included), 2 infeasible result. ``sweep`` is the exception: it records
a failed generation or solve in the row's status, writes every row, and
exits 1 if any row failed; an infeasible result is an ``ok`` row with
``feasible`` False.

Every output file (``--out``, ``--topology-out``, ``--solution-out``) is
written the same way: its parent directory is created, and a write that fails
exits 1, a failed ``--topology-out`` taking the instance it follows with it.
An output that resolves to the same file as an input (the config, instance
or solution) or as another output is refused, exit 1, before any work starts.

A flag that no run of its command reads is refused, exit 1, after the
config's checks: the swept field's, ``--eva-p`` without eva, ``--node-budget``
without bb (which verify runs for ``--oracle``), ``--sharing-fraction``
without multicast. ``generate`` refuses none: its one instance, at the base
values, keeps them for later runs.
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

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    """Exits ``EXIT_VALIDATION`` on a malformed command line, not argparse's
    2, which is ``EXIT_INFEASIBLE`` here. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


# The files a command reads, then the files it writes, by argparse dest.
_INPUTS = ("config", "instance", "solution")
_OUTPUTS = ("out", "topology_out", "solution_out")
# Each setting that only some runs read, by the run that reads it.
_READERS = {"eva_p": "eva", "node_budget": "bb", "sharing_fraction": MULTICAST}


def _check_paths(args):
    """Raises ``ValueError`` on an output that resolves to the same file as
    an input or as another output: the later write would replace it."""
    seen = {}
    for name in _INPUTS + _OUTPUTS:
        path = getattr(args, name, None)
        if path is None:
            continue
        key = Path(path).resolve()
        if name in _OUTPUTS and key in seen:
            raise ValueError(f"{name} and {seen[key]} are the same file: {path}")
        seen.setdefault(key, name)


def _load_config(args) -> ExperimentConfig:
    """Config from preset, file or defaults, then the flags, which take
    precedence. Raises ``ValueError`` on an invalid preset, config or flag,
    and ``OSError`` on an unreadable config file."""
    if getattr(args, "preset", None):
        config = preset_config(args.preset)
    elif getattr(args, "config", None):
        config = ExperimentConfig.from_dict(serialize.parse_json(Path(args.config).read_text()))
    else:
        config = ExperimentConfig()
    if args.command == "generate":
        config = dataclasses.replace(config, sweep_param="none", sweep_values=[None])
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
    config = dataclasses.replace(config, **overrides) if overrides else config
    runs = {"solve": {getattr(args, "solver", None)}, "sweep": {*config.solvers, *config.modes},
            "verify": {"bb"} if getattr(args, "oracle", False) else set()}
    runs = runs.get(args.command, set(_READERS.values()))
    readers = {**_READERS, config.sweep_param: None}  # no run reads the swept field
    for name, value in overrides.items():
        if name in readers and readers[name] not in runs:
            why = f"read only by {readers[name]}, which does not run" if readers[name] else "swept"
            raise ValueError(f"{name} is {why}, so it cannot be set (got {value!r})")
    return config


def _add_config_flags(parser: argparse.ArgumentParser):
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", help="JSON experiment config file")
    source.add_argument("--preset", help="named preset (fig3, fig4, ... fig10)")
    parser.add_argument("--scenario", choices=["hotspot", "uniform"])
    parser.add_argument("--n-users", dest="n_users", type=int)
    parser.add_argument("--n-cells", dest="n_cells", type=int)
    parser.add_argument("--n-views", dest="n_views", type=int)
    parser.add_argument("--cache-capacity", dest="cache_capacity", type=int)
    parser.add_argument("--views-per-user", dest="views_per_user", type=int)
    parser.add_argument("--rb-budget", dest="rb_budget", type=int)
    parser.add_argument("--sharing-fraction", type=float, help="read only by multicast runs")
    parser.add_argument("--master-seed", dest="master_seed", type=int)


def _write(path, save) -> bool:
    """Write one output by ``save(path)`` after creating its parent
    directory. Reports an ``OSError`` and returns False."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        save(path)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_generate(args, config: ExperimentConfig) -> int:
    try:
        instance, topology = build_experiment_instance(config, args.seed)
    except ValueError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if not _write(args.out, lambda path: serialize.save_instance(instance, path)):
        return EXIT_VALIDATION
    if args.topology_out and not _write(
        args.topology_out, lambda path: serialize.save_topology(topology, path)
    ):
        Path(args.out).unlink()  # no instance without the topology asked for
        return EXIT_VALIDATION
    print(
        json.dumps(
            {
                "instance": str(Path(args.out)),
                "n_users": instance.n_users,
                "n_cells": instance.n_cells,
                "n_views": instance.n_views,
                "seed": args.seed,
            }
        )
    )
    return EXIT_OK


def cmd_solve(args, config: ExperimentConfig) -> int:
    try:
        instance = serialize.load_instance(args.instance)
    except (OSError, ValueError) as exc:
        print(f"cannot load instance: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        solution, report = run_solver(args.solver, instance, config, args.mode)
    except ValueError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.solution_out and not _write(
        args.solution_out, lambda path: serialize.save_solution(solution, path)
    ):
        return EXIT_VALIDATION
    feasible = is_feasible(instance, solution, args.mode)
    payload = dataclasses.asdict(report)
    payload["feasible"] = feasible.feasible
    payload["violations"] = [str(v) for v in feasible.violations]
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if feasible.feasible else EXIT_INFEASIBLE


def cmd_sweep(args, config: ExperimentConfig) -> int:
    statuses = []

    def save(path):
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_CSV_COLUMNS)
            writer.writeheader()
            for row in run_sweep(config):
                writer.writerow(row)
                statuses.append(row["status"])

    if not _write(args.out, save):
        return EXIT_VALIDATION
    failures = sum(status != "ok" for status in statuses)
    print(json.dumps({"csv": str(Path(args.out)), "rows": len(statuses), "failures": failures}))
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def cmd_verify(args, config: ExperimentConfig) -> int:
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
    # an affordable cell, so bb's result is feasible too. bb is exact only
    # when it finishes under its node budget.
    if args.oracle and report.feasible:
        _, oracle = run_solver("bb", instance, config, args.mode)
        if oracle.node_budget_hit:
            result["oracle_objective"] = None
            result["oracle_skipped"] = (
                f"bb stopped at its node budget of {config.node_budget}"
            )
        else:
            result["oracle_objective"] = oracle.objective
            result["optimality_gap"] = (
                result["objective"] / oracle.objective if oracle.objective > 0 else 1.0
            )
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    solve.add_argument("--eva-p", type=float, help="EVA's rank exponent; read only by eva")
    solve.add_argument("--node-budget", type=int, help="bb's node budget; read only by bb")
    solve.add_argument("--solution-out", dest="solution_out")
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="run a (preset) sweep and write CSV")
    _add_config_flags(sweep)
    sweep.add_argument("--eva-p", type=float, help="EVA's rank exponent; read only by eva")
    sweep.add_argument("--node-budget", type=int, help="bb's node budget; read only by bb")
    sweep.add_argument("--seeds", type=int, help="replicate seeds 0..N-1")
    sweep.add_argument("--solvers", help="comma-separated solver list")
    sweep.add_argument("--mode", help="unicast, multicast, or both (comma-separated)")
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="check a solution file against an instance")
    verify.add_argument("instance")
    verify.add_argument("solution")
    verify.add_argument("--mode", default=UNICAST, choices=[UNICAST, MULTICAST])
    verify.add_argument(
        "--oracle", action="store_true", help="gap to bb's optimum, if bb finishes"
    )
    verify.add_argument("--node-budget", type=int, help="bb's node budget; read only by --oracle")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_paths(args)
        config = _load_config(args)
    except (OSError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return args.func(args, config)


if __name__ == "__main__":
    sys.exit(main())
