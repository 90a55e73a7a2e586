"""Experiment configuration, named presets, and seeded instance building.

Each figure-reproduction preset pins one sweep axis over Table-style default
settings: small scale is 50 users / 10 cells / 5 views, large scale is
500 / 100 / 20, with 50,000 RBs per cell, 2 Mb basic and enhanced views, and
a 1,000 m map.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import re
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from . import metrics, solvers
from .channel import ChannelParams
from .problem import Instance, MULTICAST, UNICAST
from .serialize import is_finite_number, is_int
from .scenario import (
    Topology,
    build_instance,
    generate_demands,
    generate_sharing_groups,
    generate_topology,
    place_caches,
)

CONFIG_SCHEMA = "config/v1"

SWEEP_PARAMS = (
    "none",
    "n_views",
    "n_cells",
    "n_users",
    "eva_p",
    "cache_capacity",
)

# Each solver by name, called with the config's setting for it. The entries
# look up ``solvers.solve_*`` at call time, so that a replaced solver runs.
SOLVERS = {
    "bb": lambda inst, cfg, mode: solvers.solve_bb(
        inst, node_budget=cfg.node_budget, mode=mode
    ),
    "elva": lambda inst, cfg, mode: solvers.solve_elva(inst, mode=mode),
    "eva": lambda inst, cfg, mode: solvers.solve_eva(inst, p=cfg.eva_p, mode=mode),
    "sinr": lambda inst, cfg, mode: solvers.solve_sinr(inst, mode=mode),
}


@dataclass
class ExperimentConfig:
    """One experiment: scenario counts, physics, solver list, sweep, seeds."""

    scenario: str = "hotspot"  # cell placement; users are always uniform
    n_users: int = 50
    n_cells: int = 10
    n_views: int = 5
    cache_capacity: int | None = None  # default ceil(n_views / 2)
    views_per_user: int | None = None  # default n_views (every user wants all)
    popularity_skew: float = 0.8
    rb_budget: int = 50_000
    basic_size: float = 2e6
    view_size: float = 2e6
    map_radius: float = 1000.0
    hotspot_sigma: float = 200.0
    channel: ChannelParams = field(default_factory=ChannelParams)
    solvers: list[str] = field(default_factory=lambda: ["bb", "elva", "eva", "sinr"])
    eva_p: float = 1.0
    node_budget: int | None = 1_000_000
    modes: list[str] = field(default_factory=lambda: [UNICAST])
    sharing_fraction: float = 0.0
    sweep_param: str = "none"
    sweep_values: list = field(default_factory=lambda: [None])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    master_seed: int = 0
    preset: str = ""

    def __post_init__(self):
        _check_fields(type(self), vars(self), "config")
        if self.sweep_param not in SWEEP_PARAMS:
            raise ValueError(f"unknown sweep_param {self.sweep_param!r}")
        for mode in self.modes:
            if mode not in (UNICAST, MULTICAST):
                raise ValueError(f"unknown mode {mode!r}")
        for name in self.solvers:
            if name not in SOLVERS:
                raise ValueError(f"unknown solver {name!r}")
        for name, least in (("node_budget", 0), ("eva_p", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}")
        # Each point replaces the swept field, so a value set for it, or a
        # list of values with no field to sweep, would have no effect.
        if self.sweep_param == "none":
            if any(value is not None for value in self.sweep_values):
                raise ValueError("sweep_values given without a sweep_param")
        else:
            base = getattr(self, self.sweep_param)
            if base != getattr(type(self), self.sweep_param):  # its default
                raise ValueError(
                    f"{self.sweep_param} is swept, so it cannot be set (got {base!r})"
                )
            for value in self.sweep_values:
                self.at_sweep_value(value)  # each point passes these checks
        # A repeated entry would run twice and write duplicate rows. Checked
        # last: by now every sweep value has passed its point check, so has
        # its field's type and is hashable.
        for name in ("sweep_values", "seeds", "solvers", "modes"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct")

    def at_sweep_value(self, value) -> "ExperimentConfig":
        """Resolve one sweep point into a concrete configuration."""
        swept = {} if self.sweep_param == "none" else {self.sweep_param: value}
        return dataclasses.replace(
            self, sweep_param="none", sweep_values=[None], **swept
        )

    @property
    def effective_cache_capacity(self) -> int:
        if self.cache_capacity is not None:
            return self.cache_capacity
        return math.ceil(self.n_views / 2)

    @property
    def effective_views_per_user(self) -> int:
        if self.views_per_user is not None:
            return self.views_per_user
        return self.n_views

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["schema"] = CONFIG_SCHEMA
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Raises ``ValueError`` on a payload that is not an object, another
        schema, a key that names no config or channel field, or a value
        whose type is not its field's."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be an object, got {type(data).__name__}")
        data = dict(data)
        schema = data.pop("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ValueError(f"expected schema {CONFIG_SCHEMA!r}, got {schema!r}")
        if "channel" in data:
            channel = data["channel"]
            if not isinstance(channel, dict):
                raise ValueError(f"config key 'channel' must be an object, got {channel!r}")
            _check_fields(ChannelParams, channel, "channel")
            data["channel"] = ChannelParams(**channel)
        _check_fields(cls, data, "config")
        return cls(**data)


# Read on every config built, so looked up once per class.
_field_types = functools.cache(typing.get_type_hints)


def _check_fields(cls, data: dict, what: str):
    """Every key must name a field of ``cls`` and every value match that
    field's type."""
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")
    hints = _field_types(cls)
    for key, value in data.items():
        hint = hints[key]
        if not _has_type(value, hint):
            name = hint.__name__ if type(hint) is type else str(hint)
            name = re.sub(r"\bint\b", "int64", name)  # the rule is is_int's
            raise ValueError(f"{what} key {key!r} must be {name}, got {value!r}")


def _has_type(value, hint) -> bool:
    """JSON-value type test, the file loaders' for numbers: ``is_int`` for an
    ``int``, ``is_finite_number`` for a ``float``; ``None`` only if optional."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, arg) for arg in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if hint is int:
        return is_int(value)
    if hint is float:
        return is_finite_number(value)
    return isinstance(value, hint)


def derive_seed(base: int, stream: int) -> int:
    """Independent child seed for one generation stage of one replication."""
    return int(np.random.SeedSequence((base, stream)).generate_state(1)[0])


def build_experiment_instance(
    config: ExperimentConfig, seed: int
) -> tuple[Instance, Topology]:
    """Generate the full instance for one replication seed."""
    base = config.master_seed + seed
    if base < 0:
        raise ValueError(f"master_seed + seed must be >= 0, got {base}")
    topology = generate_topology(
        config.scenario,
        config.n_cells,
        config.n_users,
        map_radius=config.map_radius,
        hotspot_sigma=config.hotspot_sigma,
        seed=derive_seed(base, 0),
    )
    wants = generate_demands(
        config.n_users,
        config.n_views,
        config.effective_views_per_user,
        popularity_skew=config.popularity_skew,
        seed=derive_seed(base, 1),
    )
    cached = place_caches(wants, topology, config.effective_cache_capacity)
    sharing = generate_sharing_groups(
        config.n_users,
        config.n_views,
        config.sharing_fraction,
        seed=derive_seed(base, 3),
    )
    instance = build_instance(
        topology,
        wants,
        cached,
        config.channel,
        rb_budget=config.rb_budget,
        basic_size=config.basic_size,
        view_sizes=config.view_size,
        sharing=sharing,
        seed=derive_seed(base, 4),
    )
    return instance, topology


# Each preset's overrides of the ExperimentConfig defaults, by name.
PRESETS = {
    "fig3": dict(sweep_param="n_views", sweep_values=[1, 2, 3, 4, 5]),
    "fig4": dict(
        sweep_param="n_views",
        sweep_values=[1, 2, 3, 4, 5],
        modes=[UNICAST, MULTICAST],
        sharing_fraction=1.0,
        solvers=["elva", "eva", "sinr"],
    ),
    "fig6": dict(sweep_param="n_cells", sweep_values=[2, 3, 4, 5, 6, 7, 8, 9, 10]),
    "fig7": dict(sweep_param="n_users", sweep_values=[10, 20, 30, 40, 50]),
    "fig8": dict(sweep_param="eva_p", sweep_values=[1, 2, 3, 4, 5], solvers=["eva"]),
    "fig9": dict(
        n_views=10,
        views_per_user=2,
        sweep_param="cache_capacity",
        sweep_values=[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    ),
    "fig10": dict(n_users=500, n_cells=100, n_views=20, solvers=["elva", "eva", "sinr"]),
}


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return ExperimentConfig(preset=name, **copy.deepcopy(PRESETS[name]))


def run_solver(name: str, instance: Instance, config: ExperimentConfig, mode: str):
    """Run the solver ``SOLVERS`` names with the config's setting for it."""
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}")
    return SOLVERS[name](instance, config, mode)


SWEEP_CSV_COLUMNS = (
    "preset",
    "sweep_param",
    "sweep_value",
    "seed",
    "mode",
    "solver",
    "objective",
    "gap",
    "jain",
    "mean_utilization",
    "feasible",
    "wall_time",
    "status",
)


def _row(config: ExperimentConfig, value, seed, mode, solver, status, **results):
    """One sweep row keyed by SWEEP_CSV_COLUMNS; result columns not given
    are None, which ``csv`` writes as an empty cell."""
    row = dict.fromkeys(SWEEP_CSV_COLUMNS)
    row.update(
        preset=config.preset,
        sweep_param=config.sweep_param,
        sweep_value=value,
        seed=seed,
        mode=mode,
        solver=solver,
        status=status,
        **results,
    )
    return row


def run_sweep(config: ExperimentConfig):
    """Yield one result row per (sweep value, seed, mode, solver).

    Rows are plain dicts keyed by SWEEP_CSV_COLUMNS, emitted in deterministic
    order. A ``ValueError`` from generation, or a ``ValueError`` or
    ``AssertionError`` from a solver, is recorded in the row's status and the
    sweep continues; any other exception propagates.
    """
    for value in config.sweep_values:
        point = config.at_sweep_value(value)
        for seed in config.seeds:
            try:
                instance, _ = build_experiment_instance(point, seed)
            except ValueError as exc:  # recorded per row, sweep continues
                for mode in config.modes:
                    for solver in point.solvers:
                        yield _row(
                            config, value, seed, mode, solver,
                            f"generation failed: {exc}",
                        )
                continue
            for mode in config.modes:
                results = {}
                errors = {}
                for solver in point.solvers:
                    try:
                        results[solver] = run_solver(solver, instance, point, mode)
                    # AssertionError stays a row until the benchmark's
                    # over-budget test double, which asserts inside the
                    # solver call, is reworked (ROADMAP item 1b).
                    except (ValueError, AssertionError) as exc:
                        errors[solver] = str(exc)
                summary = metrics.summarize(instance, results, mode) if results else None
                for solver in point.solvers:
                    if solver in errors:
                        yield _row(config, value, seed, mode, solver, errors[solver])
                        continue
                    report = results[solver][1]
                    row = summary.solvers[solver]
                    yield _row(
                        config, value, seed, mode, solver, "ok",
                        objective=report.objective,
                        gap=row.gap,
                        jain=row.jain,
                        mean_utilization=row.mean_utilization,
                        feasible=row.feasible,
                        wall_time=report.wall_time,
                    )
