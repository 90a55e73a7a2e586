"""Experiment configs, presets, seeded generation, and the sweep runner."""

import dataclasses
import json

import pytest

from tiercast import experiments, metrics, problem
from tiercast.cli import _load_config, build_parser
from tiercast.experiments import (
    ExperimentConfig,
    build_experiment_instance,
    preset_config,
    run_solver,
    run_sweep,
)
from tiercast.problem import MULTICAST, UNICAST


def small_config(**kwargs):
    defaults = dict(n_users=8, n_cells=3, n_views=3, seeds=[0], solvers=["sinr"])
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_effective_defaults_follow_counts():
    cfg = ExperimentConfig(n_views=5)
    assert cfg.effective_cache_capacity == 3
    assert cfg.effective_views_per_user == 5
    cfg = ExperimentConfig(n_views=10, views_per_user=2, cache_capacity=4)
    assert cfg.effective_cache_capacity == 4
    assert cfg.effective_views_per_user == 2


def test_sweep_point_resolution():
    cfg = ExperimentConfig(sweep_param="n_views", sweep_values=[1, 2, 3])
    point = cfg.at_sweep_value(2)
    assert point.n_views == 2
    assert point.sweep_param == "none"
    assert point.effective_cache_capacity == 1


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(sweep_param="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(sweep_values=[])
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=[1, 1])
    with pytest.raises(ValueError):
        ExperimentConfig(modes=["broadcast"])
    with pytest.raises(ValueError, match="unknown solver 'elvaa'"):
        ExperimentConfig(solvers=["sinr", "elvaa"])


def test_config_round_trip():
    cfg = preset_config("fig9")
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg


def _sweep_config(*flags):
    return _load_config(build_parser().parse_args(["sweep", "--out", "x.csv", *flags]))


def test_master_seed_flag_overrides_file_and_preset(monkeypatch, tmp_path):
    # Command-line precedence: --master-seed > file or preset. The
    # environment plays no part.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config(master_seed=3).to_dict()))
    monkeypatch.setenv("TIERCAST_SEED", "77")
    assert _sweep_config("--config", str(path)).master_seed == 3
    assert _sweep_config("--preset", "fig3").master_seed == 0
    assert _sweep_config("--config", str(path), "--master-seed", "5").master_seed == 5
    assert _sweep_config("--preset", "fig3", "--master-seed", "5").master_seed == 5


def test_config_built_in_code_ignores_env_var(monkeypatch):
    monkeypatch.setenv("TIERCAST_SEED", "7")
    cfg = dataclasses.replace(ExperimentConfig(), master_seed=3)
    assert cfg.master_seed == 3
    assert cfg.at_sweep_value(None).master_seed == 3


def test_build_instance_deterministic_per_seed():
    cfg = small_config()
    i1, t1 = build_experiment_instance(cfg, 4)
    i2, t2 = build_experiment_instance(cfg, 4)
    i3, _ = build_experiment_instance(cfg, 5)
    assert (i1.w == i2.w).all()
    assert (i1.rb_basic == i2.rb_basic).all()
    assert (t1.user_positions == t2.user_positions).all()
    assert (i1.rb_basic != i3.rb_basic).any()


def test_presets_cover_paper_sweeps():
    assert preset_config("fig3").sweep_param == "n_views"
    fig4 = preset_config("fig4")
    assert fig4.modes == [UNICAST, MULTICAST]
    assert fig4.sharing_fraction == 1.0
    assert preset_config("fig6").sweep_param == "n_cells"
    assert preset_config("fig7").sweep_param == "n_users"
    assert preset_config("fig8").solvers == ["eva"]
    fig9 = preset_config("fig9")
    assert fig9.n_views == 10 and fig9.views_per_user == 2
    assert fig9.sweep_param == "cache_capacity"
    fig10 = preset_config("fig10")
    assert (fig10.n_users, fig10.n_cells, fig10.n_views) == (500, 100, 20)
    with pytest.raises(ValueError):
        preset_config("fig99")


@pytest.mark.parametrize("name", sorted(experiments.PRESETS))
def test_every_preset_point_generates_on_seed_0(name):
    config = preset_config(name)
    for value in config.sweep_values:
        instance, _ = build_experiment_instance(config.at_sweep_value(value), 0)
        assert instance.n_users > 0


def test_run_solver_rejects_unknown():
    cfg = small_config()
    inst, _ = build_experiment_instance(cfg, 0)
    with pytest.raises(ValueError):
        run_solver("cplex", inst, cfg, UNICAST)


def test_run_sweep_single_cell_yields_one_row():
    cfg = small_config(sweep_param="n_views", sweep_values=[3])
    rows = list(run_sweep(cfg))
    assert len(rows) == 1
    row = rows[0]
    assert row["status"] == "ok"
    assert row["solver"] == "sinr" and row["seed"] == 0
    assert row["feasible"] is True


def test_run_sweep_is_deterministic():
    cfg = small_config(
        sweep_param="n_views", sweep_values=[2, 3], seeds=[0, 1],
        solvers=["sinr", "eva"],
    )
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "wall_time"} for r in rows
    ]
    assert strip(list(run_sweep(cfg))) == strip(list(run_sweep(cfg)))


def test_run_sweep_records_generation_failures():
    # 10 views cannot be covered by 3 cells with capacity 1.
    cfg = small_config(n_views=10, cache_capacity=1)
    rows = list(run_sweep(cfg))
    assert len(rows) == 1
    assert "generation failed" in rows[0]["status"]


def test_run_sweep_multicast_mode_rows():
    cfg = small_config(
        modes=[UNICAST, MULTICAST], sharing_fraction=1.0, solvers=["eva"]
    )
    rows = list(run_sweep(cfg))
    assert [r["mode"] for r in rows] == [UNICAST, MULTICAST]
    assert all(r["status"] == "ok" for r in rows)


def test_run_sweep_measures_each_result_once(monkeypatch):
    calls = []
    real = problem.rb_usage

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # Both names a caller may look up.
    monkeypatch.setattr(problem, "rb_usage", counting)
    monkeypatch.setattr(metrics, "rb_usage", counting)
    cfg = small_config(seeds=[0, 1], solvers=["sinr", "eva"])
    rows = list(run_sweep(cfg))
    assert len(rows) == 4 and all(r["status"] == "ok" for r in rows)
    assert len(calls) == len(rows)


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


@pytest.mark.parametrize("stage", ["build_experiment_instance", "run_solver"])
def test_run_sweep_records_value_errors_and_propagates_bugs(monkeypatch, stage):
    cfg = small_config()
    monkeypatch.setattr(experiments, stage, _raising(ValueError("bad input")))
    [row] = run_sweep(cfg)
    assert "bad input" in row["status"]
    monkeypatch.setattr(experiments, stage, _raising(ZeroDivisionError("bug")))
    with pytest.raises(ZeroDivisionError):
        list(run_sweep(cfg))
