"""End-to-end CLI: generate | solve | sweep | verify."""

import base64
import csv
import dataclasses
import json
import zlib

import pytest

from tiercast import cli, experiments, serialize
from tiercast.cli import main
from tiercast.experiments import SWEEP_CSV_COLUMNS, ExperimentConfig
from tiercast.problem import INSTANCE_ARRAYS

SMALL = [
    "--n-users", "6", "--n-cells", "2", "--n-views", "3",
    "--rb-budget", "50000",
]


# Deeper than any JSON parser recursion can follow.
NESTED = "[" * 200_000 + "]" * 200_000


def _generate(tmp_path, seed=0, extra=()):
    out = tmp_path / f"inst{seed}.json"
    rc = main(
        ["generate", *SMALL, *extra, "--seed", str(seed), "--out", str(out)]
    )
    assert rc == 0
    return out


def test_generate_idempotent_per_seed(tmp_path, capsys):
    p1 = _generate(tmp_path, seed=3)
    text1 = p1.read_bytes()
    p1.unlink()
    p2 = _generate(tmp_path, seed=3)
    assert p2.read_bytes() == text1


def test_generate_small_scale_defaults(tmp_path, capsys):
    out = tmp_path / "default.json"
    rc = main(["generate", "--seed", "0", "--out", str(out)])
    assert rc == 0
    inst = serialize.load_instance(out)
    assert (inst.n_users, inst.n_cells, inst.n_views) == (50, 10, 5)


def test_generate_refuses_uncoverable_caches(tmp_path, capsys):
    out = tmp_path / "bad.json"
    rc = main(
        ["generate", *SMALL, "--n-views", "10", "--cache-capacity", "1",
         "--seed", "0", "--out", str(out)]
    )
    assert rc == 1
    assert not out.exists()


def test_generate_refuses_more_views_per_user_than_views(tmp_path, capsys):
    out = tmp_path / "bad.json"
    rc = main(
        ["generate", "--n-users", "5", "--n-cells", "2", "--n-views", "3",
         "--views-per-user", "7", "--seed", "0", "--out", str(out)]
    )
    assert rc == 1
    assert "generation failed" in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_a_negative_views_per_user(tmp_path, capsys):
    out = tmp_path / "bad.json"
    rc = main(["generate", *SMALL, "--views-per-user", "-1", "--out", str(out)])
    assert rc == 1
    assert "views_per_user must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["hotspot", "uniform"])
def test_generate_refuses_a_map_of_radius_zero(scenario, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"map_radius": 0, "scenario": scenario}))
    out = tmp_path / "bad.json"
    rc = main(["generate", "--config", str(config), "--out", str(out)])
    assert rc == 1
    assert "generation failed: map_radius must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_a_negative_hotspot_sigma(tmp_path, capsys):
    # It used to reach numpy, which said only "scale < 0".
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hotspot_sigma": -1.0}))
    out = tmp_path / "bad.json"
    rc = main(["generate", "--config", str(config), "--out", str(out)])
    assert rc == 1
    assert "generation failed: hotspot_sigma must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_generate_topology_out_writes_topology_v1(tmp_path, capsys):
    out, topo_out = tmp_path / "inst.json", tmp_path / "topo.json"
    rc = main(["generate", "--preset", "fig3", "--seed", "0", "--out", str(out),
               "--topology-out", str(topo_out)])
    assert rc == 0
    written = json.loads(topo_out.read_text())
    _, topology = experiments.build_experiment_instance(
        experiments.preset_config("fig3"), 0
    )
    assert written["schema"] == "topology/v1"
    assert written["cell_positions"] == topology.cell_positions.tolist()
    assert written["user_positions"] == topology.user_positions.tolist()
    assert written["map_radius"] == topology.map_radius


def test_solve_refuses_an_instance_with_no_cells(tmp_path, capsys):
    # Every solver used to fail on it, one with a traceback.
    def packed(dtype, n_bytes):
        return {"dtype": dtype, "data": base64.b64encode(zlib.compress(bytes(n_bytes))).decode()}

    path = tmp_path / "no_cells.json"
    path.write_text(json.dumps({
        "schema": serialize.INSTANCE_SCHEMA, "n_users": 2, "n_cells": 0, "n_views": 2,
        "w": packed("bits", 0), "rb_budget": packed("<i1", 0), "rb_basic": packed("<i1", 0),
        "rb_enhanced": packed("<i1", 0), "sharing": packed("bits", 1),
    }))
    assert main(["solve", str(path), "--solver", "bb"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot load instance: n_cells must be >= 1, got 0")


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_missing_config_file_is_a_validation_error(command, tmp_path, capsys):
    rc = main([command, "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"n_userz": 5}, "'n_userz'"),
        ({"bruteforce_cap": 10}, "'bruteforce_cap'"),
        ([1, 2], "list"),
        ({"channel": {"fq": 5}}, "'fq'"),
        ({"n_users": "5"}, "'n_users'"),
        ({"n_users": 5.0}, "'n_users'"),
        ({"seeds": 3}, "'seeds'"),
        ({"eva_p": float("nan")}, "'eva_p'"),
        ({"map_radius": float("inf")}, "'map_radius'"),
        (
            {"sweep_param": "n_views", "sweep_values": ["3"], "seeds": [0],
             "solvers": ["sinr"]},
            "'n_views'",
        ),
        (
            {"sweep_param": "n_views", "sweep_values": [[1]], "seeds": [0],
             "solvers": ["sinr"]},
            "'n_views'",
        ),
        ({"schema": "config/v0"}, "'config/v0'"),
        ({"channel": [0.0]}, "'channel' must be an object"),
        ({"n_users": True}, "'n_users' must be int, got True"),
        (NESTED, "nested too deeply"),
        ({"cache_capacity": 2**63}, "'cache_capacity' must be int | None, got 9223372036854775808"),
        ({"seeds": [0, 2**63]}, "'seeds'"),
        ({"map_radius": 10**20}, "'map_radius' must be float"),
    ],
    ids=[
        "unknown-key",
        "removed-bruteforce_cap-key",
        "not-an-object",
        "unknown-channel-key",
        "string-n_users",
        "float-n_users",
        "scalar-seeds",
        "nan-eva_p",
        "infinity-map_radius",
        "string-sweep-value",
        "list-sweep-value",
        "other-schema",
        "channel-not-an-object",
        "bool-n_users",
        "nested-too-deeply",
        "cache_capacity-beyond-int64",
        "seed-beyond-int64",
        "float-map_radius-beyond-int64",
    ],
)
def test_bad_config_payload_is_a_validation_error(payload, named, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    out = tmp_path / "out"
    for command in ("generate", "sweep"):
        rc = main([command, "--config", str(path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("invalid configuration") and named in err[0]
        assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_unknown_solver_flag_is_refused_before_any_instance(
    command, tmp_path, capsys, monkeypatch
):
    def build(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(cli, "build_experiment_instance", build)
    monkeypatch.setattr(experiments, "build_experiment_instance", build)
    if command == "generate":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"solvers": ["sinr", "elvaa"]}))
        flags = ["--config", str(path)]
    else:
        flags = ["--preset", "fig7", "--seeds", "1", "--solvers", "sinr,elvaa"]
    out = tmp_path / "out"
    rc = main([command, *flags, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("invalid configuration")
    assert not out.exists()


@pytest.mark.parametrize(
    "field, config, flags",
    [
        ("seeds", {}, ["--seeds", "0"]),
        ("solvers", {"solvers": []}, []),
        ("modes", {"modes": []}, []),
    ],
    ids=["seeds", "solvers", "modes"],
)
def test_sweep_refuses_an_empty_run_list(field, config, flags, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    rc = main(["sweep", "--config", str(path), *flags, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"invalid configuration: {field} must be nonempty"
    assert not out.exists()


@pytest.mark.parametrize(
    "field, config, flags",
    [
        ("seeds", {"seeds": [0, 0]}, []),
        ("solvers", {}, ["--seeds", "1", "--solvers", "eva,eva"]),
        ("modes", {}, ["--seeds", "1", "--mode", "unicast,unicast"]),
        ("sweep_values", {"sweep_param": "n_views", "sweep_values": [2, 2]}, []),
    ],
    ids=["seeds", "solvers", "modes", "sweep_values"],
)
def test_sweep_refuses_a_repeated_run_list_entry(field, config, flags, tmp_path, capsys):
    # A repeated entry used to run twice and write duplicate rows.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    rc = main(["sweep", "--config", str(path), *flags, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.strip() == f"invalid configuration: {field} must be distinct"
    assert not out.exists()


def test_sweep_refuses_an_empty_mode(tmp_path, capsys):
    out = tmp_path / "out.csv"
    rc = main(["sweep", "--preset", "fig8", "--seeds", "1", "--mode", "", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.strip() == "invalid configuration: unknown mode ''"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag", ["--eva-p", "--node-budget", "--seeds", "--solvers", "--mode"]
)
def test_generate_has_no_run_flags(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", flag, "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "inst.json", "--solver", "nope"],
        ["generate", "--n-users", "abc", "--out", "out.json"],
    ],
    ids=["unknown-solver", "non-integer-n-users"],
)
def test_malformed_flag_is_a_validation_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_preset_and_config_together_are_refused(command, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_users": 7}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--preset", "fig3", "--config", str(path), "--out", str(out)])
    assert exc.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_a_negative_sharing_fraction(tmp_path, capsys):
    out = tmp_path / "out.json"
    rc = main(["generate", *SMALL, "--sharing-fraction", "-0.5", "--out", str(out)])
    assert rc == 1
    assert "generation failed: fraction must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_a_budget_beyond_int64(tmp_path, capsys):
    # The config takes an int field by the instance loader's int64 rule, so
    # the budget stops there, before any generation.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rb_budget": 10**20}))
    out = tmp_path / "out"
    rc = main(["generate", "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert (
        "invalid configuration: config key 'rb_budget' must be int, got 100000000000000000000"
        in capsys.readouterr().err
    )
    assert not out.exists()


def test_an_int_beyond_int64_is_refused_at_the_config(tmp_path, capsys):
    # A config int follows serialize.is_int: 2**63 used to pass the config
    # and end in an OverflowError traceback from place_caches.
    out = tmp_path / "inst.json"
    assert main(["generate", *SMALL, "--cache-capacity", str(2**63), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "invalid configuration: config key 'cache_capacity' must be int | None,"
        " got 9223372036854775808\n"
    )
    assert not out.exists()
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_users": 6, "n_cells": 2, "n_views": 3,
                                "cache_capacity": 2**63 - 1}))
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
    assert serialize.load_instance(out).n_users == 6


def test_solve_bruteforce_small(tmp_path, capsys):
    # bb is the one exact solver: brute force is no solver choice.
    inst = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(inst), "--solver", "bruteforce", "--solution-out", str(sol_path)])
    assert exc.value.code == 1
    assert "invalid choice: 'bruteforce'" in capsys.readouterr().err
    assert not sol_path.exists()


def test_solve_bb_node_budget_flag(tmp_path, capsys):
    inst = _generate(tmp_path)
    rc = main(["solve", str(inst), "--solver", "bb", "--node-budget", "5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["node_budget_hit"] is True
    assert report["params"]["node_budget"] == 5


def test_solve_bb_takes_the_config_node_budget(tmp_path, capsys):
    inst = _generate(tmp_path)
    rc = main(["solve", str(inst), "--solver", "bb"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["params"]["node_budget"] == 1_000_000


def test_solve_eva_records_p(tmp_path, capsys):
    inst = _generate(tmp_path)
    rc = main(["solve", str(inst), "--solver", "eva", "--eva-p", "3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["params"]["p"] == 3.0


def test_solve_refuses_a_nonfinite_eva_p(tmp_path, capsys):
    inst = _generate(tmp_path)
    rc = main(["solve", str(inst), "--solver", "eva", "--eva-p", "nan"])
    assert rc == 1
    assert "'eva_p'" in capsys.readouterr().err


def test_solve_refuses_an_eva_p_whose_rank_overflows(tmp_path, capsys):
    inst = _generate(tmp_path)
    capsys.readouterr()
    rc = main(["solve", str(inst), "--solver", "eva", "--eva-p", "2000"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("solve failed: eva_p = 2000 overflows")


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--solver", "bb", "--node-budget", "-5"], "node_budget"),
        (["--solver", "eva", "--eva-p", "-1"], "eva_p"),
    ],
    ids=["node-budget", "eva-p"],
)
def test_solve_refuses_an_out_of_range_setting(flags, named, tmp_path, capsys):
    inst = _generate(tmp_path)
    capsys.readouterr()
    rc = main(["solve", str(inst), *flags])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"invalid configuration: {named} must be")


def test_verify_refuses_an_out_of_range_cap(tmp_path, capsys):
    # The cap is bb's node budget, the oracle's one setting.
    inst = _generate(tmp_path)
    sol = tmp_path / "sol.json"
    assert main(["solve", str(inst), "--solver", "sinr", "--solution-out", str(sol)]) == 0
    capsys.readouterr()
    assert main(["verify", str(inst), str(sol), "--oracle", "--node-budget", "-1"]) == 1
    assert "node_budget must be at least 0" in capsys.readouterr().err
    # The flags are checked as given, whether or not the oracle runs.
    assert main(["verify", str(inst), str(sol), "--node-budget", "-1"]) == 1
    assert "node_budget must be at least 0" in capsys.readouterr().err


def test_verify_refuses_a_node_budget_without_the_oracle(tmp_path, capsys):
    # Without --oracle, verify runs no bb, so the cap would do nothing.
    inst = _generate(tmp_path)
    sol = tmp_path / "sol.json"
    assert main(["solve", str(inst), "--solver", "sinr", "--solution-out", str(sol)]) == 0
    capsys.readouterr()
    assert main(["verify", str(inst), str(sol), "--node-budget", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "invalid configuration: node_budget is read only by bb, which does not run,"
        " so it cannot be set (got 5)\n"
    )


def test_sweep_refuses_an_out_of_range_swept_eva_p(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"sweep_param": "eva_p", "sweep_values": [1.0, -1.0], "solvers": ["eva"]}
    ))
    out = tmp_path / "out.csv"
    rc = main(["sweep", "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert "eva_p must be at least 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--preset", "fig9", "--cache-capacity", "0"],
        ["--preset", "fig8", "--eva-p", "0"],
        ["--preset", "fig3", "--n-views", "7"],
        # A flag that restates the default has no effect either.
        ["--preset", "fig8", "--eva-p", "1"],
        ["--preset", "fig3", "--n-views", "5"],
    ],
    ids=[
        "fig9-cache-capacity", "fig8-eva-p", "fig3-n-views",
        "fig8-eva-p-default", "fig3-n-views-default",
    ],
)
def test_sweep_refuses_a_setting_of_the_swept_field(flags, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["sweep", *flags, "--seeds", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "is swept" in err
    assert not out.exists()


def _unread(flag, value, reader):
    return (
        f"invalid configuration: {flag} is read only by {reader}, which does not run,"
        f" so it cannot be set (got {value})\n"
    )


@pytest.mark.parametrize(
    "argv, err",
    [
        (["solve", "INST", "--solver", "elva", "--eva-p", "3", "--solution-out", "OUT"],
         _unread("eva_p", 3.0, "eva")),
        (["solve", "INST", "--solver", "eva", "--node-budget", "7", "--solution-out", "OUT"],
         _unread("node_budget", 7, "bb")),
        (["verify", "INST", "SOL", "--node-budget", "5"], _unread("node_budget", 5, "bb")),
        (["sweep", "--preset", "fig8", "--seeds", "1", "--node-budget", "5", "--out", "OUT"],
         _unread("node_budget", 5, "bb")),
        (["sweep", "--preset", "fig3", "--seeds", "1", "--sharing-fraction", "0.5",
          "--out", "OUT"], _unread("sharing_fraction", 0.5, "multicast")),
        (["sweep", "--preset", "fig4", "--seeds", "1", "--mode", "unicast",
          "--sharing-fraction", "0.5", "--out", "OUT"],
         _unread("sharing_fraction", 0.5, "multicast")),
    ],
    ids=[
        "solve-elva-eva-p", "solve-eva-node-budget", "verify-node-budget",
        "sweep-fig8-node-budget", "sweep-fig3-sharing-fraction",
        "sweep-fig4-unicast-sharing-fraction",
    ],
)
def test_a_flag_that_no_run_reads_is_refused(argv, err, tmp_path, capsys):
    # Each but verify's used to exit 0 and change nothing.
    inst = _generate(tmp_path)
    sol = tmp_path / "sol.json"
    assert main(["solve", str(inst), "--solver", "sinr", "--solution-out", str(sol)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    names = {"INST": str(inst), "SOL": str(sol), "OUT": str(out)}
    assert main([names.get(a, a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "INST", "SOL", "--oracle", "--node-budget", "5"],
        ["sweep", "--preset", "fig3", "--n-users", "6", "--n-cells", "2", "--seeds", "1",
         "--solvers", "eva", "--eva-p", "2", "--out", "OUT"],
        ["sweep", "--preset", "fig4", "--n-users", "6", "--n-cells", "2", "--seeds", "1",
         "--solvers", "sinr", "--sharing-fraction", "0.5", "--out", "OUT"],
        ["generate", *SMALL, "--sharing-fraction", "1", "--out", "OUT"],
    ],
    ids=[
        "verify-oracle-node-budget", "sweep-fig3-eva-p", "sweep-fig4-sharing-fraction",
        "generate-sharing-fraction",
    ],
)
def test_a_flag_whose_reader_runs_is_taken(argv, tmp_path, capsys):
    # solve's eva and bb cases: test_solve_eva_records_p and
    # test_solve_bb_node_budget_flag.
    inst = _generate(tmp_path)
    sol = tmp_path / "sol.json"
    assert main(["solve", str(inst), "--solver", "sinr", "--solution-out", str(sol)]) == 0
    out = tmp_path / "out"
    names = {"INST": str(inst), "SOL": str(sol), "OUT": str(out)}
    assert main([names.get(a, a) for a in argv]) == 0


def test_sweep_refuses_a_config_file_that_sets_its_swept_field(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sweep_param": "n_views", "sweep_values": [1, 2], "n_views": 7}))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "invalid configuration: n_views is swept, so it cannot be set (got 7)\n"
    )
    assert not out.exists()


def test_a_saved_preset_config_loads_and_sweeps(tmp_path, capsys):
    # to_dict writes every field, the swept one at its default included, so
    # a file is held to the value rule: a rule on which keys a file gives
    # would refuse every saved config.
    data = experiments.preset_config("fig3").to_dict()
    assert data["sweep_param"] == "n_views" and data["n_views"] == 5
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out.csv"
    rc = main(["sweep", "--config", str(path), "--n-users", "6", "--n-cells", "2",
               "--seeds", "1", "--solvers", "sinr", "--out", str(out)])
    assert rc == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["preset"], row["sweep_value"], row["status"]) for row in rows] == [
        ("fig3", str(n), "ok") for n in (1, 2, 3, 4, 5)
    ]


def test_sweep_refuses_sweep_values_without_a_sweep_param(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sweep_values": [1, 2, 3]}))
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    assert "sweep_values given without a sweep_param" in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_a_negative_seed_by_name(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["generate", "--seed", "-1", "--out", str(out)]) == 1
    assert "master_seed + seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    # A negative seed with a larger master seed sums to a valid one.
    assert main(["generate", "--master-seed", "5", "--seed", "-3", "--out", str(out)]) == 0


def test_solve_bruteforce_cap_exit_code(tmp_path, capsys):
    # Neither command takes an enumeration cap: --cap is an unknown flag.
    inst = _generate(tmp_path)
    for command in (["solve", str(inst), "--solver", "bb"], ["verify", str(inst), str(inst)]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--cap", "5"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


@dataclasses.dataclass
class _SmallCapConfig(ExperimentConfig):
    node_budget: int | None = 5


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_unset_cap_takes_the_config_default(command, tmp_path, capsys, monkeypatch):
    # The cap is bb's node budget. bb needs 90 nodes on this instance, so a
    # config default of 5 must reach both commands when --node-budget is not
    # given.
    inst = _generate(tmp_path)
    sol = tmp_path / "sol.json"
    assert main(["solve", str(inst), "--solver", "sinr", "--solution-out", str(sol)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "ExperimentConfig", _SmallCapConfig)
    if command == "solve":
        assert main(["solve", str(inst), "--solver", "bb"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["node_budget_hit"] is True
        assert report["params"]["node_budget"] == 5
    else:
        assert main(["verify", str(inst), str(sol), "--oracle"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["oracle_skipped"] == "bb stopped at its node budget of 5"


def test_solve_rejects_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    for text, named in [("{}", "expected schema"), (NESTED, "JSON nested too deeply")]:
        bad.write_text(text)
        assert main(["solve", str(bad), "--solver", "sinr"]) == 1
        assert capsys.readouterr().err.startswith(f"cannot load instance: {named}")
        assert main(["verify", str(bad), str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"cannot load inputs: {named}")


def test_sweep_single_row_and_columns(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(
        ["sweep", *SMALL, "--solvers", "sinr", "--seeds", "1",
         "--out", str(out)]
    )
    assert rc == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert list(rows[0].keys()) == list(SWEEP_CSV_COLUMNS)
    assert rows[0]["status"] == "ok"


def test_sweep_with_a_failed_row_writes_every_row_and_exits_1(tmp_path, capsys):
    # At p = 2000 EVA's ranks overflow: the EVA row fails, the ELVA row at
    # the same point does not, and both are written.
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps({
        "n_users": 4, "n_cells": 3, "solvers": ["eva", "elva"],
        "eva_p": 2000, "seeds": [0],
    }))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().out) == {"csv": str(out), "rows": 2, "failures": 1}
    with out.open() as fh:
        failed, elva = csv.DictReader(fh)
    assert failed["solver"] == "eva" and failed["status"].startswith("eva_p = 2000 overflows")
    assert elva["solver"] == "elva" and elva["status"] == "ok"
    results = ("sweep_value", "objective", "gap", "jain", "mean_utilization", "feasible", "wall_time")
    assert [failed[name] for name in results] == [""] * len(results)


def test_sweep_reruns_identically(tmp_path, capsys):
    args = ["sweep", *SMALL, "--solvers", "sinr,eva", "--seeds", "2", "--out"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0

    def strip(path):
        with path.open() as fh:
            return [
                {k: v for k, v in row.items() if k != "wall_time"}
                for row in csv.DictReader(fh)
            ]

    assert strip(out1) == strip(out2)


def test_verify_feasible_solution(tmp_path, capsys):
    inst = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", str(inst), "--solver", "sinr",
                 "--solution-out", str(sol_path)]) == 0
    capsys.readouterr()
    rc = main(["verify", str(inst), str(sol_path), "--oracle"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out.strip())
    assert result["feasible"] is True
    assert 0 < result["optimality_gap"] <= 1.0 + 1e-9


@pytest.mark.parametrize("mode", ["unicast", "multicast"])
def test_verify_oracle_gives_a_gap_exactly_when_bb_finishes(mode, tmp_path, capsys):
    # bb certifies this instance in 90 nodes in unicast and 95 in multicast:
    # under its default budget the gap is taken against bb's optimum; at 5
    # nodes bb stops short, so there is no gap.
    inst = _generate(tmp_path, extra=["--sharing-fraction", "1"])
    sol = tmp_path / "sol.json"
    args = [str(inst), "--mode", mode]
    assert main(["solve", *args, "--solver", "sinr", "--solution-out", str(sol)]) == 0
    assert main(["solve", *args, "--solver", "bb"]) == 0
    bb = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert bb["node_budget_hit"] is False and bb["feasible"]
    verify = ["verify", str(inst), str(sol), "--mode", mode, "--oracle"]
    assert main(verify) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["oracle_objective"] == bb["objective"]
    assert result["optimality_gap"] == result["objective"] / bb["objective"]
    assert "oracle_skipped" not in result
    assert main([*verify, "--node-budget", "5"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["oracle_objective"] is None
    assert result["oracle_skipped"] == "bb stopped at its node budget of 5"
    assert "optimality_gap" not in result


def test_verify_flags_corrupted_solution(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    inst = serialize.load_instance(inst_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", str(inst_path), "--solver", "sinr",
                 "--solution-out", str(sol_path)]) == 0
    sol = serialize.load_solution(sol_path)
    dead = [
        (i, k)
        for i in range(inst.n_users)
        for k in range(inst.n_views)
        if inst.w[i, sol.assoc[i], k] == 0
    ]
    sol.alloc[dead[0]] = 1.0
    serialize.save_solution(sol, sol_path)
    capsys.readouterr()
    rc = main(["verify", str(inst_path), str(sol_path)])
    assert rc == 2
    result = json.loads(capsys.readouterr().out.strip())
    assert result["violations"]


def test_verify_refuses_nan_share(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", str(inst_path), "--solver", "sinr",
                 "--solution-out", str(sol_path)]) == 0
    payload = json.loads(sol_path.read_text())
    payload["alloc"][0][2] = float("nan")
    sol_path.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = main(["verify", str(inst_path), str(sol_path)])
    assert rc == 1
    assert "finite" in capsys.readouterr().err


def test_verify_gives_an_over_budget_solution_no_gap(tmp_path, capsys):
    # At 3,000 RBs per cell some of fig7's four users afford no cell, so
    # SINR's result is over budget.
    inst_path = tmp_path / "tight.json"
    sol_path = tmp_path / "sol.json"
    assert main(["generate", "--preset", "fig7", "--n-users", "4", "--n-cells", "3",
                 "--rb-budget", "3000", "--out", str(inst_path)]) == 0
    assert main(["solve", str(inst_path), "--solver", "sinr",
                 "--solution-out", str(sol_path)]) == 2
    capsys.readouterr()
    rc = main(["verify", str(inst_path), str(sol_path), "--oracle"])
    assert rc == 2
    result = json.loads(capsys.readouterr().out)
    assert result["feasible"] is False
    assert any(v.startswith("budget") for v in result["violations"])
    assert result["objective"] is not None
    assert "optimality_gap" not in result and "oracle_objective" not in result


@pytest.mark.parametrize(
    "assoc, alloc, constraint",
    [
        ([0] * 6, [[6, 0, 1.0]], "alloc-index"),
        ([0] * 6, [[0, 3, 1.0]], "alloc-index"),
        # numpy would read user -1 as the last user.
        ([0] * 6, [[-1, 0, 1.0]], "alloc-index"),
        ([2] + [0] * 5, [[0, 0, 1.0]], "association"),
    ],
    ids=["user-past-end", "view-past-end", "negative-user", "cell-past-end"],
)
def test_verify_does_not_score_an_out_of_range_index(
    assoc, alloc, constraint, tmp_path, capsys
):
    inst_path = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(
        {"schema": serialize.SOLUTION_SCHEMA, "assoc": assoc, "alloc": alloc}
    ))
    capsys.readouterr()
    rc = main(["verify", str(inst_path), str(sol_path), "--oracle"])
    assert rc == 2
    result = json.loads(capsys.readouterr().out)
    assert result["objective"] is None
    assert "optimality_gap" not in result
    assert any(v.startswith(constraint) for v in result["violations"])


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", *SMALL, "--out", "{dir}"],
        ["generate", *SMALL, "--out", "{file}", "--topology-out", "{dir}"],
        ["solve", "{instance}", "--solver", "sinr", "--solution-out", "{dir}"],
        ["sweep", "--preset", "fig8", "--seeds", "1", "--out", "{dir}"],
    ],
    ids=["generate", "generate-topology", "solve", "sweep"],
)
def test_unwritable_output_is_a_validation_error(argv, tmp_path, capsys):
    paths = {"dir": tmp_path, "file": tmp_path / "out.json",
             "instance": _generate(tmp_path)}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert f"cannot write {tmp_path}: " in capsys.readouterr().err
    # A failed topology write takes the instance it followed with it.
    assert not paths["file"].exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", *SMALL, "--out", "x.json", "--topology-out", "link.json"],
        ["generate", "--config", "x.json", "--out", "link.json"],
        ["solve", "x.json", "--solver", "sinr", "--solution-out", "link.json"],
        ["sweep", "--config", "x.json", "--out", "{dir}/x.json"],
    ],
    ids=["generate-two-outputs", "generate-config", "solve-instance", "sweep-config"],
)
def test_an_output_on_an_input_or_another_output_is_refused(
    argv, tmp_path, capsys, monkeypatch
):
    # Each command names one file twice; the later write used to replace it,
    # and the command exited 0. Now it stops before any work starts.
    def work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "build_experiment_instance", work)
    monkeypatch.setattr(experiments, "build_experiment_instance", work)
    monkeypatch.setattr(serialize, "load_instance", work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.json").write_text("{}")
    (tmp_path / "link.json").symlink_to(tmp_path / "x.json")
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 1
    assert "are the same file" in capsys.readouterr().err
    assert (tmp_path / "x.json").read_text() == "{}"


def test_every_output_creates_its_parent_directory(tmp_path, capsys):
    inst, topology, solution, rows = (tmp_path / name / "f" for name in "abcd")
    assert main(["generate", *SMALL, "--out", str(inst),
                 "--topology-out", str(topology)]) == 0
    assert main(["solve", str(inst), "--solver", "sinr",
                 "--solution-out", str(solution)]) == 0
    assert main(["sweep", *SMALL, "--solvers", "sinr", "--seeds", "1",
                 "--out", str(rows)]) == 0
    assert all(path.is_file() for path in (inst, topology, solution, rows))


def _round_trip(tmp_path, capsys, flags, solver, mode="unicast"):
    """Generate with ``flags`` and seed 0, solve and verify: each exits 0 and
    verify scores solve's objective to the bit. Returns the loaded instance
    and solution, and the instance path."""
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    assert main(["generate", *flags, "--seed", "0", "--out", str(inst_path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(inst_path), "--solver", solver, "--mode", mode,
                 "--solution-out", str(sol_path)]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert main(["verify", str(inst_path), str(sol_path), "--mode", mode]) == 0
    verified = json.loads(capsys.readouterr().out)
    assert verified["feasible"] is True
    assert verified["objective"] == solved["objective"]
    return serialize.load_instance(inst_path), serialize.load_solution(sol_path), inst_path


@pytest.mark.parametrize(
    "flags",
    [["--preset", "fig4"], ["--preset", "fig4", "--sharing-fraction", "0.5"]],
    ids=["fig4", "fig4-half-shared"],
)
def test_multicast_round_trip_through_files(flags, tmp_path, capsys):
    instance, solution, _ = _round_trip(tmp_path, capsys, flags, "elva", "multicast")
    assert instance.sharing.any()
    if "--sharing-fraction" in flags:
        # Half the pairs are in sharing groups, so some cell serves group
        # members and pairs outside a group together, which no preset does.
        served = {
            (int(solution.assoc[i]), int(instance.sharing[i, k]))
            for (i, k), y in solution.alloc.items()
            if y > 0
        }
        assert {c for c, member in served if member} & {c for c, member in served if not member}


def test_fig9_round_trip_through_files(tmp_path, capsys):
    # fig9 is the only preset whose users want fewer than all views: the Zipf
    # demand draw and a partial cache fill. Every view is cached at some
    # cell, so w shows each user's wants.
    instance, _, _ = _round_trip(tmp_path, capsys, ["--preset", "fig9"], "elva")
    assert (instance.w.any(axis=1).sum(axis=1) == 2).all()
    assert (instance.w.any(axis=0).sum(axis=1) <= 5).all()


def test_fig10_round_trip_through_files(tmp_path, capsys):
    # fig10 is the largest preset. Its seed-0 file is 182,397 B with
    # rb_enhanced stored as its all-zero residual over rb_basic and the masks
    # as bits; with every cost stored at 4 bytes an entry it was 490,391 B
    # (and 12.5 MB unpacked). Saving what was loaded writes the same bytes.
    instance, _, inst_path = _round_trip(tmp_path, capsys, ["--preset", "fig10"], "eva")
    assert inst_path.stat().st_size < 200_000
    built, _ = experiments.build_experiment_instance(experiments.preset_config("fig10"), 0)
    for name, _, _ in INSTANCE_ARRAYS:
        loaded = getattr(instance, name)
        assert loaded.dtype == getattr(built, name).dtype
        assert (loaded == getattr(built, name)).all()
    serialize.save_instance(instance, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == inst_path.read_bytes()
