"""End-to-end CLI: generate | solve | sweep | verify."""

import csv
import dataclasses
import json

import pytest

from tiercast import cli, experiments, serialize
from tiercast.cli import main
from tiercast.experiments import SWEEP_CSV_COLUMNS, ExperimentConfig

SMALL = [
    "--n-users", "6", "--n-cells", "2", "--n-views", "3",
    "--rb-budget", "50000",
]


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
    ],
    ids=[
        "unknown-key",
        "not-an-object",
        "unknown-channel-key",
        "string-n_users",
        "float-n_users",
        "scalar-seeds",
        "nan-eva_p",
        "infinity-map_radius",
        "string-sweep-value",
    ],
)
def test_bad_config_payload_is_a_validation_error(payload, named, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    rc = main(["generate", "--config", str(path), "--out", str(out)])
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
    assert exc.value.code == 2


def test_generate_refuses_a_budget_beyond_int64(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"rb_budget": 10**20}))
    out = tmp_path / "out"
    rc = main(["generate", "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert "generation failed: rb_budget entries" in capsys.readouterr().err
    assert not out.exists()


def test_solve_bruteforce_small(tmp_path, capsys):
    inst = _generate(tmp_path)
    sol_path = tmp_path / "sol.json"
    rc = main(
        ["solve", str(inst), "--solver", "bruteforce",
         "--solution-out", str(sol_path)]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["solver"] == "bruteforce" and report["feasible"]
    assert sol_path.exists()


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


def test_solve_bruteforce_cap_exit_code(tmp_path, capsys):
    out = tmp_path / "big.json"
    rc = main(
        ["generate", "--n-users", "30", "--n-cells", "3", "--n-views", "2",
         "--seed", "0", "--out", str(out)]
    )
    assert rc == 0
    rc = main(["solve", str(out), "--solver", "bruteforce", "--cap", "1000"])
    assert rc == 2


@dataclasses.dataclass
class _SmallCapConfig(ExperimentConfig):
    bruteforce_cap: int = 3


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_unset_cap_takes_the_config_default(command, tmp_path, capsys, monkeypatch):
    # 2^6 associations exceed a config default of 3, so that default must
    # reach both commands when --cap is not given.
    inst = _generate(tmp_path)
    sol = tmp_path / "sol.json"
    assert main(["solve", str(inst), "--solver", "sinr", "--solution-out", str(sol)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "ExperimentConfig", _SmallCapConfig)
    if command == "solve":
        assert main(["solve", str(inst), "--solver", "bruteforce"]) == 2
        assert "cap of 3" in capsys.readouterr().err
    else:
        assert main(["verify", str(inst), str(sol), "--oracle"]) == 0
        assert "cap of 3" in json.loads(capsys.readouterr().out)["oracle_skipped"]


def test_solve_rejects_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{}")
    rc = main(["solve", str(bad), "--solver", "sinr"])
    assert rc == 1


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


def test_multicast_round_trip_through_files(tmp_path, capsys):
    inst_path = tmp_path / "fig4.json"
    sol_path = tmp_path / "sol.json"
    assert main(["generate", "--preset", "fig4", "--seed", "0",
                 "--out", str(inst_path)]) == 0
    assert serialize.load_instance(inst_path).sharing.any()
    capsys.readouterr()
    assert main(["solve", str(inst_path), "--solver", "elva", "--mode", "multicast",
                 "--solution-out", str(sol_path)]) == 0
    solved = json.loads(capsys.readouterr().out.strip())
    assert main(["verify", str(inst_path), str(sol_path), "--mode", "multicast"]) == 0
    verified = json.loads(capsys.readouterr().out.strip())
    assert verified["feasible"] is True
    assert verified["objective"] == solved["objective"]
