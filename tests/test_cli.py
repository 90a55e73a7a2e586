"""End-to-end CLI: generate | solve | sweep | verify."""

import csv
import json

import pytest

from tiercast import serialize
from tiercast.cli import main
from tiercast.experiments import SWEEP_CSV_COLUMNS

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


@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_non_integer_seed_variable_is_a_validation_error(
    command, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("TIERCAST_SEED", "abc")
    out = tmp_path / "out"
    rc = main([command, *SMALL, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "TIERCAST_SEED" in err[0] and "'abc'" in err[0]
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


def test_solve_eva_records_p(tmp_path, capsys):
    inst = _generate(tmp_path)
    rc = main(["solve", str(inst), "--solver", "eva", "--eva-p", "3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["params"]["p"] == 3.0


def test_solve_bruteforce_cap_exit_code(tmp_path, capsys):
    out = tmp_path / "big.json"
    rc = main(
        ["generate", "--n-users", "30", "--n-cells", "3", "--n-views", "2",
         "--seed", "0", "--out", str(out)]
    )
    assert rc == 0
    rc = main(["solve", str(out), "--solver", "bruteforce", "--cap", "1000"])
    assert rc == 2


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
