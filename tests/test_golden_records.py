"""Every solver's result on the paper presets, pinned bit for bit.

``tests/data/golden_records.json`` holds one SHA-256 digest per (preset,
sweep value, seed, mode, solver). A digest covers the association's bytes,
the allocation entries in dict order with each share as ``float.hex``, the
objective's ``float.hex``, ``tie_breaks``, and bb's node and prune counts.
bb runs at ``node_budget=2000`` so that the file takes seconds to recompute.
A change that is meant to keep every result must leave this test passing
unchanged; one that moves results regenerates the file with

    PYTHONPATH=src python tests/test_golden_records.py

and says why the records moved. The script prints each key whose digest
moved, and their count, before it rewrites the file.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from tiercast.experiments import build_experiment_instance, preset_config, run_solver

GOLDEN = Path(__file__).parent / "data" / "golden_records.json"
BB_NODE_BUDGET = 2000
# (preset, seeds): every sweep value, mode and solver of each preset.
PRESETS = [
    ("fig3", [0, 1, 2]),
    ("fig4", [0, 1, 2]),
    ("fig9", [0, 1, 2]),
    ("fig6", [0]),
    ("fig7", [0]),
    ("fig8", [0]),
    ("fig10", [0, 1, 2]),
]


def _digest(solution, report) -> str:
    h = hashlib.sha256()
    h.update(solution.assoc.astype("<i8").tobytes())
    for (i, k), y in solution.alloc.items():
        h.update(f"{i},{k},{float(y).hex()};".encode())
    h.update(
        f"|{float(report.objective).hex()}|{report.tie_breaks}"
        f"|{report.nodes_explored}|{report.nodes_pruned}".encode()
    )
    return h.hexdigest()


def compute_records() -> dict[str, str]:
    records = {}
    for name, seeds in PRESETS:
        config = preset_config(name)
        for value in config.sweep_values:
            point = dataclasses.replace(
                config.at_sweep_value(value), node_budget=BB_NODE_BUDGET
            )
            for seed in seeds:
                instance, _ = build_experiment_instance(point, seed)
                for mode in point.modes:
                    for solver in point.solvers:
                        solution, report = run_solver(solver, instance, point, mode)
                        key = f"{name}|{value}|{seed}|{mode}|{solver}"
                        records[key] = _digest(solution, report)
    return records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_records_cover_every_preset(golden):
    assert len(golden) == 340
    assert {key.split("|")[0] for key in golden} == {name for name, _ in PRESETS}


def test_every_solver_result_matches_its_golden_record(golden):
    records = compute_records()
    assert list(records) == list(golden)
    moved = [key for key in golden if records[key] != golden[key]]
    assert not moved, f"{len(moved)} records moved, first: {moved[:5]}"


if __name__ == "__main__":
    records = compute_records()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    keys = list(records) + [key for key in old if key not in records]
    moved = [key for key in keys if records.get(key) != old.get(key)]
    for key in moved:
        print(key)
    print(f"{len(moved)} of {len(keys)} digests moved")
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
