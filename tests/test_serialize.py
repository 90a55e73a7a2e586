"""JSON round trips and schema validation."""

import base64
import json
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiercast import serialize
from tiercast.problem import Instance
from tiercast.solvers import solve_sinr

from conftest import random_tiny_instance

GOLDEN = Path(__file__).parent / "data" / "instance_v4.json"


def _golden_instance():
    """Small enough to read; values above one byte pin the byte order."""
    return Instance(
        n_users=2,
        n_cells=2,
        n_views=2,
        w=[[[1, 0], [0, 1]], [[1, 1], [0, 0]]],
        rb_budget=[300, 2**40 + 1],
        rb_basic=[[1, 2], [3, 258]],
        rb_enhanced=[[[10, 11], [12, 13]], [[14, 15], [16, 65536]]],
        sharing=[[1, 0], [1, 0]],
    )


def _write(tmp_path, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    return path


def _b64(values, dtype):
    return _text(zlib.compress(np.asarray(values, dtype=dtype).tobytes()))


def _text(stream):
    return base64.b64encode(stream).decode()


def _inflate(text):
    return zlib.decompress(base64.b64decode(text))


def _zero_stream(n_bytes):
    """A small zlib stream that inflates to ``n_bytes`` zero bytes."""
    packer = zlib.compressobj(9)
    chunk = bytes(2**20)
    body = b"".join(packer.compress(chunk) for _ in range(n_bytes // len(chunk)))
    return body + packer.flush()


def test_instance_round_trip_with_sharing(tmp_path, rng):
    inst = random_tiny_instance(rng, with_sharing=True)
    path = tmp_path / "inst.json"
    serialize.save_instance(inst, path)
    back = serialize.load_instance(path)
    assert (back.w == inst.w).all()
    assert (back.rb_budget == inst.rb_budget).all()
    assert (back.rb_basic == inst.rb_basic).all()
    assert (back.rb_enhanced == inst.rb_enhanced).all()
    assert (back.sharing == inst.sharing).all()
    again = tmp_path / "again.json"
    serialize.save_instance(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_solution_round_trip(tmp_path, rng):
    inst = random_tiny_instance(rng)
    sol, _ = solve_sinr(inst)
    path = tmp_path / "sol.json"
    serialize.save_solution(sol, path)
    back = serialize.load_solution(path)
    assert (back.assoc == sol.assoc).all()
    assert back.alloc == pytest.approx(sol.alloc)


def test_dumps_are_deterministic(tmp_path, rng):
    inst = random_tiny_instance(rng, with_sharing=True)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    serialize.save_instance(inst, p1)
    serialize.save_instance(inst, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_schema_mismatch_raises(tmp_path, rng):
    inst = random_tiny_instance(rng)
    path = tmp_path / "inst.json"
    serialize.save_instance(inst, path)
    with pytest.raises(
        ValueError, match="expected schema 'solution/v1', got 'instance/v4'"
    ):
        serialize.load_solution(path)


def test_loaded_instance_is_validated(tmp_path):
    payload = serialize.instance_to_dict(
        random_tiny_instance(np.random.default_rng(3))
    )
    payload["rb_budget"] = _b64(np.zeros(payload["n_cells"]), "<i8")
    with pytest.raises(ValueError, match="budgets must be positive"):
        serialize.load_instance(_write(tmp_path, payload))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), with_sharing=st.booleans())
def test_instance_round_trip_property(seed, with_sharing):
    inst = random_tiny_instance(np.random.default_rng(seed), with_sharing=with_sharing)
    text = json.dumps(serialize.instance_to_dict(inst))
    back = serialize.instance_from_dict(json.loads(text))
    assert (back.n_users, back.n_cells, back.n_views) == (
        inst.n_users, inst.n_cells, inst.n_views
    )
    for name in ("w", "rb_budget", "rb_basic", "rb_enhanced", "sharing"):
        mine, theirs = getattr(back, name), getattr(inst, name)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert (mine == theirs).all()


def test_instance_bytes_are_pinned(tmp_path):
    path = tmp_path / "inst.json"
    serialize.save_instance(_golden_instance(), path)
    assert path.read_bytes() == GOLDEN.read_bytes()


def test_golden_arrays_are_little_endian_c_order():
    data = json.loads(GOLDEN.read_text())
    assert data["schema"] == "instance/v4"
    assert _inflate(data["w"]) == bytes([1, 0, 0, 1, 1, 1, 0, 0])
    assert _inflate(data["rb_budget"]) == struct.pack("<2q", 300, 2**40 + 1)
    assert _inflate(data["rb_basic"]) == struct.pack("<4q", 1, 2, 3, 258)
    assert _inflate(data["rb_enhanced"]) == struct.pack(
        "<8q", 10, 11, 12, 13, 14, 15, 16, 65536
    )
    assert _inflate(data["sharing"]) == bytes([1, 0, 1, 0])


def test_loaded_arrays_are_owned_writable_and_native(tmp_path):
    path = tmp_path / "inst.json"
    serialize.save_instance(_golden_instance(), path)
    back = serialize.load_instance(path)
    for name in ("w", "rb_budget", "rb_basic", "rb_enhanced", "sharing"):
        array = getattr(back, name)
        assert array.flags.writeable and array.flags.owndata
        assert array.dtype.isnative
    back.rb_enhanced[1, 1, 1] = 7
    assert back.rb_enhanced[1, 1, 1] == 7


def _v1_payload(data):
    inst = _golden_instance()
    return {
        **data,
        "schema": "instance/v1",
        "w": inst.w.tolist(),
        "rb_budget": inst.rb_budget.tolist(),
        "rb_basic": inst.rb_basic.tolist(),
        "rb_enhanced": inst.rb_enhanced.tolist(),
    }


def _v2_payload(data):
    return {**_without(data, "sharing"), "schema": "instance/v2",
            "sharing": [[0, 0, [0, 1]], [1, 1, []]]}


def _v3_payload(data):
    """The golden instance as ``instance/v3`` stored it: raw bytes, unpacked."""
    return {
        **data,
        "schema": "instance/v3",
        **{name: _text(_inflate(data[name]))
           for name in ("w", "rb_budget", "rb_basic", "rb_enhanced", "sharing")},
    }


def _without(data, name):
    return {key: value for key, value in data.items() if key != name}


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_v1_payload, "expected schema 'instance/v4'"),
        (_v2_payload, "expected schema 'instance/v4'"),
        (_v3_payload, "expected schema 'instance/v4'"),
        # Decoders that skip unknown characters would read the right bytes.
        (lambda d: {**d, "w": d["w"][:4] + "*!*!" + d["w"][4:]}, "array 'w'"),
        (lambda d: {**d, "rb_enhanced": d["rb_enhanced"][:-8]},
         "array 'rb_enhanced': truncated zlib stream"),
        # Every byte is there; only the stream's checksum is not.
        (lambda d: {**d, "rb_basic": _text(zlib.compress(bytes(32))[:-4])},
         "array 'rb_basic': truncated zlib stream"),
        (lambda d: {**d, "rb_basic": _b64(np.arange(5), "<i8")},
         "inflates past 32 bytes"),
        (lambda d: {**d, "rb_basic": _b64(np.arange(3), "<i8")},
         "24 bytes, expected 32"),
        (lambda d: {**d, "rb_basic": _text(zlib.compress(bytes(32)) + b"\0")},
         "array 'rb_basic': bytes after the end of the zlib stream"),
        (lambda d: {**d, "rb_basic": _text(bytes(32))},
         "array 'rb_basic': Error -3"),
        (lambda d: {**d, "n_users": 0}, "array 'w': inflates past 0 bytes"),
        (lambda d: {**d, "n_users": 2.0}, "n_users must be an integer"),
        (lambda d: {**d, "n_users": True}, "n_users must be an integer"),
        (lambda d: _without(d, "rb_enhanced"), "missing field 'rb_enhanced'"),
        (lambda d: {**d, "sharing": _b64(np.zeros(5), "<i1")}, "inflates past 4 bytes"),
    ],
    ids=["v1", "v2", "v3", "non-base64", "truncated", "checksum-missing",
         "one-item-long", "one-item-short", "trailing-bytes", "not-zlib",
         "empty-array-with-bytes", "float-count", "bool-count", "missing-array",
         "sharing-one-byte-long"],
)
def test_malformed_instance_raises_schema_error(tmp_path, corrupt, message):
    payload = corrupt(serialize.instance_to_dict(_golden_instance()))
    with pytest.raises(ValueError, match=message):
        serialize.load_instance(_write(tmp_path, payload))


def test_inflating_an_empty_array_is_bounded(tmp_path):
    """A header whose counts allow no bytes inflates at most one byte of a
    64 MiB stream before the payload is refused."""
    payload = serialize.instance_to_dict(_golden_instance())
    payload = {**payload, "n_users": 0, "w": _text(_zero_stream(2**26))}
    path = _write(tmp_path, payload)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="inflates past 0 bytes"):
            serialize.load_instance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22


def _solution_payload(alloc, assoc=(0, 1)):
    return {"schema": serialize.SOLUTION_SCHEMA, "assoc": list(assoc), "alloc": alloc}


def test_solution_rejects_non_integer_index(tmp_path):
    path = _write(tmp_path, _solution_payload([[1.5, 0, 1.0]]))
    with pytest.raises(ValueError, match="not \\[user, view, y\\]"):
        serialize.load_solution(path)


@pytest.mark.parametrize("y", [float("nan"), float("inf"), float("-inf")])
def test_solution_rejects_non_finite_share(tmp_path, y):
    path = _write(tmp_path, _solution_payload([[0, 0, y]]))
    with pytest.raises(ValueError, match="finite"):
        serialize.load_solution(path)


def test_solution_rejects_duplicate_pair(tmp_path):
    path = _write(tmp_path, _solution_payload([[0, 1, 1.0], [0, 1, 0.5]]))
    with pytest.raises(ValueError, match="given twice"):
        serialize.load_solution(path)


@pytest.mark.parametrize("field", ["assoc", "alloc"])
def test_solution_rejects_missing_field(tmp_path, field):
    payload = _without(_solution_payload([[0, 0, 1.0]]), field)
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        serialize.load_solution(_write(tmp_path, payload))


@pytest.mark.parametrize(
    "payload, message",
    [
        (_solution_payload([[0, 0, 1.0]], assoc=(0, 1.0)), "assoc must be a list of integer"),
        ({**_solution_payload([]), "assoc": 0}, "assoc must be a list of integer"),
        ({**_solution_payload([]), "alloc": {"0": 1.0}}, "alloc must be a list of"),
    ],
    ids=["float-cell", "assoc-not-a-list", "alloc-not-a-list"],
)
def test_solution_rejects_malformed_lists(tmp_path, payload, message):
    with pytest.raises(ValueError, match=message):
        serialize.load_solution(_write(tmp_path, payload))
