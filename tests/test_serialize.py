"""JSON round trips and schema validation."""

import base64
import dataclasses
import json
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiercast import experiments, serialize
from tiercast.experiments import build_experiment_instance, preset_config
from tiercast.problem import Instance
from tiercast.solvers import solve_sinr

from conftest import instances

GOLDEN = Path(__file__).parent / "data" / "instance_v7.json"
ARRAYS = ("w", "rb_budget", "rb_basic", "rb_enhanced", "sharing")


def _golden_instance():
    """Small enough to read; values above one byte pin the byte order, and
    rb_enhanced[1, 1, 0] lies 242 below its rb_basic, so the stored residual
    is negative there."""
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


def _planes(raw, width):
    """The entries of ``width`` bytes in ``raw`` as byte planes: byte 0 of
    every entry, then byte 1, and so on."""
    return b"".join(raw[b::width] for b in range(width))


def _packed(values, dtype):
    """An ``instance/v7`` table field holding ``values`` as ``dtype``: its
    byte planes, packed with Z_RLE."""
    planes = _planes(np.asarray(values, dtype=dtype).tobytes(), np.dtype(dtype).itemsize)
    packer = zlib.compressobj(1, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    return {"dtype": dtype, "data": _text(packer.compress(planes) + packer.flush())}


def _bits(stream):
    """An ``instance/v7`` mask field whose packed bits are ``stream``."""
    return {"dtype": "bits", "data": _text(zlib.compress(stream, 1))}


def _with_data(data, name, text):
    """``data`` with the ``data`` string of array ``name`` replaced."""
    return {**data, name: {**data[name], "data": text}}


def _text(stream):
    return base64.b64encode(stream).decode()


def _inflate(field):
    return zlib.decompress(base64.b64decode(field["data"]))


def _zero_stream(n_bytes):
    """A small zlib stream that inflates to ``n_bytes`` zero bytes."""
    packer = zlib.compressobj(9)
    chunk = bytes(2**20)
    body = b"".join(packer.compress(chunk) for _ in range(n_bytes // len(chunk)))
    return body + packer.flush()


# tmp_path is made once per test, not once per example; each example makes
# its own directory under tmp_path_factory.
@settings(max_examples=20, deadline=None)
@given(instances(sharing=True))
def test_instance_round_trip_with_sharing(tmp_path_factory, inst):
    tmp_path = tmp_path_factory.mktemp("round-trip")
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


@settings(max_examples=20, deadline=None)
@given(instances())
def test_solution_round_trip(tmp_path_factory, inst):
    sol, _ = solve_sinr(inst)
    path = tmp_path_factory.mktemp("round-trip") / "sol.json"
    serialize.save_solution(sol, path)
    back = serialize.load_solution(path)
    assert (back.assoc == sol.assoc).all()
    assert back.alloc == pytest.approx(sol.alloc)


@settings(max_examples=20, deadline=None)
@given(instances(sharing=True))
def test_dumps_are_deterministic(tmp_path_factory, inst):
    tmp_path = tmp_path_factory.mktemp("dumps")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    serialize.save_instance(inst, p1)
    serialize.save_instance(inst, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_schema_mismatch_raises(tmp_path):
    path = tmp_path / "inst.json"
    serialize.save_instance(_golden_instance(), path)
    with pytest.raises(
        ValueError, match="expected schema 'solution/v1', got 'instance/v7'"
    ):
        serialize.load_solution(path)


def test_loaded_instance_is_validated(tmp_path):
    payload = serialize.instance_to_dict(_golden_instance())
    payload["rb_budget"] = _packed(np.zeros(payload["n_cells"]), "<i8")
    with pytest.raises(ValueError, match="budgets must be positive"):
        serialize.load_instance(_write(tmp_path, payload))


@settings(max_examples=60, deadline=None)
@given(instances())
def test_instance_round_trip_property(inst):
    text = json.dumps(serialize.instance_to_dict(inst))
    back = serialize.instance_from_dict(json.loads(text))
    assert (back.n_users, back.n_cells, back.n_views) == (
        inst.n_users, inst.n_cells, inst.n_views
    )
    for name in ARRAYS:
        mine, theirs = getattr(back, name), getattr(inst, name)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert (mine == theirs).all()


def test_instance_bytes_are_pinned(tmp_path):
    path = tmp_path / "inst.json"
    serialize.save_instance(_golden_instance(), path)
    assert path.read_bytes() == GOLDEN.read_bytes()


def test_golden_arrays_are_little_endian_c_order():
    data = json.loads(GOLDEN.read_text())
    assert data["schema"] == "instance/v7"
    # The masks as bits; each table at the narrowest width that holds it,
    # stored as its byte planes: rb_basic holds 258, rb_enhanced's residual
    # -242 and 65,278, and rb_budget 2**40 + 1.
    assert {name: data[name]["dtype"] for name in ARRAYS} == {
        "w": "bits", "rb_budget": "<i8", "rb_basic": "<i2",
        "rb_enhanced": "<i4", "sharing": "bits",
    }
    assert _inflate(data["w"]) == bytes([0b10011100])
    assert _inflate(data["rb_budget"]) == _planes(struct.pack("<2q", 300, 2**40 + 1), 8)
    # 258 is 02 01 little-endian: the low bytes 01 02 03 02, then the high.
    assert _inflate(data["rb_basic"]) == bytes([1, 2, 3, 2, 0, 0, 0, 1])
    assert _inflate(data["rb_enhanced"]) == _planes(
        struct.pack("<8i", 9, 10, 10, 11, 11, 12, -242, 65278), 4
    )
    assert _inflate(data["sharing"]) == bytes([0b10100000])


# Values on either side of each width's edges, each with the narrowest
# stored dtype that holds it.
_EDGES = [
    (0, "<i1"), (2**7 - 1, "<i1"), (-(2**7), "<i1"), (2**7, "<i2"), (-(2**7) - 1, "<i2"),
    (2**15 - 1, "<i2"), (-(2**15), "<i2"), (2**15, "<i4"), (-(2**15) - 1, "<i4"),
    (2**31 - 1, "<i4"), (-(2**31), "<i4"), (2**31, "<i8"), (-(2**31) - 1, "<i8"),
    (2**63 - 1, "<i8"), (-(2**63), "<i8"),
]


@settings(max_examples=200, deadline=None)
@given(edges=st.lists(st.sampled_from(_EDGES), max_size=6))
def test_arrays_round_trip_at_their_narrowest_width(edges):
    values = np.array([value for value, _ in edges], dtype=np.int64)
    field = serialize._encode(values)
    # "<i1" < "<i2" < "<i4" < "<i8" as strings; an empty array is "<i1".
    assert field["dtype"] == max((dtype for _, dtype in edges), default="<i1")
    back = serialize._decode({"x": field}, "x", np.int64, values.shape)
    # A table loads at its stored width.
    assert back.dtype == np.dtype(field["dtype"]) and back.tolist() == values.tolist()


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(0, 11), max_size=3), seed=st.integers(0, 2**32 - 1))
def test_masks_round_trip_as_bits(shape, seed):
    mask = np.random.default_rng(seed).integers(0, 2, size=shape, dtype=np.int8)
    field = serialize._encode(mask)
    assert field["dtype"] == "bits"
    # MSB first in C order, zero pad bits: the one encoding of the mask.
    assert _inflate(field) == np.packbits(mask.ravel()).tobytes()
    back = serialize._decode({"x": field}, "x", np.int8, mask.shape)
    assert back.dtype == np.int8 and back.shape == mask.shape and (back == mask).all()
    assert back.flags.writeable and back.flags.owndata


def test_loaded_arrays_are_owned_writable_and_native(tmp_path):
    path = tmp_path / "inst.json"
    serialize.save_instance(_golden_instance(), path)
    back = serialize.load_instance(path)
    for name in ARRAYS:
        array = getattr(back, name)
        assert array.flags.writeable and array.flags.owndata
        assert array.dtype.isnative
    back.rb_enhanced[1, 1, 1] = 7
    assert back.rb_enhanced[1, 1, 1] == 7


def _tagged(version):
    """The current payload under an old schema tag: ``_load`` refuses the
    tag before it reads any field, so an old body would test nothing more."""
    return lambda data: {**data, "schema": f"instance/v{version}"}


def _without(data, name):
    return {key: value for key, value in data.items() if key != name}


@pytest.mark.parametrize(
    "corrupt, message",
    [
        *[(_tagged(version), f"expected schema 'instance/v7', got 'instance/v{version}'")
          for version in range(1, 7)],
        # Decoders that skip unknown characters would read the right bytes.
        (lambda d: _with_data(d, "w", d["w"]["data"][:4] + "*!*!" + d["w"]["data"][4:]),
         "array 'w'"),
        (lambda d: _with_data(d, "rb_enhanced", d["rb_enhanced"]["data"][:-8]),
         "array 'rb_enhanced': truncated zlib stream"),
        # Every byte is there; only the stream's checksum is not.
        (lambda d: {**d, "rb_basic": {"dtype": "<i8",
                                      "data": _text(zlib.compress(bytes(32))[:-4])}},
         "array 'rb_basic': truncated zlib stream"),
        (lambda d: {**d, "rb_basic": _packed(np.arange(5), "<i8")},
         "inflates past 32 bytes"),
        (lambda d: {**d, "rb_basic": _packed(np.arange(3), "<i8")},
         "24 bytes, expected 32"),
        (lambda d: {**d, "rb_basic": {"dtype": "<i8",
                                      "data": _text(zlib.compress(bytes(32)) + b"\0")}},
         "array 'rb_basic': bytes after the end of the zlib stream"),
        (lambda d: {**d, "rb_basic": {"dtype": "<i8", "data": _text(bytes(32))}},
         "array 'rb_basic': Error -3"),
        (lambda d: {**d, "n_users": 0}, "array 'w': inflates past 0 bytes"),
        (lambda d: {**d, "n_users": 2.0}, "n_users must be an integer"),
        (lambda d: {**d, "n_users": True}, "n_users must be an integer"),
        (lambda d: _without(d, "rb_enhanced"), "missing field 'rb_enhanced'"),
        # sharing's 4 entries pack into 1 byte.
        (lambda d: {**d, "sharing": _bits(bytes(2))}, "array 'sharing': inflates past 1 bytes"),
        (lambda d: {**d, "rb_enhanced": {**d["rb_enhanced"], "dtype": "<u4"}},
         "array 'rb_enhanced': dtype '<u4' is not one of <i1, <i2, <i4, <i8"),
        (lambda d: {**d, "rb_enhanced": {**d["rb_enhanced"], "dtype": ">i4"}},
         "array 'rb_enhanced': dtype '>i4' is not one of"),
        (lambda d: {**d, "rb_enhanced": {**d["rb_enhanced"], "dtype": "<f8"}},
         "array 'rb_enhanced': dtype '<f8' is not one of"),
        (lambda d: {**d, "rb_enhanced": {**d["rb_enhanced"], "dtype": 4}},
         "array 'rb_enhanced': dtype 4 is not one of"),
        (lambda d: {**d, "w": _packed(np.ones(8), "<i8")},
         "array 'w': dtype '<i8' is not one of bits$"),
        (lambda d: {**d, "w": _packed(_golden_instance().w, "<i1")},
         "array 'w': dtype '<i1' is not one of bits$"),
        (lambda d: {**d, "rb_basic": _bits(bytes(1))},
         "array 'rb_basic': dtype 'bits' is not one of <i1, <i2, <i4, <i8"),
        # sharing is 1010 and then 4 pad bits; the last one is set.
        (lambda d: {**d, "sharing": _bits(bytes([0b10100001]))},
         "array 'sharing': nonzero pad bits"),
        # The residual at [1, 1, 1] is 65,278 over rb_basic's 258.
        (lambda d: {**d, "rb_basic": _packed([[1, 2], [3, 2**63 - 1]], "<i8")},
         "array 'rb_enhanced': residual plus rb_basic leaves int64"),
        # The residual at [1, 1, 0] is -242.
        (lambda d: {**d, "rb_basic": _packed([[1, 2], [3, -(2**63) + 241]], "<i8")},
         "array 'rb_enhanced': residual plus rb_basic leaves int64"),
        # rb_basic at [1, 1] is 258, stored in 2 bytes.
        (lambda d: {**d, "rb_enhanced": _packed(
            [[[9, 10], [10, 11]], [[11, 12], [-242, 2**63 - 200]]], "<i8")},
         "array 'rb_enhanced': residual plus rb_basic leaves int64"),
        (lambda d: {**d, "w": d["w"]["data"]},
         "array 'w': must be an object with 'dtype' and 'data'"),
        (lambda d: {**d, "w": _without(d["w"], "dtype")}, "array 'w': missing field 'dtype'"),
        (lambda d: {**d, "w": _without(d["w"], "data")}, "array 'w': missing field 'data'"),
        # The golden rb_enhanced's 8-byte entries under its own 4-byte header.
        (lambda d: {**d, "rb_enhanced": {**_packed(_golden_instance().rb_enhanced, "<i8"),
                                         "dtype": "<i4"}},
         "array 'rb_enhanced': inflates past 32 bytes"),
    ],
    ids=["v1", "v2", "v3", "v4", "v5", "v6", "non-base64", "truncated", "checksum-missing",
         "one-item-long", "one-item-short", "trailing-bytes", "not-zlib",
         "empty-array-with-bytes", "float-count", "bool-count", "missing-array",
         "sharing-one-byte-long", "unsigned-dtype", "big-endian-dtype",
         "float-dtype", "dtype-not-a-string", "dtype-wider-than-field",
         "mask-under-an-integer-code", "cost-under-bits", "nonzero-pad-bits",
         "residual-above-int64", "residual-below-int64", "wide-residual-above-int64",
         "field-not-an-object", "field-without-dtype", "field-without-data",
         "wide-bytes-under-narrow-dtype"],
)
def test_malformed_instance_raises_schema_error(tmp_path, corrupt, message):
    payload = corrupt(serialize.instance_to_dict(_golden_instance()))
    with pytest.raises(ValueError, match=message):
        serialize.load_instance(_write(tmp_path, payload))


_TOP4 = 2**31 - 1


@pytest.mark.parametrize(
    "rb_basic, rb_enhanced, width",
    [
        # Residuals from -2**31 + 2 (over _TOP4 it leaves the least cost, 1)
        # to _TOP4, for sums that int32 could not hold.
        ([[_TOP4, 1], [_TOP4, 258]],
         [[[2**32 - 2, 2**32 - 2], [2**31, 1]], [[1, _TOP4], [258, 263]]], "<i4"),
        # At 8 bytes the wrap check runs: zero, negative and positive
        # residuals near the int64 edges pass it.
        ([[1, 2], [3, 2**62]], [[[1, 11], [12, 2]], [[3, 15], [1, 2**63 - 1]]], "<i8"),
    ],
    ids=["i4", "i8"],
)
def test_tables_sum_exactly_at_the_edges_of_their_width(tmp_path, rb_basic, rb_enhanced, width):
    inst = dataclasses.replace(_golden_instance(), rb_basic=rb_basic, rb_enhanced=rb_enhanced)
    path = tmp_path / "inst.json"
    serialize.save_instance(inst, path)
    data = json.loads(path.read_text())
    assert data["rb_basic"]["dtype"] == data["rb_enhanced"]["dtype"] == width
    back = serialize.load_instance(path)
    assert back.rb_enhanced.dtype == np.int64 and back.rb_enhanced.tolist() == rb_enhanced


def _peak_bytes_refusing(tmp_path, payload, message):
    """The peak traced allocation while loading ``payload`` fails with
    ``message``."""
    path = _write(tmp_path, payload)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            serialize.load_instance(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inflating_an_empty_array_is_bounded(tmp_path):
    """A header whose counts allow no bytes inflates at most one byte of a
    64 MiB stream before the payload is refused."""
    payload = serialize.instance_to_dict(_golden_instance())
    payload = {**payload, "n_cells": 0, "w": _bits(b""),
               "rb_budget": {"dtype": "<i1", "data": _text(_zero_stream(2**26))}}
    assert _peak_bytes_refusing(tmp_path, payload, "array 'rb_budget': inflates past 0 bytes") < 2**22


def test_inflating_a_bit_packed_mask_is_bounded(tmp_path):
    """w's 8 entries pack into 1 byte, so at most 2 bytes of a 64 MiB stream
    are inflated before the payload is refused."""
    payload = serialize.instance_to_dict(_golden_instance())
    payload = {**payload, "w": {"dtype": "bits", "data": _text(_zero_stream(2**26))}}
    assert _peak_bytes_refusing(tmp_path, payload, "array 'w': inflates past 1 bytes") < 2**22


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


@pytest.mark.parametrize("name", sorted(experiments.PRESETS))
def test_preset_files_store_no_enhanced_cost_and_the_masks_as_bits(name):
    """Every preset sizes a view like the basic chunk (view_size ==
    basic_size), so each enhanced cost equals its link's basic cost: the
    residual is all zero and stored at one byte an entry, which packs to
    almost nothing. A preset with per-view sizes (ROADMAP item 7) will
    store wider residuals and change the sizes pinned here."""
    config = preset_config(name)
    config = config.at_sweep_value(config.sweep_values[0])
    instance, _ = build_experiment_instance(config, 0)
    data = serialize.instance_to_dict(instance)
    assert {field: data[field]["dtype"] for field in ("w", "rb_enhanced", "sharing")} == {
        "w": "bits", "rb_enhanced": "<i1", "sharing": "bits",
    }
    assert not any(_inflate(data["rb_enhanced"]))
    if name == "fig10":
        # 500 users x 100 cells x 20 views: 1 M entries.
        assert len(_inflate(data["w"])) == 125_000
        assert len(_inflate(data["rb_enhanced"])) == 1_000_000
