"""Versioned JSON serialization for topologies, instances, and solutions.

Every payload is one JSON object with a ``schema`` tag. Dumps are
deterministic: sorted keys, fixed separators, and a solution's allocation in
its dict's order.

An ``instance/v7`` object has a plain header: ``n_users`` and ``n_views``
(integers >= 0) and ``n_cells`` (>= 1, which ``Instance`` checks). Each
array is an object ``{"dtype": ..., "data": ...}``: ``data`` is the base64
of a zlib stream. The arrays are ``w`` (int8) with shape
``(n_users, n_cells, n_views)``, ``rb_budget`` (int64) with shape
``(n_cells,)``, ``rb_basic`` (int64) with shape ``(n_users, n_cells)``,
``rb_enhanced`` (int64) with shape ``(n_users, n_cells, n_views)`` and the
multicast mask ``sharing`` (int8) with shape ``(n_users, n_views)``; shapes
follow from the header's counts. The int8 0/1 masks are ``"bits"``:
``np.packbits`` in C order, most significant bit first, zero pad bits,
packed at zlib level 1. The int64 tables are little-endian at the narrowest
of ``<i1``, ``<i2``, ``<i4`` and ``<i8`` that holds their minimum and
maximum (``<i1`` when empty), ``rb_enhanced`` as its residual
``rb_enhanced - rb_basic[:, :, None]``. A table is stored as its byte
planes: byte 0 of every entry in C order, then byte 1, and so on (Blosc's
shuffle; Alted 2010, "Why modern CPUs are starving and what can be done
about it", CiSE 12(2)), packed at level 1 with the ``Z_RLE`` strategy.
Every preset sizes a view like the basic chunk, so each enhanced cost is
its link's basic cost and the residual is zeros that pack to almost
nothing; views of other sizes leave a residual about as wide as the costs.
The loader takes ``"bits"`` only for a mask and the four integer codes only
for a table. It inflates at most one byte more than the code's size for the
header's counts, so a hostile stream cannot grow past them, and refuses a
stream that is truncated, followed by other bytes or of any other length,
nonzero pad bits (each instance has one encoding) and a residual whose sum
with ``rb_basic`` leaves int64. Loaded arrays are owned, writable and
native int8 or int64. Older schemas (v1 to v6) are refused, not converted.

Topologies (``topology/v1``) are written only, never read back: their
positions as lists of ``[x, y]`` pairs, and the map radius. Solutions
(``solution/v1``) store the association as a list and the allocation as
``[user, view, y]`` triples in the allocation dict's order, so that a
loaded solution sums its objective in the order the solver did. Both
loaders raise ``ValueError`` on a wrong tag, a missing field or a field of
the wrong type or size; the solution loader also on a non-finite allocation
share or a repeated entry. Their number tests, ``is_int`` and
``is_finite_number``, are also the config's for its int and float fields.
"""

from __future__ import annotations

import base64
import json
import math
import zlib
from pathlib import Path

import numpy as np

from .problem import INSTANCE_ARRAYS, Instance, Solution
from .scenario import Topology

TOPOLOGY_SCHEMA = "topology/v1"
INSTANCE_SCHEMA = "instance/v7"
SOLUTION_SCHEMA = "solution/v1"


_COUNTS = ("n_users", "n_cells", "n_views")
# The stored widths of an instance array, narrowest first.
_WIDTHS = ("<i1", "<i2", "<i4", "<i8")
_INT64 = range(-(2**63), 2**63)


def is_int(value) -> bool:
    """A JSON integer that fits int64 (``true`` and ``2.0`` do not count)."""
    return isinstance(value, int) and not isinstance(value, bool) and value in _INT64


def is_finite_number(value) -> bool:
    """A finite JSON number (``true`` does not count)."""
    return (isinstance(value, float) or is_int(value)) and math.isfinite(value)


def _field(data: dict, name: str):
    try:
        return data[name]
    except KeyError:
        raise ValueError(f"missing field {name!r}") from None


def _dump(obj: dict, path) -> None:
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    )


def parse_json(text):
    """``json.loads``, with nesting too deep to parse as a ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def _load(path, expected_schema: str) -> dict:
    data = parse_json(Path(path).read_bytes())
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != expected_schema:
        raise ValueError(f"expected schema {expected_schema!r}, got {schema!r}")
    return data


def topology_to_dict(topology: Topology) -> dict:
    return {
        "schema": TOPOLOGY_SCHEMA,
        "cell_positions": topology.cell_positions.tolist(),
        "user_positions": topology.user_positions.tolist(),
        "map_radius": topology.map_radius,
    }


# Level 1 throughout. Masks take the default strategy: Z_RLE would pack
# fig10's w into 44,432 B, against 936 B. Tables take Z_RLE on their byte
# planes, whose output no level changes: fig10's rb_basic planes pack into
# 99,518 B in ~1.3 ms, against 101,275 B in ~2.7 ms with the default
# strategy and 98,366 B in ~12 ms at level 9. Against each table's bytes in
# entry order at level 1, fig10's seed-0 file fell from 182,397 B to
# 135,569 B, its save from 12.3-15.5 to 8.5-12.4 ms and its load from
# 8.5-10.9 to 6.0-8.9 ms (medians of 80 calls, three rounds, 2-core host).
_ZLIB_LEVEL = 1


def _encode(array: np.ndarray) -> dict:
    if array.dtype == np.int8:  # a 0/1 mask
        code, raw = "bits", np.packbits(array)
        packer = zlib.compressobj(_ZLIB_LEVEL)
    else:
        low, high = int(array.min(initial=0)), int(array.max(initial=0))
        code = next(c for c in _WIDTHS if np.iinfo(c).min <= low and high <= np.iinfo(c).max)
        entries = np.ascontiguousarray(array, dtype=code).reshape(-1).view(np.uint8)
        # Byte 0 of every entry, then byte 1, and so on.
        raw = np.ascontiguousarray(entries.reshape(array.size, np.dtype(code).itemsize).T)
        packer = zlib.compressobj(_ZLIB_LEVEL, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    packed = base64.b64encode(packer.compress(raw) + packer.flush()).decode("ascii")
    return {"dtype": code, "data": packed}


def _decode(data: dict, name: str, dtype: type, shape: tuple) -> np.ndarray:
    """The array stored under ``name``, owned and writable: a mask
    (``dtype`` int8) as int8, a table at its stored little-endian width."""
    field = _field(data, name)
    count = math.prod(shape)
    try:
        if not isinstance(field, dict):
            raise ValueError("must be an object with 'dtype' and 'data'")
        code = _field(field, "dtype")
        codes = ("bits",) if dtype == np.int8 else _WIDTHS
        if code not in codes:
            raise ValueError(f"dtype {code!r} is not one of {', '.join(codes)}")
        packed = base64.b64decode(_field(field, "data"), validate=True)
        size = -(-count // 8) if code == "bits" else np.dtype(code).itemsize * count
        # Inflate one byte past the header's size to see an overlong stream;
        # a max_length of 0 would mean no limit at all.
        inflater = zlib.decompressobj()
        raw = inflater.decompress(packed, size + 1)
        if len(raw) > size or inflater.unconsumed_tail:
            raise ValueError(f"inflates past {size} bytes for shape {shape}")
        if not inflater.eof:
            raise ValueError("truncated zlib stream")
        if inflater.unused_data:
            raise ValueError("bytes after the end of the zlib stream")
        if len(raw) != size:
            raise ValueError(f"{len(raw)} bytes, expected {size} for shape {shape}")
        if code == "bits":
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
            if bits[count:].any():
                raise ValueError("nonzero pad bits")
            return bits[:count].reshape(shape).astype(np.int8)
    except (TypeError, ValueError, zlib.error) as exc:
        raise ValueError(f"array {name!r}: {exc}") from None
    width = np.dtype(code).itemsize
    planes = np.frombuffer(raw, dtype=np.uint8).reshape(width, count)
    array = np.empty(shape, dtype=code)
    # Byte b of entry j is byte j of plane b.
    array.reshape(-1).view(np.uint8).reshape(count, width)[...] = planes.T
    return array


def instance_to_dict(instance: Instance) -> dict:
    arrays = {name: getattr(instance, name) for name, _, _ in INSTANCE_ARRAYS}
    # An instance's costs are >= 1, so the residual stays inside int64.
    arrays["rb_enhanced"] = arrays["rb_enhanced"] - arrays["rb_basic"][:, :, None]
    return {
        "schema": INSTANCE_SCHEMA,
        **{name: getattr(instance, name) for name in _COUNTS},
        **{name: _encode(array) for name, array in arrays.items()},
    }


def instance_from_dict(data: dict) -> Instance:
    counts = {name: _field(data, name) for name in _COUNTS}
    for name, value in counts.items():
        if not is_int(value) or value < 0:
            raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    arrays = {
        name: _decode(data, name, dtype, tuple(counts[d] for d in dims))
        for name, dtype, dims in INSTANCE_ARRAYS
    }
    residual, basic = arrays["rb_enhanced"], arrays["rb_basic"][:, :, None]
    arrays["rb_enhanced"] = enhanced = np.add(residual, basic, dtype=np.int64)
    # Tables of 4 bytes or less sum to at most 2**32 in magnitude. numpy
    # wraps silently: a sum wrapped past int64 lies on the wrong side of
    # rb_basic for its residual's sign.
    if 8 in (residual.itemsize, basic.itemsize) and (
        (enhanced < basic) != (residual < 0)
    ).any():
        raise ValueError("array 'rb_enhanced': residual plus rb_basic leaves int64")
    return Instance(**counts, **arrays)


def solution_to_dict(solution: Solution) -> dict:
    return {
        "schema": SOLUTION_SCHEMA,
        "assoc": solution.assoc.tolist(),
        "alloc": [
            [int(i), int(k), float(y)]
            for (i, k), y in solution.alloc.items()
        ],
    }


def solution_from_dict(data: dict) -> Solution:
    assoc = _field(data, "assoc")
    if not isinstance(assoc, list) or not all(map(is_int, assoc)):
        raise ValueError("assoc must be a list of integer cell indices")
    entries = _field(data, "alloc")
    if not isinstance(entries, list):
        raise ValueError("alloc must be a list of [user, view, y]")
    alloc = {}
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and is_int(entry[0])
            and is_int(entry[1])
        ):
            raise ValueError(f"alloc entry {entry!r} is not [user, view, y]")
        i, k, y = entry
        if not is_finite_number(y):
            raise ValueError(f"alloc entry {entry!r}: y must be a finite number")
        if (i, k) in alloc:
            raise ValueError(f"alloc entry ({i}, {k}) given twice")
        alloc[(i, k)] = float(y)
    return Solution(assoc=np.asarray(assoc, dtype=np.int64), alloc=alloc)


def save_topology(topology: Topology, path) -> None:
    _dump(topology_to_dict(topology), path)


def save_instance(instance: Instance, path) -> None:
    _dump(instance_to_dict(instance), path)


def load_instance(path) -> Instance:
    return instance_from_dict(_load(path, INSTANCE_SCHEMA))


def save_solution(solution: Solution, path) -> None:
    _dump(solution_to_dict(solution), path)


def load_solution(path) -> Solution:
    return solution_from_dict(_load(path, SOLUTION_SCHEMA))
