"""Versioned JSON serialization for topologies, instances, and solutions.

Every payload is one JSON object with a ``schema`` tag. Dumps are
deterministic: sorted keys, fixed separators, and a solution's allocation in
its dict's order.

An ``instance/v5`` object has a plain header: ``n_users`` and ``n_views``
(integers >= 0) and ``n_cells`` (>= 1, which ``Instance`` checks). Each
array is an object ``{"dtype": "<iN", "data": ...}``: ``data`` is the base64
of the array's little-endian bytes in C order at that dtype, packed by zlib
at level 1. The writer stores each array at the narrowest of ``<i1``,
``<i2``, ``<i4`` and ``<i8`` that holds its minimum and maximum (``<i1``
when it is empty), so zlib packs fewer bytes; the loader accepts only these
four, none wider than the array's own dtype, and widens what it reads. The
arrays are ``w`` (int8) with shape ``(n_users, n_cells, n_views)``,
``rb_budget`` (int64) with shape ``(n_cells,)``, ``rb_basic`` (int64) with
shape ``(n_users, n_cells)``, ``rb_enhanced`` (int64) with shape
``(n_users, n_cells, n_views)`` and the multicast mask ``sharing`` (int8)
with shape ``(n_users, n_views)``. Shapes are not stored; they follow from
the header's counts. The loader inflates at most one byte more than the
stored dtype's size times the counts allow, so a hostile stream cannot grow
past them, and refuses a stream that is truncated, followed by other bytes
or of any other length. Loaded arrays are owned, writable and native int8
or int64. Older instance schemas (v1 to v4) are refused, not converted.

Topologies (``topology/v1``) are written only, never read back: their
positions as lists of ``[x, y]`` pairs, and the map radius. Solutions
(``solution/v1``) store the association as a list and the allocation as
``[user, view, y]`` triples in the allocation dict's order, so that a
loaded solution sums its objective in the order the solver did. Both
loaders raise ``ValueError`` on a wrong tag, a missing field or a field of
the wrong type or size; the solution loader also on a non-finite allocation
share or a repeated entry.
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
INSTANCE_SCHEMA = "instance/v5"
SOLUTION_SCHEMA = "solution/v1"


_COUNTS = ("n_users", "n_cells", "n_views")
# The stored widths of an instance array, narrowest first.
_WIDTHS = ("<i1", "<i2", "<i4", "<i8")
_INT64 = range(-(2**63), 2**63)


def _is_int(value) -> bool:
    """A JSON integer that fits int64 (``true`` and ``2.0`` do not count)."""
    return isinstance(value, int) and not isinstance(value, bool) and value in _INT64


def _is_finite_number(value) -> bool:
    """A finite JSON number (``true`` does not count)."""
    return (isinstance(value, float) or _is_int(value)) and math.isfinite(value)


def _field(data: dict, name: str):
    try:
        return data[name]
    except KeyError:
        raise ValueError(f"missing field {name!r}") from None


def _dump(obj: dict, path) -> None:
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    )


def _load(path, expected_schema: str) -> dict:
    data = json.loads(Path(path).read_bytes())
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


# Level 6 packs fig10's rb_basic only 5 % smaller, at 8x the time.
_ZLIB_LEVEL = 1


def _encode(array: np.ndarray) -> dict:
    low, high = int(array.min(initial=0)), int(array.max(initial=0))
    code = next(c for c in _WIDTHS if np.iinfo(c).min <= low and high <= np.iinfo(c).max)
    raw = np.ascontiguousarray(array, dtype=code)
    packed = base64.b64encode(zlib.compress(raw, _ZLIB_LEVEL)).decode("ascii")
    return {"dtype": code, "data": packed}


def _decode(data: dict, name: str, dtype: type, shape: tuple) -> np.ndarray:
    """The array stored under ``name``, widened to ``dtype``: an owned,
    writable, native-order copy."""
    field = _field(data, name)
    try:
        if not isinstance(field, dict):
            raise ValueError("must be an object with 'dtype' and 'data'")
        code = _field(field, "dtype")
        if code not in _WIDTHS:
            raise ValueError(f"dtype {code!r} is not one of {', '.join(_WIDTHS)}")
        stored = np.dtype(code)
        if stored.itemsize > np.dtype(dtype).itemsize:
            raise ValueError(f"dtype {code!r} is wider than {dtype.__name__}")
        packed = base64.b64decode(_field(field, "data"), validate=True)
        size = stored.itemsize * math.prod(shape)
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
    except (TypeError, ValueError, zlib.error) as exc:
        raise ValueError(f"array {name!r}: {exc}") from None
    return np.frombuffer(raw, dtype=stored).reshape(shape).astype(dtype)


def instance_to_dict(instance: Instance) -> dict:
    data = {name: getattr(instance, name) for name in _COUNTS}
    for name, _, _ in INSTANCE_ARRAYS:
        data[name] = _encode(getattr(instance, name))
    return {"schema": INSTANCE_SCHEMA, **data}


def instance_from_dict(data: dict) -> Instance:
    counts = {name: _field(data, name) for name in _COUNTS}
    for name, value in counts.items():
        if not _is_int(value) or value < 0:
            raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    arrays = {
        name: _decode(data, name, dtype, tuple(counts[d] for d in dims))
        for name, dtype, dims in INSTANCE_ARRAYS
    }
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
    if not isinstance(assoc, list) or not all(map(_is_int, assoc)):
        raise ValueError("assoc must be a list of integer cell indices")
    entries = _field(data, "alloc")
    if not isinstance(entries, list):
        raise ValueError("alloc must be a list of [user, view, y]")
    alloc = {}
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and _is_int(entry[0])
            and _is_int(entry[1])
        ):
            raise ValueError(f"alloc entry {entry!r} is not [user, view, y]")
        i, k, y = entry
        if not _is_finite_number(y):
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
