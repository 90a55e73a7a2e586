"""Versioned JSON serialization for topologies, instances, and solutions.

Every payload is one JSON object with a ``schema`` tag. Dumps are
deterministic: sorted keys, fixed separators, and a solution's allocation in
its dict's order.

An ``instance/v4`` object has a plain header: ``n_users`` and ``n_views``
(integers >= 0) and ``n_cells`` (>= 1, which ``Instance`` checks). Each
array is one base64 string of its little-endian bytes in C order, packed by
zlib at level 1: ``w`` as ``<i1`` with shape
``(n_users, n_cells, n_views)``, ``rb_budget`` as ``<i8`` with shape
``(n_cells,)``, ``rb_basic`` as ``<i8`` with shape ``(n_users, n_cells)``,
``rb_enhanced`` as ``<i8`` with shape ``(n_users, n_cells, n_views)`` and
the multicast mask ``sharing`` as ``<i1`` with shape ``(n_users, n_views)``.
Shapes are not stored; they follow from the header's counts. The loader
inflates at most one byte more than the counts allow, so a hostile stream
cannot grow past them, and refuses a stream that is truncated, followed by
other bytes or of any other length. Loaded arrays are owned, writable and in
native byte order. Older instance schemas (v1 to v3) are refused, not
converted.

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
INSTANCE_SCHEMA = "instance/v4"
SOLUTION_SCHEMA = "solution/v1"


# Each instance array: its name, stored little-endian dtype and shape in
# header counts.
_COUNTS = ("n_users", "n_cells", "n_views")
_INSTANCE_ARRAYS = tuple(
    (name, np.dtype(dtype).newbyteorder("<"), dims)
    for name, dtype, dims in INSTANCE_ARRAYS
)
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


def _encode(array: np.ndarray, dtype: np.dtype) -> str:
    raw = np.asarray(array, dtype=dtype).tobytes()
    return base64.b64encode(zlib.compress(raw, _ZLIB_LEVEL)).decode("ascii")


def _decode(data: dict, name: str, dtype: np.dtype, shape: tuple) -> np.ndarray:
    """The array stored under ``name``: an owned, writable, native-order copy."""
    payload = _field(data, name)
    try:
        packed = base64.b64decode(payload, validate=True)
        size = dtype.itemsize * math.prod(shape)
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
        stored = np.frombuffer(raw, dtype=dtype).reshape(shape)
    except (TypeError, ValueError, zlib.error) as exc:
        raise ValueError(f"array {name!r}: {exc}") from None
    return stored.astype(dtype.type)


def instance_to_dict(instance: Instance) -> dict:
    data = {name: getattr(instance, name) for name in _COUNTS}
    for name, dtype, _ in _INSTANCE_ARRAYS:
        data[name] = _encode(getattr(instance, name), dtype)
    return {"schema": INSTANCE_SCHEMA, **data}


def instance_from_dict(data: dict) -> Instance:
    counts = {name: _field(data, name) for name in _COUNTS}
    for name, value in counts.items():
        if not _is_int(value) or value < 0:
            raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    arrays = {
        name: _decode(data, name, dtype, tuple(counts[d] for d in dims))
        for name, dtype, dims in _INSTANCE_ARRAYS
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
