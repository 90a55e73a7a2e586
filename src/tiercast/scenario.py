"""Topology generation, user demands, cache placement, and instance assembly."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, build_rb_tables
from .problem import Instance

# Users closer than this to a cell are resampled during generation; the
# propagation model needs strictly positive distances.
MIN_USER_CELL_DISTANCE = 1.0


class PlacementError(ValueError):
    """Cache placement cannot satisfy the coverage requirement."""


@dataclass(frozen=True)
class Topology:
    """Cell and user positions inside a disc centered at the origin."""

    cell_positions: np.ndarray  # (S, 2) meters
    user_positions: np.ndarray  # (M, 2) meters
    map_radius: float

    def __post_init__(self):
        tol = 1e-9 * max(self.map_radius, 1.0)
        for pts in (self.cell_positions, self.user_positions):
            if (np.linalg.norm(pts, axis=1) > self.map_radius + tol).any():
                raise ValueError("point outside the map disc")
        d = np.linalg.norm(
            self.user_positions[:, None, :] - self.cell_positions[None, :, :], axis=2
        )
        if (d == 0).any():
            raise ValueError("user collocated with a cell")

    @property
    def n_cells(self) -> int:
        return self.cell_positions.shape[0]

    @property
    def n_users(self) -> int:
        return self.user_positions.shape[0]

    def distances(self) -> np.ndarray:
        """(M, S) user-to-cell Euclidean distances."""
        return np.linalg.norm(
            self.user_positions[:, None, :] - self.cell_positions[None, :, :], axis=2
        )


@dataclass(frozen=True)
class DemandSet:
    """Per-user sets of desired enhanced-view indices (0-based)."""

    views: tuple[tuple[int, ...], ...]
    n_views: int

    def __post_init__(self):
        for vs in self.views:
            for k in vs:
                if not 0 <= k < self.n_views:
                    raise ValueError(f"view index {k} out of range")


@dataclass(frozen=True)
class CachePlacement:
    """Per-cell sets of cached enhanced-view indices (0-based)."""

    caches: tuple[frozenset[int], ...]
    cache_capacity: int

    def __post_init__(self):
        for cache in self.caches:
            if len(cache) > self.cache_capacity:
                raise ValueError("cache exceeds capacity")


def _uniform_disc(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def generate_topology(
    kind: str,
    n_cells: int,
    n_users: int,
    map_radius: float = 1000.0,
    hotspot_sigma: float = 200.0,
    seed: int = 0,
) -> Topology:
    """Draw a topology. ``kind`` is "uniform" or "hotspot".

    Uniform places both populations uniformly over the disc; hotspot draws
    cells from a centered Gaussian with std dev ``hotspot_sigma`` (resampled
    when outside the disc) and users uniformly. Deterministic per seed.
    """
    if n_cells <= 0 or n_users <= 0:
        raise ValueError("counts must be positive")
    if kind not in ("uniform", "hotspot"):
        raise ValueError(f"unknown topology kind {kind!r}")
    rng = np.random.default_rng(seed)

    if kind == "uniform":
        cells = _uniform_disc(rng, n_cells, map_radius)
    else:
        cells = np.empty((n_cells, 2))
        for idx in range(n_cells):
            while True:
                p = rng.normal(0.0, hotspot_sigma, size=2)
                if np.linalg.norm(p) <= map_radius:
                    cells[idx] = p
                    break

    users = _uniform_disc(rng, n_users, map_radius)
    for idx in range(n_users):
        while (
            np.linalg.norm(cells - users[idx], axis=1).min() < MIN_USER_CELL_DISTANCE
        ):
            users[idx] = _uniform_disc(rng, 1, map_radius)[0]

    return Topology(cell_positions=cells, user_positions=users, map_radius=map_radius)


def generate_demands(
    n_users: int,
    n_views: int,
    views_per_user: int,
    popularity_skew: float = 0.8,
    seed: int = 0,
) -> DemandSet:
    """Draw each user's desired views from a Zipf(skew) popularity profile.

    View 0 is the most popular rank; skew 0 gives uniform popularity. Each
    user gets ``views_per_user`` distinct views, in ascending order.
    """
    if n_views < 1:
        raise ValueError("n_views must be >= 1")
    if views_per_user > n_views:
        raise ValueError("views_per_user exceeds n_views")
    if views_per_user == n_views:
        # Every user wants every view. The draw would only permute them, and
        # its generator is local to this call, so skipping it moves nothing.
        return DemandSet(views=(tuple(range(n_views)),) * n_users, n_views=n_views)
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_views + 1) ** popularity_skew
    probs = weights / weights.sum()
    views = tuple(
        tuple(sorted(rng.choice(n_views, size=views_per_user, replace=False, p=probs)))
        for _ in range(n_users)
    )
    return DemandSet(views=views, n_views=n_views)


def place_caches(
    demands: DemandSet,
    topology: Topology,
    cache_capacity: int,
    seed: int = 0,
) -> CachePlacement:
    """Two-phase placement: coverage first, then local popularity.

    Phase 1 assigns each view to the currently least-loaded cell so every view
    is cached somewhere. Phase 2 fills each cell's remaining slots with the
    views most demanded by the users whose nearest cell it is, breaking ties
    by view index. ``seed`` is accepted for interface stability; the heuristic
    is deterministic.
    """
    del seed
    n_cells = topology.n_cells
    n_views = demands.n_views
    if cache_capacity < 1:
        raise PlacementError("cache capacity must be >= 1")
    if n_views > n_cells * cache_capacity:
        raise PlacementError(
            f"cannot cover {n_views} views with {n_cells} cells of capacity "
            f"{cache_capacity}"
        )

    caches: list[set[int]] = [set() for _ in range(n_cells)]
    for k in range(n_views):
        j = min(range(n_cells), key=lambda j: (len(caches[j]), j))
        caches[j].add(k)

    nearest = topology.distances().argmin(axis=1)
    counts = np.zeros((n_cells, n_views), dtype=np.int64)
    for i, vs in enumerate(demands.views):
        for k in vs:
            counts[nearest[i], k] += 1

    for j in range(n_cells):
        ranked = sorted(range(n_views), key=lambda k: (-counts[j, k], k))
        for k in ranked:
            if len(caches[j]) >= cache_capacity:
                break
            caches[j].add(k)

    return CachePlacement(
        caches=tuple(frozenset(c) for c in caches), cache_capacity=cache_capacity
    )


def generate_sharing_groups(
    n_users: int,
    n_cells: int,
    n_views: int,
    fraction: float,
    seed: int = 0,
) -> dict[int, dict[int, frozenset[int]]]:
    """Draw multicast sharing groups: each user joins a view's group w.p. ``fraction``.

    Groups are drawn per view and replicated across cells (users sharing a
    view share it regardless of the serving cell).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    per_view = {}
    for k in range(n_views):
        members = frozenset(np.flatnonzero(rng.uniform(size=n_users) < fraction))
        per_view[k] = members
    return {j: dict(per_view) for j in range(n_cells)}


def build_instance(
    topology: Topology,
    demands: DemandSet,
    placement: CachePlacement,
    channel: ChannelParams,
    rb_budget: np.ndarray | int,
    basic_size: float = 2e6,
    view_sizes: np.ndarray | float = 2e6,
    sharing: dict[int, dict[int, frozenset[int]]] | None = None,
    seed: int = 0,
) -> Instance:
    """Assemble the optimization instance from scenario components.

    ``w[i, j, k]`` is 1 exactly when user ``i`` demands view ``k`` and cell
    ``j`` caches it. RB cost tables come from the channel model with shadow
    fading seeded once per link.
    """
    n_users = topology.n_users
    n_cells = topology.n_cells
    n_views = demands.n_views
    if len(demands.views) != n_users:
        raise ValueError("demand set size does not match user count")
    if len(placement.caches) != n_cells:
        raise ValueError("placement size does not match cell count")

    view_sizes = np.broadcast_to(
        np.asarray(view_sizes, dtype=float), (n_views,)
    ).copy()
    rb_budget = np.broadcast_to(np.asarray(rb_budget, dtype=np.int64), (n_cells,)).copy()

    wants = np.zeros((n_users, n_views), dtype=bool)
    for i, vs in enumerate(demands.views):
        wants[i, list(vs)] = True
    cached = np.zeros((n_cells, n_views), dtype=bool)
    for j, cache in enumerate(placement.caches):
        if any(not 0 <= k < n_views for k in cache):
            raise ValueError(f"cell {j} caches a view index out of range")
        cached[j, list(cache)] = True
    w = (wants[:, None, :] & cached[None, :, :]).astype(np.int8)

    tables = build_rb_tables(
        topology.cell_positions,
        topology.user_positions,
        channel,
        basic_size,
        view_sizes,
        seed=seed,
    )
    return Instance(
        n_users=n_users,
        n_cells=n_cells,
        n_views=n_views,
        w=w,
        rb_budget=rb_budget,
        rb_basic=tables.basic,
        rb_enhanced=tables.enhanced,
        sharing=sharing,
    )
