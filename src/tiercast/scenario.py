"""Topology generation, user demands, cache placement, and instance assembly.

Each stage returns a plain array and ``Instance`` is the one validated
container: demands are the ``(n_users, n_views)`` bool mask ``wants``, caches
the ``(n_cells, n_views)`` bool mask ``cached``, and the instance's int8
reward tensor is ``w[i, j, k] = wants[i, k] & cached[j, k]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, build_rb_tables, distances
from .problem import Instance

# Users closer than this to a cell are resampled during generation; the
# propagation model needs strictly positive distances.
MIN_USER_CELL_DISTANCE = 1.0

# Draws allowed per point: a hotspot cell is drawn until it lies inside the
# map disc, and a user until it lies MIN_USER_CELL_DISTANCE or more from
# every cell, at most this many times each; then generation raises.
MAX_DRAWS = 10_000


@dataclass(frozen=True)
class Topology:
    """Cell and user positions inside a disc centered at the origin, each user
    ``MIN_USER_CELL_DISTANCE`` or more from every cell: ``generate_topology``
    keeps both rules, and this class checks neither."""

    cell_positions: np.ndarray  # (S, 2) meters
    user_positions: np.ndarray  # (M, 2) meters
    map_radius: float

    @property
    def n_cells(self) -> int:
        return self.cell_positions.shape[0]

    @property
    def n_users(self) -> int:
        return self.user_positions.shape[0]

    def distances(self) -> np.ndarray:
        """(M, S) user-to-cell Euclidean distances (``channel.distances``)."""
        return distances(self.cell_positions, self.user_positions)


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
    Raises ``ValueError`` on a point that ``MAX_DRAWS`` draws do not place.
    """
    if n_cells <= 0 or n_users <= 0:
        raise ValueError("counts must be positive")
    if not 0 < map_radius < np.inf:
        raise ValueError(f"map_radius must be positive and finite, got {map_radius}")
    if not hotspot_sigma >= 0:
        raise ValueError(f"hotspot_sigma must be >= 0, got {hotspot_sigma}")
    if hotspot_sigma == np.inf:
        raise ValueError("hotspot_sigma must be finite")
    if kind not in ("uniform", "hotspot"):
        raise ValueError(f"unknown topology kind {kind!r}")
    rng = np.random.default_rng(seed)

    if kind == "uniform":
        cells = _uniform_disc(rng, n_cells, map_radius)
    else:
        cells = np.empty((n_cells, 2))
        for idx in range(n_cells):
            for _ in range(MAX_DRAWS):
                p = rng.normal(0.0, hotspot_sigma, size=2)
                if np.linalg.norm(p) <= map_radius:
                    cells[idx] = p
                    break
            else:
                raise ValueError(
                    f"cell {idx}: no draw of {MAX_DRAWS} lies inside the map disc"
                )

    users = _uniform_disc(rng, n_users, map_radius)
    topology = Topology(cell_positions=cells, user_positions=users, map_radius=map_radius)
    # One distance pass finds the users too near a cell; only they are drawn
    # again, in index order, in place.
    near = topology.distances().min(axis=1) < MIN_USER_CELL_DISTANCE
    for idx in np.flatnonzero(near):
        draws = 1
        while distances(cells, users[idx : idx + 1]).min() < MIN_USER_CELL_DISTANCE:
            if draws == MAX_DRAWS:
                raise ValueError(
                    f"user {idx}: no draw of {MAX_DRAWS} lies at least "
                    f"{MIN_USER_CELL_DISTANCE} m from every cell"
                )
            users[idx] = _uniform_disc(rng, 1, map_radius)[0]
            draws += 1
    return topology


def generate_demands(
    n_users: int,
    n_views: int,
    views_per_user: int,
    popularity_skew: float = 0.8,
    seed: int = 0,
) -> np.ndarray:
    """Draw the ``(n_users, n_views)`` bool ``wants`` mask: each user wants
    ``views_per_user`` distinct views from a Zipf(skew) popularity profile.

    View 0 is the most popular rank; skew 0 gives uniform popularity. The
    draw is one ``rng.choice`` without replacement per user, in user order.
    """
    if n_views < 1:
        raise ValueError("n_views must be >= 1")
    if views_per_user < 0:
        raise ValueError(f"views_per_user must be >= 0, got {views_per_user}")
    if views_per_user > n_views:
        raise ValueError("views_per_user exceeds n_views")
    if not 0 <= popularity_skew < np.inf:
        raise ValueError(f"popularity_skew must be >= 0 and finite, got {popularity_skew}")
    if views_per_user == n_views:
        # Every user wants every view. The draw would only permute them, and
        # its generator is local to this call, so skipping it moves nothing.
        return np.ones((n_users, n_views), dtype=bool)
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, n_views + 1) ** popularity_skew
    probs = weights / weights.sum()
    wants = np.zeros((n_users, n_views), dtype=bool)
    for row in wants:
        row[rng.choice(n_views, size=views_per_user, replace=False, p=probs)] = True
    return wants


def place_caches(
    wants: np.ndarray,
    topology: Topology,
    cache_capacity: int,
) -> np.ndarray:
    """Two-phase placement of the ``(n_cells, n_views)`` bool ``cached`` mask:
    coverage first, then local popularity.

    Phase 1 caches view k at cell ``k % n_cells``, so every view is cached
    somewhere and the loads differ by at most one. Phase 2 fills each cell's
    remaining slots with the uncached views most demanded by the users whose
    nearest cell it is, breaking ties by view index.
    """
    n_cells = topology.n_cells
    wants = np.asarray(wants, dtype=bool)
    n_views = wants.shape[-1]
    if wants.shape != (topology.n_users, n_views):
        raise ValueError(f"wants {wants.shape} must be {(topology.n_users, n_views)}")
    if cache_capacity < 1:
        raise ValueError("cache capacity must be >= 1")
    if n_views > n_cells * cache_capacity:
        raise ValueError(
            f"cannot cover {n_views} views with {n_cells} cells of capacity "
            f"{cache_capacity}"
        )

    cached = np.zeros((n_cells, n_views), dtype=bool)
    cached[np.arange(n_views) % n_cells, np.arange(n_views)] = True

    # Demand counts per (nearest cell, view): one bincount over flat keys.
    keys = topology.distances().argmin(axis=1)[:, None] * n_views + np.arange(n_views)
    counts = np.bincount(keys[wants], minlength=cached.size).reshape(cached.shape)
    rows = np.arange(n_cells)[:, None]
    ranked = np.argsort(-counts, axis=1, kind="stable")
    free = ~cached[rows, ranked]
    room = cache_capacity - cached.sum(axis=1, keepdims=True)
    cached[rows, ranked] |= free & (np.cumsum(free, axis=1) <= room)
    return cached


def generate_sharing_groups(
    n_users: int, n_views: int, fraction: float, seed: int = 0
) -> np.ndarray:
    """Draw the ``(n_users, n_views)`` int8 multicast mask: each user joins
    each view's group w.p. ``fraction``, at whichever cell serves it.

    The draw is one uniform per (view, user), taken view by view.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    draws = np.random.default_rng(seed).uniform(size=(n_views, n_users))
    return (draws < fraction).T.astype(np.int8)


def build_instance(
    topology: Topology,
    wants: np.ndarray,
    cached: np.ndarray,
    channel: ChannelParams,
    rb_budget: np.ndarray | int,
    basic_size: float = 2e6,
    view_sizes: np.ndarray | float = 2e6,
    sharing: np.ndarray | None = None,
    seed: int = 0,
) -> Instance:
    """Assemble the optimization instance from scenario components.

    ``wants`` is the ``(n_users, n_views)`` and ``cached`` the
    ``(n_cells, n_views)`` bool mask; ``w[i, j, k]`` is 1 exactly when user
    ``i`` wants view ``k`` and cell ``j`` caches it. RB cost tables come from
    the channel model with shadow fading seeded once per link.
    """
    n_users = topology.n_users
    n_cells = topology.n_cells
    wants = np.asarray(wants, dtype=bool)
    cached = np.asarray(cached, dtype=bool)
    n_views = wants.shape[-1]
    if wants.shape != (n_users, n_views) or cached.shape != (n_cells, n_views):
        raise ValueError(
            f"wants {wants.shape} and cached {cached.shape} do not match "
            f"{n_users} users and {n_cells} cells"
        )

    view_sizes = np.broadcast_to(
        np.asarray(view_sizes, dtype=float), (n_views,)
    ).copy()
    rb_budget = np.broadcast_to(rb_budget, (n_cells,)).copy()
    w = (wants[:, None, :] & cached[None, :, :]).astype(np.int8)

    rb_basic, rb_enhanced = build_rb_tables(
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
        rb_basic=rb_basic,
        rb_enhanced=rb_enhanced,
        sharing=sharing,
    )
