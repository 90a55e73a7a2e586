"""Topology, demand, cache placement, and instance assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from tiercast.channel import ChannelParams
from tiercast.problem import Solution, objective
from tiercast.scenario import (
    MAX_DRAWS,
    MIN_USER_CELL_DISTANCE,
    Topology,
    build_instance,
    generate_demands,
    generate_sharing_groups,
    generate_topology,
    place_caches,
    _uniform_disc,
)

CH = ChannelParams(interference_scale=0.0)


def _mask(view_sets, n_views):
    """Bool mask with one row per set of view indices."""
    mask = np.zeros((len(view_sets), n_views), dtype=bool)
    for row, views in zip(mask, view_sets):
        row[list(views)] = True
    return mask


def test_topology_deterministic_per_seed():
    t1 = generate_topology("hotspot", 5, 20, seed=42)
    t2 = generate_topology("hotspot", 5, 20, seed=42)
    assert (t1.cell_positions == t2.cell_positions).all()
    assert (t1.user_positions == t2.user_positions).all()


def test_topology_points_inside_disc():
    for kind in ("uniform", "hotspot"):
        t = generate_topology(kind, 30, 200, map_radius=800.0, seed=3)
        assert (np.linalg.norm(t.cell_positions, axis=1) <= 800.0).all()
        assert (np.linalg.norm(t.user_positions, axis=1) <= 800.0).all()


def test_uniform_disc_mean_radius():
    # Uniform over a disc has E[r] = (2/3) R; Monte Carlo at n = 10^4.
    t = generate_topology("uniform", 1, 10_000, map_radius=1000.0, seed=7)
    mean_r = np.linalg.norm(t.user_positions, axis=1).mean()
    assert mean_r == pytest.approx(2000.0 / 3.0, rel=0.02)


def test_hotspot_cell_spread_matches_sigma():
    t = generate_topology("hotspot", 10_000, 1, hotspot_sigma=200.0, seed=8)
    std = t.cell_positions.std(axis=0)
    assert std[0] == pytest.approx(200.0, rel=0.10)
    assert std[1] == pytest.approx(200.0, rel=0.10)


def test_topology_rejects_bad_kind_and_counts():
    with pytest.raises(ValueError):
        generate_topology("grid", 1, 1)
    with pytest.raises(ValueError):
        generate_topology("uniform", 0, 1)


@pytest.mark.parametrize(
    "kind, radius, message",
    [
        ("uniform", 0, "map_radius must be positive"),
        ("hotspot", 0, "map_radius must be positive"),
        ("uniform", -5, "map_radius must be positive"),
        ("hotspot", -5, "map_radius must be positive"),
        ("hotspot", 0.5, f"cell 0: no draw of {MAX_DRAWS} lies inside the map disc"),
        ("uniform", 0.5, f"user 0: no draw of {MAX_DRAWS} lies at least 1.0 m from"),
    ],
)
def test_topology_that_cannot_be_placed_is_refused(kind, radius, message):
    # Every case but uniform at -5 drew forever before: no hotspot cell
    # falls in a disc of radius 0 or less (nor, at sigma 200, is one likely
    # to in one of 0.5 m), and no user of a 0.5 m disc is 1 m from every cell.
    with pytest.raises(ValueError, match=message):
        generate_topology(kind, 3, 5, map_radius=radius, seed=0)


@pytest.mark.parametrize("kind", ["uniform", "hotspot"])
@pytest.mark.parametrize("sigma", [-1.0, float("nan")])
def test_hotspot_sigma_below_zero_is_refused_by_name(kind, sigma):
    # At -1 the hotspot draw used to stop in numpy with "scale < 0".
    with pytest.raises(ValueError, match="hotspot_sigma must be >= 0"):
        generate_topology(kind, 3, 5, hotspot_sigma=sigma, seed=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["map_radius", "hotspot_sigma"])
@pytest.mark.parametrize("kind", ["uniform", "hotspot"])
def test_topology_refuses_a_non_finite_length_by_name(kind, name, value):
    # An infinite radius used to put users at inf, and an infinite sigma to
    # spin through MAX_DRAWS hotspot draws.
    with pytest.raises(ValueError, match=f"{name} must be"):
        generate_topology(kind, 3, 5, seed=0, **{name: value})


def test_hotspot_sigma_zero_puts_every_cell_at_the_centre():
    topology = generate_topology("hotspot", 3, 5, hotspot_sigma=0.0, seed=0)
    assert (topology.cell_positions == 0.0).all()


def test_user_near_a_cell_is_drawn_again():
    # On a 3 m disc users often land within 1 m of the one cell. Each such
    # user is drawn again; every other draw stays where it fell.
    radius, n_users, seed = 3.0, 12, 4
    rng = np.random.default_rng(seed)
    cell = _uniform_disc(rng, 1, radius)
    first = _uniform_disc(rng, n_users, radius)
    near = np.linalg.norm(first - cell, axis=1) < MIN_USER_CELL_DISTANCE
    assert 0 < near.sum() < n_users

    topology = generate_topology("uniform", 1, n_users, map_radius=radius, seed=seed)
    assert (topology.cell_positions == cell).all()
    assert (topology.user_positions[~near] == first[~near]).all()
    assert (topology.user_positions[near] != first[near]).any(axis=1).all()
    assert topology.distances().min() >= MIN_USER_CELL_DISTANCE


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 60), st.sampled_from([5.0, 10.0]),
       st.integers(0, 2**32 - 1))
def test_near_users_are_drawn_again_in_index_order(n_cells, n_users, radius, seed):
    # On a small disc many users land near a cell; every draw must match the
    # one-user-at-a-time loop bit for bit.
    topology = generate_topology("uniform", n_cells, n_users, map_radius=radius, seed=seed)
    cells, users = reference.uniform_topology(n_cells, n_users, radius, seed)
    assert (topology.cell_positions == cells).all()
    assert (topology.user_positions == users).all()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 12),
    st.sampled_from([0.0, 0.8, 2.5]),
    st.integers(0, 2**32 - 1),
)
def test_demands_exhaustive_when_views_per_user_equals_views(m, e, skew, seed):
    d = generate_demands(m, e, e, popularity_skew=skew, seed=seed)
    assert d.dtype == bool and d.shape == (m, e) and d.all()
    # The same as the full draw without replacement, which only permutes.
    drawn = reference.generate_demands(m, e, e, skew, seed)
    assert (d == _mask(drawn, e)).all()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 12),
    st.data(),
    st.sampled_from([0.0, 0.8, 2.5]),
    st.integers(0, 2**32 - 1),
)
def test_demand_mask_is_the_per_user_draw(m, e, data, skew, seed):
    per_user = data.draw(st.integers(0, e))
    d = generate_demands(m, e, per_user, popularity_skew=skew, seed=seed)
    assert d.dtype == bool and d.shape == (m, e)
    drawn = reference.generate_demands(m, e, per_user, skew, seed)
    assert (d == _mask(drawn, e)).all()


def test_demands_partial_draw_is_pinned():
    # A fig9-style draw: 2 of 10 views per user.
    d = generate_demands(6, 10, 2, popularity_skew=0.8, seed=9)
    rows = [tuple(np.flatnonzero(row)) for row in d]
    assert rows == [(1, 7), (3, 5), (4, 8), (7, 8), (0, 1), (0, 2)]


def test_demands_zero_skew_is_uniform():
    d = generate_demands(20_000, 5, 1, popularity_skew=0.0, seed=2)
    freqs = d.sum(axis=0) / d.sum()
    assert np.abs(freqs - 0.2).max() < 0.01  # 5% of 1/E


def test_demands_deterministic_and_validated():
    d1 = generate_demands(10, 6, 2, seed=5)
    d2 = generate_demands(10, 6, 2, seed=5)
    assert (d1 == d2).all()
    with pytest.raises(ValueError):
        generate_demands(3, 2, 5)
    with pytest.raises(ValueError):
        generate_demands(3, 0, 0)
    with pytest.raises(ValueError, match="views_per_user must be >= 0, got -1"):
        generate_demands(3, 2, -1)


@pytest.mark.parametrize("skew", [-5, -5.0, float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("per_user", [2, 5], ids=["draw", "every-view"])
def test_negative_popularity_skew_is_refused_by_name(skew, per_user):
    # Refused on both paths: the Zipf draw and the every-view shortcut. A
    # negative skew would make view 0 the least popular rank, and an
    # infinite one used to die inside numpy's draw.
    with pytest.raises(ValueError, match="popularity_skew must be >= 0"):
        generate_demands(4, 5, per_user, popularity_skew=skew, seed=0)


def test_place_caches_coverage_and_capacity():
    topo = generate_topology("uniform", 10, 40, seed=11)
    demands = generate_demands(40, 5, 5, seed=12)
    cached = place_caches(demands, topo, 3)
    assert cached.dtype == bool and cached.shape == (10, 5)
    assert cached.any(axis=0).all()
    assert (cached.sum(axis=1) <= 3).all()


def test_place_caches_saturates_when_capacity_covers_all_views():
    topo = generate_topology("uniform", 4, 10, seed=13)
    demands = generate_demands(10, 3, 2, seed=14)
    assert place_caches(demands, topo, 5).all()


def test_place_caches_single_cell_full_replication():
    topo = generate_topology("uniform", 1, 5, seed=15)
    demands = generate_demands(5, 4, 2, seed=16)
    assert place_caches(demands, topo, 4).all()


def test_place_caches_rejects_uncoverable():
    topo = generate_topology("uniform", 3, 5, seed=17)
    demands = generate_demands(5, 10, 2, seed=18)
    with pytest.raises(
        ValueError, match="cannot cover 10 views with 3 cells of capacity 2"
    ):
        place_caches(demands, topo, 2)
    with pytest.raises(ValueError, match="cache capacity must be >= 1"):
        place_caches(demands, topo, 0)


def test_place_caches_refuses_a_mask_with_the_wrong_rows():
    topo = generate_topology("uniform", 3, 5, seed=17)
    with pytest.raises(ValueError, match=r"wants \(4, 6\) must be \(5, 6\)"):
        place_caches(np.ones((4, 6), dtype=bool), topo, 2)


def test_place_caches_reads_an_int8_mask_as_bool():
    # A 0/1 int8 mask indexes the demand keys as a mask, not by position.
    topo = generate_topology("uniform", 4, 30, seed=23)
    demands = generate_demands(30, 7, 3, seed=24)
    for capacity in (2, 3, 5):
        cached = place_caches(demands, topo, capacity)
        assert (place_caches(demands.astype(np.int8), topo, capacity) == cached).all()


def test_cache_placement_capacity_invariant():
    # Every cell ends with min(capacity, n_views) views cached.
    topo = generate_topology("uniform", 4, 30, seed=23)
    demands = generate_demands(30, 5, 2, seed=24)
    for capacity in range(2, 8):
        cached = place_caches(demands, topo, capacity)
        assert (cached.sum(axis=1) == min(capacity, 5)).all()


@st.composite
def _placement_cases(draw):
    n_users = draw(st.integers(1, 25))
    n_cells = draw(st.integers(1, 6))
    n_views = draw(st.integers(1, 24))
    per_user = draw(st.integers(0, n_views))
    capacity = draw(st.integers(-(-n_views // n_cells), n_views + 2))
    skew = draw(st.sampled_from([0.0, 0.8, 2.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n_users, n_cells, n_views, per_user, capacity, skew, seed


@settings(max_examples=150, deadline=None)
@given(_placement_cases())
def test_cache_mask_is_the_two_phase_loop(case):
    n_users, n_cells, n_views, per_user, capacity, skew, seed = case
    topo = generate_topology("uniform", n_cells, n_users, seed=seed)
    demands = reference.generate_demands(n_users, n_views, per_user, skew, seed)
    nearest = topo.distances().argmin(axis=1)
    expected = reference.place_caches(demands, nearest, n_cells, n_views, capacity)
    cached = place_caches(_mask(demands, n_views), topo, capacity)
    assert cached.dtype == bool and cached.shape == (n_cells, n_views)
    assert (cached == _mask(expected, n_views)).all()


def test_fig1_style_instance_reward_count():
    # Two cells caching {0, 2} and {1, 2, 3}; users wanting {0, 2}, {0, 3},
    # and {2} yield exactly seven nonzero reward indicators.
    topo = Topology(
        cell_positions=np.array([[-200.0, 0.0], [200.0, 0.0]]),
        user_positions=np.array([[-250.0, 10.0], [-150.0, -40.0], [180.0, 30.0]]),
        map_radius=1000.0,
    )
    wants = _mask([{0, 2}, {0, 3}, {2}], 4)
    cached = _mask([{0, 2}, {1, 2, 3}], 4)
    inst = build_instance(topo, wants, cached, CH, 50_000, seed=0)
    assert int(inst.w.sum()) == 7
    assert inst.w[0, 0].sum() == 2 and inst.w[0, 1].sum() == 1
    assert inst.w[1, 0].sum() == 1 and inst.w[1, 1].sum() == 1
    assert inst.w[2, 0].sum() == 1 and inst.w[2, 1].sum() == 1


@st.composite
def _demands_and_caches(draw):
    n_users = draw(st.integers(1, 6))
    n_cells = draw(st.integers(1, 4))
    n_views = draw(st.integers(1, 6))
    view_sets = st.sets(st.integers(0, n_views - 1))
    demands = draw(st.lists(view_sets, min_size=n_users, max_size=n_users))
    caches = draw(st.lists(view_sets, min_size=n_cells, max_size=n_cells))
    return n_views, demands, caches


@settings(max_examples=60, deadline=None)
@given(_demands_and_caches())
def test_reward_tensor_is_demand_and_cache(case):
    n_views, demands, caches = case
    topo = generate_topology("uniform", len(caches), len(demands), seed=5)
    inst = build_instance(
        topo, _mask(demands, n_views), _mask(caches, n_views), CH, 50_000
    )
    assert inst.w.dtype == np.int8
    for i, wanted in enumerate(demands):
        for j, cache in enumerate(caches):
            for k in range(n_views):
                assert inst.w[i, j, k] == (k in wanted and k in cache)


@pytest.mark.parametrize(
    "wants_shape, cached_shape",
    [((3, 3), (2, 3)), ((2, 3), (1, 3)), ((2, 3), (2, 4)), ((3,), (2, 3))],
    ids=["users", "cells", "views", "one-dimensional"],
)
def test_build_instance_rejects_mask_shape_mismatch(wants_shape, cached_shape):
    topo = generate_topology("uniform", 2, 2, seed=5)
    wants = np.ones(wants_shape, dtype=bool)
    cached = np.ones(cached_shape, dtype=bool)
    with pytest.raises(ValueError, match="do not match 2 users and 2 cells"):
        build_instance(topo, wants, cached, CH, 50_000)


def test_empty_demands_give_zero_rewards():
    topo = generate_topology("uniform", 3, 4, seed=19)
    wants = np.zeros((4, 3), dtype=bool)
    cached = place_caches(generate_demands(4, 3, 3, seed=20), topo, 2)
    inst = build_instance(topo, wants, cached, CH, 50_000, seed=1)
    assert inst.w.sum() == 0
    sol = Solution(assoc=np.zeros(4, dtype=np.int64))
    assert objective(inst, sol) == 0.0


def test_build_instance_deterministic_and_consistent():
    topo = generate_topology("hotspot", 4, 8, seed=21)
    demands = generate_demands(8, 5, 3, seed=22)
    cached = place_caches(demands, topo, 3)
    i1 = build_instance(topo, demands, cached, CH, 50_000, seed=2)
    i2 = build_instance(topo, demands, cached, CH, 50_000, seed=2)
    assert (i1.rb_basic == i2.rb_basic).all()
    assert (i1.rb_enhanced == i2.rb_enhanced).all()
    # w-consistency by exhaustive scan
    for i in range(8):
        for j in range(4):
            for k in range(5):
                expected = int(demands[i, k] and cached[j, k])
                assert i1.w[i, j, k] == expected


def test_sharing_groups_fraction_bounds_and_determinism():
    g1 = generate_sharing_groups(10, 4, 1.0, seed=1)
    assert g1.shape == (10, 4) and (g1 == 1).all()
    g2 = generate_sharing_groups(10, 4, 0.5, seed=2)
    g3 = generate_sharing_groups(10, 4, 0.5, seed=2)
    assert (g2 == g3).all()
    with pytest.raises(ValueError):
        generate_sharing_groups(5, 2, 1.5)


@settings(max_examples=100, deadline=None)
@given(
    n_users=st.integers(0, 12),
    n_views=st.integers(0, 6),
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sharing_mask_is_the_per_view_draw(n_users, n_views, fraction, seed):
    # One uniform per user, drawn view by view from the seed's stream.
    rng = np.random.default_rng(seed)
    expected = np.zeros((n_users, n_views), dtype=np.int8)
    for k in range(n_views):
        expected[:, k] = rng.uniform(size=n_users) < fraction
    mask = generate_sharing_groups(n_users, n_views, fraction, seed=seed)
    assert mask.dtype == np.int8
    assert mask.shape == expected.shape and (mask == expected).all()
