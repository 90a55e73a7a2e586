"""Topology, demand, cache placement, and instance assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiercast.channel import ChannelParams
from tiercast.problem import Solution, objective
from tiercast.scenario import (
    CachePlacement,
    DemandSet,
    PlacementError,
    Topology,
    build_instance,
    generate_demands,
    generate_sharing_groups,
    generate_topology,
    place_caches,
)

CH = ChannelParams(interference_scale=0.0)


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


def test_topology_invariant_checks():
    with pytest.raises(ValueError):
        Topology(
            cell_positions=np.array([[2000.0, 0.0]]),
            user_positions=np.array([[0.0, 0.0]]),
            map_radius=1000.0,
        )
    with pytest.raises(ValueError):
        Topology(
            cell_positions=np.array([[10.0, 0.0]]),
            user_positions=np.array([[10.0, 0.0]]),
            map_radius=1000.0,
        )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 30),
    st.integers(1, 12),
    st.sampled_from([0.0, 0.8, 2.5]),
    st.integers(0, 2**32 - 1),
)
def test_demands_exhaustive_when_views_per_user_equals_views(m, e, skew, seed):
    d = generate_demands(m, e, e, popularity_skew=skew, seed=seed)
    assert d.views == (tuple(range(e)),) * m
    # The same as sorting the full draw without replacement, which permutes.
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, e + 1) ** skew
    probs = weights / weights.sum()
    drawn = tuple(
        tuple(sorted(rng.choice(e, size=e, replace=False, p=probs))) for _ in range(m)
    )
    assert d.views == drawn


def test_demands_partial_draw_is_pinned():
    # A fig9-style draw: 2 of 10 views per user.
    d = generate_demands(6, 10, 2, popularity_skew=0.8, seed=9)
    assert d.views == ((1, 7), (3, 5), (4, 8), (7, 8), (0, 1), (0, 2))


def test_demands_zero_skew_is_uniform():
    d = generate_demands(20_000, 5, 1, popularity_skew=0.0, seed=2)
    counts = np.zeros(5)
    for vs in d.views:
        counts[vs[0]] += 1
    freqs = counts / counts.sum()
    assert np.abs(freqs - 0.2).max() < 0.01  # 5% of 1/E


def test_demands_deterministic_and_validated():
    d1 = generate_demands(10, 6, 2, seed=5)
    d2 = generate_demands(10, 6, 2, seed=5)
    assert d1.views == d2.views
    with pytest.raises(ValueError):
        generate_demands(3, 2, 5)
    with pytest.raises(ValueError):
        generate_demands(3, 0, 0)
    with pytest.raises(ValueError):
        DemandSet(views=((7,),), n_views=3)


def test_place_caches_coverage_and_capacity():
    topo = generate_topology("uniform", 10, 40, seed=11)
    demands = generate_demands(40, 5, 5, seed=12)
    placement = place_caches(demands, topo, 3)
    cached_somewhere = set().union(*placement.caches)
    assert cached_somewhere == set(range(5))
    assert all(len(c) <= 3 for c in placement.caches)


def test_place_caches_saturates_when_capacity_covers_all_views():
    topo = generate_topology("uniform", 4, 10, seed=13)
    demands = generate_demands(10, 3, 2, seed=14)
    placement = place_caches(demands, topo, 5)
    assert all(c == frozenset(range(3)) for c in placement.caches)


def test_place_caches_single_cell_full_replication():
    topo = generate_topology("uniform", 1, 5, seed=15)
    demands = generate_demands(5, 4, 2, seed=16)
    placement = place_caches(demands, topo, 4)
    assert placement.caches[0] == frozenset(range(4))


def test_place_caches_rejects_uncoverable():
    topo = generate_topology("uniform", 3, 5, seed=17)
    demands = generate_demands(5, 10, 2, seed=18)
    with pytest.raises(PlacementError):
        place_caches(demands, topo, 2)
    with pytest.raises(PlacementError):
        place_caches(demands, topo, 0)


def test_cache_placement_capacity_invariant():
    with pytest.raises(ValueError):
        CachePlacement(caches=(frozenset({0, 1, 2}),), cache_capacity=2)


def test_fig1_style_instance_reward_count():
    # Two cells caching {0, 2} and {1, 2, 3}; users wanting {0, 2}, {0, 3},
    # and {2} yield exactly seven nonzero reward indicators.
    topo = Topology(
        cell_positions=np.array([[-200.0, 0.0], [200.0, 0.0]]),
        user_positions=np.array([[-250.0, 10.0], [-150.0, -40.0], [180.0, 30.0]]),
        map_radius=1000.0,
    )
    demands = DemandSet(views=((0, 2), (0, 3), (2,)), n_views=4)
    placement = CachePlacement(
        caches=(frozenset({0, 2}), frozenset({1, 2, 3})), cache_capacity=3
    )
    inst = build_instance(topo, demands, placement, CH, 50_000, seed=0)
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
        topo,
        DemandSet(views=tuple(tuple(sorted(d)) for d in demands), n_views=n_views),
        CachePlacement(
            caches=tuple(frozenset(c) for c in caches), cache_capacity=n_views
        ),
        CH,
        50_000,
    )
    assert inst.w.dtype == np.int8
    for i, wanted in enumerate(demands):
        for j, cache in enumerate(caches):
            for k in range(n_views):
                assert inst.w[i, j, k] == (k in wanted and k in cache)


@pytest.mark.parametrize("bad_view", [-1, 3])
def test_build_instance_rejects_cached_view_out_of_range(bad_view):
    topo = generate_topology("uniform", 2, 2, seed=5)
    demands = DemandSet(views=((0,), (1, 2)), n_views=3)
    placement = CachePlacement(
        caches=(frozenset({0}), frozenset({1, bad_view})), cache_capacity=3
    )
    with pytest.raises(ValueError, match="out of range"):
        build_instance(topo, demands, placement, CH, 50_000)


def test_empty_demands_give_zero_rewards():
    topo = generate_topology("uniform", 3, 4, seed=19)
    demands = DemandSet(views=((), (), (), ()), n_views=3)
    placement = place_caches(generate_demands(4, 3, 3, seed=20), topo, 2)
    inst = build_instance(topo, demands, placement, CH, 50_000, seed=1)
    assert inst.w.sum() == 0
    sol = Solution(assoc=np.zeros(4, dtype=np.int64))
    assert objective(inst, sol) == 0.0


def test_build_instance_deterministic_and_consistent():
    topo = generate_topology("hotspot", 4, 8, seed=21)
    demands = generate_demands(8, 5, 3, seed=22)
    placement = place_caches(demands, topo, 3)
    i1 = build_instance(topo, demands, placement, CH, 50_000, seed=2)
    i2 = build_instance(topo, demands, placement, CH, 50_000, seed=2)
    assert (i1.rb_basic == i2.rb_basic).all()
    assert (i1.rb_enhanced == i2.rb_enhanced).all()
    # w-consistency by exhaustive scan
    for i in range(8):
        for j in range(4):
            for k in range(5):
                expected = int(k in demands.views[i] and k in placement.caches[j])
                assert i1.w[i, j, k] == expected


def test_sharing_groups_fraction_bounds_and_determinism():
    g1 = generate_sharing_groups(10, 3, 4, 1.0, seed=1)
    assert all(
        g1[j][k] == frozenset(range(10)) for j in range(3) for k in range(4)
    )
    g2 = generate_sharing_groups(10, 3, 4, 0.5, seed=2)
    g3 = generate_sharing_groups(10, 3, 4, 0.5, seed=2)
    assert g2 == g3
    with pytest.raises(ValueError):
        generate_sharing_groups(5, 2, 2, 1.5)
