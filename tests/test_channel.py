"""Channel model: the scalar link oracle (path loss, SINR, per-RB rate) and
the vectorized RB cost tables checked against it."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import channel_reference
from channel_reference import (
    UnreachableUserError,
    channel_gain,
    path_loss_db,
    rate_per_rb,
    rbs_for_payload,
    sinr,
)
from tiercast.channel import (
    UNREACHABLE_RBS,
    ChannelParams,
    build_rb_tables,
    distances,
    link_bits_per_rb,
)

# a=36.8, b=43.8, c=20, fc=5, with full co-channel interference
TABLE_PARAMS = ChannelParams(interference_scale=1.0)

NON_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)


def test_path_loss_at_one_meter_is_intercept():
    assert path_loss_db(1.0, TABLE_PARAMS) == pytest.approx(43.8)


def test_path_loss_at_100m():
    assert path_loss_db(100.0, TABLE_PARAMS) == pytest.approx(117.4)


def test_path_loss_at_250m_matches_independent_evaluation():
    # 36.8 * log10(250) + 43.8, recomputed by hand in a separate script
    assert path_loss_db(250.0, TABLE_PARAMS) == pytest.approx(
        132.04419231913096, abs=1e-9
    )


def test_path_loss_includes_shadow_draw_and_frequency_term():
    p = ChannelParams(fc=50.0)
    expected = 36.8 * math.log10(10) + 43.8 + 20 * math.log10(10) + 3.5
    assert path_loss_db(10.0, p, shadow_draw=3.5) == pytest.approx(expected)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss_db(0.0, TABLE_PARAMS)
    with pytest.raises(ValueError):
        path_loss_db(-5.0, TABLE_PARAMS)


def test_gain_positive_for_finite_loss():
    for d in (0.5, 1.0, 250.0, 5e4):
        assert channel_gain(d, TABLE_PARAMS) > 0


def test_params_invariants():
    with pytest.raises(ValueError):
        ChannelParams(fc=0)
    with pytest.raises(ValueError):
        ChannelParams(rb_bandwidth=0)
    with pytest.raises(ValueError):
        ChannelParams(tx_power=0)
    with pytest.raises(ValueError):
        ChannelParams(shadow_sigma=-1)
    with pytest.raises(ValueError, match="shadow_sigma"):
        ChannelParams(shadow_sigma=float("nan"))


@NON_FINITE
@pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(ChannelParams)])
def test_params_refuse_a_non_finite_field_by_name(name, value):
    # A NaN cost used to reach the int64 cast and then Instance's "RB costs
    # must be >= 1", which named neither the field nor the NaN.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ChannelParams(**{name: value})


@pytest.mark.parametrize("scale", [-1.0, 1.5, 2.0])
def test_params_refuse_interference_scale_outside_unit_interval(scale):
    with pytest.raises(ValueError, match="interference_scale"):
        ChannelParams(interference_scale=scale)


def test_params_default_to_orthogonal_spectrum():
    assert ChannelParams().interference_scale == 0.0


def test_sinr_single_cell_is_noise_limited():
    cells = np.array([[0.0, 0.0]])
    user = np.array([100.0, 0.0])
    g = channel_gain(100.0, TABLE_PARAMS)
    expected = TABLE_PARAMS.tx_power * g / TABLE_PARAMS.noise_watts
    assert sinr(user, 0, cells, TABLE_PARAMS) == pytest.approx(expected, rel=1e-12)


def test_sinr_equidistant_interferer_matches_signal():
    cells = np.array([[-200.0, 0.0], [200.0, 0.0]])
    user = np.array([0.0, 0.0])
    g = channel_gain(200.0, TABLE_PARAMS)
    s = sinr(user, 0, cells, TABLE_PARAMS)
    expected = g / (TABLE_PARAMS.noise_watts / TABLE_PARAMS.tx_power + g)
    assert s == pytest.approx(expected, rel=1e-12)


def test_sinr_three_cell_layout_term_by_term():
    # Independent scalar recomputation of the rate formula's SINR argument.
    cells = np.array([[0.0, 0.0], [400.0, 300.0], [-600.0, 100.0]])
    user = np.array([120.0, -50.0])
    p = TABLE_PARAMS
    gains = []
    for cx, cy in cells:
        d = math.hypot(user[0] - cx, user[1] - cy)
        loss = 36.8 * math.log10(d) + 43.8 + 20 * math.log10(5 / 5)
        gains.append(10 ** (-loss / 10))
    noise = 10 ** ((-174 - 30) / 10) * 180e3
    expected = 1.0 * gains[0] / (noise + 1.0 * (gains[1] + gains[2]))
    assert sinr(user, 0, cells, p) == pytest.approx(expected, rel=1e-12)


def test_sinr_interference_scale_zero_gives_snr():
    cells = np.array([[0.0, 0.0], [50.0, 0.0]])
    user = np.array([100.0, 0.0])
    p = ChannelParams(interference_scale=0.0)
    g = channel_gain(100.0, p)
    assert sinr(user, 0, cells, p) == pytest.approx(g / p.noise_watts, rel=1e-12)


def test_sinr_rejects_collocated_user():
    cells = np.array([[0.0, 0.0], [10.0, 0.0]])
    with pytest.raises(ValueError):
        sinr(np.array([10.0, 0.0]), 0, cells, TABLE_PARAMS)


def test_rate_per_rb_values():
    assert rate_per_rb(0.0, TABLE_PARAMS) == 0.0
    assert rate_per_rb(1.0, TABLE_PARAMS) == pytest.approx(90.0)
    assert rate_per_rb(15.0, TABLE_PARAMS) == pytest.approx(360.0)


def test_rbs_for_payload():
    assert rbs_for_payload(2e6, 1000.0) == 2000
    assert rbs_for_payload(2e6, 999.0) == 2003
    assert rbs_for_payload(1.0, 90.0) == 1
    with pytest.raises(UnreachableUserError):
        rbs_for_payload(2e6, 0.0)
    with pytest.raises(ValueError):
        rbs_for_payload(0.0, 90.0)


def test_rb_table_single_link_matches_scalar_pipeline():
    # One user, one cell, d=100 m, zero shadow, Table defaults: recompute the
    # whole pipeline with plain scalar math.
    cells = np.array([[0.0, 0.0]])
    users = np.array([[100.0, 0.0]])
    basic, enhanced = build_rb_tables(
        cells, users, TABLE_PARAMS, 2e6, np.array([2e6]), seed=0
    )

    loss = 36.8 * 2 + 43.8
    g = 10 ** (-loss / 10)
    snr = 1.0 * g / (10 ** ((-174 - 30) / 10) * 180e3)
    bits = 0.5e-3 * 180e3 * math.log2(1 + snr)
    expected = math.ceil(2e6 / bits)
    assert expected == 1965  # frozen from an independent evaluation
    assert basic[0, 0] == expected
    assert enhanced[0, 0, 0] == expected


def test_rb_tables_equal_sizes_match_basic():
    rng = np.random.default_rng(3)
    cells = rng.uniform(-500, 500, size=(4, 2))
    users = rng.uniform(-500, 500, size=(6, 2))
    basic, enhanced = build_rb_tables(
        cells, users, TABLE_PARAMS, 2e6, np.array([2e6, 2e6, 2e6]), seed=1
    )
    assert basic.dtype == enhanced.dtype == np.int64
    for k in range(3):
        assert (enhanced[:, :, k] == basic).all()


def test_rb_tables_with_repeated_sizes_match_the_per_view_formula():
    # Views 0 and 2 share a size, so the table divides three sizes for four
    # views; every entry still equals ceil(size / bits) for its own view, and
    # the links to the cell 1e9 m away carry 0 bits.
    cells = np.array([[0.0, 0.0], [1e9, 0.0], [250.0, -80.0]])
    users = np.array([[10.0, 0.0], [300.0, 50.0], [-120.0, 400.0]])
    sizes = np.array([1e6, 2e6, 1e6, 3e6])
    bits = link_bits_per_rb(cells, users, TABLE_PARAMS, np.zeros((3, 3)))
    basic, enhanced = build_rb_tables(cells, users, TABLE_PARAMS, 2e6, sizes, seed=0)
    assert enhanced.shape == (3, 3, 4) and enhanced.flags.c_contiguous
    assert (bits[:, 1] == 0.0).all() and (bits[:, [0, 2]] > 0).all()
    for i in range(3):
        for j in range(3):
            if j == 1:
                assert basic[i, j] == UNREACHABLE_RBS
                assert (enhanced[i, j] == UNREACHABLE_RBS).all()
                continue
            assert basic[i, j] == rbs_for_payload(2e6, bits[i, j])
            for k, size in enumerate(sizes):
                assert enhanced[i, j, k] == rbs_for_payload(size, bits[i, j])


def test_rb_tables_monotone_in_view_size():
    cells = np.array([[0.0, 0.0]])
    users = np.array([[300.0, 0.0]])
    _, small = build_rb_tables(cells, users, TABLE_PARAMS, 2e6, np.array([1e6]), seed=0)
    _, big = build_rb_tables(cells, users, TABLE_PARAMS, 2e6, np.array([2e6]), seed=0)
    assert (big >= small).all()


def test_rb_tables_deterministic_per_seed():
    rng = np.random.default_rng(4)
    cells = rng.uniform(-500, 500, size=(3, 2))
    users = rng.uniform(-500, 500, size=(5, 2))
    p = ChannelParams(shadow_sigma=4.0, interference_scale=1.0)
    t1 = build_rb_tables(cells, users, p, 2e6, np.array([2e6, 1e6]), seed=9)
    t2 = build_rb_tables(cells, users, p, 2e6, np.array([2e6, 1e6]), seed=9)
    t3 = build_rb_tables(cells, users, p, 2e6, np.array([2e6, 1e6]), seed=10)
    assert (t1[0] == t2[0]).all() and (t1[1] == t2[1]).all()
    assert (t1[0] != t3[0]).any()


def _tables_from_bits(bits, basic_size, view_sizes):
    """The RB tables of ``bits``, one link and one view at a time."""
    def cost(size, b):
        return UNREACHABLE_RBS if b == 0.0 else rbs_for_payload(size, b)

    basic = np.array([[cost(basic_size, b) for b in row] for row in bits])
    enhanced = np.array(
        [[[cost(size, b) for size in view_sizes] for b in row] for row in bits]
    )
    return basic, enhanced


@pytest.mark.parametrize("sigma", [0.0, 4.0])
def test_rb_tables_draw_one_shadow_per_link_from_the_seed(sigma):
    # The docstring's draw: default_rng(seed).normal(0, sigma, (M, S)); at
    # sigma 0 that is an all-zero shadow.
    rng = np.random.default_rng(6)
    cells = rng.uniform(-500, 500, size=(4, 2))
    users = rng.uniform(-500, 500, size=(7, 2))
    sizes = np.array([1e6, 2e6, 1e6])
    p = ChannelParams(shadow_sigma=sigma, interference_scale=1.0)
    shadow = (
        np.random.default_rng(11).normal(0.0, sigma, size=(7, 4))
        if sigma > 0
        else np.zeros((7, 4))
    )
    bits = link_bits_per_rb(cells, users, p, shadow)
    basic, enhanced = build_rb_tables(cells, users, p, 2e6, sizes, seed=11)
    expected_basic, expected_enhanced = _tables_from_bits(bits, 2e6, sizes)
    assert (basic == expected_basic).all() and (enhanced == expected_enhanced).all()
    unshadowed, _ = _tables_from_bits(
        link_bits_per_rb(cells, users, p, np.zeros((7, 4))), 2e6, sizes
    )
    assert (basic != unshadowed).any() == (sigma > 0)


_coordinate = st.builds(
    lambda size, negative: -size if negative else size,
    st.floats(1e-3, 1e6),
    st.booleans(),
)


@st.composite
def _layouts(draw):
    n_cells = draw(st.integers(1, 6))
    n_users = draw(st.integers(1, 6))
    point = st.tuples(_coordinate, _coordinate)
    cells = np.array(draw(st.lists(point, min_size=n_cells, max_size=n_cells)))
    users = np.array(draw(st.lists(point, min_size=n_users, max_size=n_users)))
    # Users placed exactly on a cell, at distance 0.
    on_cell = draw(
        st.dictionaries(st.integers(0, n_users - 1), st.integers(0, n_cells - 1))
    )
    for i, j in on_cell.items():
        users[i] = cells[j]
    return cells, users, on_cell


@settings(max_examples=200, deadline=None)
@given(_layouts())
def test_distances_equal_the_norm_form_bit_for_bit(layout):
    cells, users, on_cell = layout
    got = distances(cells, users)
    assert got.shape == (len(users), len(cells)) and got.dtype == np.float64
    assert np.array_equal(got, channel_reference.distances(cells, users))
    for i, j in on_cell.items():
        assert got[i, j] == 0.0


def test_serving_distance_monotonicity():
    # Moving the user away from its serving cell (interferers fixed) strictly
    # decreases SINR and weakly increases the basic RB cost.
    cells = np.array([[0.0, 0.0], [1000.0, 0.0]])
    prev_sinr = np.inf
    prev_cost = 0
    for d in (50.0, 100.0, 200.0, 400.0):
        user = np.array([d, 0.0])
        s = sinr(user, 0, cells, TABLE_PARAMS)
        assert s < prev_sinr
        cost = rbs_for_payload(2e6, rate_per_rb(s, TABLE_PARAMS))
        assert cost >= prev_cost
        prev_sinr, prev_cost = s, cost


def test_unit_coherence():
    # Enough RBs are always bought to carry the payload.
    for s in (0.01, 0.5, 1.0, 7.3, 240.0):
        bits = rate_per_rb(s, TABLE_PARAMS)
        n = rbs_for_payload(2e6, bits)
        assert n * bits >= 2e6


def test_vectorized_bits_match_scalar_path():
    rng = np.random.default_rng(5)
    cells = rng.uniform(-400, 400, size=(3, 2))
    users = rng.uniform(-400, 400, size=(4, 2))
    shadow = rng.normal(0, 3.0, size=(4, 3))
    p = ChannelParams(shadow_sigma=3.0, interference_scale=1.0)
    bits = link_bits_per_rb(cells, users, p, shadow)
    for i in range(4):
        for j in range(3):
            s = sinr(users[i], j, cells, p, shadow_field=shadow[i])
            assert bits[i, j] == pytest.approx(rate_per_rb(s, p), rel=1e-12)


def test_vectorized_bits_reject_a_collocated_user():
    cells = np.array([[0.0, 0.0], [10.0, 0.0]])
    users = np.array([[5.0, 0.0], [10.0, 0.0]])
    with pytest.raises(ValueError, match="zero distance"):
        link_bits_per_rb(cells, users, TABLE_PARAMS, np.zeros((2, 2)))


@pytest.mark.parametrize(
    "n_cells, n_users, view_sizes",
    [(0, 1, [2e6]), (1, 0, [2e6]), (1, 1, [])],
    ids=["no-cells", "no-users", "no-views"],
)
def test_rb_tables_reject_an_empty_axis(n_cells, n_users, view_sizes):
    cells = np.full((n_cells, 2), 10.0)
    users = np.zeros((n_users, 2))
    with pytest.raises(ValueError, match="must be nonempty"):
        build_rb_tables(cells, users, TABLE_PARAMS, 2e6, np.array(view_sizes), seed=0)


@pytest.mark.parametrize(
    "basic_size, view_sizes", [(0.0, [2e6]), (2e6, [2e6, -1.0])], ids=["basic", "view"]
)
def test_rb_tables_reject_a_nonpositive_payload(basic_size, view_sizes):
    cells = np.array([[0.0, 0.0]])
    users = np.array([[10.0, 0.0]])
    with pytest.raises(ValueError, match="payload sizes must be positive"):
        build_rb_tables(cells, users, TABLE_PARAMS, basic_size, np.array(view_sizes), seed=0)


@NON_FINITE
@pytest.mark.parametrize("name", ["basic_size", "view_sizes"])
def test_rb_tables_refuse_a_non_finite_payload_by_name(name, value):
    # An infinite basic size used to cost every link UNREACHABLE_RBS.
    sizes = {"basic_size": 2e6, "view_sizes": np.array([2e6, 1e6])}
    sizes[name] = value if name == "basic_size" else np.array([2e6, value])
    cells = np.array([[0.0, 0.0]])
    users = np.array([[10.0, 0.0]])
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        build_rb_tables(cells, users, TABLE_PARAMS, seed=0, **sizes)


def test_all_links_dead_raises():
    cells = np.array([[0.0, 0.0]])
    users = np.array([[1e150, 0.0]])
    with pytest.raises(ValueError, match="user 0 has zero rate to every cell"):
        build_rb_tables(cells, users, TABLE_PARAMS, 2e6, np.array([2e6]), seed=0)


def test_a_dead_link_costs_unreachable_rbs():
    # At 1e9 m the SNR is ~1e-23, so 1 + SINR rounds to 1 and the link
    # carries 0 bits; the user's link to the cell 10 m away stays live.
    cells = np.array([[0.0, 0.0], [1e9, 0.0]])
    users = np.array([[10.0, 0.0]])
    bits = link_bits_per_rb(cells, users, ChannelParams(), np.zeros((1, 2)))
    assert bits[0, 0] > 0 and bits[0, 1] == 0.0
    basic, enhanced = build_rb_tables(
        cells, users, ChannelParams(), 2e6, np.array([1e6, 2e6]), seed=0
    )
    assert basic.dtype == enhanced.dtype == np.int64
    assert basic[0, 1] == UNREACHABLE_RBS
    assert (enhanced[0, 1] == UNREACHABLE_RBS).all()
    assert 1 <= basic[0, 0] < UNREACHABLE_RBS
    assert (1 <= enhanced[0, 0]).all() and (enhanced[0, 0] < UNREACHABLE_RBS).all()
