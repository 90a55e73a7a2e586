"""Wireless propagation, SINR/rate computation, and resource-block cost tables.

Distances are in meters, powers in watts, per-link losses in dB. A resource
block (RB) is ``rb_bandwidth`` Hz wide and lasts ``rb_duration`` seconds, so a
link carrying ``r`` bit/s delivers ``rb_duration * r`` bits per RB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Per-link RB cost used when a link's rate underflows to zero. Far above any
# realistic cell budget, so such links are never worth selecting.
UNREACHABLE_RBS = 2**40


@dataclass(frozen=True)
class ChannelParams:
    """Propagation and radio constants.

    The path-loss slope/intercept defaults follow a WINNER-II urban NLOS
    parameterization: loss(d) = a*log10(d) + b + c*log10(fc/5) + X, with X a
    per-link shadow-fading draw in dB.
    """

    a: float = 36.8          # dB per decade of distance
    b: float = 43.8          # dB intercept
    c: float = 20.0          # dB frequency coefficient
    fc: float = 5.0          # carrier frequency, GHz
    shadow_sigma: float = 0.0  # shadow fading std dev, dB (0 disables)
    tx_power: float = 1.0    # watts
    noise_psd: float = -174.0  # dBm/Hz
    rb_bandwidth: float = 180e3  # Hz per RB
    rb_duration: float = 0.5e-3  # seconds per RB
    # Fraction of co-channel overlap between cells: 1 means every other cell
    # interferes at full power on every RB; 0 models fully orthogonal
    # spectrum allocation across cells. The default is orthogonal: ten cells
    # at 50,000 RB/s of 180 kHz x 0.5 ms each occupy 45 MHz of the 100 MHz
    # system band, so the small-scale deployment needs no co-channel reuse.
    interference_scale: float = 0.0

    def __post_init__(self):
        if self.fc <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.rb_bandwidth <= 0 or self.rb_duration <= 0:
            raise ValueError("RB dimensions must be positive")
        if self.tx_power <= 0:
            raise ValueError("tx_power must be positive")
        if not self.shadow_sigma >= 0:  # refuses NaN too
            raise ValueError("shadow_sigma must be nonnegative")
        if not 0.0 <= self.interference_scale <= 1.0:
            raise ValueError("interference_scale must lie in [0, 1]")

    @property
    def noise_watts(self) -> float:
        """Total noise power over one RB bandwidth, in watts."""
        return 10.0 ** ((self.noise_psd - 30.0) / 10.0) * self.rb_bandwidth


def distances(cell_positions: np.ndarray, user_positions: np.ndarray) -> np.ndarray:
    """(M, S) user-to-cell Euclidean distances, the numbers that generation's
    1 m rule and the zero-distance refusal below both read."""
    users = np.asarray(user_positions, dtype=float)
    cells = np.asarray(cell_positions, dtype=float)
    dx = users[:, 0, None] - cells[None, :, 0]
    dy = users[:, 1, None] - cells[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def link_bits_per_rb(
    cell_positions: np.ndarray,
    user_positions: np.ndarray,
    params: ChannelParams,
    shadow: np.ndarray,
) -> np.ndarray:
    """Bits per RB for every (user, cell) link: rb_duration * rb_bandwidth *
    log2(1 + SINR), with every other cell interfering at full power scaled by
    ``interference_scale``, and ``shadow`` the per-link shadow draws in dB."""
    dists = distances(cell_positions, user_positions)
    if (dists <= 0).any():
        raise ValueError("user collocated with a cell (zero distance)")
    loss = (
        params.a * np.log10(dists)
        + params.b
        + params.c * math.log10(params.fc / 5.0)
        + shadow
    )
    gains = 10.0 ** (-loss / 10.0)
    rx = params.tx_power * gains
    total = rx.sum(axis=1, keepdims=True)
    s = rx / (params.noise_watts + params.interference_scale * (total - rx))
    return params.rb_duration * params.rb_bandwidth * np.log2(1.0 + s)


def build_rb_tables(
    cell_positions: np.ndarray,
    user_positions: np.ndarray,
    params: ChannelParams,
    basic_size: float,
    view_sizes: np.ndarray,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Fill per-link RB cost tables for the basic view and each enhanced view.

    Returns ``(basic, enhanced)``: the (M, S) and (M, S, E) int64 RB costs,
    every entry >= 1; links with zero rate carry ``UNREACHABLE_RBS``.
    Shadow fading is drawn once per (user, cell) link from N(0, shadow_sigma).
    Raises ``ValueError`` if some user has zero rate to every cell.
    """
    view_sizes = np.asarray(view_sizes, dtype=float)
    n_users = np.asarray(user_positions).shape[0]
    n_cells = np.asarray(cell_positions).shape[0]
    n_views = view_sizes.shape[0]
    if n_users == 0 or n_cells == 0 or n_views == 0:
        raise ValueError("topology and view list must be nonempty")
    if basic_size <= 0 or (view_sizes <= 0).any():
        raise ValueError("payload sizes must be positive")

    rng = np.random.default_rng(seed)
    sigma = params.shadow_sigma
    # At sigma 0 this local generator would draw only +0.0: take no draw.
    shadow = rng.normal(0.0, sigma, size=(n_users, n_cells)) if sigma > 0 else 0.0
    bits = link_bits_per_rb(cell_positions, user_positions, params, shadow)

    dead = bits <= 0.0
    if dead.all(axis=1).any():
        i = int(np.flatnonzero(dead.all(axis=1))[0])
        raise ValueError(f"user {i} has zero rate to every cell")

    # A dead link divides its payload by 0 bits: the cost is +inf, which
    # the clip sends to UNREACHABLE_RBS. Views of one size cost the same,
    # so each distinct size is divided once and gathered to its views.
    sizes, size_of_view = np.unique(view_sizes, return_inverse=True)
    with np.errstate(divide="ignore"):
        basic = np.clip(np.ceil(basic_size / bits), 1, UNREACHABLE_RBS)
        per_size = np.clip(np.ceil(sizes / bits[:, :, None]), 1, UNREACHABLE_RBS)
    enhanced = np.take(per_size.astype(np.int64), size_of_view, axis=2)
    return basic.astype(np.int64), enhanced
