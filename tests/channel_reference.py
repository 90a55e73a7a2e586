"""Scalar link model, one link at a time: the oracle for
``tiercast.channel.link_bits_per_rb`` and the RB cost tables, and the norm
form of the distance table, the oracle for ``tiercast.channel.distances``."""

import math

import numpy as np


def distances(cell_positions, user_positions) -> np.ndarray:
    """(M, S) user-to-cell distances as ``np.linalg.norm`` over the x-y axis."""
    users = np.asarray(user_positions, dtype=float)[:, None, :]
    return np.linalg.norm(users - np.asarray(cell_positions, dtype=float)[None], axis=2)


class UnreachableUserError(ValueError):
    """A link supports zero rate."""


def path_loss_db(d: float, params, shadow_draw: float = 0.0) -> float:
    """Path loss in dB at distance ``d`` meters, including a shadow draw in dB."""
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    return (
        params.a * math.log10(d)
        + params.b
        + params.c * math.log10(params.fc / 5.0)
        + shadow_draw
    )


def channel_gain(d: float, params, shadow_draw: float = 0.0) -> float:
    """Linear channel gain 10^(-loss/10)."""
    return 10.0 ** (-path_loss_db(d, params, shadow_draw) / 10.0)


def sinr(user_pos, serving_cell: int, cell_positions, params, shadow_field=None) -> float:
    """SINR (linear) from ``serving_cell`` to a user, all other cells interfering.

    ``shadow_field`` holds one dB draw per cell link for this user; omit for
    zero shadowing. Every non-serving cell transmits at full power.
    """
    cell_positions = np.asarray(cell_positions, dtype=float)
    n_cells = cell_positions.shape[0]
    if not 0 <= serving_cell < n_cells:
        raise ValueError(f"serving_cell {serving_cell} out of range")
    if shadow_field is None:
        shadow_field = np.zeros(n_cells)

    dists = np.linalg.norm(cell_positions - np.asarray(user_pos, dtype=float), axis=1)
    if (dists <= 0).any():
        raise ValueError("user collocated with a cell (zero distance)")

    gains = np.array(
        [channel_gain(dists[j], params, shadow_field[j]) for j in range(n_cells)]
    )
    signal = params.tx_power * gains[serving_cell]
    interference = params.tx_power * (gains.sum() - gains[serving_cell])
    return signal / (params.noise_watts + params.interference_scale * interference)


def rate_per_rb(sinr_linear: float, params) -> float:
    """Bits deliverable in one RB at the given linear SINR."""
    if sinr_linear < 0:
        raise ValueError("sinr must be nonnegative")
    return params.rb_duration * params.rb_bandwidth * math.log2(1.0 + sinr_linear)


def rbs_for_payload(payload_bits: float, bits_per_rb: float) -> int:
    """RBs needed for a payload: ceil(payload / bits_per_rb), at least 1."""
    if payload_bits <= 0:
        raise ValueError("payload must be positive")
    if bits_per_rb <= 0:
        raise UnreachableUserError("link supports zero rate")
    return max(1, math.ceil(payload_bits / bits_per_rb))
