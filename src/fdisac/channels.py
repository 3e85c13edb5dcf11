"""Channel synthesis for the downlink, uplink, radar and self-interference paths.

All channels are frequency flat except the radar channel, whose per-subcarrier
and per-symbol phase rotation encodes target delay and Doppler:

    H_rad(p, q) = sum_k gain_k * exp(j*2*pi*(q*T_s*f_D,k - p*tau_k*df))
                         * a_rx(theta_k) a_tx(theta_k)^H

with tau_k = 2*range_k/c and f_D,k = 2*velocity_k*f_c/c (two-way propagation).
Functions that draw take an explicit seeded generator, every CN(0, sigma^2)
block through :func:`fill_complex_normal`; everything else is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ula_response_matrix

__all__ = [
    "SPEED_OF_LIGHT",
    "Waveform",
    "gen_dl_channel",
    "gen_ul_channel",
    "delay_doppler_phase",
    "gen_si_channel",
    "perturb_estimate",
    "fill_complex_normal",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def fill_complex_normal(rng: np.random.Generator, out: np.ndarray, sigma=1.0) -> np.ndarray:
    """Fill ``out`` in place with i.i.d. CN(0, sigma^2) entries, real parts first; return it.

    Each part is drawn into one float scratch, scaled by ``sigma``, then by
    1/sqrt(2): the product numpy forms for sigma*(a + 1j*b)/sqrt(2).
    """
    draw = np.empty(out.shape)
    for part in (out.real, out.imag):
        rng.standard_normal(out=draw)
        draw *= sigma
        np.multiply(draw, 1 / np.sqrt(2), out=part)
    return out


@dataclass(frozen=True)
class Waveform:
    """OFDM numerology: P subcarriers, Q symbols, spacing, symbol duration, carrier.

    The symbol duration T_s includes the cyclic prefix, T_cp = T_s - 1/df.
    :meth:`~fdisac.config.ScenarioConfig.waveform` builds it from a checked
    config, so every field is positive and T_cp >= 0.
    """

    n_subcarriers: int
    n_symbols: int
    subcarrier_spacing_hz: float
    symbol_duration_s: float
    carrier_hz: float

    @property
    def cp_duration_s(self) -> float:
        return self.symbol_duration_s - 1.0 / self.subcarrier_spacing_hz

    @property
    def range_bin_m(self) -> float:
        """Range quantization cell c/(2*P*df)."""
        return SPEED_OF_LIGHT / (2.0 * self.n_subcarriers * self.subcarrier_spacing_hz)

    @property
    def velocity_bin_mps(self) -> float:
        """Velocity quantization cell c/(2*f_c*Q*T_s)."""
        return SPEED_OF_LIGHT / (
            2.0 * self.carrier_hz * self.n_symbols * self.symbol_duration_s
        )


def gen_dl_channel(gains, angles_deg, m_u: int, n_b: int) -> np.ndarray:
    """Downlink channel (m_u x n_b): the rank-1 paths gain * a_{m_u}(theta) a_{n_b}(theta)^H.

    ``gains`` and ``angles_deg`` (degrees) hold one entry per path along the
    last axis; their leading axes broadcast to a stack of channels, shape
    (..., m_u, n_b). The paths are added in order.
    """
    gains = np.asarray(gains)
    angles = np.asarray(angles_deg, dtype=float)
    a_rx = ula_response_matrix(m_u, angles)
    a_tx = ula_response_matrix(n_b, angles).conj()
    h = np.zeros(np.broadcast_shapes(gains.shape, angles.shape)[:-1] + (m_u, n_b), dtype=complex)
    for i in range(angles.shape[-1]):
        h += gains[..., i, None, None] * (a_rx[..., :, i, None] * a_tx[..., None, :, i])
    return h


def gen_ul_channel(gain, angle_deg, m_b: int, n_u: int) -> np.ndarray:
    """Uplink channel (m_b x n_u), a single LOS path of :func:`gen_dl_channel`.

    Stacks of gains and angles, broadcast to shape (...), give a stack (..., m_b, n_u).
    """
    return gen_dl_channel(np.asarray(gain)[..., None], np.asarray(angle_deg)[..., None], m_b, n_u)


def delay_doppler_phase(range_m: float, velocity_mps: float, wf: Waveform, p, q):
    """Phase factor exp(j*2*pi*(q*T_s*f_D - p*tau*df)) of a target's echo.

    The target at ``range_m`` moving at ``velocity_mps`` has the two-way delay
    tau = 2*range/c and Doppler shift f_D = 2*velocity*f_c/c. ``p``
    (subcarrier) and ``q`` (OFDM symbol) are indices or index arrays; the
    result broadcasts over them. The factor separates, so a column of P
    subcarriers and a row of Q symbols cost P + Q exponentials, not P*Q.
    """
    delay = 2.0 * range_m / SPEED_OF_LIGHT
    doppler = 2.0 * velocity_mps * wf.carrier_hz / SPEED_OF_LIGHT
    return np.exp(-2j * np.pi * (p * delay * wf.subcarrier_spacing_hz)) * np.exp(
        2j * np.pi * (q * wf.symbol_duration_s * doppler)
    )


def gen_si_channel(
    m_b: int,
    n_b: int,
    kappa_db: float,
    pathloss_db: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rician self-interference channel between the co-located TX and RX arrays.

    H = sqrt(g*kappa/(kappa+1)) * H_los + sqrt(g/(kappa+1)) * H_nlos with
    g the linear path gain (10^(-pathloss_db/10)). The LOS component is the
    deterministic broadside outer product a(0)a(0)^H, the NLOS entries are
    i.i.d. standard complex normal, so the average entry power equals g.
    ``kappa_db = inf`` collapses to the pure LOS limit.
    """
    g = 10.0 ** (-pathloss_db / 10.0)
    if np.isinf(kappa_db) and kappa_db > 0:
        return np.full((m_b, n_b), np.sqrt(g), dtype=complex)
    kappa = 10.0 ** (kappa_db / 10.0)
    h = fill_complex_normal(rng, np.empty((m_b, n_b), dtype=complex))
    h *= np.sqrt(g / (kappa + 1.0))
    h += np.sqrt(g * kappa / (kappa + 1.0))  # the LOS term: every entry of a(0) a(0)^H is 1
    return h


def perturb_estimate(
    h: np.ndarray, nmse_db: float | None, rng: np.random.Generator
) -> np.ndarray:
    """Imperfect channel estimate H + E with E[||E||_F^2 / ||H||_F^2] = 10^(nmse_db/10).

    ``nmse_db`` of ``None`` or ``-inf`` means a perfect estimate; otherwise it
    is finite, as ``ScenarioConfig`` bounds it. A zero-energy channel perturbs
    to itself (the error scale is relative).
    """
    energy = np.linalg.norm(h) ** 2
    if nmse_db is None or nmse_db == -np.inf or energy == 0.0:
        return h.copy()
    scale = np.sqrt(10.0 ** (nmse_db / 10.0) * energy / h.size)
    return h + scale * fill_complex_normal(rng, np.empty_like(h))
