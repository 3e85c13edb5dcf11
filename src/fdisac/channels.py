"""Channel synthesis for the downlink, uplink, radar and self-interference paths.

All channels are frequency flat except the radar channel, whose per-subcarrier
and per-symbol phase rotation encodes target delay and Doppler:

    H_rad(p, q) = sum_k gain_k * exp(j*2*pi*(q*T_s*f_D,k - p*tau_k*df))
                         * a_rx(theta_k) a_tx(theta_k)^H

with tau_k = 2*range_k/c and f_D,k = 2*velocity_k*f_c/c (two-way propagation).
Functions that draw randomness take an explicit seeded generator; everything
else is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ula_response_matrix

__all__ = [
    "SPEED_OF_LIGHT",
    "TargetParams",
    "Waveform",
    "gen_dl_channel",
    "gen_ul_channel",
    "delay_doppler_phase",
    "gen_si_channel",
    "perturb_estimate",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@dataclass(frozen=True)
class TargetParams:
    """One radar target: reflection gain, direction, range and radial velocity.

    The two-way delay is ``2*range_m/c``; the Doppler shift depends on the
    carrier, so it is exposed as a method.
    """

    gain: complex
    angle_deg: float
    range_m: float
    velocity_mps: float

    def __post_init__(self):
        if not -90.0 <= self.angle_deg <= 90.0:
            raise ValueError(f"target angle must lie in [-90, 90], got {self.angle_deg}")
        if not self.range_m >= 0:
            raise ValueError(f"target range must be nonnegative, got {self.range_m}")

    @property
    def delay_s(self) -> float:
        return 2.0 * self.range_m / SPEED_OF_LIGHT

    def doppler_hz(self, carrier_hz: float) -> float:
        return 2.0 * self.velocity_mps * carrier_hz / SPEED_OF_LIGHT


@dataclass(frozen=True)
class Waveform:
    """OFDM numerology: P subcarriers, Q symbols, spacing, symbol duration, carrier.

    The symbol duration T_s includes the cyclic prefix, T_cp = T_s - 1/df.
    """

    n_subcarriers: int
    n_symbols: int
    subcarrier_spacing_hz: float
    symbol_duration_s: float
    carrier_hz: float

    def __post_init__(self):
        if self.n_subcarriers < 1 or self.n_symbols < 1:
            raise ValueError("waveform grid dimensions must be positive")
        if self.subcarrier_spacing_hz <= 0 or self.carrier_hz <= 0:
            raise ValueError("subcarrier spacing and carrier frequency must be positive")
        if self.cp_duration_s < 0:
            raise ValueError("symbol duration shorter than 1/df leaves no room for a CP")

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
    last axis; leading axes give a stack of channels, shape (..., m_u, n_b).
    The paths are added in order.
    """
    gains = np.asarray(gains)
    angles = np.asarray(angles_deg, dtype=float)
    if angles.size == 0:
        raise ValueError("downlink channel needs at least one path")
    a_rx = ula_response_matrix(m_u, angles)
    a_tx = ula_response_matrix(n_b, angles).conj()
    h = np.zeros(angles.shape[:-1] + (m_u, n_b), dtype=complex)
    for i in range(angles.shape[-1]):
        h += gains[..., i, None, None] * (a_rx[..., :, i, None] * a_tx[..., None, :, i])
    return h


def gen_ul_channel(gain, angle_deg, m_b: int, n_u: int) -> np.ndarray:
    """Uplink channel (m_b x n_u), a single LOS path of :func:`gen_dl_channel`.

    A stack of gains and angles, shape (...), gives a stack (..., m_b, n_u).
    """
    return gen_dl_channel(np.asarray(gain)[..., None], np.asarray(angle_deg)[..., None], m_b, n_u)


def delay_doppler_phase(target: TargetParams, wf: Waveform, p, q):
    """Phase factor exp(j*2*pi*(q*T_s*f_D - p*tau*df)) of ``target``'s echo.

    ``p`` (subcarrier) and ``q`` (OFDM symbol) are indices or index arrays;
    the result broadcasts over them. The factor separates, so a column of P
    subcarriers and a row of Q symbols cost P + Q exponentials, not P*Q.
    """
    doppler = target.doppler_hz(wf.carrier_hz)
    return np.exp(-2j * np.pi * (p * target.delay_s * wf.subcarrier_spacing_hz)) * np.exp(
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
    if m_b < 1 or n_b < 1:
        raise ValueError("channel dimensions must be positive")
    g = 10.0 ** (-pathloss_db / 10.0)
    los = np.ones((m_b, n_b), dtype=complex)  # a(0) a(0)^H: every broadside entry is 1
    if np.isinf(kappa_db) and kappa_db > 0:
        return np.sqrt(g) * los
    kappa = 10.0 ** (kappa_db / 10.0)
    nlos = _complex_normal(rng, (m_b, n_b))
    return np.sqrt(g * kappa / (kappa + 1.0)) * los + np.sqrt(g / (kappa + 1.0)) * nlos


def perturb_estimate(
    h: np.ndarray, nmse_db: float | None, rng: np.random.Generator
) -> np.ndarray:
    """Imperfect channel estimate H + E with E[||E||_F^2 / ||H||_F^2] = 10^(nmse_db/10).

    ``nmse_db`` of ``None`` or ``-inf`` means a perfect estimate. A zero-energy
    channel perturbs to itself (the error scale is relative).
    """
    h = np.asarray(h, dtype=complex)
    if nmse_db is None or (np.isinf(nmse_db) and nmse_db < 0):
        return h.copy()
    if not np.isfinite(nmse_db):
        raise ValueError(f"nmse_db must be finite or -inf, got {nmse_db}")
    energy = np.linalg.norm(h) ** 2
    if energy == 0.0:
        return h.copy()
    scale = np.sqrt(10.0 ** (nmse_db / 10.0) * energy / h.size)
    return h + scale * _complex_normal(rng, h.shape)
