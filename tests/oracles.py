"""Per-cell oracles shared by the test modules; the pipeline does not use them."""

from typing import Sequence

import numpy as np

from fdisac.arrays import ula_response_matrix
from fdisac.channels import Waveform, delay_doppler_phase
from fdisac.config import TargetSpec


def steering(n_elems: int, angle_deg: float) -> np.ndarray:
    """Half-wavelength ULA response toward one angle, a length-``n_elems`` vector."""
    return ula_response_matrix(n_elems, [angle_deg])[:, 0]


def radar_channel_at(
    gains: Sequence[complex],
    specs: Sequence[TargetSpec],
    p: int,
    q: int,
    wf: Waveform,
    m_b: int,
    n_b: int,
) -> np.ndarray:
    """Radar channel (m_b x n_b) at subcarrier ``p`` and OFDM symbol ``q``.

    Target k reflects with ``gains[k]`` from the geometry ``specs[k]``. At
    p == q == 0 the per-target phase factor is exactly 1.
    """
    if not 0 <= p < wf.n_subcarriers:
        raise ValueError(f"subcarrier index {p} outside [0, {wf.n_subcarriers})")
    if not 0 <= q < wf.n_symbols:
        raise ValueError(f"symbol index {q} outside [0, {wf.n_symbols})")
    h = np.zeros((m_b, n_b), dtype=complex)
    for gain, spec in zip(gains, specs, strict=True):
        a_rx = steering(m_b, spec.angle_deg)
        a_tx = steering(n_b, spec.angle_deg)
        phase = delay_doppler_phase(spec.range_m, spec.velocity_mps, wf, p, q)
        h += gain * phase * np.outer(a_rx, a_tx.conj())
    return h


def post_canceller_si(h_tilde_true: np.ndarray, h_tilde_hat: np.ndarray, n_taps: int) -> np.ndarray:
    """SI after both cancellers, H + C + D, with each canceller built as the paper states.

    The analog canceller C negates the first n_taps/m_rf columns of the
    estimate ``h_tilde_hat`` and the digital canceller is D = -(H_hat + C);
    stacks (..., m_rf, n_rf) give one matrix per trial.
    """
    h_hat = np.asarray(h_tilde_hat, dtype=complex)
    c = np.zeros_like(h_hat)
    cols = n_taps // h_hat.shape[-2]
    c[..., :cols] = -h_hat[..., :cols]
    d = -(h_hat + c)
    return h_tilde_true + c + d
