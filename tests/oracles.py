"""Per-cell oracles shared by the test modules; the pipeline does not use them."""

from typing import Sequence

import numpy as np

from fdisac.arrays import ula_response
from fdisac.channels import TargetParams, Waveform, delay_doppler_phase


def radar_channel_at(
    targets: Sequence[TargetParams],
    p: int,
    q: int,
    wf: Waveform,
    m_b: int,
    n_b: int,
) -> np.ndarray:
    """Radar channel (m_b x n_b) at subcarrier ``p`` and OFDM symbol ``q``.

    At p == q == 0 the per-target phase factor is exactly 1.
    """
    if not 0 <= p < wf.n_subcarriers:
        raise ValueError(f"subcarrier index {p} outside [0, {wf.n_subcarriers})")
    if not 0 <= q < wf.n_symbols:
        raise ValueError(f"symbol index {q} outside [0, {wf.n_symbols})")
    h = np.zeros((m_b, n_b), dtype=complex)
    for t in targets:
        a_rx = ula_response(m_b, t.angle_deg)
        a_tx = ula_response(n_b, t.angle_deg)
        h += t.gain * delay_doppler_phase(t, wf, p, q) * np.outer(a_rx, a_tx.conj())
    return h
