"""Analog multi-tap self-interference canceller and its residual accounting.

The analog canceller C negates the first n_taps/m_rf columns of the
RF-chain-compressed SI channel estimate (taps are spread evenly over the RX
chains). The digital canceller D = -(H_hat + C) subtracts what C left, so
both leave H + C + D = H - H_hat, the compressed estimation error, for any
tap count: the pipeline never forms D. C shapes the per-chain SI that
reaches the ADCs before the digital stage.
"""

from __future__ import annotations

import numpy as np

__all__ = ["build_cancellers", "analog_residual_power_per_chain"]


def build_cancellers(h_tilde_hat: np.ndarray, n_taps: int) -> np.ndarray:
    """Analog canceller C of a compressed SI channel estimate, zero beyond the tapped columns.

    ``h_tilde_hat`` is (m_rf, n_rf) or a stack (..., m_rf, n_rf), and C has its shape.
    D is not formed: what it leaves, H - H_hat, does not depend on C.
    """
    h = np.asarray(h_tilde_hat, dtype=complex)
    if h.ndim < 2:
        raise ValueError("compressed SI channel must be a matrix or a stack of them")
    m_rf, n_rf = h.shape[-2:]
    if n_taps < 0:
        raise ValueError(f"tap count cannot be negative, got {n_taps}")
    if n_taps % m_rf != 0:
        raise ValueError(f"tap count {n_taps} is not divisible by {m_rf} RX chains")
    cols = n_taps // m_rf
    if cols > n_rf:
        raise ValueError(f"{n_taps} taps cover {cols} columns but only {n_rf} exist")
    analog = np.zeros_like(h)
    analog[..., :cols] = -h[..., :cols]
    return analog


def analog_residual_power_per_chain(
    h_tilde_true: np.ndarray,
    c_b: np.ndarray,
    v_bb: np.ndarray,
) -> np.ndarray:
    """Per-RX-chain SI power (watts) surviving the analog stage.

    Row-wise squared norms of (H_true + C) @ V_bb, evaluated with the true
    compressed channel so the result is what physically reaches each ADC;
    V_bb is at transmit scale. Stacks give one row of powers per matrix,
    shape (..., m_rf).
    """
    h = np.asarray(h_tilde_true, dtype=complex)
    c = np.asarray(c_b, dtype=complex)
    v = np.asarray(v_bb, dtype=complex)
    if h.shape != c.shape:
        raise ValueError(f"channel {h.shape} and canceller {c.shape} shapes differ")
    if v.ndim < 2 or v.shape[-2] != h.shape[-1]:
        raise ValueError(f"precoder shape {v.shape} does not match {h.shape[-1]} TX chains")
    residual = (h + c) @ v
    return np.linalg.norm(residual, axis=-1) ** 2
