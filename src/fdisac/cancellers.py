"""Analog multi-tap and digital self-interference cancellers.

Both cancellers act on the RF-chain-compressed SI channel estimate. The
analog stage negates the first n_taps/m_rf columns (taps are spread evenly
over the RX chains); the digital stage subtracts whatever the analog stage
left: D = -(H_hat + C), so with a perfect estimate H + C + D == 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CancellerPair", "build_cancellers", "si_residual", "analog_residual_power_per_chain"]


@dataclass(frozen=True)
class CancellerPair:
    """Analog taps C (zero beyond the tapped columns) and digital canceller D."""

    analog: np.ndarray
    digital: np.ndarray
    n_taps: int


def build_cancellers(h_tilde_hat: np.ndarray, n_taps: int) -> CancellerPair:
    """Construct the canceller pair from the compressed SI channel estimate.

    ``h_tilde_hat`` is (m_rf, n_rf) or a stack (..., m_rf, n_rf); the pair then
    holds one canceller per matrix of the stack.
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
    digital = -(h + analog)
    return CancellerPair(analog=analog, digital=digital, n_taps=n_taps)


def si_residual(h_tilde: np.ndarray, pair: CancellerPair) -> np.ndarray:
    """Post-canceller SI matrix H_tilde + C + D of a compressed SI channel or a stack.

    With the cancellers built from an estimate of ``h_tilde`` this is what
    the estimation error leaves; with a perfect estimate it is exactly zero.
    """
    return h_tilde + pair.analog + pair.digital


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
