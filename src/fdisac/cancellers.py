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
    D is not formed: what it leaves, H - H_hat, does not depend on C. The
    caller passes the config's taps: a nonnegative multiple of m_rf, at most m_rf * n_rf.
    """
    cols = n_taps // h_tilde_hat.shape[-2]
    analog = np.zeros_like(h_tilde_hat)
    analog[..., :cols] = -h_tilde_hat[..., :cols]
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
    return np.linalg.norm((h_tilde_true + c_b) @ v_bb, axis=-1) ** 2
