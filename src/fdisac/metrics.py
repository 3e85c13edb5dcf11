"""SINR and achievable-rate evaluation for the radar, downlink and uplink links.

The SI residual terms use the true compressed channel together with the
estimate-derived cancellers, so imperfect channel knowledge leaves a nonzero
residual in the denominators. Rates map through log2(1 + sinr).

Every function also takes a stack of designs and channels along leading
axes and then returns one value per trial, shape (...).
"""

from __future__ import annotations

import numpy as np

from .cancellers import si_residual
from .optimizer import EstimatedChannels, HybridBeamformers

__all__ = ["radar_sinr", "dl_snr", "ul_sinr", "ideal_dl_rate"]


def _power(x: np.ndarray):
    """Squared Frobenius norm over the last two axes."""
    return (x.conj() * x).real.sum(axis=(-2, -1))


def _herm(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2).conj()


def radar_sinr(
    bf: HybridBeamformers,
    est: EstimatedChannels,
    true_h_tilde: np.ndarray,
    sigma_b2: float,
) -> float:
    """Sensing-echo SINR.

    Numerator: ||W_rf^H H_rad_hat V_rf V_bb||_F^2. Denominator: post-canceller
    SI power plus ||W_rf||_F^2 * sigma_b^2.
    """
    if sigma_b2 <= 0:
        raise ValueError(f"noise power must be positive, got {sigma_b2}")
    w_rf = bf.w_b_rf.assembled
    sig = _herm(w_rf) @ est.h_rad_hat @ bf.v_b_rf.assembled @ bf.v_b_bb
    den = _power(si_residual(true_h_tilde, bf.cancellers) @ bf.v_b_bb)
    return _power(sig) / (den + _power(w_rf) * sigma_b2)


def dl_snr(bf: HybridBeamformers, h_dl: np.ndarray, sigma_u2: float) -> float:
    """Downlink SNR ||W_u^H H_dl V_rf V_bb||_F^2 / (||W_u||^2 sigma_u^2)."""
    if sigma_u2 <= 0:
        raise ValueError(f"noise power must be positive, got {sigma_u2}")
    sig = _herm(bf.w_u) @ np.asarray(h_dl, dtype=complex) @ bf.v_b_rf.assembled @ bf.v_b_bb
    return _power(sig) / (_power(bf.w_u) * sigma_u2)


def ul_sinr(
    bf: HybridBeamformers,
    est: EstimatedChannels,
    true_h_tilde: np.ndarray,
    sigma_b2: float,
) -> float:
    """Uplink SINR after the digital combiner.

    The downlink echo off the radar targets interferes with uplink reception,
    so the denominator collects the combined radar term, the post-canceller SI
    residual and the noise floor.
    """
    if sigma_b2 <= 0:
        raise ValueError(f"noise power must be positive, got {sigma_b2}")
    w_eff_h = _herm(bf.w_b_rf.assembled @ bf.w_b_bb)  # (..., n_streams, m_b)
    sig = w_eff_h @ est.h_ul_hat @ bf.v_u_bb[..., None]
    radar_leak = w_eff_h @ est.h_rad_hat @ bf.v_b_rf.assembled @ bf.v_b_bb
    si_leak = _herm(bf.w_b_bb) @ si_residual(true_h_tilde, bf.cancellers) @ bf.v_b_bb
    return _power(sig) / (_power(radar_leak) + _power(si_leak) + sigma_b2)


def ideal_dl_rate(h_dl: np.ndarray, p_b: float, sigma_u2: float, st: int) -> float:
    """Rate of the unconstrained fully digital design, equal power per stream.

    SVD waterlevel-free baseline: sum over the top ``st`` singular values of
    log2(1 + (p_b/st) * s_i^2 / sigma_u^2).
    """
    if st < 1:
        raise ValueError(f"need at least one stream, got {st}")
    if sigma_u2 <= 0:
        raise ValueError(f"noise power must be positive, got {sigma_u2}")
    if p_b < 0:
        raise ValueError(f"power budget cannot be negative, got {p_b}")
    sv = np.linalg.svd(np.asarray(h_dl, dtype=complex), compute_uv=False)
    top = sv[..., :st]
    return np.sum(np.log2(1.0 + (p_b / st) * top**2 / sigma_u2), axis=-1)
