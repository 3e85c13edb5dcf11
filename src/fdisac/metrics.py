"""SINR and achievable-rate evaluation for the radar, downlink and uplink links.

The radar and uplink SINRs are formulas over terms formed once per design:
the radar echo, the uplink term and the SI R V_bb, where R, the true
compressed SI channel minus its estimate, is what both cancellers leave.
Rates map through log2(1 + sinr).

Every function also takes a stack of designs and channels along leading
axes and then returns one value per trial, shape (...). The caller passes
the configured sigma^2 > 0 (noise >= -400 dBm), p_b >= 0 and st >= 1.
"""

from __future__ import annotations

import numpy as np

from .optimizer import HybridBeamformers

__all__ = ["radar_sinr", "dl_snr", "ul_sinr", "ideal_dl_rate"]


def _power(x: np.ndarray):
    """Squared Frobenius norm over the last two axes."""
    return (x.conj() * x).real.sum(axis=(-2, -1))


def _herm(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2).conj()


def radar_sinr(echo: np.ndarray, si: np.ndarray, w_rf: np.ndarray, sigma_b2: float) -> float:
    """Sensing-echo SINR ||echo||_F^2 / (||si||_F^2 + ||W_rf||_F^2 sigma_b^2).

    ``echo`` is W_rf^H H_rad_hat V_rf V_bb, ``si`` is R V_bb and ``w_rf`` is W_rf.
    """
    return _power(echo) / (_power(si) + _power(w_rf) * sigma_b2)


def dl_snr(bf: HybridBeamformers, h_dl: np.ndarray, sigma_u2: float) -> float:
    """Downlink SNR ||W_u^H H_dl V_rf V_bb||_F^2 / (||W_u||^2 sigma_u^2)."""
    sig = _herm(bf.w_u) @ h_dl @ bf.v_b_rf @ bf.v_b_bb
    return _power(sig) / (_power(bf.w_u) * sigma_u2)


def ul_sinr(w_bb: np.ndarray, ul: np.ndarray, echo: np.ndarray, si: np.ndarray,
            sigma_b2: float) -> float:
    """Uplink SINR after the digital combiner ``w_bb``.

    ``ul`` is W_rf^H H_ul_hat v_u as a column, ``echo`` and ``si`` those of
    :func:`radar_sinr`: the downlink echo off the radar targets interferes
    with uplink reception, as do the post-canceller SI and the noise floor.
    """
    w_h = _herm(w_bb)
    return _power(w_h @ ul) / (_power(w_h @ echo) + _power(w_h @ si) + sigma_b2)


def ideal_dl_rate(h_dl: np.ndarray, p_b: float, sigma_u2: float, st: int) -> float:
    """Rate of the unconstrained fully digital design, equal power per stream.

    SVD waterlevel-free baseline: sum over the top ``st`` singular values of
    log2(1 + (p_b/st) * s_i^2 / sigma_u^2).
    """
    sv = np.linalg.svd(h_dl, compute_uv=False)
    top = sv[..., :st]
    return np.sum(np.log2(1.0 + (p_b / st) * top**2 / sigma_u2), axis=-1)
