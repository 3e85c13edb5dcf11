"""The analog network's assembly and the TX power helper.

The analog stage is partially connected: RF chain i drives its own disjoint
subarray, so a network is the block-diagonal matrix with chain i's
phase-shifter vector occupying rows i*n_a .. (i+1)*n_a - 1 of column i, shape
(n_antennas, n_chains), or a stack of them along leading axes. Digital
precoders and combiners are plain complex ndarrays too.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintViolationError

__all__ = ["assemble_analog", "tx_power"]

# Codebook vectors are exact by construction; user-supplied ones get slack.
_MODULUS_TOL = 1e-9


def assemble_analog(per_chain) -> np.ndarray:
    """Validate per-chain vectors and assemble the block-diagonal network.

    ``per_chain`` is (n_chains, n_per_chain), or a stack (..., n_chains,
    n_per_chain) assembled network by network; the network is exactly zero
    off the blocks. Raises :class:`ConstraintViolationError` if any entry
    deviates from the constant-modulus constraint |v_n|^2 = 1/n_per_chain,
    and ``ValueError`` for ragged input.
    """
    try:
        vecs = np.asarray(per_chain, dtype=complex)
    except (ValueError, TypeError) as exc:
        raise ValueError("per-chain vectors must share a common length") from exc
    if vecs.ndim == 1:
        vecs = vecs[None, :]
    if vecs.ndim < 2 or vecs.shape[-1] < 1:
        raise ValueError("per-chain vectors must share a common length")
    n_chains, n_a = vecs.shape[-2:]
    dev = np.abs(np.abs(vecs) ** 2 - 1.0 / n_a).max()
    if dev > _MODULUS_TOL:
        raise ConstraintViolationError(
            f"per-chain entries must have squared modulus 1/{n_a}, worst deviation {dev:.3e}"
        )
    network = np.zeros((*vecs.shape[:-2], n_chains * n_a, n_chains), dtype=complex)
    for i in range(n_chains):
        network[..., i * n_a : (i + 1) * n_a, i] = vecs[..., i, :]
    return network


def tx_power(v_rf: np.ndarray, v_bb: np.ndarray):
    """Average radiated power in watts under unit-power i.i.d. symbols.

    The expectation collapses to the squared Frobenius norm of V_rf @ V_bb.
    A stack of networks and precoders gives one power per pair, shape (...).
    """
    v_bb = np.asarray(v_bb, dtype=complex)
    if v_bb.ndim < 2 or v_rf.shape[-1] != v_bb.shape[-2]:
        raise ValueError(
            f"digital precoder shape {v_bb.shape} does not match {v_rf.shape[-1]} RF chains"
        )
    return np.linalg.norm(v_rf @ v_bb, axis=(-2, -1)) ** 2
