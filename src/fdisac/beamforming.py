"""The analog network's assembly and the TX power helper.

The analog stage is partially connected: RF chain i drives its own disjoint
subarray, so a network is the block-diagonal matrix with chain i's
phase-shifter vector occupying rows i*n_a .. (i+1)*n_a - 1 of column i, shape
(n_antennas, n_chains), or a stack of them along leading axes. Digital
precoders and combiners are plain complex ndarrays too.
"""

from __future__ import annotations

import numpy as np

__all__ = ["assemble_analog", "tx_power"]


def assemble_analog(per_chain: np.ndarray) -> np.ndarray:
    """The block-diagonal network of per-chain vectors.

    ``per_chain`` is (n_chains, n_per_chain), or a stack (..., n_chains,
    n_per_chain) assembled network by network; the network is exactly zero
    off the blocks. The caller passes codebook rows, whose entries meet the
    constant-modulus constraint |v_n|^2 = 1/n_per_chain by construction.
    """
    n_chains, n_a = per_chain.shape[-2:]
    network = np.zeros((*per_chain.shape[:-2], n_chains * n_a, n_chains), dtype=complex)
    for i in range(n_chains):
        network[..., i * n_a : (i + 1) * n_a, i] = per_chain[..., i, :]
    return network


def tx_power(v_rf: np.ndarray, v_bb: np.ndarray):
    """Average radiated power in watts under unit-power i.i.d. symbols.

    The expectation collapses to the squared Frobenius norm of V_rf @ V_bb.
    A stack of networks and precoders gives one power per pair, shape (...).
    """
    return np.linalg.norm(v_rf @ v_bb, axis=(-2, -1)) ** 2
