"""Uniform linear array responses and DFT beam codebooks.

A codebook is a read-only array with one constant-modulus beam per row.
Angles are expressed in degrees at every public boundary and converted to
radians internally. Elements are half a wavelength apart, so element n of
the ULA response toward angle theta is exp(j*pi*n*sin(theta)) and the first
element is always 1+0j.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["ula_response_matrix", "dft_codebook"]


def _ula_phase(sin_theta: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The half-wavelength ULA phase exp(j*pi*n*sin(theta)), broadcast over its arguments."""
    return np.exp(1j * (np.pi * sin_theta) * n)


def ula_response_matrix(n_elems: int, angles_deg: np.ndarray) -> np.ndarray:
    """Stack of half-wavelength ULA responses, one column per angle, shape (n_elems, n_angles).

    Angles of shape (..., n_angles) give one such matrix per leading index,
    shape (..., n_elems, n_angles). The caller passes n_elems >= 1 and angles
    in [-90, 90]: configured ones, grid angles or estimates drawn from the grid.
    """
    angles = np.asarray(angles_deg, dtype=float)
    return _ula_phase(np.sin(np.deg2rad(angles))[..., None, :], np.arange(n_elems)[:, None])


@lru_cache(maxsize=8, typed=True)
def dft_codebook(n_elems: int, n_bits: int) -> np.ndarray:
    """DFT-style beam codebook on a uniform grid in sin-space, shape (2^n_bits, n_elems).

    Row m (m = 0..2^n_bits - 1) is the half-wavelength steering vector at
    theta_m = arcsin(-1 + 2*m / 2^n_bits), scaled by 1/sqrt(n_elems) so all
    entries satisfy the constant-modulus constraint |v_n|^2 = 1/n_elems. With
    2^n_bits == n_elems the beams are mutually orthogonal. The caller passes
    n_elems >= 1 and the config's n_bits, which lies in [2, 12].

    Memoized: repeated arguments return the same read-only array.
    """
    size = 1 << n_bits
    sin_grid = -1.0 + 2.0 * np.arange(size) / size
    vectors = _ula_phase(sin_grid[:, None], np.arange(n_elems)) / np.sqrt(n_elems)
    vectors.flags.writeable = False
    return vectors
