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

_MAX_CODEBOOK_BITS = 24  # 2^24 entries; anything above is treated as an overflow


def _check_elems(n_elems: int) -> None:
    if n_elems < 1:
        raise ValueError(f"array needs at least one element, got {n_elems}")


def _ula_phase(sin_theta: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The half-wavelength ULA phase exp(j*pi*n*sin(theta)), broadcast over its arguments."""
    return np.exp(1j * (np.pi * sin_theta) * n)


def ula_response_matrix(n_elems: int, angles_deg: np.ndarray) -> np.ndarray:
    """Stack of half-wavelength ULA responses, one column per angle, shape (n_elems, n_angles).

    Angles of shape (..., n_angles) give one such matrix per leading index,
    shape (..., n_elems, n_angles).
    """
    _check_elems(n_elems)
    angles = np.asarray(angles_deg, dtype=float)
    # NaN fails both comparisons, so it is rejected with the out-of-range angles
    if angles.size and not (angles.min() >= -90.0 and angles.max() <= 90.0):
        raise ValueError("angles must lie in [-90, 90] degrees")
    return _ula_phase(np.sin(np.deg2rad(angles))[..., None, :], np.arange(n_elems)[:, None])


@lru_cache(maxsize=8, typed=True)
def dft_codebook(n_elems: int, n_bits: int) -> np.ndarray:
    """DFT-style beam codebook on a uniform grid in sin-space, shape (2^n_bits, n_elems).

    Row m (m = 0..2^n_bits - 1) is the half-wavelength steering vector at
    theta_m = arcsin(-1 + 2*m / 2^n_bits), scaled by 1/sqrt(n_elems) so all
    entries satisfy the constant-modulus constraint |v_n|^2 = 1/n_elems. With
    2^n_bits == n_elems the beams are mutually orthogonal.

    Memoized: repeated arguments return the same read-only array.
    """
    _check_elems(n_elems)
    if n_bits < 1:
        raise ValueError(f"codebook needs at least one bit, got {n_bits}")
    if n_bits > _MAX_CODEBOOK_BITS:
        raise ValueError(f"2^{n_bits} codebook entries would overflow the size budget")
    size = 1 << n_bits
    sin_grid = -1.0 + 2.0 * np.arange(size) / size
    vectors = _ula_phase(sin_grid[:, None], np.arange(n_elems)) / np.sqrt(n_elems)
    vectors.flags.writeable = False
    return vectors
