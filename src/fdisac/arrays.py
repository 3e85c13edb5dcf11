"""Uniform linear array responses and DFT beam codebooks.

Angles are expressed in degrees at every public boundary and converted to
radians internally. Element n of the ULA response toward angle theta is
exp(j*2*pi*(d/lambda)*n*sin(theta)), so the first element is always 1+0j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Codebook", "ula_response_matrix", "dft_codebook"]

_MAX_CODEBOOK_BITS = 24  # 2^24 entries; anything above is treated as an overflow


def _check_elems(n_elems: int) -> None:
    if n_elems < 1:
        raise ValueError(f"array needs at least one element, got {n_elems}")


def ula_response_matrix(
    n_elems: int, angles_deg: np.ndarray, spacing_over_lambda: float = 0.5
) -> np.ndarray:
    """Stack of ULA responses, one column per angle, shape (n_elems, n_angles).

    Angles of shape (..., n_angles) give one such matrix per leading index,
    shape (..., n_elems, n_angles). ``spacing_over_lambda`` is the
    inter-element spacing in wavelengths.
    """
    _check_elems(n_elems)
    if not spacing_over_lambda > 0:
        raise ValueError(f"element spacing must be positive, got {spacing_over_lambda}")
    angles = np.asarray(angles_deg, dtype=float)
    # NaN fails both comparisons, so it is rejected with the out-of-range angles
    if angles.size and not (angles.min() >= -90.0 and angles.max() <= 90.0):
        raise ValueError("angles must lie in [-90, 90] degrees")
    n = np.arange(n_elems)[:, None]
    phase = 2.0 * np.pi * spacing_over_lambda * np.sin(np.deg2rad(angles))[..., None, :]
    return np.exp(1j * phase * n)


@dataclass(frozen=True)
class Codebook:
    """Phase-shifter beam codebook with 2^n_bits constant-modulus vectors.

    ``vectors`` has shape (2^n_bits, n_elems); every entry has squared
    modulus 1/n_elems.
    """

    vectors: np.ndarray
    n_bits: int

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_elems(self) -> int:
        return self.vectors.shape[1]


@lru_cache(maxsize=8, typed=True)
def dft_codebook(n_elems: int, n_bits: int) -> Codebook:
    """DFT-style beam codebook on a uniform grid in sin-space.

    Beam m (m = 0..2^n_bits - 1) is the half-wavelength steering vector at
    theta_m = arcsin(-1 + 2*m / 2^n_bits), scaled by 1/sqrt(n_elems) so all
    entries satisfy the constant-modulus constraint. With 2^n_bits == n_elems
    the beams are mutually orthogonal.

    Memoized: repeated arguments return the same codebook, whose ``vectors``
    are read-only.
    """
    _check_elems(n_elems)
    if n_bits < 1:
        raise ValueError(f"codebook needs at least one bit, got {n_bits}")
    if n_bits > _MAX_CODEBOOK_BITS:
        raise ValueError(f"2^{n_bits} codebook entries would overflow the size budget")
    size = 1 << n_bits
    sin_grid = -1.0 + 2.0 * np.arange(size) / size
    n = np.arange(n_elems)[None, :]
    phase = np.pi * sin_grid[:, None]
    vectors = np.exp(1j * phase * n) / np.sqrt(n_elems)
    vectors.flags.writeable = False
    return Codebook(vectors=vectors, n_bits=n_bits)
