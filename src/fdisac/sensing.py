"""Target parameter estimators: MUSIC DoA, delay-Doppler quotient, periodogram.

The estimation chain works on the RF-chain-domain snapshots collected over
the P x Q OFDM grid:

  1. sample covariance of the slot-1 snapshots, from the sum of their y y^H,
  2. MUSIC pseudo-spectrum over an angle grid for the K directions,
  3. per-dwell reference s(p, q) = a_tx(theta)^H V_rf V_bb sym(p, q), one
     scalar per cell,
  4. element-wise quotient z(p, q) = c^T y(p, q) / s(p, q) with one weight
     per RX chain, c = W_rf^T conj(a_rx(theta)) / M_b (:func:`dwell_weights`):
     since every ULA entry has unit modulus, this is the antenna average of
     (W_rf y)_i / (a_rx,i s). Being linear in y, c^T y is one fixed row of
     coefficients over the trial's waveforms, so the runner forms it without
     the dwell's snapshots,
  5. 2-D periodogram of z; the peak bin (n*, m*) quantizes delay and Doppler:
     tau = n*/(P*df), f_D = m*/(Q*T_s).

Every step takes the arrays the runner builds, stacked along leading axes:
steps 1 and 2 one covariance per trial, steps 3-5 K dwells per trial (K
angles and a stack of K analog networks for steps 3 and 4, a stack of grids
for step 5), and steps 4 and 5 overwrite their input grid. MUSIC returns a
matrix's failure as a value, in its ``errors`` tuple, and the other matrices
of its stack continue.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .arrays import ula_response_matrix
from .channels import Waveform
from .errors import EstimationFailureError

__all__ = [
    "DelayDopplerMap",
    "angle_grid",
    "sample_covariance",
    "music_doas",
    "combiner_manifold",
    "reference_signal_grid",
    "dwell_weights",
    "delay_doppler_quotient",
    "delay_doppler_map",
    "recover_parameters",
]

# Quotient cells with |s| below this fraction of the grid maximum are excluded; at
# 0, the noise-only trial of test_traced_run_keeps_a_failed_trial_record fails.
DIVISION_GUARD_REL = 1e-8


@dataclass(frozen=True)
class DelayDopplerMap:
    """Periodogram magnitude over (n, m) with the Doppler axis in signed order.

    Column j of ``magnitude`` corresponds to m = j - Q//2; the peak indices
    are the row-major argmax of each (P, Q) grid (ties resolved toward smaller
    n, then smaller m), integers for one grid and arrays for a stack.
    """

    magnitude: np.ndarray
    peak_n: int | np.ndarray
    peak_m: int | np.ndarray


def angle_grid(grid_step_deg: float) -> np.ndarray:
    """Uniform scan grid over [-90, 90] degrees, endpoints included, for a positive step."""
    n = int(round(180.0 / grid_step_deg)) + 1
    return np.linspace(-90.0, 90.0, n)


def sample_covariance(gram: np.ndarray, n: int) -> np.ndarray:
    """Sample covariance of n >= 1 snapshots from ``gram`` (..., m, m), the sum of their y y^H.

    The result is (r + r^H) / 2 for r = ``gram`` / n, whose every entry is the
    conjugate of its mirror bit for bit: exactly Hermitian, and PSD like any
    sum of y y^H.
    """
    r = gram / n
    return (r + np.swapaxes(r, -1, -2).conj()) / 2.0


def music_doas(
    r: np.ndarray, k: int, grid_deg: np.ndarray, manifold: np.ndarray, gain: np.ndarray
) -> tuple[list, tuple]:
    """MUSIC direction estimates from a stack of (m x m) sample covariances.

    The noise subspace is spanned by the eigenvectors of the ``m - k``
    smallest eigenvalues; the pseudo-spectrum is ||b||^2 / ||E_n^H b||^2 swept
    over the angles ``grid_deg``. ``manifold`` (m x n_grid) holds the steering
    vectors b, one column per angle (behind an analog combiner, the effective
    ones of :func:`combiner_manifold`), and ``gain`` their ||b||^2.

    The stack is decomposed as one, its peaks picked per matrix (a single
    matrix is a stack of one). ``r`` comes from :func:`sample_covariance`, so
    it is Hermitian PSD. Returns ``(doas, errors)``, one entry per matrix of
    the flattened stack: the k largest peaks sorted ascending, and None or
    the :class:`EstimationFailureError` of a flat spectrum or of fewer than
    k local maxima. The caller passes 1 <= k < m (the config has more RX
    chains than targets) and an (m, n_grid) manifold.
    """
    array_size = r.shape[-1]
    _, eigvecs = np.linalg.eigh(r.reshape(-1, array_size, array_size))
    noise_basis = eigvecs[..., : array_size - k]

    leak = np.abs(np.swapaxes(noise_basis.conj(), -1, -2) @ manifold)
    leak **= 2
    leak = leak.sum(axis=-2)
    floor = max(gain.max(), 1e-300) * 1e-30  # at 0, test_music_exact_null_keeps_a_finite_peak fails
    spectrum = gain / np.maximum(leak, floor)

    doas, errors = [], []
    for row in spectrum:
        peaks = _local_maxima(row)
        doas.append(sorted(float(grid_deg[i]) for i in peaks[np.argsort(row[peaks])[::-1][:k]]))
        if row.max() - row.min() <= 1e-9 * row.max():
            # flat to numerical precision: no directional information
            errors.append(EstimationFailureError("pseudo-spectrum is flat"))
        elif peaks.size < k:
            errors.append(EstimationFailureError(f"found {peaks.size} spectrum peaks, needed {k}"))
        else:
            errors.append(None)
    return doas, tuple(errors)


def combiner_manifold(w_rf: np.ndarray, grid_deg: np.ndarray) -> np.ndarray:
    """MUSIC manifold W_rf^H a(theta) behind an analog combiner, one column per angle."""
    return w_rf.conj().T @ ula_response_matrix(w_rf.shape[-2], grid_deg)


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of ``x``, as ``scipy.signal.find_peaks``.

    A run of equal samples counts as one sample; a flat peak reports its
    middle index (rounding left). The first and last runs are never peaks.
    """
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:], x.size] - 1
    v = x[starts]
    peak = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    return (starts[1:-1][peak] + ends[1:-1][peak]) // 2


def _steered(theta_deg, matrix: np.ndarray) -> np.ndarray:
    """a(theta)^H M for the ULA response a, or per angle over a stack (..., N, r) of M."""
    theta = np.asarray(theta_deg, dtype=float)
    a = ula_response_matrix(matrix.shape[-2], theta.ravel()).T.reshape(*theta.shape, -1)
    return (a.conj()[..., None, :] @ matrix)[..., 0, :]


def reference_signal_grid(
    theta_hat_deg, v_rf: np.ndarray, v_bb: np.ndarray, sym: np.ndarray
) -> np.ndarray:
    """Reference s = a_tx(theta_hat)^H V_rf V_bb u for every column u of ``sym``.

    ``sym`` holds the symbol streams, shape (n_streams, n_cells). One angle
    and one network give shape (n_cells,); K angles and a stack of K networks
    give one dwell's reference per row, shape (K, n_cells).
    """
    return (_steered(theta_hat_deg, v_rf) @ v_bb) @ sym


def dwell_weights(w_rf: np.ndarray, theta_hat_deg) -> np.ndarray:
    """Per-chain RX weights c = W_rf^T conj(a_rx(theta_hat)) / M_b (module docstring, step 4).

    K angles and a stack of K networks give one dwell's weights per row.
    """
    return _steered(theta_hat_deg, w_rf) / w_rf.shape[-2]


def delay_doppler_quotient(cy_grid: np.ndarray, s_grid: np.ndarray):
    """Quotient z = c^T y / s between the projected snapshots and the reference, in place.

    ``cy_grid`` holds the snapshots projected onto :func:`dwell_weights`,
    ``s_grid`` the reference of :func:`reference_signal_grid`, both of shape
    (P, Q) or a stack (..., P, Q) of dwells. Cells with |s| below
    :data:`DIVISION_GUARD_REL` times the largest |s| of their own grid are set
    to 0 and flagged.

    Returns ``(z, excluded)``: ``cy_grid`` overwritten by z, and the mask of
    flagged cells in the input shape.
    """
    mag = np.abs(s_grid)
    excluded = mag < DIVISION_GUARD_REL * np.maximum(mag.max(axis=(-2, -1), keepdims=True), 1e-300)
    np.copyto(cy_grid, 0, where=excluded)
    return np.divide(cy_grid, s_grid, out=cy_grid, where=~excluded), excluded


def delay_doppler_map(z: np.ndarray) -> DelayDopplerMap:
    """2-D periodogram of the quotient grid, or of each grid of a stack (..., P, Q).

    A DFT runs over the symbol axis (Doppler) and an inverse DFT over the
    subcarrier axis (delay), both in place: ``z`` is overwritten by its
    transform. The magnitude's Doppler axis is then shifted to the signed
    index range [-Q/2, Q/2 - 1].
    """
    p_count, q_count = z.shape[-2:]
    np.fft.fft(z, axis=-1, out=z)
    np.fft.ifft(z, axis=-2, out=z)
    z *= p_count
    magnitude = np.fft.fftshift(np.abs(z), axes=-1)
    magnitude **= 2
    flat = np.argmax(magnitude.reshape(*z.shape[:-2], -1), axis=-1)
    peak_n, col = np.divmod(flat, q_count)
    return DelayDopplerMap(magnitude=magnitude, peak_n=peak_n, peak_m=col - q_count // 2)


def recover_parameters(n_star, m_star, wf: Waveform):
    """Map peak bins to (delay_s, doppler_hz, range_m, velocity_mps), elementwise over arrays;
    range and velocity are the bins times the waveform's cells, their map axis entries."""
    delay = n_star / (wf.n_subcarriers * wf.subcarrier_spacing_hz)
    doppler = m_star / (wf.n_symbols * wf.symbol_duration_s)
    return delay, doppler, n_star * wf.range_bin_m, m_star * wf.velocity_bin_mps
