"""Target parameter estimators: MUSIC DoA, delay-Doppler quotient, periodogram.

The estimation chain works on the RF-chain-domain snapshots collected over
the P x Q OFDM grid:

  1. sample covariance of the slot-1 snapshots,
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

Steps 3-5 take one dwell or a stack of K dwells (K angles and a stack of K
analog networks for steps 3 and 4, a stack of grids for step 5).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .arrays import ula_response_matrix
from .beamforming import AnalogBeamformer
from .channels import SPEED_OF_LIGHT, Waveform
from .errors import EstimationFailureError

__all__ = [
    "MusicResult",
    "DelayDopplerMap",
    "SensingEstimate",
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

# Quotient cells with |s| below this fraction of the grid maximum are excluded.
DIVISION_GUARD_REL = 1e-8


@dataclass(frozen=True)
class MusicResult:
    """MUSIC pseudo-spectrum over the angle grid and the K strongest peaks."""

    spectrum: np.ndarray
    doas_deg: list


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


@dataclass(frozen=True)
class SensingEstimate:
    """Recovered parameters for one target."""

    doa_deg: float
    delay_s: float
    doppler_hz: float
    range_m: float
    velocity_mps: float
    bin_n: int
    bin_m: int

    @classmethod
    def from_bins(cls, doa_deg: float, n_star: int, m_star: int, wf: Waveform):
        delay, doppler, rng_m, vel = recover_parameters(n_star, m_star, wf)
        return cls(
            doa_deg=float(doa_deg),
            delay_s=delay,
            doppler_hz=doppler,
            range_m=rng_m,
            velocity_mps=vel,
            bin_n=int(n_star),
            bin_m=int(m_star),
        )


def angle_grid(grid_step_deg: float) -> np.ndarray:
    """Uniform scan grid over [-90, 90] degrees, endpoints included."""
    if grid_step_deg <= 0:
        raise ValueError(f"grid step must be positive, got {grid_step_deg}")
    n = int(round(180.0 / grid_step_deg)) + 1
    return np.linspace(-90.0, 90.0, n)


def sample_covariance(snapshots) -> np.ndarray:
    """(1/n) * sum of y y^H over the snapshot rows. Hermitian PSD by construction."""
    y = np.asarray(snapshots, dtype=complex)
    if y.ndim == 1:
        y = y[None, :]
    if y.ndim != 2 or y.shape[0] < 1:
        raise ValueError("need at least one snapshot of uniform length")
    r = (y.T @ y.conj()) / y.shape[0]
    return (r + r.conj().T) / 2.0


def music_doas(
    r: np.ndarray, k: int, grid_deg: np.ndarray, manifold: np.ndarray, gain: np.ndarray
) -> MusicResult:
    """MUSIC direction estimates from an (m x m) covariance matrix.

    The noise subspace is spanned by the eigenvectors of the ``m - k``
    smallest eigenvalues; the pseudo-spectrum is ||b||^2 / ||E_n^H b||^2 swept
    over the angles ``grid_deg``. ``manifold`` (m x n_grid) holds the steering
    vectors b, one column per angle (behind an analog combiner, the effective
    ones of :func:`combiner_manifold`), and ``gain`` their ||b||^2. Returns
    the k largest peaks sorted ascending; raises :class:`EstimationFailureError`
    carrying the partial result when fewer than k local maxima exist.
    """
    r = np.asarray(r, dtype=complex)
    grid = np.asarray(grid_deg, dtype=float)
    array_size = r.shape[0]
    if r.shape != (array_size, array_size) or manifold.shape != (array_size, grid.size):
        raise ValueError(f"covariance {r.shape} and manifold {manifold.shape} do not match")
    if k < 1:
        raise ValueError(f"need at least one source, got k={k}")
    if k >= array_size:
        raise ValueError(f"MUSIC requires k < array size, got k={k}, size={array_size}")
    scale = np.abs(r).max()
    if not np.allclose(r, r.conj().T, rtol=1e-8, atol=1e-10 * max(scale, 1e-300)):
        raise ValueError("covariance matrix must be Hermitian")
    eigvals, eigvecs = np.linalg.eigh(r)
    if eigvals[0] < -1e-8 * max(eigvals[-1], 1e-300):
        raise ValueError("covariance matrix must be positive semi-definite")
    noise_basis = eigvecs[:, : array_size - k]

    leak = np.sum(np.abs(noise_basis.conj().T @ manifold) ** 2, axis=0)
    floor = max(gain.max(), 1e-300) * 1e-30
    spectrum = gain / np.maximum(leak, floor)

    if spectrum.max() - spectrum.min() <= 1e-9 * spectrum.max():
        # flat to numerical precision: no directional information
        partial = MusicResult(spectrum=spectrum, doas_deg=[])
        raise EstimationFailureError("pseudo-spectrum is flat", partial=partial)
    peaks = _local_maxima(spectrum)
    if peaks.size < k:
        found = sorted(float(grid[i]) for i in peaks[np.argsort(spectrum[peaks])[::-1]])
        partial = MusicResult(spectrum=spectrum, doas_deg=found)
        raise EstimationFailureError(
            f"found {peaks.size} spectrum peaks, needed {k}", partial=partial
        )
    top = peaks[np.argsort(spectrum[peaks])[::-1][:k]]
    doas = sorted(float(grid[i]) for i in top)
    return MusicResult(spectrum=spectrum, doas_deg=doas)


def combiner_manifold(w_rf: AnalogBeamformer, grid_deg: np.ndarray) -> np.ndarray:
    """MUSIC manifold W_rf^H a(theta) behind an analog combiner, one column per angle.

    W_rf is block diagonal and the ULA shift-invariant, so chain i's entry is
    exp(j*pi*i*n_a*sin(theta)) times its subarray response f_i^H a_{n_a}(theta).
    """
    subarray = w_rf.per_chain.conj() @ ula_response_matrix(w_rf.n_per_chain, grid_deg)
    return ula_response_matrix(w_rf.n_chains, grid_deg, 0.5 * w_rf.n_per_chain) * subarray


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
    theta_hat_deg, v_rf: AnalogBeamformer, v_bb: np.ndarray, sym: np.ndarray
) -> np.ndarray:
    """Reference s = a_tx(theta_hat)^H V_rf V_bb u for every column u of ``sym``.

    ``sym`` holds the symbol streams, shape (n_streams, n_cells). One angle
    and one network give shape (n_cells,); K angles and a stack of K networks
    give one dwell's reference per row, shape (K, n_cells).
    """
    return (_steered(theta_hat_deg, v_rf.assembled) @ v_bb) @ sym


def dwell_weights(w_rf: AnalogBeamformer, theta_hat_deg) -> np.ndarray:
    """Per-chain RX weights c = W_rf^T conj(a_rx(theta_hat)) / M_b (module docstring, step 4).

    K angles and a stack of K networks give one dwell's weights per row.
    """
    return _steered(theta_hat_deg, w_rf.assembled) / w_rf.n_antennas


def delay_doppler_quotient(cy_grid: np.ndarray, s_grid: np.ndarray):
    """Quotient z = c^T y / s between the projected snapshots and the reference.

    ``cy_grid`` holds the snapshots projected onto :func:`dwell_weights`,
    ``s_grid`` the reference of :func:`reference_signal_grid`, both of shape
    (P, Q) or a stack (..., P, Q) of dwells. Cells with |s| below
    :data:`DIVISION_GUARD_REL` times the largest |s| of their own grid are set
    to 0 and flagged.

    Returns ``(z, excluded)``, z and the mask of flagged cells in the input shape.
    """
    cy = np.asarray(cy_grid, dtype=complex)
    s = np.asarray(s_grid, dtype=complex)
    if cy.ndim < 2 or s.shape != cy.shape:
        raise ValueError(f"grid shapes {cy.shape} and {s.shape} are inconsistent")
    mag = np.abs(s)
    excluded = mag < DIVISION_GUARD_REL * np.maximum(mag.max(axis=(-2, -1), keepdims=True), 1e-300)
    return np.divide(cy, s, out=np.zeros_like(cy), where=~excluded), excluded


def delay_doppler_map(z: np.ndarray) -> DelayDopplerMap:
    """2-D periodogram of the quotient grid, or of each grid of a stack (..., P, Q).

    A DFT runs over the symbol axis (Doppler) and an inverse DFT over the
    subcarrier axis (delay); the Doppler axis is then shifted to the signed
    index range [-Q/2, Q/2 - 1].
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim < 2 or z.size == 0:
        raise ValueError("quotient grid must be a non-empty P x Q matrix or a stack of them")
    p_count, q_count = z.shape[-2:]
    transform = np.fft.ifft(np.fft.fft(z, axis=-1), axis=-2) * p_count
    magnitude = np.abs(np.fft.fftshift(transform, axes=-1)) ** 2
    flat = np.argmax(magnitude.reshape(*z.shape[:-2], -1), axis=-1)
    peak_n, col = np.divmod(flat, q_count)
    return DelayDopplerMap(magnitude=magnitude, peak_n=peak_n, peak_m=col - q_count // 2)


def recover_parameters(n_star: int, m_star: int, wf: Waveform):
    """Map peak bins to (delay_s, doppler_hz, range_m, velocity_mps)."""
    delay = n_star / (wf.n_subcarriers * wf.subcarrier_spacing_hz)
    doppler = m_star / (wf.n_symbols * wf.symbol_duration_s)
    range_m = SPEED_OF_LIGHT * delay / 2.0
    velocity = SPEED_OF_LIGHT * doppler / (2.0 * wf.carrier_hz)
    return delay, doppler, range_m, velocity
