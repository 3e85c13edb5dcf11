import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from fdisac.arrays import dft_codebook, ula_response_matrix
from fdisac.beamforming import assemble_analog
from fdisac.channels import SPEED_OF_LIGHT
from fdisac import sensing
from fdisac.errors import EstimationFailureError
from fdisac.sensing import (
    _local_maxima,
    angle_grid,
    delay_doppler_map,
    delay_doppler_quotient,
    dwell_weights,
    music_doas,
    recover_parameters,
    reference_signal_grid,
    sample_covariance,
)
from oracles import steering, waveform


def _ula_music(r, k, grid_step_deg, m):
    """MUSIC over the plain m-element ULA response on the uniform angle grid.

    One (m x m) matrix is a stack of one: its results are entry 0 of each list.
    """
    grid = angle_grid(grid_step_deg)
    manifold = ula_response_matrix(m, grid)
    return music_doas(r, k, grid, manifold, np.sum(np.abs(manifold) ** 2, axis=0))


def _identity_combiner(m):
    # one antenna per chain keeps the assembled combiner equal to the identity
    return assemble_analog(np.ones((m, 1), dtype=complex))


def _random_analog(rng, n_chains, n_per_chain):
    phases = np.exp(2j * np.pi * rng.random((n_chains, n_per_chain)))
    return assemble_analog(phases / np.sqrt(n_per_chain))


def _peak(z):
    return delay_doppler_map(z)[1:]


def _covariance(snaps):
    """Sample covariance of the rows of ``snaps`` (..., n, m), from the sum of their y y^H."""
    return sample_covariance(np.swapaxes(snaps, -1, -2) @ snaps.conj(), snaps.shape[-2])


# ---------------------------------------------------------------- covariance


def test_covariance_single_snapshot_outer_product():
    y = np.array([1.0 + 1.0j, 2.0 - 1.0j, 0.5j])
    r = _covariance(y[None])
    np.testing.assert_allclose(r, np.outer(y, y.conj()), atol=1e-14)


def test_covariance_repeated_snapshot_rank_one():
    y = np.array([1.0, 1.0j, -1.0])
    r = _covariance(np.array([y] * 10))
    eig = np.linalg.eigvalsh(r)
    assert eig[0] >= -1e-12 * eig[-1]
    assert np.sum(eig > 1e-10 * eig[-1]) == 1


def test_covariance_of_white_noise():
    # Monte Carlo oracle: 10^5 i.i.d. CN(0, sigma^2) snapshots -> sigma^2 I
    rng = np.random.default_rng(11)
    sigma2 = 0.5
    snaps = np.sqrt(sigma2 / 2) * (
        rng.standard_normal((100000, 4)) + 1j * rng.standard_normal((100000, 4))
    )
    r = _covariance(snaps)
    np.testing.assert_allclose(np.diag(r).real, sigma2, rtol=0.03)
    off = r - np.diag(np.diag(r))
    assert np.abs(off).max() < 0.03 * sigma2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), t=st.integers(1, 3), m=st.integers(1, 8),
       n=st.integers(1, 40), chunk=st.integers(1, 40))
def test_covariance_hermitian_psd(seed, t, m, n, chunk):
    # a stack of sums shaped like the runner's slot-1 ones (T, M_rf, M_rf), each
    # chunk of n snapshots (M_rf, chunk) adding its y y^H: MUSIC relies on every
    # matrix being exactly Hermitian
    rng = np.random.default_rng(seed)
    snaps = rng.standard_normal((t, m, n)) + 1j * rng.standard_normal((t, m, n))
    gram = np.zeros((t, m, m), dtype=complex)
    for first in range(0, n, chunk):
        y = snaps[..., first : first + chunk]
        gram += y @ np.swapaxes(y, -1, -2).conj()
    r = sample_covariance(gram, n)
    assert r.shape == (t, m, m)
    assert np.array_equal(r, np.conj(np.swapaxes(r, -1, -2)))
    eig = np.linalg.eigvalsh(r)
    assert (eig[:, 0] >= -1e-10 * np.maximum(eig[:, -1], 1e-300)).all()


# --------------------------------------------------------------------- MUSIC


def test_music_noiseless_single_source_exact():
    theta = -20.0  # on the 0.1 degree grid
    a = steering(6, theta)
    r = np.outer(a, a.conj())
    doas, errors = _ula_music(r, 1, 0.1, 6)
    assert errors == (None,)
    assert doas[0] == [pytest.approx(theta, abs=1e-9)]


def test_music_two_sources_snr20():
    # synthetic-data oracle: two unit-power sources at -30 and -20 degrees,
    # 20 dB SNR, 8 elements, 500 snapshots
    rng = np.random.default_rng(3)
    m, n_snap, sigma = 8, 500, np.sqrt(0.01)
    a1, a2 = steering(m, -30.0), steering(m, -20.0)
    s = (rng.standard_normal((2, n_snap)) + 1j * rng.standard_normal((2, n_snap))) / np.sqrt(2)
    noise = sigma * (rng.standard_normal((m, n_snap)) + 1j * rng.standard_normal((m, n_snap))) / np.sqrt(2)
    y = np.outer(a1, s[0]) + np.outer(a2, s[1]) + noise
    r = _covariance(y.T)
    doas, errors = _ula_music(r, 2, 0.1, m)
    assert errors == (None,)
    assert abs(doas[0][0] - (-30.0)) <= 0.1
    assert abs(doas[0][1] - (-20.0)) <= 0.1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_music_noiseless_exact_for_any_source_count(k):
    m = 8
    angles = [-40.0, -15.0, 5.0, 30.0, 60.0][:k]
    r = sum(np.outer(steering(m, a), steering(m, a).conj()) for a in angles)
    doas, errors = _ula_music(np.asarray(r, dtype=complex), k, 0.1, m)
    assert errors == (None,)
    np.testing.assert_allclose(doas[0], angles, atol=0.1)


def test_music_exact_null_keeps_a_finite_peak():
    # a noiseless source at broadside on two elements: the noise eigenvector
    # is orthogonal to a(0) bit for bit, so ||E_n^H b||^2 is 0.0 there and only
    # the spectrum's floor keeps that peak finite (and the division warning-free)
    a = steering(2, 0.0)
    r = np.outer(a, a.conj())
    _, eigvecs = np.linalg.eigh(r)
    assert eigvecs[:, 0].conj() @ a == 0.0
    doas, errors = _ula_music(r, 1, 0.1, 2)
    assert errors == (None,)
    assert doas == [[0.0]]


def test_music_flat_spectrum_fails_with_partial():
    r = 0.3 * np.eye(5, dtype=complex)
    # one matrix is a stack of one; it keeps the error next to the partial result
    doas, errors = _ula_music(r, 1, 1.0, 5)
    assert isinstance(errors[0], EstimationFailureError)
    assert str(errors[0]) == "pseudo-spectrum is flat"
    assert len(doas) == 1
    # a failed matrix fails only its own entry of a stack
    doas, errors = _ula_music(np.stack([r, np.outer(steering(5, 10.0), steering(5, 10.0).conj())]),
                              1, 1.0, 5)
    assert isinstance(errors[0], EstimationFailureError) and errors[1] is None
    assert doas[1] == [pytest.approx(10.0)]


def test_music_precondition_errors():
    # a matrix with too few peaks records its error and raises nothing: a
    # one-dimensional noise subspace whose single null lies at -30 deg gives
    # one peak for k = 3
    u = np.array([1.0, 0.5j, 0.0, 0.0]) / np.sqrt(1.25)
    error = _ula_music(np.eye(4) - np.outer(u, u.conj()), 3, 0.5, 4)[1][0]
    assert isinstance(error, EstimationFailureError)
    assert str(error) == "found 1 spectrum peaks, needed 3"


def test_music_custom_manifold_recovers_through_combiner():
    # covariance observed behind an analog combiner; scanning with the
    # effective manifold W^H a(theta) still localizes the source
    cb = dft_codebook(4, 4)
    w = assemble_analog(cb[[2, 7, 11, 14]])
    theta = 10.0
    a = steering(16, theta)
    b = w.conj().T @ a
    r = np.outer(b, b.conj())
    grid = angle_grid(0.1)
    manifold = w.conj().T @ ula_response_matrix(16, grid)
    doas, errors = music_doas(r, 1, grid, manifold, np.sum(np.abs(manifold) ** 2, axis=0))
    assert errors == (None,)
    assert abs(doas[0][0] - theta) <= 0.1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
def test_local_maxima_match_scipy_find_peaks(values):
    # small integers make plateaus, edge plateaus and flat stretches common
    x = np.asarray(values, dtype=float)
    np.testing.assert_array_equal(_local_maxima(x), find_peaks(x)[0])


def test_local_maxima_flat_peak_reports_left_middle():
    x = np.array([0.0, 1.0, 3.0, 3.0, 3.0, 3.0, 1.0, 2.0, 2.0])
    assert _local_maxima(x).tolist() == [3]  # plateau 2..5; the edge run is no peak


# ---------------------------------------------------------- reference signal


def test_reference_signal_orthogonal_tx_vector():
    # critically sampled DFT beams are orthogonal, so a beam pointed at a
    # different grid angle produces a null reference
    cb = dft_codebook(8, 3)
    theta = float(np.degrees(np.arcsin(-1 + 2 * 5 / 8)))
    v_rf = assemble_analog(cb[[2]])  # different grid beam, orthogonal to a(theta)
    s = reference_signal_grid(theta, v_rf, np.eye(1), np.ones((1, 1)))
    np.testing.assert_allclose(s, np.zeros(1), atol=1e-12)


def test_reference_signal_matched_tx_vector():
    # x = V_rf u = a_tx(theta) gives s = a_tx^H a_tx = N_b
    theta = 17.0
    v_rf = assemble_analog(steering(8, theta)[None, :] / np.sqrt(8))
    s = reference_signal_grid(theta, v_rf, np.eye(1), np.full((1, 1), np.sqrt(8)))
    np.testing.assert_allclose(s, [8.0], atol=1e-12)


def test_reference_signal_matches_two_step_oracle():
    # oracle: form the antenna-domain TX vector x = V_rf V_bb u, then a_tx^H x
    rng = np.random.default_rng(4)
    v_rf = _random_analog(rng, 4, 2)
    v_bb = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    sym = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    theta = -33.0
    expected = steering(8, theta).conj() @ (v_rf @ (v_bb @ sym))
    np.testing.assert_allclose(reference_signal_grid(theta, v_rf, v_bb, sym), expected, atol=1e-12)


def test_reference_signal_grid_matches_per_cell():
    rng = np.random.default_rng(5)
    v_rf = _random_analog(rng, 4, 2)
    v_bb = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    sym = rng.standard_normal((2, 12)) + 1j * rng.standard_normal((2, 12))
    grid = reference_signal_grid(24.0, v_rf, v_bb, sym)
    assert grid.shape == (12,)
    for c in range(12):
        np.testing.assert_allclose(
            grid[c], reference_signal_grid(24.0, v_rf, v_bb, sym[:, [c]])[0], atol=1e-12
        )


def test_dwell_weights_and_references_stack_matches_each_dwell():
    # K angles with a stack of K networks give each dwell's row
    rng = np.random.default_rng(12)
    angles = np.array([-41.0, 3.5, 60.2])
    w_stack = assemble_analog(np.exp(2j * np.pi * rng.random((3, 4, 2))) / np.sqrt(2))
    v_stack = assemble_analog(np.exp(2j * np.pi * rng.random((3, 5, 3))) / np.sqrt(3))
    v_bb = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    sym = rng.standard_normal((2, 7)) + 1j * rng.standard_normal((2, 7))
    c = dwell_weights(w_stack, angles)
    s = reference_signal_grid(angles, v_stack, v_bb, sym)
    assert c.shape == (3, 4) and s.shape == (3, 7)
    for k, theta in enumerate(angles):
        np.testing.assert_allclose(
            c[k], w_stack[k].T @ steering(8, theta).conj() / 8, rtol=1e-13, atol=1e-15
        )
        np.testing.assert_allclose(
            s[k], reference_signal_grid(theta, v_stack[k], v_bb, sym),
            rtol=1e-13, atol=1e-14,
        )


# ------------------------------------------------------------------ quotient


def _single_target_grids(wf, theta, rng_m, vel, m_b, n_b, rng):
    """Noiseless single echo y behind an identity combiner, the matched reference grid."""
    cells = wf.n_subcarriers * wf.n_symbols
    tx_rf = (rng.standard_normal((n_b, cells)) + 1j * rng.standard_normal((n_b, cells))) / np.sqrt(2)
    s = reference_signal_grid(theta, _identity_combiner(n_b), np.eye(n_b), tx_rf)
    p_idx, q_idx = np.divmod(np.arange(cells), wf.n_symbols)
    tau = 2 * rng_m / SPEED_OF_LIGHT
    fd = 2 * vel * wf.carrier_hz / SPEED_OF_LIGHT
    phase = np.exp(2j * np.pi * (q_idx * wf.symbol_duration_s * fd - p_idx * tau * wf.subcarrier_spacing_hz))
    y = np.outer(steering(m_b, theta), phase * s)
    y_grid = y.T.reshape(wf.n_subcarriers, wf.n_symbols, m_b)
    s_grid = s.reshape(wf.n_subcarriers, wf.n_symbols)
    return y_grid, s_grid, phase.reshape(wf.n_subcarriers, wf.n_symbols)


def test_quotient_recovers_phase_ramp():
    # construction oracle: a noiseless matched echo leaves exactly the
    # delay-Doppler phase ramp, constant modulus across the grid
    wf = waveform(p=16, q=8)
    rng = np.random.default_rng(6)
    y_grid, s_grid, phase = _single_target_grids(wf, -25.0, 40.0, 30.0, 4, 6, rng)
    z, excluded = delay_doppler_quotient(y_grid @ dwell_weights(_identity_combiner(4), -25.0), s_grid)
    assert not excluded.any()
    np.testing.assert_allclose(z, phase, atol=1e-10)
    np.testing.assert_allclose(np.abs(z), 1.0, atol=1e-10)


def test_quotient_static_zero_range_target_is_constant():
    wf = waveform(p=8, q=4)
    rng = np.random.default_rng(7)
    y_grid, s_grid, _ = _single_target_grids(wf, 5.0, 0.0, 0.0, 3, 4, rng)
    z, _ = delay_doppler_quotient(y_grid @ dwell_weights(_identity_combiner(3), 5.0), s_grid)
    np.testing.assert_allclose(z, z[0, 0], atol=1e-12)


def test_quotient_of_signal_with_itself_is_one():
    # y is the reference echo a_rx(theta) s itself, seen through an identity combiner
    rng = np.random.default_rng(8)
    theta = 12.0
    s_grid = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    y_grid = s_grid[..., None] * steering(5, theta)
    z, excluded = delay_doppler_quotient(y_grid @ dwell_weights(_identity_combiner(5), theta), s_grid)
    assert not excluded.any()
    np.testing.assert_allclose(z, 1.0, atol=1e-12)


def test_quotient_division_guard_and_flagging():
    w = _identity_combiner(2)
    y_grid = np.ones((1, 3, 2), dtype=complex)
    s_grid = np.ones((1, 3), dtype=complex)
    s_grid[0, 1] = 1e-12  # below guard relative to max 1 -> flagged
    s_grid[0, 2] = 0.0  # no reference at all -> flagged
    z, excluded = delay_doppler_quotient(y_grid @ dwell_weights(w, 0.0), s_grid)
    np.testing.assert_allclose(z[0, 0], 1.0)  # broadside: c = (1/2, 1/2)
    assert excluded.tolist() == [[False, True, True]]
    assert z[0, 1] == 0.0 and z[0, 2] == 0.0


def test_quotient_stack_guards_each_grid_by_its_own_maximum():
    # a stack of dwells equals the dwells one by one; a cell at 1e-3 of its
    # own grid's maximum stays, although it lies below 1e-8 of the stack's
    rng = np.random.default_rng(9)
    cy = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    s = rng.uniform(0.5, 1.0, (2, 3, 4)) * np.exp(2j * np.pi * rng.random((2, 3, 4)))
    s[0] *= 1e10
    s[1, 0, 0] = 1e-3
    s[1, 2, 3] = 1e-12
    z, excluded = delay_doppler_quotient(cy.copy(), s)
    for k in range(2):
        z_k, excluded_k = delay_doppler_quotient(cy[k].copy(), s[k])
        np.testing.assert_array_equal(z[k], z_k)
        np.testing.assert_array_equal(excluded[k], excluded_k)
    assert np.flatnonzero(excluded).tolist() == [23]  # (1, 2, 3) only
    np.testing.assert_allclose(z[1, 0, 0], cy[1, 0, 0] / 1e-3)


def _antenna_domain_quotient(y_grid, s_grid, w_rf, theta, guard_rel=1e-8):
    """The quotient formed antenna by antenna: mean over i of (W_rf y)_i / (a_rx,i s)."""
    g = s_grid[..., None] * steering(w_rf.shape[-2], theta)
    expanded = np.einsum("ij,pqj->pqi", w_rf, y_grid)
    mag = np.abs(g)
    keep = mag >= guard_rel * max(mag.max(), 1e-300)
    terms = np.where(keep, expanded / np.where(keep, g, 1.0), 0.0)
    counts = keep.sum(axis=2)
    z = terms.sum(axis=2) / np.maximum(counts, 1)
    excluded = counts == 0
    z[excluded] = 0.0
    return z, excluded


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n_chains=st.integers(1, 4),
    n_per_chain=st.integers(1, 6),
    p=st.integers(1, 6),
    q=st.integers(1, 5),
    theta=st.floats(-90.0, 90.0),
    guarded=st.floats(0.0, 0.5),
)
def test_quotient_equals_antenna_domain_formula(seed, n_chains, n_per_chain, p, q, theta, guarded):
    # the per-chain weights c collapse the antenna average exactly, guarded
    # and excluded cells included
    rng = np.random.default_rng(seed)
    w_rf = _random_analog(rng, n_chains, n_per_chain)
    y_grid = rng.standard_normal((p, q, n_chains)) + 1j * rng.standard_normal((p, q, n_chains))
    s_grid = rng.uniform(0.1, 10.0, (p, q)) * np.exp(2j * np.pi * rng.random((p, q)))
    below = rng.random((p, q)) < guarded
    s_grid[below] = np.where(rng.random(below.sum()) < 0.5, 0.0, 1e-12)
    z, excluded = delay_doppler_quotient(y_grid @ dwell_weights(w_rf, theta), s_grid)
    z_ant, excluded_ant = _antenna_domain_quotient(y_grid, s_grid, w_rf, theta)
    np.testing.assert_array_equal(excluded, excluded_ant)
    np.testing.assert_allclose(z, z_ant, rtol=1e-12, atol=1e-12 * np.abs(z_ant).max())


# --------------------------------------------------------------- periodogram


def test_periodogram_pure_delay():
    p_count, q_count = 32, 8
    p = np.arange(p_count)[:, None]
    z = np.exp(-2j * np.pi * p * 5 / p_count) * np.ones((1, q_count))
    assert _peak(z) == (5, 0)


def test_periodogram_pure_doppler_negative():
    p_count, q_count = 16, 14
    q = np.arange(q_count)[None, :]
    z = np.ones((p_count, 1)) * np.exp(2j * np.pi * q * (-3) / q_count)
    assert _peak(z) == (0, -3)


def test_periodogram_off_grid_range_bin():
    # tau = 2*47.3/c at P=792, df=120 kHz lands in bin round(29.99) = 30
    wf = waveform()
    tau = 2 * 47.3 / SPEED_OF_LIGHT
    true_bin = tau * wf.n_subcarriers * wf.subcarrier_spacing_hz
    assert round(true_bin) == 30
    p = np.arange(wf.n_subcarriers)[:, None]
    z = np.exp(-2j * np.pi * p * tau * wf.subcarrier_spacing_hz) * np.ones((1, wf.n_symbols))
    n_star, m_star = _peak(z)
    assert n_star == 30 and m_star == 0


def test_periodogram_all_zero_tie_break():
    # every bin ties at zero; the argmax resolves to smallest n then smallest m
    z = np.zeros((8, 6), dtype=complex)
    assert _peak(z) == (0, -3)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    re=st.floats(-5, 5),
    im=st.floats(-5, 5),
)
def test_periodogram_scale_invariance(seed, re, im):
    scale = complex(re, im)
    if abs(scale) < 1e-3:
        scale = 1.0 + 0.0j
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
    scaled = scale * z  # formed before the map overwrites z
    assert _peak(z) == _peak(scaled)


def test_delay_doppler_map_peak_is_argmax():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((10, 8)) + 1j * rng.standard_normal((10, 8))
    magnitude, peak_n, peak_m = delay_doppler_map(z)
    n_idx, m_idx = np.unravel_index(np.argmax(magnitude), magnitude.shape)
    assert peak_n == n_idx and peak_m == m_idx - 4


def test_delay_doppler_map_stack_matches_each_grid():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((3, 10, 8)) + 1j * rng.standard_normal((3, 10, 8))
    z[1, 2, :] += 40.0  # a strong row gives grid 1 its own peak
    magnitude, peak_n, peak_m = delay_doppler_map(z.copy())
    assert magnitude.shape == z.shape and peak_n.shape == peak_m.shape == (3,)
    for k in range(3):
        magnitude_k, peak_n_k, peak_m_k = delay_doppler_map(z[k])
        np.testing.assert_allclose(magnitude[k], magnitude_k, rtol=1e-12)
        assert (peak_n[k], peak_m[k]) == (peak_n_k, peak_m_k)


def test_quotient_and_map_overwrite_their_input_grid_with_the_out_of_place_bytes():
    # oracle: the quotient into a fresh zero grid and the periodogram of fresh
    # transforms. The quotient returns its input's buffer, and the map leaves
    # its transform there; a guarded cell (s = 0) is included
    rng = np.random.default_rng(12)
    cy = rng.standard_normal((2, 3, 10, 8)) + 1j * rng.standard_normal((2, 3, 10, 8))
    s = rng.standard_normal(cy.shape) + 1j * rng.standard_normal(cy.shape)
    s[1, 2, 4, 5] = 0.0
    mag = np.abs(s)
    excluded = mag < sensing.DIVISION_GUARD_REL * mag.max(axis=(-2, -1), keepdims=True)
    want_z = np.divide(cy, s, out=np.zeros_like(cy), where=~excluded)
    transform = np.fft.ifft(np.fft.fft(want_z, axis=-1), axis=-2)
    transform *= 10
    want_magnitude = np.fft.fftshift(np.abs(transform), axes=-1)
    want_magnitude **= 2

    grid = cy.copy()
    z, got_excluded = delay_doppler_quotient(grid, s)
    assert np.shares_memory(z, grid)
    assert z.tobytes() == want_z.tobytes()
    np.testing.assert_array_equal(got_excluded, excluded)
    magnitude, _, _ = delay_doppler_map(z)
    assert grid.tobytes() == transform.tobytes()
    assert magnitude.tobytes() == want_magnitude.tobytes()


# ---------------------------------------------------------------- recovery


def test_recover_zero_bins():
    delay, doppler, rng_m, vel = recover_parameters(0, 0, waveform())
    assert delay == 0.0 and doppler == 0.0 and rng_m == 0.0 and vel == 0.0


def test_recover_single_range_bin():
    wf = waveform()
    _, _, rng_m, _ = recover_parameters(1, 0, wf)
    expected = SPEED_OF_LIGHT / (2 * 792 * 120e3)
    np.testing.assert_allclose(rng_m, expected, rtol=1e-12)
    np.testing.assert_allclose(rng_m, 1.5772, atol=2e-4)


def test_recover_single_velocity_bin():
    wf = waveform()
    _, _, _, vel = recover_parameters(0, 1, wf)
    expected = SPEED_OF_LIGHT / (2 * 28e9 * 14 * 8.92e-6)
    np.testing.assert_allclose(vel, expected, rtol=1e-12)
    np.testing.assert_allclose(vel, 42.87, atol=0.01)
