import numpy as np
import pytest

from fdisac.channels import (
    SPEED_OF_LIGHT,
    Waveform,
    delay_doppler_phase,
    fill_complex_normal,
    gen_dl_channel,
    gen_si_channel,
    gen_ul_channel,
    perturb_estimate,
)
from fdisac.config import ScenarioConfig, TargetSpec
from oracles import radar_channel_at


def _wf(p=792, q=14, df=120e3, ts=8.92e-6, fc=28e9):
    return Waveform(p, q, df, ts, fc)


def test_dl_single_broadside_path_is_all_ones():
    h = gen_dl_channel([1.0], [0.0], 2, 2)
    np.testing.assert_allclose(h, np.ones((2, 2)), atol=1e-12)


def test_dl_two_symmetric_paths_have_rank_two():
    h = gen_dl_channel([1.0, 1.0], [25.0, -25.0], 4, 4)
    # SVD oracle: count singular values above a relative floor
    sv = np.linalg.svd(h, compute_uv=False)
    assert np.sum(sv > 1e-10 * sv[0]) == 2


def test_dl_first_entry_sums_path_gains():
    h = gen_dl_channel([1.0, 1.0], [-30.0, -20.0], 3, 3)
    # element (0, 0) of every steering outer product is 1
    np.testing.assert_allclose(h[0, 0], 2.0 + 0.0j, atol=1e-12)


def test_path_channels_stack_over_leading_axes():
    rng = np.random.default_rng(3)
    gains = np.exp(2j * np.pi * rng.random((2, 3, 2)))
    angles = rng.uniform(-90.0, 90.0, (2, 3, 2))
    dl = gen_dl_channel(gains, angles, 4, 6)
    ul = gen_ul_channel(gains[..., 0], angles[..., 0], 5, 3)
    assert dl.shape == (2, 3, 4, 6) and ul.shape == (2, 3, 5, 3)
    for i in np.ndindex(2, 3):
        np.testing.assert_array_equal(dl[i], gen_dl_channel(gains[i], angles[i], 4, 6))
        np.testing.assert_array_equal(ul[i], gen_ul_channel(gains[i][0], angles[i][0], 5, 3))
    # one rank-1 path each: the explicit outer product of the two ULA responses
    a_rx = np.exp(1j * np.pi * np.arange(5) * np.sin(np.deg2rad(angles[0, 0, 0])))
    a_tx = np.exp(1j * np.pi * np.arange(3) * np.sin(np.deg2rad(angles[0, 0, 0])))
    np.testing.assert_allclose(ul[0, 0], gains[0, 0, 0] * np.outer(a_rx, a_tx.conj()), atol=1e-13)


def test_ul_broadside_is_all_ones():
    h = gen_ul_channel(1.0, 0.0, 3, 2)
    np.testing.assert_allclose(h, np.ones((3, 2)), atol=1e-12)


def test_ul_largest_singular_value():
    h = gen_ul_channel(2.0, -10.0, 4, 2)
    sv = np.linalg.svd(h, compute_uv=False)
    np.testing.assert_allclose(sv[0], 2.0 * np.sqrt(8.0), rtol=1e-12)
    assert sv[1] < 1e-12 * sv[0]


def test_target_derived_delay_and_doppler():
    # one subcarrier step turns the phase by -2*pi*tau*df, one symbol step by
    # 2*pi*T_s*f_D; both steps stay inside (-pi, pi], so np.angle reads them unwrapped
    wf = _wf()
    tau = 2.0 * 120.0 / SPEED_OF_LIGHT
    fd = 2.0 * 30.0 * 28e9 / SPEED_OF_LIGHT
    assert delay_doppler_phase(120.0, 30.0, wf, 0, 0) == 1.0
    step_p = np.angle(delay_doppler_phase(120.0, 30.0, wf, 1, 0))
    step_q = np.angle(delay_doppler_phase(120.0, 30.0, wf, 0, 1))
    assert step_p == pytest.approx(-2.0 * np.pi * tau * 120e3, rel=1e-12)
    assert step_q == pytest.approx(2.0 * np.pi * 8.92e-6 * fd, rel=1e-12)
    # separable: a column of subcarriers times a row of symbols is the full grid
    p, q = np.arange(6)[:, None], np.arange(4)
    grid = delay_doppler_phase(120.0, 30.0, wf, p, q)
    assert grid.shape == (6, 4)
    np.testing.assert_allclose(grid, np.exp(1j * (p * step_p + q * step_q)), atol=1e-12)


def test_waveform_numerology_consistency():
    wf = _wf()
    assert abs(wf.symbol_duration_s - (1.0 / wf.subcarrier_spacing_hz + wf.cp_duration_s)) \
        <= 1e-12 * wf.symbol_duration_s
    # the config checks the cyclic prefix: ScenarioConfig.waveform() builds every Waveform in use
    with pytest.raises(ValueError, match="no room for a CP"):
        ScenarioConfig(symbol_duration_s=8e-6)  # shorter than 1/df = 8.33 us


def test_radar_channel_no_phase_at_origin_cell():
    gains = [0.7 + 0.2j, 1.0]
    specs = [TargetSpec(-30.0, 50.0, 20.0), TargetSpec(40.0, 80.0, -10.0)]
    wf = _wf()
    h00 = radar_channel_at(gains, specs, 0, 0, wf, 4, 4)
    expected = sum(
        gain * np.outer(
            np.exp(1j * np.pi * np.arange(4) * np.sin(np.deg2rad(spec.angle_deg))),
            np.exp(-1j * np.pi * np.arange(4) * np.sin(np.deg2rad(spec.angle_deg))),
        )
        for gain, spec in zip(gains, specs)
    )
    np.testing.assert_allclose(h00, expected, atol=1e-12)


def test_radar_channel_static_target_symbol_invariant():
    specs = [TargetSpec(15.0, 60.0, 0.0)]
    wf = _wf()
    h1 = radar_channel_at([1.0], specs, 3, 0, wf, 4, 4)
    h2 = radar_channel_at([1.0], specs, 3, 9, wf, 4, 4)
    np.testing.assert_allclose(h1, h2, atol=1e-12)


def test_radar_channel_phase_advance_per_subcarrier():
    # d = 50 m, df = 120 kHz: phase step is -2*pi*tau*df with tau = 100/c
    target = [TargetSpec(0.0, 50.0, 0.0)]
    wf = _wf()
    expected = -2.0 * np.pi * (100.0 / SPEED_OF_LIGHT) * 120e3
    h_p = radar_channel_at([1.0], target, 5, 2, wf, 2, 2)
    h_p1 = radar_channel_at([1.0], target, 6, 2, wf, 2, 2)
    step = np.angle(h_p1[0, 0] / h_p[0, 0])
    np.testing.assert_allclose(step, expected, atol=1e-9)
    np.testing.assert_allclose(expected, -0.2515, atol=5e-5)


def test_radar_channel_on_grid_delay_cycle_count():
    # tau = n/(P*df) completes exactly n cycles across the P subcarriers
    wf = _wf(p=64)
    n_bins = 5
    rng_m = n_bins * SPEED_OF_LIGHT / (2 * 64 * 120e3)
    target = [TargetSpec(0.0, rng_m, 0.0)]
    seq = np.array(
        [radar_channel_at([1.0], target, p, 0, wf, 1, 1)[0, 0] for p in range(64)]
    )
    spectrum = np.abs(np.fft.fft(seq))
    assert int(np.argmax(spectrum)) == 64 - n_bins  # e^{-j2*pi*p*n/P} lands in bin P-n


def test_radar_channel_grid_index_validation():
    wf = _wf(p=8, q=4)
    t = [TargetSpec(0.0, 10.0, 0.0)]
    with pytest.raises(ValueError):
        radar_channel_at([1.0], t, 8, 0, wf, 2, 2)
    with pytest.raises(ValueError):
        radar_channel_at([1.0], t, 0, -1, wf, 2, 2)


def test_si_channel_pure_los_limit():
    rng = np.random.default_rng(0)
    h = gen_si_channel(3, 4, np.inf, 40.0, rng)
    np.testing.assert_allclose(np.abs(h), np.sqrt(1e-4), atol=1e-12)


def test_si_channel_mean_entry_power():
    # Monte Carlo moment oracle: 10^4 entries, pathloss 40 dB -> mean power 1e-4
    rng = np.random.default_rng(7)
    h = gen_si_channel(100, 100, 35.0, 40.0, rng)
    mean_power = np.mean(np.abs(h) ** 2)
    assert abs(mean_power - 1e-4) < 0.05e-4


def test_si_channel_deterministic_under_seed():
    h1 = gen_si_channel(4, 4, 35.0, 40.0, np.random.default_rng(123))
    h2 = gen_si_channel(4, 4, 35.0, 40.0, np.random.default_rng(123))
    assert np.array_equal(h1, h2)
    assert np.all(np.isfinite(h1))


def test_perturb_perfect_sentinels():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_array_equal(perturb_estimate(h, None, rng), h)
    np.testing.assert_array_equal(perturb_estimate(h, -np.inf, rng), h)


def test_perturb_zero_channel_stays_zero():
    rng = np.random.default_rng(1)
    h = np.zeros((2, 5), dtype=complex)
    np.testing.assert_array_equal(perturb_estimate(h, 0.0, rng), h)


def test_perturb_error_energy_at_zero_db():
    # Monte Carlo oracle: at 0 dB NMSE the error energy matches the channel energy
    rng = np.random.default_rng(5)
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ratios = []
    for _ in range(300):
        e = perturb_estimate(h, 0.0, rng) - h
        ratios.append(np.linalg.norm(e) ** 2 / np.linalg.norm(h) ** 2)
    assert abs(np.mean(ratios) - 1.0) < 0.05


# The three spellings of the CN(0, sigma^2) draw that fill_complex_normal replaced.
def _old_complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _old_draw_waveforms(rng, out, n_streams, sigma):
    n_noise = out.shape[0] - n_streams - 1
    draw = np.empty((max(n_streams, n_noise), out.shape[1]))
    row = 0
    for n_rows, scale in ((n_streams, 1.0), (1, 1.0), (n_noise, sigma)):
        for part in (out.real, out.imag):
            block = rng.standard_normal(out=draw[:n_rows])
            block *= scale
            np.multiply(block, 1 / np.sqrt(2), out=part[row : row + n_rows])
        row += n_rows
    return out


def _old_si_channel(m_b, n_b, kappa_db, pathloss_db, rng):
    g = 10.0 ** (-pathloss_db / 10.0)
    los = np.ones((m_b, n_b), dtype=complex)
    if np.isinf(kappa_db) and kappa_db > 0:
        return np.sqrt(g) * los
    kappa = 10.0 ** (kappa_db / 10.0)
    nlos = _old_complex_normal(rng, (m_b, n_b))
    return np.sqrt(g * kappa / (kappa + 1.0)) * los + np.sqrt(g / (kappa + 1.0)) * nlos


def _assert_same_draw(new, old, rng, ref):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()  # bit for bit, signed zeros included
    assert rng.bit_generator.state == ref.bit_generator.state  # and the same draws consumed


@pytest.mark.parametrize("shape", [(7,), (6, 9), (2, 3, 4)])
def test_fill_equals_the_allocating_draw_bit_for_bit(shape):
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    out = np.empty(shape, dtype=complex)
    assert fill_complex_normal(rng, out) is out
    _assert_same_draw(out, _old_complex_normal(ref, shape), rng, ref)


@pytest.mark.parametrize("sigma", [1.0, 0.37, 3.1e-6])
def test_three_fills_equal_the_former_waveform_loop_bit_for_bit(sigma):
    # a trial's drawn rows: 2 DL symbol rows, the (1, N) UL row view, 5 noise rows
    st, n_rows, n_cells = 2, 8, 96
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    drawn = np.empty((n_rows, n_cells), dtype=complex)
    fill_complex_normal(rng, drawn[:st])
    fill_complex_normal(rng, drawn[st : st + 1])
    fill_complex_normal(rng, drawn[st + 1 :], sigma)
    old = _old_draw_waveforms(ref, np.empty((n_rows, n_cells), dtype=complex), st, sigma)
    _assert_same_draw(drawn, old, rng, ref)
    if sigma != 1.0:
        # the data tell the scaling orders apart: 1/sqrt(2) before sigma moves bits
        rng = np.random.default_rng(4)
        rng.standard_normal(2 * (st + 1) * n_cells)  # the symbol rows' draws
        a = rng.standard_normal((n_rows - st - 1, n_cells))
        assert np.array_equal(drawn[st + 1 :].real, a * sigma * (1 / np.sqrt(2)))
        assert not np.array_equal(drawn[st + 1 :].real, a * (1 / np.sqrt(2)) * sigma)


@pytest.mark.parametrize(
    "kappa_db, pathloss_db",
    [(35.0, 40.0), (-7.5, 95.0), (np.inf, 40.0), (-np.inf, 40.0), (35.0, np.inf), (np.inf, np.inf)],
)
def test_si_channel_equals_the_all_ones_los_sum_bit_for_bit(kappa_db, pathloss_db):
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    new = gen_si_channel(12, 16, kappa_db, pathloss_db, rng)
    _assert_same_draw(new, _old_si_channel(12, 16, kappa_db, pathloss_db, ref), rng, ref)


@pytest.mark.parametrize("nmse_db", [-10.0, -300.0, 20.0])
def test_perturb_equals_the_allocating_error_draw_bit_for_bit(nmse_db):
    h = gen_si_channel(12, 16, 35.0, 40.0, np.random.default_rng(1))
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    scale = np.sqrt(10.0 ** (nmse_db / 10.0) * np.linalg.norm(h) ** 2 / h.size)
    old = h + scale * _old_complex_normal(ref, h.shape)
    _assert_same_draw(perturb_estimate(h, nmse_db, rng), old, rng, ref)
