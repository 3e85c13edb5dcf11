import numpy as np
import pytest

from fdisac.channels import (
    SPEED_OF_LIGHT,
    TargetParams,
    Waveform,
    gen_dl_channel,
    gen_si_channel,
    gen_ul_channel,
    perturb_estimate,
)
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


def test_dl_empty_path_list_rejected():
    with pytest.raises(ValueError):
        gen_dl_channel([], [], 2, 2)


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
    t = TargetParams(gain=1.0, angle_deg=10.0, range_m=120.0, velocity_mps=30.0)
    assert abs(t.delay_s - 2.0 * 120.0 / SPEED_OF_LIGHT) <= 1e-15 * t.delay_s
    fd = t.doppler_hz(28e9)
    assert abs(fd - 2.0 * 30.0 * 28e9 / SPEED_OF_LIGHT) <= 1e-15 * abs(fd)


@pytest.mark.parametrize("range_m", [np.nan, -1.0])
def test_target_rejects_bad_range(range_m):
    with pytest.raises(ValueError, match="range"):
        TargetParams(1.0, 10.0, range_m, 0.0)


def test_waveform_numerology_consistency():
    wf = _wf()
    assert abs(wf.symbol_duration_s - (1.0 / wf.subcarrier_spacing_hz + wf.cp_duration_s)) \
        <= 1e-12 * wf.symbol_duration_s
    with pytest.raises(ValueError, match="no room for a CP"):
        _wf(ts=8e-6)  # shorter than 1/df = 8.33 us


def test_radar_channel_no_phase_at_origin_cell():
    targets = [
        TargetParams(gain=0.7 + 0.2j, angle_deg=-30.0, range_m=50.0, velocity_mps=20.0),
        TargetParams(gain=1.0, angle_deg=40.0, range_m=80.0, velocity_mps=-10.0),
    ]
    wf = _wf()
    h00 = radar_channel_at(targets, 0, 0, wf, 4, 4)
    expected = sum(
        t.gain * np.outer(
            np.exp(1j * np.pi * np.arange(4) * np.sin(np.deg2rad(t.angle_deg))),
            np.exp(-1j * np.pi * np.arange(4) * np.sin(np.deg2rad(t.angle_deg))),
        )
        for t in targets
    )
    np.testing.assert_allclose(h00, expected, atol=1e-12)


def test_radar_channel_static_target_symbol_invariant():
    targets = [TargetParams(gain=1.0, angle_deg=15.0, range_m=60.0, velocity_mps=0.0)]
    wf = _wf()
    h1 = radar_channel_at(targets, 3, 0, wf, 4, 4)
    h2 = radar_channel_at(targets, 3, 9, wf, 4, 4)
    np.testing.assert_allclose(h1, h2, atol=1e-12)


def test_radar_channel_phase_advance_per_subcarrier():
    # d = 50 m, df = 120 kHz: phase step is -2*pi*tau*df with tau = 100/c
    target = TargetParams(gain=1.0, angle_deg=0.0, range_m=50.0, velocity_mps=0.0)
    wf = _wf()
    expected = -2.0 * np.pi * (100.0 / SPEED_OF_LIGHT) * 120e3
    h_p = radar_channel_at([target], 5, 2, wf, 2, 2)
    h_p1 = radar_channel_at([target], 6, 2, wf, 2, 2)
    step = np.angle(h_p1[0, 0] / h_p[0, 0])
    np.testing.assert_allclose(step, expected, atol=1e-9)
    np.testing.assert_allclose(expected, -0.2515, atol=5e-5)


def test_radar_channel_on_grid_delay_cycle_count():
    # tau = n/(P*df) completes exactly n cycles across the P subcarriers
    wf = _wf(p=64)
    n_bins = 5
    rng_m = n_bins * SPEED_OF_LIGHT / (2 * 64 * 120e3)
    target = TargetParams(gain=1.0, angle_deg=0.0, range_m=rng_m, velocity_mps=0.0)
    seq = np.array(
        [radar_channel_at([target], p, 0, wf, 1, 1)[0, 0] for p in range(64)]
    )
    spectrum = np.abs(np.fft.fft(seq))
    assert int(np.argmax(spectrum)) == 64 - n_bins  # e^{-j2*pi*p*n/P} lands in bin P-n


def test_radar_channel_grid_index_validation():
    wf = _wf(p=8, q=4)
    t = [TargetParams(gain=1.0, angle_deg=0.0, range_m=10.0, velocity_mps=0.0)]
    with pytest.raises(ValueError):
        radar_channel_at(t, 8, 0, wf, 2, 2)
    with pytest.raises(ValueError):
        radar_channel_at(t, 0, -1, wf, 2, 2)


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
