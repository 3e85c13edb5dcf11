from dataclasses import replace

import numpy as np
import pytest

from fdisac.beamforming import assemble_analog
from fdisac.cancellers import build_cancellers
from fdisac.config import ScenarioConfig, TargetSpec, fast_profile
from fdisac.metrics import dl_snr, ideal_dl_rate, radar_sinr, ul_sinr
from fdisac.optimizer import (
    HybridBeamformers,
    build_estimated_channels,
    mss_rx_combiner,
    nsp_rx_combiner,
)
from fdisac.runner import run_scenario
from oracles import crandn, post_canceller_si, steering


def _identity_analog(m):
    return assemble_analog(np.ones((m, 1), dtype=complex))


# The toy system's arrays and object order; its DoAs are set in _toy_system.
_TOY_CONFIG = ScenarioConfig(
    tx_rf_chains=2, tx_antennas_per_rf=4, rx_rf_chains=6, rx_antennas_per_rf=1,
    dl_user_antennas=4, ul_user_antennas=3, analog_taps=6,
    dl_scatterers=(TargetSpec(-45.0, 0.0), TargetSpec(-15.0, 0.0)),
    radar_targets=(TargetSpec(15.0, 0.0),), ul_user=TargetSpec(45.0, 0.0),
)


def _toy_system(rng, perfect_csi=True, nulling=True):
    """Small fully wired system: 6 RX chains (1 antenna each), 2 TX chains."""
    m_b, n_b, m_u, n_u, st = 6, 8, 4, 3, 2
    phases = rng.uniform(0, 2 * np.pi, (2, 4))
    v_rf = assemble_analog(np.exp(1j * phases) / 2.0)
    w_rf = _identity_analog(m_b)
    v_bb = 0.5 * crandn(rng, 2, st)
    phi = -12.0
    est = build_estimated_channels(
        np.array([-31.0, 14.0, 40.0, phi]), 1e-2 * crandn(rng, m_b, n_b), _TOY_CONFIG
    )
    h_tilde_hat = w_rf.conj().T @ est.h_bb_hat @ v_rf
    h_tilde_true = h_tilde_hat if perfect_csi else h_tilde_hat + 1e-3 * crandn(rng, 6, 2)
    h_ul_eff = w_rf.conj().T @ est.h_ul_hat
    h_int_eff = w_rf.conj().T @ est.h_rad_int_hat
    if nulling:
        w_bb, errors = nsp_rx_combiner(h_ul_eff, h_int_eff)
        assert errors == (None,)
    else:
        w_bb = mss_rx_combiner(h_ul_eff)
    w_u = np.linalg.qr(crandn(rng, m_u, st))[0]
    v_u = crandn(rng, n_u)
    v_u *= np.sqrt(0.01) / np.linalg.norm(v_u)
    bf = HybridBeamformers(
        v_b_rf=v_rf, v_b_bb=v_bb, w_b_rf=w_rf, w_b_bb=w_bb, w_u=w_u, v_u_bb=v_u,
        h_tilde_hat=h_tilde_hat, analog_canceller=build_cancellers(h_tilde_hat, 6),
    )
    # the SI both cancellers leave, built the paper's way
    return bf, est, post_canceller_si(h_tilde_true, h_tilde_hat, 6)


def _radar(bf, est, resid, sigma2):
    """radar_sinr over the terms the pipeline forms once per design."""
    echo = bf.w_b_rf.conj().T @ est.h_rad_hat @ bf.v_b_rf @ bf.v_b_bb
    return radar_sinr(echo, resid @ bf.v_b_bb, bf.w_b_rf, sigma2)


def _ul(bf, est, resid, sigma2):
    """ul_sinr of the design's combiner over the terms the pipeline forms once per design."""
    w_h = bf.w_b_rf.conj().T
    echo = w_h @ est.h_rad_hat @ bf.v_b_rf @ bf.v_b_bb
    ul = w_h @ est.h_ul_hat @ bf.v_u_bb[:, None]
    return ul_sinr(bf.w_b_bb, ul, echo, resid @ bf.v_b_bb, sigma2)


def test_radar_sinr_perfect_csi_noise_limited():
    rng = np.random.default_rng(0)
    bf, est, resid = _toy_system(rng)
    sigma2 = 1e-9
    got = _radar(bf, est, resid, sigma2)
    num = np.linalg.norm(
        bf.w_b_rf.conj().T @ est.h_rad_hat @ bf.v_b_rf @ bf.v_b_bb
    ) ** 2
    # cancellers telescope, so only the noise term remains in the denominator
    expected = num / (np.linalg.norm(bf.w_b_rf) ** 2 * sigma2)
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_radar_sinr_zero_precoder():
    rng = np.random.default_rng(1)
    bf, est, resid = _toy_system(rng)
    bf = replace(bf, v_b_bb=np.zeros_like(bf.v_b_bb))
    assert _radar(bf, est, resid, 1e-9) == 0.0


def test_radar_sinr_matches_brute_force():
    rng = np.random.default_rng(2)
    bf, est, resid = _toy_system(rng, perfect_csi=False)
    sigma2 = 3e-8
    got = _radar(bf, est, resid, sigma2)
    w = bf.w_b_rf
    num = 0.0
    mat = w.conj().T @ est.h_rad_hat @ bf.v_b_rf @ bf.v_b_bb
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            num += abs(mat[i, j]) ** 2
    den = sum(abs(x) ** 2 for x in (resid @ bf.v_b_bb).ravel())
    den += sum(abs(x) ** 2 for x in w.ravel()) * sigma2
    np.testing.assert_allclose(got, num / den, rtol=1e-12)


def test_dl_snr_matched_rank_one_closed_form():
    # single chain pointed at the path, matched user combiner (zero padded to
    # two columns): gamma = P_b * M_u * N_b / sigma^2
    theta, m_u, n_b, p_b, sigma2 = 23.0, 3, 4, 2.0, 1e-6
    v_rf = assemble_analog(steering(n_b, theta)[None, :] / np.sqrt(n_b))
    v_bb = np.array([[np.sqrt(p_b)]])
    w_u = np.zeros((m_u, 2), dtype=complex)
    w_u[:, 0] = steering(m_u, theta) / np.sqrt(m_u)
    h_dl = np.outer(steering(m_u, theta), steering(n_b, theta).conj())
    got = dl_snr(w_u, h_dl, v_rf, v_bb, sigma2)
    np.testing.assert_allclose(got, p_b * m_u * n_b / sigma2, rtol=1e-10)


def test_dl_snr_zero_precoder_and_noise_scaling():
    rng = np.random.default_rng(3)
    bf, est, _ = _toy_system(rng)
    h_dl = crandn(rng, 4, 8)
    g1 = dl_snr(bf.w_u, h_dl, bf.v_b_rf, bf.v_b_bb, 1e-8)
    g2 = dl_snr(bf.w_u, h_dl, bf.v_b_rf, bf.v_b_bb, 2e-8)
    np.testing.assert_allclose(g1, 2.0 * g2, rtol=1e-12)
    assert dl_snr(bf.w_u, h_dl, bf.v_b_rf, np.zeros_like(bf.v_b_bb), 1e-8) == 0.0


def test_ul_sinr_nsp_denominator_is_self_echo_plus_noise():
    rng = np.random.default_rng(4)
    bf, est, resid = _toy_system(rng, nulling=True)
    sigma2 = 1e-9
    got = _ul(bf, est, resid, sigma2)
    w_eff = bf.w_b_rf @ bf.w_b_bb
    num = np.linalg.norm(w_eff.conj().T @ est.h_ul_hat @ bf.v_u_bb) ** 2
    # interference through the nulled subspace vanishes; the UL self echo
    # (the final rank-one term of the radar estimate) survives
    self_echo_channel = est.h_rad_hat - est.h_rad_int_hat
    self_echo = np.linalg.norm(
        w_eff.conj().T @ self_echo_channel @ bf.v_b_rf @ bf.v_b_bb
    ) ** 2
    np.testing.assert_allclose(got, num / (self_echo + sigma2), rtol=1e-6)


def test_ul_sinr_zero_ul_precoder():
    rng = np.random.default_rng(5)
    bf, est, resid = _toy_system(rng)
    bf = replace(bf, v_u_bb=np.zeros_like(bf.v_u_bb))
    assert _ul(bf, est, resid, 1e-9) == 0.0


def test_ul_sinr_matches_brute_force():
    rng = np.random.default_rng(6)
    bf, est, resid = _toy_system(rng, perfect_csi=False, nulling=False)
    sigma2 = 2e-9
    got = _ul(bf, est, resid, sigma2)
    w_eff = bf.w_b_rf @ bf.w_b_bb
    num = np.linalg.norm(w_eff.conj().T @ est.h_ul_hat @ bf.v_u_bb) ** 2
    radar = np.linalg.norm(
        w_eff.conj().T @ est.h_rad_hat @ bf.v_b_rf @ bf.v_b_bb
    ) ** 2
    si = np.linalg.norm(bf.w_b_bb.conj().T @ resid @ bf.v_b_bb) ** 2
    np.testing.assert_allclose(got, num / (radar + si + sigma2), rtol=1e-12)


def test_ideal_rate_rank_one():
    rng = np.random.default_rng(7)
    u = crandn(rng, 4)
    v = crandn(rng, 6)
    h = np.outer(u, v.conj())
    sigma_max = np.linalg.norm(u) * np.linalg.norm(v)
    p_b, sigma2 = 0.5, 1e-6
    got = ideal_dl_rate(h, p_b, sigma2, 1)
    np.testing.assert_allclose(got, np.log2(1 + p_b * sigma_max**2 / sigma2), rtol=1e-12)


def test_ideal_rate_zero_power():
    rng = np.random.default_rng(8)
    assert ideal_dl_rate(crandn(rng, 3, 3), 0.0, 1e-6, 2) == 0.0


def test_ideal_rate_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(9)
    h = crandn(rng, 4, 4)
    p_b, sigma2, st = 2.0, 1e-5, 3
    eig = np.sort(np.linalg.eigvalsh(h.conj().T @ h))[::-1]
    expected = sum(np.log2(1 + (p_b / st) * eig[i] / sigma2) for i in range(st))
    np.testing.assert_allclose(ideal_dl_rate(h, p_b, sigma2, st), expected, rtol=1e-10)


def test_proposed_rate_never_beats_ideal():
    # any combiner with unit columns and any precoder within the power budget
    rng = np.random.default_rng(10)
    p_b, sigma2, st = 1.0, 1e-7, 3
    for _ in range(40):
        h = crandn(rng, 4, 6)
        w_u = np.linalg.qr(crandn(rng, 4, st))[0]
        f = crandn(rng, 6, st)
        f *= np.sqrt(p_b) / np.linalg.norm(f)
        gamma = np.linalg.norm(w_u.conj().T @ h @ f) ** 2 / (
            np.linalg.norm(w_u) ** 2 * sigma2
        )
        assert np.log2(1 + gamma) <= ideal_dl_rate(h, p_b, sigma2, st) + 1e-9


def test_nsp_beats_mss_in_expectation():
    # restatement of the UL combiner comparison at the testable level:
    # averaged over random scenarios the nulling combiner wins
    rng = np.random.default_rng(11)
    gains_nsp, gains_mss = [], []
    for _ in range(100):
        bf_n, est, resid = _toy_system(rng, nulling=True)
        bf_m = replace(
            bf_n, w_b_bb=mss_rx_combiner(bf_n.w_b_rf.conj().T @ est.h_ul_hat))
        gains_nsp.append(_ul(bf_n, est, resid, 1e-9))
        gains_mss.append(_ul(bf_m, est, resid, 1e-9))
    assert np.mean(gains_nsp) >= np.mean(gains_mss)


def test_trial_record_rates_map_sinrs_through_log2():
    report = run_scenario(fast_profile(trials=2, seed=4))
    for trial in report.trials:
        m = trial["metrics"]
        for rate, gamma in (("rate_dl", "gamma_dl"), ("rate_ul_nsp", "gamma_ul_nsp"),
                            ("rate_ul_mss", "gamma_ul_mss")):
            assert m[gamma] > 0.0
            assert m[rate] == pytest.approx(np.log2(1.0 + m[gamma]), rel=1e-15, abs=0.0)
