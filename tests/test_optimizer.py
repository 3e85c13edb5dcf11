import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import nnls

from fdisac.arrays import dft_codebook
from fdisac.beamforming import assemble_analog, tx_power
from fdisac.config import ScenarioConfig, TargetSpec, fast_profile
from fdisac.errors import DegenerateCombinerError, InfeasibleResultError
from fdisac.optimizer import (
    build_estimated_channels,
    mss_rx_combiner,
    nsp_rx_combiner,
    numeric_tx_precoder,
    power_normalize,
    run_algorithm1,
    select_rx_analog,
    select_tx_analog,
    user_beamformers,
)
from fdisac.runner import _within_budget, run_scenario
from oracles import crandn, steering


# ------------------------------------------------------------- analog search


def test_tx_analog_single_target_matched_beam():
    cb = dft_codebook(8, 3)
    grid_angle = float(np.degrees(np.arcsin(-1 + 2 * 6 / 8)))
    h = np.outer(steering(4, grid_angle), steering(8, grid_angle).conj())
    bf = select_tx_analog(h, cb)
    np.testing.assert_array_equal(bf, assemble_analog(cb[[6]]))


def test_tx_analog_zero_channel_tie_breaks_to_first():
    cb = dft_codebook(4, 2)
    bf = select_tx_analog(np.zeros((3, 8)), cb)
    np.testing.assert_array_equal(bf, assemble_analog(cb[[0, 0]]))


def test_tx_analog_per_chain_equals_joint_search():
    # brute-force joint search oracle over all codebook pairs
    rng = np.random.default_rng(0)
    cb = dft_codebook(4, 2)
    h = crandn(rng, 5, 8)
    bf = select_tx_analog(h, cb)

    def joint_objective(i, j):
        cols = np.zeros((8, 2), dtype=complex)
        cols[:4, 0] = cb[i]
        cols[4:, 1] = cb[j]
        return np.linalg.norm(h @ cols) ** 2

    best = max(itertools.product(range(4), range(4)), key=lambda ij: joint_objective(*ij))
    np.testing.assert_array_equal(bf, assemble_analog(cb[list(best)]))


def test_rx_analog_zero_si_reduces_to_gain_search():
    rng = np.random.default_rng(1)
    cb = dft_codebook(4, 3)
    v_rf = select_tx_analog(crandn(rng, 8, 8), dft_codebook(4, 3))
    h_rad = crandn(rng, 8, 8)
    w = select_rx_analog(h_rad, np.zeros((8, 8)), v_rf, cb)
    # oracle: per-chain numerator-only maximization
    eff = h_rad @ v_rf
    for j in range(2):
        block = eff[4 * j : 4 * (j + 1)]
        scores = np.linalg.norm(cb.conj() @ block, axis=1) ** 2
        np.testing.assert_array_equal(w[4 * j : 4 * (j + 1), j], cb[int(np.argmax(scores))])


def test_rx_analog_orthogonal_geometry_prefers_radar():
    # critically sampled codebook: grid beams are orthogonal, so pointing at
    # the radar direction makes the SI denominator exactly zero
    cb = dft_codebook(8, 3)
    radar_angle = float(np.degrees(np.arcsin(-1 + 2 * 5 / 8)))
    si_angle = float(np.degrees(np.arcsin(-1 + 2 * 2 / 8)))
    h_rad = np.outer(steering(8, radar_angle), steering(8, radar_angle).conj())
    h_si = np.outer(steering(8, si_angle), steering(8, si_angle).conj())
    v_rf = select_tx_analog(h_rad, cb)
    w = select_rx_analog(h_rad, h_si, v_rf, cb)
    np.testing.assert_array_equal(w, assemble_analog(cb[[5]]))
    denom = np.linalg.norm(w.conj().T @ h_si @ v_rf)
    assert denom < 1e-10


def test_tx_analog_objective_monotone_in_codebook_bits():
    # the sin-space grids nest, so more bits can never lose gain
    rng = np.random.default_rng(100)
    h = crandn(rng, 6, 8)
    prev = -1.0
    for bits in (1, 2, 3, 4, 5):
        bf = select_tx_analog(h, dft_codebook(4, bits))
        gain = np.linalg.norm(h @ bf) ** 2
        assert gain >= prev - 1e-12
        prev = gain


def test_rx_analog_local_optimality_per_chain():
    # swapping any single chain's beam never improves that chain's ratio
    rng = np.random.default_rng(101)
    cb = dft_codebook(4, 3)
    v_rf = select_tx_analog(crandn(rng, 8, 8), cb)
    h_rad, h_si = crandn(rng, 8, 8), crandn(rng, 8, 8)
    w = select_rx_analog(h_rad, h_si, v_rf, cb)
    radar_eff = h_rad @ v_rf
    si_eff = h_si @ v_rf

    def chain_ratio(j, vec):
        rows = slice(4 * j, 4 * (j + 1))
        num = np.linalg.norm(vec.conj() @ radar_eff[rows]) ** 2
        den = np.linalg.norm(vec.conj() @ si_eff[rows]) ** 2
        return num / (den + 1e-12)

    for j in range(2):
        best = chain_ratio(j, w[4 * j : 4 * (j + 1), j])
        for cand in cb:
            assert chain_ratio(j, cand) <= best * (1 + 1e-12)


def test_tx_analog_chain_count_comes_from_the_channel():
    cb = dft_codebook(4, 2)
    assert select_tx_analog(np.ones((2, 12)), cb).shape == (12, 3)


def test_rx_analog_single_chain_matches_brute_force():
    rng = np.random.default_rng(2)
    cb = dft_codebook(4, 2)
    v_rf = select_tx_analog(crandn(rng, 4, 4), dft_codebook(4, 2))
    h_rad, h_si = crandn(rng, 4, 4), crandn(rng, 4, 4)
    w = select_rx_analog(h_rad, h_si, v_rf, cb)
    ratios = []
    for i in range(len(cb)):
        num = np.linalg.norm(cb[i].conj() @ h_rad @ v_rf) ** 2
        den = np.linalg.norm(cb[i].conj() @ h_si @ v_rf) ** 2
        ratios.append(num / (den + 1e-12))
    np.testing.assert_array_equal(w, assemble_analog(cb[[int(np.argmax(ratios))]]))


# ------------------------------------------------------- TX digital precoder


def _random_precoder_instance(rng, m_u=4, n_rf=3, st=2, t_scale=1.0):
    h = crandn(rng, m_u, n_rf)
    g = crandn(rng, m_u, st)
    t1 = t_scale * crandn(rng, n_rf)
    return h, g, t1


def _closed_form_multiplier(h, t1, lam, g):
    """Sherman-Morrison multiplier of the one-row problem (full-column-rank H).

    With s = t1^H (H^H H)^{-1} t1 the constraint reads
    ||V_ls^H t1|| / (1 + z s) = sqrt(lam), so z = max(||V_ls^H t1|| / sqrt(lam) - 1, 0) / s.
    """
    normal = h.conj().T @ h
    v_ls = np.linalg.solve(normal, h.conj().T @ g)
    s_quad = float(np.real(t1.conj() @ np.linalg.solve(normal, t1)))
    return max(np.linalg.norm(t1.conj() @ v_ls) / np.sqrt(lam) - 1.0, 0.0) / s_quad


def _closed_form_precoder(h, t1, lam, g):
    zeta = _closed_form_multiplier(h, t1, lam, g)
    return np.linalg.solve(h.conj().T @ h + zeta * np.outer(t1, t1.conj()), h.conj().T @ g), zeta


def _assert_kkt(h, t_rows, lam, g, v, zeta):
    """Feasibility, dual feasibility, complementary slackness, stationarity.

    Slackness is zeta_r |c_r - lam| <= 1e-8 lam for zeta_r <= 1 and the row
    is tight to 1e-8 otherwise: c_r carries a rounding error of about
    eps * cond * lam, so the absolute product has a floor that grows with zeta_r.
    """
    rows = np.atleast_2d(t_rows).conj()
    leak = np.linalg.norm(rows @ v, axis=1) ** 2
    rhs = h.conj().T @ g
    assert leak.max() <= lam * (1 + 1e-9)
    assert zeta.min() >= 0.0
    assert np.all(zeta * np.abs(leak - lam) <= 1e-8 * lam * np.maximum(zeta, 1.0))
    grad = h.conj().T @ (h @ v) - rhs + rows.conj().T @ (zeta[:, None] * (rows @ v))
    assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(rhs)


def test_lagrangian_no_leakage_is_least_squares():
    rng = np.random.default_rng(3)
    h, g, _ = _random_precoder_instance(rng)
    v = numeric_tx_precoder(h, np.zeros(3), 1.0, g)
    expected = np.linalg.lstsq(h, g, rcond=None)[0]
    np.testing.assert_allclose(v, expected, atol=1e-10)


def test_lagrangian_inactive_constraint_clamps_to_zero():
    rng = np.random.default_rng(4)
    h, g, t1 = _random_precoder_instance(rng, t_scale=1e-6)
    v, info = numeric_tx_precoder(h, t1, 1.0, g, return_info=True)
    assert not any(info["errors"])
    unconstrained = np.linalg.lstsq(h, g, rcond=None)[0]
    np.testing.assert_allclose(v, unconstrained, atol=1e-10)
    assert np.linalg.norm(t1.conj() @ v) ** 2 <= 1.0
    assert info["multipliers"].tolist() == [0.0]


def test_lagrangian_active_constraint_against_numeric_oracle():
    # closed-form oracle: same instance solved by Sherman-Morrison
    rng = np.random.default_rng(5)
    h = crandn(rng, 4, 3)
    g = 3.0 * crandn(rng, 4, 3)
    t1 = crandn(rng, 3)
    lam = 1e-4
    v_cf, zeta_cf = _closed_form_precoder(h, t1, lam, g)
    v_num, info = numeric_tx_precoder(h, t1[None, :], lam, g, return_info=True)
    assert not any(info["errors"])
    np.testing.assert_allclose(v_num, v_cf, rtol=0, atol=1e-9 * np.linalg.norm(v_cf))
    assert info["multipliers"][0] == pytest.approx(zeta_cf, rel=1e-9)
    assert (info["multipliers"] > 0).tolist() == [True]
    leak = np.linalg.norm(t1.conj() @ v_num) ** 2
    assert abs(leak - lam) <= 1e-9 * lam  # constraint active and tight


def test_lagrangian_kkt_conditions():
    rng = np.random.default_rng(6)
    for _ in range(25):
        h = crandn(rng, 5, 4)
        g = 2.0 * crandn(rng, 5, 3)
        t1 = crandn(rng, 4) * rng.uniform(0.1, 3.0)
        lam = 10.0 ** rng.uniform(-5, 0)
        v, info = numeric_tx_precoder(h, t1, lam, g, return_info=True)
        assert not any(info["errors"])
        zeta = info["multipliers"]
        assert zeta[0] == pytest.approx(_closed_form_multiplier(h, t1, lam, g), rel=1e-9, abs=0.0)
        _assert_kkt(h, t1, lam, g, v, zeta)
        leak = np.linalg.norm(t1.conj() @ v) ** 2
        assert abs(zeta[0] * (leak - lam)) <= 1e-8 * lam
        assert info["kkt_residual"] <= 1e-9


def test_lagrangian_singular_normal_matrix():
    # second column zero -> singular normal matrix; the leakage row lets the
    # null direction cancel the leakage, so every point with v0 = the least
    # squares value and |v0 + v1| <= 10 sqrt(lam) is optimal: the answer is
    # the minimum-norm one, v1 = -v0 (1 - 10 sqrt(lam) / |v0|)
    h = np.zeros((3, 2), dtype=complex)
    h[:, 0] = [1.0, 1.0j, 0.0]
    g = np.ones((3, 1), dtype=complex)
    lam = 1e-3
    v, info = numeric_tx_precoder(h, np.array([0.1, 0.1]), lam, g, return_info=True)
    assert not any(info["errors"])
    v0 = (1.0 - 1.0j) / 2.0
    expected = np.array([[v0], [-v0 * (1.0 - 10.0 * np.sqrt(lam) / abs(v0))]])
    np.testing.assert_allclose(v, expected, rtol=0, atol=1e-8)
    assert np.linalg.norm(h @ v - g) ** 2 == pytest.approx(2.0)  # the least-squares residual
    assert info["kkt_residual"] <= 1e-9


def test_numeric_single_chain_agrees_with_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = crandn(rng, 5, 4)
        g = rng.uniform(0.5, 4.0) * crandn(rng, 5, 2)
        t1 = crandn(rng, 4)
        lam = 10.0 ** rng.uniform(-4, -1)
        v_cf, _ = _closed_form_precoder(h, t1, lam, g)
        v_num = numeric_tx_precoder(h, t1[None, :], lam, g)
        obj_cf = np.linalg.norm(h @ v_cf - g) ** 2
        obj_num = np.linalg.norm(h @ v_num - g) ** 2
        assert abs(obj_cf - obj_num) <= 1e-9 * max(obj_num, 1e-12)


@pytest.mark.parametrize("twin", [0.0, 1e-12])
def test_numeric_repeated_rows_take_the_least_squares_step(monkeypatch, twin):
    # the single row of the closed-form instances, twice (the copy turned by
    # ``twin`` radians): the Newton system on the two free rows is singular
    # (exact copy) or singular below the 1e-14 eigenvalue cutoff (near copy),
    # so each step is the minimum-norm one and V is still the
    # Sherman-Morrison closed form
    import fdisac.optimizer as optimizer

    newton_step = optimizer._newton_step
    ratios = []

    def recorded(hess, d):
        if len(d) == 2:
            eig = np.abs(np.linalg.eigvalsh(hess))
            ratios.append(eig.min() / eig.max())
        return newton_step(hess, d)

    monkeypatch.setattr(optimizer, "_newton_step", recorded)
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = crandn(rng, 5, 4)
        g = rng.uniform(0.5, 4.0) * crandn(rng, 5, 2)
        t1 = crandn(rng, 4)
        lam = 10.0 ** rng.uniform(-4, -1)
        v_cf, _ = _closed_form_precoder(h, t1, lam, g)
        ratios.clear()
        t_rows = np.stack([t1, t1 * np.exp(1j * twin)])
        v_num, info = numeric_tx_precoder(h, t_rows, lam, g, return_info=True)
        assert not any(info["errors"])
        np.testing.assert_allclose(v_num, v_cf, rtol=0, atol=1e-9 * np.linalg.norm(v_cf))
        assert ratios and max(ratios) <= 1e-14  # every two-row Newton system was singular
        assert (info["multipliers"] > 0).tolist() == [True, True]
        assert info["kkt_residual"] <= 1e-9


def _mixed_precoder_stack(rng, infeasible):
    """Six 3x2 problems with lambda = 1e-3, on leading axes (2, 3): rows that
    never bind (zeta = 0), rows that bind, and with ``infeasible`` at index
    (1, 0) the singular-normal-matrix instance of
    test_lagrangian_singular_normal_matrix with a target so large that the
    rounding bound of its leakage exceeds the final guard."""
    h = crandn(rng, 6, 3, 2)
    g = 2.0 * crandn(rng, 6, 3, 1)
    t_rows = crandn(rng, 6, 1, 2)
    t_rows[[0, 4]] *= 1e-6  # no row binds
    if infeasible:
        h[3] = [[1.0, 0.0], [1.0j, 0.0], [0.0, 0.0]]
        g[3] = 1e6
        t_rows[3] = 0.1
    return h.reshape(2, 3, 3, 2), t_rows.reshape(2, 3, 1, 2), 1e-3, g.reshape(2, 3, 3, 1)


def test_precoder_stack_equals_per_matrix_calls():
    h, t_rows, lam, g = _mixed_precoder_stack(np.random.default_rng(30), infeasible=False)
    v, info = numeric_tx_precoder(h, t_rows, lam, g, return_info=True)
    assert not any(info["errors"])
    assert v.shape == (2, 3, 2, 1) and info["multipliers"].shape == (2, 3, 1)
    assert info["kkt_residual"].shape == (2, 3)
    iterations = 0
    for idx in np.ndindex(2, 3):
        v_i, info_i = numeric_tx_precoder(h[idx], t_rows[idx], lam, g[idx], return_info=True)
        assert not any(info_i["errors"])
        np.testing.assert_allclose(v[idx], v_i, rtol=0, atol=1e-12 * np.linalg.norm(v_i))
        np.testing.assert_allclose(info["multipliers"][idx], info_i["multipliers"], rtol=1e-12)
        assert info["kkt_residual"][idx] <= 1e-9
        iterations += info_i["iterations"]
    assert info["iterations"] == iterations
    # the stack holds both kinds: no row binds at (0, 0), rows bind elsewhere
    assert not (info["multipliers"] > 0)[0, 0].any() and (info["multipliers"] > 0).any()


def test_precoder_stack_failure_fails_only_its_problem():
    h, t_rows, lam, g = _mixed_precoder_stack(np.random.default_rng(30), infeasible=True)
    v, info = numeric_tx_precoder(h, t_rows, lam, g, return_info=True)
    assert [e is None for e in info["errors"]] == [True, True, True, False, True, True]
    assert isinstance(info["errors"][3], InfeasibleResultError)
    with pytest.raises(InfeasibleResultError) as one:
        numeric_tx_precoder(h[1, 0], t_rows[1, 0], lam, g[1, 0])
    assert str(info["errors"][3]) == str(one.value)
    # a plain call on the stack raises the failed problem's message
    with pytest.raises(InfeasibleResultError) as stack:
        numeric_tx_precoder(h, t_rows, lam, g)
    assert str(stack.value) == str(one.value)
    assert str(one.value).startswith("leakage ") and str(one.value).endswith(" solves")
    # the message tells a dynamic-range failure from a loop that did not converge:
    # the leakage sits at the threshold, and the guard's rounding bound above the 1e-9 guard
    pattern = (r"leakage (\S+) x threshold \((\S+) x in the Newton basis; "
               r"guard's sums round within (\S+) x\) after \d+ solves")
    leak, loop, bound = re.fullmatch(pattern, str(one.value)).groups()
    assert float(leak) == pytest.approx(1.0, abs=1e-8) and float(bound) > 1e-9
    assert float(loop) == pytest.approx(1.0, abs=1e-8)
    assert not v[1, 0].any()
    for idx in np.ndindex(2, 3):
        if idx != (1, 0):
            v_i = numeric_tx_precoder(h[idx], t_rows[idx], lam, g[idx])
            np.testing.assert_allclose(v[idx], v_i, rtol=0, atol=1e-12 * np.linalg.norm(v_i))


def test_precoder_kkt_holds_in_the_pipeline_with_many_active_rows(monkeypatch):
    # 55 dBm with no analog taps: six to eight of the eight leakage rows bind
    # in every trial, and the pipeline's own precoder calls meet the KKT
    # conditions, which each trial records
    import fdisac.optimizer as optimizer

    solve = optimizer.numeric_tx_precoder
    infos = []

    def recorded(*args, **kwargs):
        v, info = solve(*args, **kwargs)
        infos.append(info)
        return v, info

    monkeypatch.setattr(optimizer, "numeric_tx_precoder", recorded)
    cfg = fast_profile(tx_power_dbm=55.0, analog_taps=0, trials=5, seed=0)
    report = run_scenario(cfg)
    assert report.aggregate["n_failed"] == 0
    kkt = np.concatenate([np.ravel(i["kkt_residual"]) for i in infos])
    active = np.concatenate([i["multipliers"].reshape(-1, cfg.rx_rf_chains) for i in infos]) > 0
    assert kkt.shape == (cfg.trials,) and active.shape == (cfg.trials, 8)
    assert kkt.max() <= 1e-8
    assert [t["precoder_kkt_residual"] for t in report.trials] == kkt.tolist()
    assert report.aggregate["max_precoder_kkt_residual"] == kkt.max()
    assert active.sum(axis=1).min() >= 6


def test_precoder_completes_the_config_whose_newton_loop_stalled():
    # a Newton step too small for the dual value to rank once ended the loop
    # at 1.21 x threshold after 31 solves, failing trial 1
    cfg = fast_profile(trials=4, seed=74, tx_power_dbm=100, si_pathloss_db=40, csi_nmse_db=0,
                       si_kappa_db=100, codebook_bits=2)
    assert run_scenario(cfg).aggregate["n_failed"] == 0


@pytest.mark.parametrize("tx_power_dbm", [55.0, 70.0])
def test_precoder_completes_every_trial_with_more_leakage_rows_than_tx_chains(tx_power_dbm):
    # eight leakage rows on two TX chains: the dual's Hessian is singular
    cfg = fast_profile(trials=40, seed=5, tx_rf_chains=2, tx_power_dbm=tx_power_dbm, analog_taps=0)
    assert run_scenario(cfg).aggregate["n_failed"] == 0


@pytest.mark.parametrize("tx_power_dbm", [55.0, 70.0])
def test_precoder_completes_every_trial_with_one_tx_chain(tx_power_dbm):
    # one TX chain makes every leakage row the same scalar constraint up to
    # scale; the dual on all eight rows (a rank-one Hessian) failed 20 and 26
    # of these 40 trials, the dual on the largest row fails none
    cfg = fast_profile(trials=40, seed=5, tx_rf_chains=1, tx_power_dbm=tx_power_dbm, analog_taps=0)
    report = run_scenario(cfg)
    assert report.aggregate["n_failed"] == 0
    assert report.aggregate["max_precoder_kkt_residual"] <= 1e-8


def test_one_tx_chain_precoder_binds_only_its_largest_row():
    # seven rows on one TX chain; the dual on all of them stopped at 1.015 x
    # threshold on this instance, the dual on the largest is its closed form
    h, t_rows, lam, g = _any_shape_instance(34)
    assert h.shape[1] == 1 and len(t_rows) == 7
    largest = int(np.abs(t_rows[:, 0]).argmax())
    v, info = numeric_tx_precoder(h, t_rows, lam, g, return_info=True)
    assert not any(info["errors"])
    assert (info["multipliers"] > 0).tolist() == [r == largest for r in range(7)]
    _assert_kkt(h, t_rows, lam, g, v, info["multipliers"])
    v_cf, zeta_cf = _closed_form_precoder(h, t_rows[largest], lam, g)
    np.testing.assert_allclose(v, v_cf, rtol=0, atol=1e-9 * np.linalg.norm(v_cf))
    assert info["multipliers"][largest] == pytest.approx(zeta_cf, rel=1e-9)


def test_numeric_infinite_threshold_is_least_squares():
    rng = np.random.default_rng(8)
    h, g, t1 = _random_precoder_instance(rng)
    v = numeric_tx_precoder(h, t1[None, :], np.inf, g)
    np.testing.assert_allclose(v, np.linalg.lstsq(h, g, rcond=None)[0], atol=1e-10)


def test_numeric_zero_target_returns_zero():
    rng = np.random.default_rng(9)
    h = crandn(rng, 4, 3)
    t1 = crandn(rng, 3)
    v = numeric_tx_precoder(h, t1[None, :], 1e-3, np.zeros((4, 2)))
    np.testing.assert_allclose(v, 0.0, atol=1e-8)


def test_numeric_multi_constraint_feasible_and_monotone():
    # KKT at every threshold, and the optimal objective never rises as the
    # threshold is relaxed
    rng = np.random.default_rng(10)
    h = crandn(rng, 6, 5)
    g = 2.0 * crandn(rng, 6, 3)
    t_rows = crandn(rng, 3, 5)
    objectives = []
    for lam in (1e-4, 1e-3, 1e-2, 1e-1, np.inf):
        v, info = numeric_tx_precoder(h, t_rows, lam, g, return_info=True)
        assert not any(info["errors"])
        assert info["iterations"] >= 1
        if np.isfinite(lam):
            _assert_kkt(h, t_rows, lam, g, v, info["multipliers"])
        objectives.append(np.linalg.norm(h @ v - g) ** 2)
    assert np.all(np.diff(objectives) <= 1e-9 * objectives[0])
    assert objectives[0] > objectives[-1]  # the tightest threshold binds


def test_precoder_degenerate_face_returns_min_norm():
    # H is 4x8 of rank 2 and the leakage set contains a point with H V = G,
    # so the optima form a face; the solver returns its minimum-norm point
    rng = np.random.default_rng(22)
    h = crandn(rng, 4, 2) @ crandn(rng, 2, 8)
    t_rows = crandn(rng, 8, 8)
    _, _, vh = np.linalg.svd(h)
    null = vh[2:].conj().T  # orthonormal basis of null(H), 8x6
    rows = t_rows.conj()
    v_min = vh[:2].conj().T @ crandn(rng, 2, 3)  # minimum-norm solution of H V = G
    g = h @ v_min
    # a point of {H V = G} with less total leakage, and a threshold between
    # its worst row and the minimum-norm point's worst row
    v_star = v_min - null @ np.linalg.lstsq(rows @ null, rows @ v_min, rcond=None)[0]
    worst_star, worst_min = (np.max(np.linalg.norm(rows @ x, axis=1) ** 2) for x in (v_star, v_min))
    lam = float(np.sqrt(worst_star * worst_min))
    assert worst_star < lam < worst_min
    v = numeric_tx_precoder(h, t_rows, lam, g)

    assert np.linalg.norm(h @ v - g) ** 2 <= 1e-12 * np.linalg.norm(g) ** 2
    leak = np.linalg.norm(rows @ v, axis=1) ** 2
    assert leak.max() <= lam
    assert np.linalg.norm(v) < np.linalg.norm(v_star)
    # KKT of min ||V||^2 s.t. H V = H V*, leakage rows: the null-space part
    # of V + sum_r mu_r t_r t_r^H V vanishes for some mu >= 0 on tight rows
    tight = leak >= lam * (1 - 1e-6)
    assert tight.any()
    proj = null @ null.conj().T
    cols = [(proj @ np.outer(rows[r].conj(), rows[r] @ v)).ravel() for r in np.flatnonzero(tight)]
    system = np.stack(cols, axis=1)
    target = -(proj @ v).ravel()
    _, resid = nnls(
        np.vstack([system.real, system.imag]), np.concatenate([target.real, target.imag])
    )
    assert resid <= 1e-9 * np.linalg.norm(proj @ v)


_PRECODER_KINDS = ("rank_deficient", "zero_rows", "all_inactive", "all_active", "one_row")


def _all_active_instance(rng, h, lam):
    """G, V* and zeta* > 0 meeting the KKT conditions with all 8 rows tight.

    With T invertible, W = diag(zeta)^{-1} T^{-H} H^H Y and V* = T^{-1} W give
    sum_r zeta_r t_r t_r^H V* = H^H Y, so G = H V* + Y makes V* stationary;
    zeta_r scales row r of W to norm sqrt(lam). The normal matrix plus the
    leakage term is then positive definite, so V* is the unique optimum.
    """
    t_rows = crandn(rng, 8, 8)
    rows = t_rows.conj()
    y = crandn(rng, h.shape[0], 3)
    m = np.linalg.solve(rows.conj().T, h.conj().T @ y)
    zeta = np.linalg.norm(m, axis=1) / np.sqrt(lam)
    v_star = np.linalg.solve(rows, m / zeta[:, None])
    return t_rows, h @ v_star + y, v_star, zeta


def _check_precoder_kkt(kind, seed):
    """Solve the ``kind`` instance drawn from ``seed`` and check its KKT conditions."""
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, 4))
    if kind == "one_row":
        h = crandn(rng, 5, 4)  # full column rank: the closed form exists
    else:
        h = crandn(rng, 4, rank) @ crandn(rng, rank, 8)
    n_rf = h.shape[1]
    if kind == "all_active":
        lam = 10.0 ** rng.uniform(-3.0, 0.0)
        t_rows, g, v_star, zeta_star = _all_active_instance(rng, h, lam)
    else:
        g = h @ crandn(rng, n_rf, 3)
        n_rows = 1 if kind == "one_row" else int(rng.integers(2, 9))
        t_rows = crandn(rng, n_rows, n_rf)
        if kind == "zero_rows":
            t_rows[rng.random(n_rows) < 0.5] = 0.0  # rows a full tap set cancels
            t_rows[0] = 0.0
        v_ls = np.linalg.lstsq(h, g, rcond=None)[0]
        leak_ls = np.linalg.norm(t_rows.conj() @ v_ls, axis=1) ** 2
        if kind == "all_inactive":
            lam = float(leak_ls.max()) * rng.uniform(1.01, 10.0)
        else:
            lam = float(max(leak_ls.max(), 1e-3)) * 10.0 ** rng.uniform(-2.0, 0.0)
    v, info = numeric_tx_precoder(h, t_rows, lam, g, return_info=True)
    assert not any(info["errors"])
    zeta = info["multipliers"]
    _assert_kkt(h, t_rows, lam, g, v, zeta)
    assert info["kkt_residual"] <= 1e-8
    if kind == "zero_rows":
        assert np.all(zeta[np.linalg.norm(t_rows, axis=1) == 0.0] == 0.0)
    if kind == "all_inactive":
        assert not (info["multipliers"] > 0).any()
        np.testing.assert_allclose(v, v_ls, rtol=0, atol=1e-9 * np.linalg.norm(v_ls))
    if kind == "all_active":
        assert (info["multipliers"] > 0).all()
        np.testing.assert_allclose(v, v_star, rtol=0, atol=1e-6 * np.linalg.norm(v_star))
    if kind == "one_row":
        assert zeta[0] == pytest.approx(_closed_form_multiplier(h, t_rows[0], lam, g), rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_PRECODER_KINDS), st.integers(0, 2**32 - 1))
def test_precoder_kkt_property(kind, seed):
    _check_precoder_kkt(kind, seed)


# with zero leakage rows in the Newton loop these draws ended 1.3e-8 to 5.0e-7 above
# the threshold after 94-228 solves; a zero row never binds, so it stays out
@pytest.mark.parametrize("seed", [2868, 4305, 4473, 158370])
def test_precoder_keeps_zero_rows_out_of_the_newton_loop(seed):
    _check_precoder_kkt("zero_rows", seed)


def _any_shape_instance(seed):
    """H of 2-5 x 1-8 and rank 1-3, 1-8 leakage rows (30 % with a repeated
    row), lambda_b from 1e-6 to 1: shapes with more rows than TX chains."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 6)), int(rng.integers(1, 9))
    rank = min(int(rng.integers(1, 4)), m, n)
    h = crandn(rng, m, rank) @ crandn(rng, rank, n)
    n_rows = int(rng.integers(1, 9))
    t_rows = crandn(rng, n_rows, n)
    if n_rows > 1 and rng.random() < 0.3:
        t_rows[-1] = t_rows[0]
    lam = 10.0 ** rng.uniform(-6.0, 0.0)
    return h, t_rows, lam, h @ crandn(rng, n, min(3, m))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
# rows outnumber chains: a stop short of the optimum once returned these
# feasible and silent, with KKT residuals of 1.6e-2 to 1.0e-1
@example(91)
@example(250)
@example(518)
@example(534)
@example(30848)  # found by a local example database, which CI does not keep
# five active rows on a 3x8 H: the null(H) ridge alone once left a silent
# stationarity residual of 1.03e-8 here
@example(8662131)
def test_precoder_reaches_kkt_or_fails_loudly_on_any_shape(seed):
    h, t_rows, lam, g = _any_shape_instance(seed)
    v, info = numeric_tx_precoder(h, t_rows, lam, g, return_info=True)
    if info["errors"][0] is not None:
        # only a singular dual (more rows than two or more TX chains) may fail, and loudly
        assert len(t_rows) > h.shape[1] >= 2
        assert not v.any()
        with pytest.raises(InfeasibleResultError, match=re.escape(str(info["errors"][0]))):
            numeric_tx_precoder(h, t_rows, lam, g)
        return
    _assert_kkt(h, t_rows, lam, g, v, info["multipliers"])
    assert info["kkt_residual"] <= 1e-8


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("m_u, n_rf, rank, n_rows", [(5, 5, 5, 1), (4, 8, 2, 8)],
                         ids=["closed_form", "multi_chain"])
def test_precoder_kkt_on_a_stack_of_random_instances(seed, m_u, n_rf, rank, n_rows):
    # 20 instances solved as one stack: one row on a full-rank channel, where
    # the closed form exists, and eight rows on a rank-2 4x8 channel, the
    # pipeline's shape
    rng = np.random.default_rng([seed, 7151, n_rows])
    draws = [(crandn(rng, m_u, rank) @ crandn(rng, rank, n_rf), crandn(rng, n_rows, n_rf) * 0.05)
             for _ in range(20)]
    h, t_rows = (np.stack(a) for a in zip(*draws))
    _, _, vh = np.linalg.svd(h, full_matrices=False)
    g = h @ np.swapaxes(vh, -1, -2).conj()[..., :3]
    _, info = numeric_tx_precoder(h, t_rows, 1e-3, g, return_info=True)
    assert not any(info["errors"])
    assert info["kkt_residual"].shape == (20,) and (info["multipliers"] > 0).any()
    assert info["kkt_residual"].max() <= 1e-6


# ---------------------------------------------------------- power normalize


def _unit_modulus_bf(rng, n_chains=2, n_a=4):
    from fdisac.beamforming import assemble_analog

    phases = rng.uniform(0, 2 * np.pi, (n_chains, n_a))
    return assemble_analog(np.exp(1j * phases) / np.sqrt(n_a))


def _column_power(bf, v):
    return np.linalg.norm(bf @ v, axis=-2) ** 2


def test_power_normalize_compliant_untouched():
    rng = np.random.default_rng(11)
    bf = _unit_modulus_bf(rng)
    v = 0.1 * crandn(rng, 2, 2)
    out = power_normalize(bf, v, 10.0)
    assert out.tobytes() == v.tobytes()  # scaled by 1, bit identical


def test_power_normalize_scales_single_column():
    # column 0 carries 4 p_b and is capped at p_b; column 1's 0.25 p_b then
    # leaves 1.25 p_b in total, which the total scaling brings to p_b
    rng = np.random.default_rng(12)
    bf = _unit_modulus_bf(rng)
    p_b = 1.0
    v = np.zeros((2, 2), dtype=complex)
    v[0, 0] = 2.0 * np.sqrt(p_b)
    v[1, 1] = 0.5
    out = power_normalize(bf, v, p_b)
    np.testing.assert_allclose(out[0, 0], np.sqrt(p_b / 1.25), rtol=1e-12)
    np.testing.assert_allclose(out[:, 1], v[:, 1] / np.sqrt(1.25), rtol=1e-12)
    np.testing.assert_allclose(tx_power(bf, out), p_b, rtol=1e-12)


def test_power_normalize_postcondition_on_random_violation():
    rng = np.random.default_rng(13)
    bf = _unit_modulus_bf(rng, n_chains=3, n_a=2)
    v = 5.0 * crandn(rng, 3, 4)
    p_b = 0.7
    out = power_normalize(bf, v, p_b)
    before = _column_power(bf, v)
    # the column-capped stage, then the total scaling of its 4 columns
    capped = v * np.sqrt(p_b / np.maximum(before, p_b))
    assert (before > p_b).any() and tx_power(bf, capped) > p_b
    np.testing.assert_allclose(out, capped * np.sqrt(p_b / tx_power(bf, capped)), rtol=1e-12)
    np.testing.assert_allclose(tx_power(bf, out), p_b, rtol=1e-12)


def test_power_normalize_zero_budget_gives_zeros():
    # a silent base station: a zero column beside a nonzero one is no 0 / 0
    bf = _unit_modulus_bf(np.random.default_rng(14))
    v = np.array([[0.0, 1.0], [0.0, 1.0j]])
    out = power_normalize(bf, v, 0.0)
    assert out.tolist() == [[0.0, 0.0], [0.0, 0.0]]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(0)  # found by a local example database, which CI does not keep
def test_power_normalize_property_on_random_stacks(seed):
    # a stack with compliant designs, designs over budget only in total and
    # designs with columns over budget: every column and total ends within
    # the budget, a compliant design comes back bit for bit, and every
    # column is only scaled down
    rng = np.random.default_rng(seed)
    n_chains, n_a, n_streams = (int(x) for x in rng.integers(1, 5, 3))
    lead = tuple(int(x) for x in rng.integers(1, 4, int(rng.integers(1, 3))))
    bf = np.stack([_unit_modulus_bf(rng, n_chains, n_a) for _ in range(np.prod(lead))])
    bf = bf.reshape(lead + bf.shape[1:])
    p_b = 10.0 ** rng.uniform(-3.0, 3.0)
    v = crandn(rng, *lead, n_chains, n_streams)
    v *= np.sqrt(p_b * 10.0 ** rng.uniform(-1.5, 1.0, lead + (1, n_streams))
                 / _column_power(bf, v)[..., None, :])
    out = power_normalize(bf, v, p_b)
    assert (_column_power(bf, out) <= p_b * (1 + 1e-12)).all()
    assert (tx_power(bf, out) <= p_b * (1 + 1e-12)).all()
    compliant = (_column_power(bf, v) <= p_b).all(axis=-1) & (tx_power(bf, v) <= p_b)
    assert out[compliant].tobytes() == v[compliant].tobytes()
    ratio = out / v
    assert np.all(np.abs(ratio.imag) <= 1e-15) and np.all((ratio.real > 0) & (ratio.real <= 1))


# -------------------------------------------------------------- RX combiners


def test_nsp_already_orthogonal_passthrough():
    h_int_eff = np.array([[1.0], [0.0]], dtype=complex)  # interference along e1
    h_ul_eff = np.array([[0.0], [1.0]], dtype=complex)  # uplink along e2
    w, errors = nsp_rx_combiner(h_ul_eff, h_int_eff)
    assert errors == (None,)
    np.testing.assert_allclose(w, [[0.0], [1.0]], atol=1e-12)


def test_nsp_uplink_inside_interference_fails():
    h_int_eff = np.array([[1.0], [0.0]], dtype=complex)
    h_ul_eff = np.array([[1.0], [0.0]], dtype=complex)
    w, errors = nsp_rx_combiner(h_ul_eff, h_int_eff)
    assert isinstance(errors[0], DegenerateCombinerError) and len(errors) == 1
    assert str(errors[0]) == "uplink direction lies inside the radar interference span"
    np.testing.assert_allclose(w, h_ul_eff, atol=1e-15)  # the unprojected candidate


def test_nsp_nulling_and_optimality_against_null_basis_oracle():
    # rank-1 uplink (single LOS path): projecting its singular vector is the
    # exact optimum over unit vectors in the interference null space
    rng = np.random.default_rng(14)
    h_int_eff = crandn(rng, 8, 3)
    u = crandn(rng, 8)
    h_ul_eff = np.outer(u, crandn(rng, 2).conj())
    w, errors = nsp_rx_combiner(h_ul_eff, h_int_eff)
    assert errors == (None,)
    assert np.linalg.norm(w.conj().T @ h_int_eff) <= 1e-10 * np.linalg.norm(h_int_eff)
    np.testing.assert_allclose(np.linalg.norm(w), 1.0, rtol=1e-12)
    # oracle: best unit vector inside the orthonormal null basis of A = h_int^H
    basis = null_space(h_int_eff.conj().T)  # (8, 5)
    gains = np.linalg.svd(basis.conj().T @ h_ul_eff, compute_uv=False)
    achieved = np.linalg.norm(w.conj().T @ h_ul_eff)
    assert achieved >= gains[0] * (1 - 1e-6)


def test_nsp_nulling_on_generic_channels():
    rng = np.random.default_rng(140)
    h_int_eff = crandn(rng, 8, 3)
    h_ul_eff = crandn(rng, 8, 2)
    w, errors = nsp_rx_combiner(h_ul_eff, h_int_eff)
    assert errors == (None,)
    assert np.linalg.norm(w.conj().T @ h_int_eff) <= 1e-10 * np.linalg.norm(h_int_eff)


def test_nsp_handles_rank_deficient_interference():
    # repeated directions collapse the interference rank; pinv keeps it stable
    rng = np.random.default_rng(15)
    col = crandn(rng, 6)
    h_int_eff = np.stack([col, col, 2 * col], axis=1)
    h_ul_eff = crandn(rng, 6, 1)
    w, errors = nsp_rx_combiner(h_ul_eff, h_int_eff)
    assert errors == (None,)
    assert np.linalg.norm(w.conj().T @ h_int_eff) <= 1e-10 * np.linalg.norm(h_int_eff)


def test_mss_rank_one_channel():
    rng = np.random.default_rng(16)
    u = crandn(rng, 5)
    u /= np.linalg.norm(u)
    v = crandn(rng, 3)
    h = 2.0 * np.outer(u, v.conj())
    w = mss_rx_combiner(h)
    # phase convention: compare up to the fixed rotation
    overlap = np.abs(w[:, 0].conj() @ u)
    np.testing.assert_allclose(overlap, 1.0, rtol=1e-10)


def test_mss_identity_channel_gives_basis_column():
    w = mss_rx_combiner(np.eye(4, dtype=complex))
    assert np.abs(np.abs(w).max() - 1.0) < 1e-12
    assert np.linalg.norm(w) == pytest.approx(1.0)


def test_mss_beats_random_unit_vectors():
    rng = np.random.default_rng(17)
    h = crandn(rng, 6, 4)
    w = mss_rx_combiner(h)
    achieved = np.linalg.norm(w.conj().T @ h)
    draws = crandn(rng, 6, 10000)
    draws /= np.linalg.norm(draws, axis=0)
    best_random = np.linalg.norm(draws.conj().T @ h, axis=1).max()
    assert achieved >= best_random * (1 - 1e-9)


def test_user_beamformers_rank_one_uplink():
    phi = -12.0
    h_ul = np.outer(steering(6, phi), steering(4, phi).conj())
    _, v_u = user_beamformers(np.eye(4, dtype=complex), h_ul, 2, 0.25)
    np.testing.assert_allclose(np.linalg.norm(v_u) ** 2, 0.25, rtol=1e-12)
    # collinear with the array response at the user
    a = steering(4, phi)
    overlap = np.abs(v_u.conj() @ a) / (np.linalg.norm(v_u) * np.linalg.norm(a))
    np.testing.assert_allclose(overlap, 1.0, rtol=1e-10)


def test_user_beamformers_diagonal_downlink():
    h_dl = np.diag([3.0, 2.0, 1.0]).astype(complex)
    w_u, _ = user_beamformers(h_dl, np.eye(2, dtype=complex), 2, 1.0)
    np.testing.assert_allclose(np.abs(w_u), np.eye(3)[:, :2], atol=1e-12)


def test_user_combiner_phase_ignores_rounding_level_entries():
    # oracle: u0 turned so that its first nonzero entry is real positive. A
    # rank-1 4 x 4 DL channel 3 u0 v0^H whose user antenna 0 sees nothing has
    # u0[0] = 0, where the SVD leaves ~1e-17 of no set phase (with fewer user
    # than BS antennas it leaves 0.0); that entry must not set the phase
    rng = np.random.default_rng(19)
    for _ in range(20):
        u0 = np.r_[0.0, crandn(rng, 3)]
        u0 /= np.linalg.norm(u0)
        h_dl = 3.0 * np.outer(u0, crandn(rng, 4).conj())
        w_u, _ = user_beamformers(h_dl, np.eye(2, dtype=complex), 1, 1.0)
        want = u0 * (np.abs(u0[1]) / u0[1])
        assert np.abs(w_u[:, 0] - want).max() <= 1e-12


def test_user_beamformers_singular_vector_property():
    rng = np.random.default_rng(18)
    h_dl = crandn(rng, 5, 6)
    w_u, _ = user_beamformers(h_dl, crandn(rng, 4, 3), 1, 1.0)
    sv = np.linalg.svd(h_dl, compute_uv=False)
    np.testing.assert_allclose(np.linalg.norm(h_dl.conj().T @ w_u), sv[0], rtol=1e-10)


# ------------------------------------------------------------- full pipeline


def _five_path_config():
    # 5 TX chains and 5 DL paths; 8 RX chains resolve the K = 6 targets
    return ScenarioConfig(
        tx_rf_chains=5,
        rx_rf_chains=8,
        tx_antennas_per_rf=4,
        rx_antennas_per_rf=16,
        dl_user_antennas=5,
        ul_user_antennas=4,
        n_subcarriers=64,
        analog_taps=8,
        dl_scatterers=tuple(
            TargetSpec(angle_deg=a, range_m=40.0 + 5 * i)
            for i, a in enumerate((-40.0, -25.0, -5.0, 15.0, 35.0))
        ),
        radar_targets=(),
        ul_user=TargetSpec(angle_deg=-10.0, range_m=60.0),
    )


def _assert_within_budgets(bf, cfg):
    """The checks scoring applies to every design (runner._slot2): power budgets, unit combiner."""
    assert np.all(_within_budget(tx_power(bf.v_b_rf, bf.v_b_bb), cfg.p_b_watts))
    assert np.all(_within_budget(np.linalg.norm(bf.v_u_bb, axis=-1) ** 2, cfg.p_u_watts))
    np.testing.assert_allclose(np.linalg.norm(bf.w_b_bb, axis=-2), 1.0, rtol=0, atol=1e-9)


def _estimates_for(cfg, rng):
    doas = np.array([t.angle_deg for t in (*cfg.dl_scatterers, *cfg.radar_targets, cfg.ul_user)])
    h_bb = 1e-2 * crandn(rng, cfg.n_rx_antennas, cfg.n_tx_antennas)
    return build_estimated_channels(doas, h_bb, cfg)


def test_algorithm_binding_leakage_rows_end_to_end():
    cfg = _five_path_config()
    rng = np.random.default_rng(19)
    est = _estimates_for(cfg, rng)
    bf = run_algorithm1(est, cfg)
    _assert_within_budgets(bf, cfg)
    assert tx_power(bf.v_b_rf, bf.v_b_bb) <= cfg.p_b_watts * (1 + 1e-9)
    leak_rows = (
        bf.w_b_rf.conj().T @ est.h_bb_hat @ bf.v_b_rf
        + bf.analog_canceller
    )
    residual = np.linalg.norm(leak_rows @ bf.v_b_bb, axis=1) ** 2
    assert residual.max() <= cfg.lambda_b_watts * (1 + 1e-9)
    # eight leakage rows on five TX chains, and some of them bind
    assert residual.max() >= cfg.lambda_b_watts * (1 - 1e-6)
    assert bf.kkt_residual <= 1e-8
    assert bf.v_b_bb.shape == (5, 5)  # st = min(5, 5)


def test_algorithm_zero_target_zero_si_unconstrained():
    import fdisac.optimizer as optimizer

    cfg = _five_path_config().with_overrides(analog_taps=0)
    est = build_estimated_channels(
        np.array([t.angle_deg for t in (*cfg.dl_scatterers, cfg.ul_user)]),
        np.zeros((cfg.n_rx_antennas, cfg.n_tx_antennas), dtype=complex), cfg,
    )
    bf = run_algorithm1(est, cfg)
    _assert_within_budgets(bf, cfg)
    # no SI: the precoder is the unconstrained least-squares match
    h_eff = est.h_dl_hat @ bf.v_b_rf
    st = cfg.n_streams
    g = h_eff @ optimizer._principal(h_eff, st, right=True) * np.sqrt(cfg.p_b_watts / st)
    v_ls = np.linalg.pinv(h_eff) @ g
    np.testing.assert_allclose(bf.v_b_bb, v_ls, rtol=0, atol=1e-12 * np.linalg.norm(v_ls))
    np.testing.assert_allclose(h_eff @ bf.v_b_bb, g, rtol=0, atol=1e-12 * np.linalg.norm(g))


def test_algorithm_invariants_multi_chain():
    cfg = ScenarioConfig(
        tx_rf_chains=4,
        rx_rf_chains=8,
        tx_antennas_per_rf=4,
        rx_antennas_per_rf=4,
        dl_user_antennas=4,
        ul_user_antennas=4,
        n_subcarriers=64,
        analog_taps=8,
        dl_scatterers=(TargetSpec(-30.0, 40.0), TargetSpec(-20.0, 80.0)),
        radar_targets=(TargetSpec(20.0, 100.0),),
        ul_user=TargetSpec(-10.0, 60.0),
    )
    rng = np.random.default_rng(21)
    est = _estimates_for(cfg, rng)
    bf = run_algorithm1(est, cfg)
    _assert_within_budgets(bf, cfg)
    h_int_eff = bf.w_b_rf.conj().T @ est.h_rad_int_hat
    nulling = np.linalg.norm(bf.w_b_bb.conj().T @ h_int_eff)
    assert nulling <= 1e-9 * np.linalg.norm(h_int_eff)


def test_algorithm_step_attribution_on_failure():
    # the estimated UL direction coincides with the scatterer's, so the NSP
    # projector annihilates the combiner candidate; the error names the
    # failing step (the config itself keeps the two apart, as it must)
    cfg = ScenarioConfig(
        tx_rf_chains=4,
        rx_rf_chains=4,
        tx_antennas_per_rf=4,
        rx_antennas_per_rf=4,
        dl_user_antennas=4,
        ul_user_antennas=4,
        n_subcarriers=64,
        analog_taps=8,
        dl_scatterers=(TargetSpec(-10.0, 40.0),),
        radar_targets=(),
        ul_user=TargetSpec(10.0, 60.0),
    )
    est_bad = build_estimated_channels(
        np.array([-10.0, -10.0]), np.zeros((cfg.n_rx_antennas, cfg.n_tx_antennas), dtype=complex),
        cfg,
    )
    bf = run_algorithm1(est_bad, cfg)
    assert isinstance(bf.errors[0], DegenerateCombinerError)
    assert str(bf.errors[0]) == ("beamformer design failed at step 'NSP combiner': "
                                 "uplink direction lies inside the radar interference span")


# ---------------------------------------------------------- stacks of trials


def _four_chain_config():
    return ScenarioConfig(
        tx_rf_chains=4,
        rx_rf_chains=8,
        tx_antennas_per_rf=4,
        rx_antennas_per_rf=4,
        dl_user_antennas=4,
        ul_user_antennas=4,
        n_subcarriers=64,
        analog_taps=8,
        dl_scatterers=(TargetSpec(-30.0, 40.0), TargetSpec(-20.0, 80.0)),
        radar_targets=(TargetSpec(20.0, 100.0),),
        ul_user=TargetSpec(-10.0, 60.0),
    )


def test_block_with_degenerate_trials_matches_one_trial_designs():
    # per trial: the two scatterer DoAs, the other target's DoA, the UL DoA
    doas = np.array([
        [-30.0, -20.0, 20.0, -10.0],  # ordinary
        [-25.0, -25.0, 20.0, -10.0],  # repeated scatterers: rank-2 interference
        [-30.0, -10.0, 20.0, -10.0],  # UL inside the interference span
        # eight leakage rows on four TX chains: the Newton loop stops short of feasibility
        [-40.0, -5.0, 30.0, 10.0],
    ])
    cfg = _four_chain_config()
    rng = np.random.default_rng(22)
    h_bb = 1e-2 * crandn(rng, len(doas), cfg.n_rx_antennas, cfg.n_tx_antennas)
    block = run_algorithm1(build_estimated_channels(doas, h_bb, cfg), cfg)
    _assert_within_budgets(block, cfg)

    # the repeated directions leave the second trial's interference rank 2, not 3
    w_h = np.swapaxes(block.w_b_rf, -1, -2).conj()
    h_int_eff = w_h @ build_estimated_channels(doas, h_bb, cfg).h_rad_int_hat
    assert [np.linalg.matrix_rank(h) for h in h_int_eff] == [3, 2, 3, 3]
    assert [e is None for e in block.errors] == [True, True, False, False]

    for t, d in enumerate(doas):
        est = build_estimated_channels(d, h_bb[t], cfg)
        one = run_algorithm1(est, cfg)
        _assert_within_budgets(one, cfg)
        exc = one.errors[0]
        if exc is not None:
            assert (t, type(exc)) in ((2, DegenerateCombinerError), (3, InfeasibleResultError))
            assert block.errors[t] is not None
            assert f"{type(block.errors[t]).__name__}: {block.errors[t]}" == (
                f"{type(exc).__name__}: {exc}"
            )
            if t == 2:
                assert str(exc) == (
                    "beamformer design failed at step 'NSP combiner': "
                    "uplink direction lies inside the radar interference span"
                )
            else:
                assert re.fullmatch(r"beamformer design failed at step 'TX digital precoder': "
                                    r"leakage 1\.00\d+ x threshold \(1\.00\d+ x in the Newton "
                                    r"basis; guard's sums round within .+ x\) after \d+ solves",
                                    str(exc))
                assert not block.v_b_bb[t].any()  # a failed precoder leaves V = 0
            continue
        assert block.errors[t] is None
        np.testing.assert_array_equal(block.v_b_rf[t], one.v_b_rf)
        np.testing.assert_array_equal(block.w_b_rf[t], one.w_b_rf)
        np.testing.assert_allclose(block.v_b_bb[t], one.v_b_bb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(block.w_b_bb[t], one.w_b_bb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(block.v_u_bb[t], one.v_u_bb, rtol=0, atol=1e-12)
        # the design's null space holds on every trial that completed
        assert np.linalg.norm(block.w_b_bb[t].conj().T @ h_int_eff[t]) <= 1e-9 * np.linalg.norm(
            h_int_eff[t]
        )


def test_nsp_stack_marks_degenerate_matrices_and_keeps_the_others():
    rng = np.random.default_rng(23)
    h_int = crandn(rng, 3, 6, 2)
    h_ul = crandn(rng, 3, 6, 1)
    h_ul[1] = h_int[1][:, :1] * (0.5 - 2j)  # inside the span of its interference
    w, errors = nsp_rx_combiner(h_ul, h_int)
    assert [e is not None for e in errors] == [False, True, False]
    assert isinstance(errors[1], DegenerateCombinerError)
    for t in (0, 2):
        w_t, errors_t = nsp_rx_combiner(h_ul[t], h_int[t])
        assert errors_t == (None,)
        np.testing.assert_allclose(w[t], w_t, rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(w, axis=-2), 1.0, rtol=1e-12)
    # the degenerate matrix keeps its unprojected candidate
    np.testing.assert_allclose(w[1], mss_rx_combiner(h_ul[1]), rtol=0, atol=1e-14)
    _, one = nsp_rx_combiner(h_ul[1], h_int[1])
    assert len(one) == 1 and isinstance(one[0], DegenerateCombinerError)


def test_precoder_stack_error_in_one_newton_loop_fails_only_its_problem(monkeypatch):
    import fdisac.optimizer as optimizer

    h, t_rows, lam, g = _mixed_precoder_stack(np.random.default_rng(30), infeasible=False)
    newton, calls = optimizer._dual_newton, []

    def second_loop_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return newton(*args)

    monkeypatch.setattr(optimizer, "_dual_newton", second_loop_fails)
    v, info = numeric_tx_precoder(h, t_rows, lam, g, return_info=True)
    assert len(calls) == 4  # every binding problem ran its loop
    failed = [e is not None for e in info["errors"]]
    assert failed == [False, False, True, False, False, False]
    assert isinstance(info["errors"][2], np.linalg.LinAlgError)
    calls.clear()
    # a plain call raises the failed problem's message
    with pytest.raises(InfeasibleResultError, match="^Singular matrix$"):
        numeric_tx_precoder(h, t_rows, lam, g)
    monkeypatch.undo()
    assert not v[0, 2].any()
    for idx in np.ndindex(2, 3):
        if idx != (0, 2):
            v_i = numeric_tx_precoder(h[idx], t_rows[idx], lam, g[idx])
            np.testing.assert_allclose(v[idx], v_i, rtol=0, atol=1e-12 * np.linalg.norm(v_i))


def test_precoder_failure_fails_only_its_trial(monkeypatch):
    import fdisac.optimizer as optimizer

    cfg = _four_chain_config()
    rng = np.random.default_rng(25)
    est = build_estimated_channels(
        np.array([[-30.0, -20.0, 20.0, -10.0], [-35.0, -15.0, 20.0, 5.0],
                  [-40.0, -5.0, 20.0, 10.0]]),
        1e-2 * crandn(rng, 3, cfg.n_rx_antennas, cfg.n_tx_antennas), cfg,
    )
    clean = run_algorithm1(est, cfg)
    solve = optimizer.numeric_tx_precoder
    calls = []

    def trial_1_fails(h, *args, **kwargs):
        calls.append(h.shape)
        one = InfeasibleResultError("leakage 2.000000000 x threshold after 3 solves")
        # a single problem is a stack without leading axes
        failed = np.arange(len(h)) == 1 if h.ndim == 3 else np.array([True])
        v, info = solve(h, *args, **kwargs)
        errors = tuple(one if f else None for f in failed)
        return np.where(failed.reshape(h.shape[:-2] + (1, 1)), 0.0, v), {**info, "errors": errors}

    monkeypatch.setattr(optimizer, "numeric_tx_precoder", trial_1_fails)
    block = run_algorithm1(est, cfg)
    _assert_within_budgets(block, cfg)
    assert len(calls) == 1  # once per block
    assert [e is None for e in block.errors] == [True, False, True]
    assert f"{type(block.errors[1]).__name__}: {block.errors[1]}" == (
        "InfeasibleResultError: beamformer design failed at step 'TX digital precoder': "
        "leakage 2.000000000 x threshold after 3 solves"
    )
    assert not block.v_b_bb[1].any()  # the stand-in every later step accepts
    for t in (0, 2):
        np.testing.assert_array_equal(block.v_b_bb[t], clean.v_b_bb[t])
        np.testing.assert_array_equal(block.w_b_bb[t], clean.w_b_bb[t])
        assert block.kkt_residual[t] == clean.kkt_residual[t]  # the completed trials keep theirs
    single = build_estimated_channels(np.array([-35.0, -15.0, 20.0, 5.0]), est.h_bb_hat[1], cfg)
    # a one-trial design records the same error
    one = run_algorithm1(single, cfg)
    assert [f"{type(e).__name__}: {e}" for e in one.errors] == [
        f"{type(block.errors[1]).__name__}: {block.errors[1]}"
    ]
    assert not one.v_b_bb.any()
