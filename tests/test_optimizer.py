import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import nnls

from fdisac.arrays import dft_codebook
from fdisac.beamforming import assemble_analog, tx_power
from fdisac.cancellers import CancellerPair
from fdisac.config import ScenarioConfig, TargetSpec
from fdisac.errors import DegenerateCombinerError, InfeasibleResultError
from fdisac.optimizer import (
    HybridBeamformers,
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
from oracles import steering


def _crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


# ------------------------------------------------------------- analog search


def test_tx_analog_single_target_matched_beam():
    cb = dft_codebook(8, 3)
    grid_angle = float(np.degrees(np.arcsin(-1 + 2 * 6 / 8)))
    h = np.outer(steering(4, grid_angle), steering(8, grid_angle).conj())
    bf = select_tx_analog(h, cb, 1)
    assert bf.codebook_indices == (6,)


def test_tx_analog_zero_channel_tie_breaks_to_first():
    cb = dft_codebook(4, 2)
    bf = select_tx_analog(np.zeros((3, 8)), cb, 2)
    assert bf.codebook_indices == (0, 0)


def test_tx_analog_per_chain_equals_joint_search():
    # brute-force joint search oracle over all codebook pairs
    rng = np.random.default_rng(0)
    cb = dft_codebook(4, 2)
    h = _crandn(rng, 5, 8)
    bf = select_tx_analog(h, cb, 2)

    def joint_objective(i, j):
        cols = np.zeros((8, 2), dtype=complex)
        cols[:4, 0] = cb.vectors[i]
        cols[4:, 1] = cb.vectors[j]
        return np.linalg.norm(h @ cols) ** 2

    best = max(itertools.product(range(4), range(4)), key=lambda ij: joint_objective(*ij))
    assert bf.codebook_indices == best


def test_rx_analog_zero_si_reduces_to_gain_search():
    rng = np.random.default_rng(1)
    cb = dft_codebook(4, 3)
    v_rf = select_tx_analog(_crandn(rng, 8, 8), dft_codebook(4, 3), 2)
    h_rad = _crandn(rng, 8, 8)
    w = select_rx_analog(h_rad, np.zeros((8, 8)), v_rf, cb)
    # oracle: per-chain numerator-only maximization
    eff = h_rad @ v_rf.assembled
    for j in range(2):
        block = eff[4 * j : 4 * (j + 1)]
        scores = np.linalg.norm(cb.vectors.conj() @ block, axis=1) ** 2
        assert w.codebook_indices[j] == int(np.argmax(scores))


def test_rx_analog_orthogonal_geometry_prefers_radar():
    # critically sampled codebook: grid beams are orthogonal, so pointing at
    # the radar direction makes the SI denominator exactly zero
    cb = dft_codebook(8, 3)
    radar_angle = float(np.degrees(np.arcsin(-1 + 2 * 5 / 8)))
    si_angle = float(np.degrees(np.arcsin(-1 + 2 * 2 / 8)))
    h_rad = np.outer(steering(8, radar_angle), steering(8, radar_angle).conj())
    h_si = np.outer(steering(8, si_angle), steering(8, si_angle).conj())
    v_rf = select_tx_analog(h_rad, cb, 1)
    w = select_rx_analog(h_rad, h_si, v_rf, cb)
    assert w.codebook_indices == (5,)
    denom = np.linalg.norm(w.assembled.conj().T @ h_si @ v_rf.assembled)
    assert denom < 1e-10


def test_tx_analog_objective_monotone_in_codebook_bits():
    # the sin-space grids nest, so more bits can never lose gain
    rng = np.random.default_rng(100)
    h = _crandn(rng, 6, 8)
    prev = -1.0
    for bits in (1, 2, 3, 4, 5):
        bf = select_tx_analog(h, dft_codebook(4, bits), 2)
        gain = np.linalg.norm(h @ bf.assembled) ** 2
        assert gain >= prev - 1e-12
        prev = gain


def test_rx_analog_local_optimality_per_chain():
    # swapping any single chain's beam never improves that chain's ratio
    rng = np.random.default_rng(101)
    cb = dft_codebook(4, 3)
    v_rf = select_tx_analog(_crandn(rng, 8, 8), cb, 2)
    h_rad, h_si = _crandn(rng, 8, 8), _crandn(rng, 8, 8)
    w = select_rx_analog(h_rad, h_si, v_rf, cb)
    radar_eff = h_rad @ v_rf.assembled
    si_eff = h_si @ v_rf.assembled

    def chain_ratio(j, vec):
        rows = slice(4 * j, 4 * (j + 1))
        num = np.linalg.norm(vec.conj() @ radar_eff[rows]) ** 2
        den = np.linalg.norm(vec.conj() @ si_eff[rows]) ** 2
        return num / (den + 1e-12)

    for j in range(2):
        best = chain_ratio(j, w.per_chain[j])
        for cand in cb.vectors:
            assert chain_ratio(j, cand) <= best * (1 + 1e-12)


def test_rx_analog_single_chain_matches_brute_force():
    rng = np.random.default_rng(2)
    cb = dft_codebook(4, 2)
    v_rf = select_tx_analog(_crandn(rng, 4, 4), dft_codebook(4, 2), 1)
    h_rad, h_si = _crandn(rng, 4, 4), _crandn(rng, 4, 4)
    w = select_rx_analog(h_rad, h_si, v_rf, cb)
    ratios = []
    for i in range(len(cb)):
        num = np.linalg.norm(cb.vectors[i].conj() @ h_rad @ v_rf.assembled) ** 2
        den = np.linalg.norm(cb.vectors[i].conj() @ h_si @ v_rf.assembled) ** 2
        ratios.append(num / (den + 1e-12))
    assert w.codebook_indices == (int(np.argmax(ratios)),)


# ------------------------------------------------------- TX digital precoder


def _random_precoder_instance(rng, m_u=4, n_rf=3, st=2, t_scale=1.0):
    h = _crandn(rng, m_u, n_rf)
    g = _crandn(rng, m_u, st)
    t1 = t_scale * _crandn(rng, n_rf)
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
    unconstrained = np.linalg.lstsq(h, g, rcond=None)[0]
    np.testing.assert_allclose(v, unconstrained, atol=1e-10)
    assert np.linalg.norm(t1.conj() @ v) ** 2 <= 1.0
    assert info["multipliers"].tolist() == [0.0] and not info["active"].any()


def test_lagrangian_active_constraint_against_numeric_oracle():
    # closed-form oracle: same instance solved by Sherman-Morrison
    rng = np.random.default_rng(5)
    h = _crandn(rng, 4, 3)
    g = 3.0 * _crandn(rng, 4, 3)
    t1 = _crandn(rng, 3)
    lam = 1e-4
    v_cf, zeta_cf = _closed_form_precoder(h, t1, lam, g)
    v_num, info = numeric_tx_precoder(h, t1[None, :], lam, g, return_info=True)
    np.testing.assert_allclose(v_num, v_cf, rtol=0, atol=1e-9 * np.linalg.norm(v_cf))
    assert info["multipliers"][0] == pytest.approx(zeta_cf, rel=1e-9)
    assert info["active"].tolist() == [True]
    leak = np.linalg.norm(t1.conj() @ v_num) ** 2
    assert abs(leak - lam) <= 1e-9 * lam  # constraint active and tight


def test_lagrangian_kkt_conditions():
    rng = np.random.default_rng(6)
    for _ in range(25):
        h = _crandn(rng, 5, 4)
        g = 2.0 * _crandn(rng, 5, 3)
        t1 = _crandn(rng, 4) * rng.uniform(0.1, 3.0)
        lam = 10.0 ** rng.uniform(-5, 0)
        v, info = numeric_tx_precoder(h, t1, lam, g, return_info=True)
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
    v0 = (1.0 - 1.0j) / 2.0
    expected = np.array([[v0], [-v0 * (1.0 - 10.0 * np.sqrt(lam) / abs(v0))]])
    np.testing.assert_allclose(v, expected, rtol=0, atol=1e-8)
    assert np.linalg.norm(h @ v - g) ** 2 == pytest.approx(2.0)  # the least-squares residual
    assert info["kkt_residual"] <= 1e-9


def test_numeric_single_chain_agrees_with_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = _crandn(rng, 5, 4)
        g = rng.uniform(0.5, 4.0) * _crandn(rng, 5, 2)
        t1 = _crandn(rng, 4)
        lam = 10.0 ** rng.uniform(-4, -1)
        v_cf, _ = _closed_form_precoder(h, t1, lam, g)
        v_num = numeric_tx_precoder(h, t1[None, :], lam, g)
        obj_cf = np.linalg.norm(h @ v_cf - g) ** 2
        obj_num = np.linalg.norm(h @ v_num - g) ** 2
        assert abs(obj_cf - obj_num) <= 1e-9 * max(obj_num, 1e-12)


def test_numeric_infinite_threshold_is_least_squares():
    rng = np.random.default_rng(8)
    h, g, t1 = _random_precoder_instance(rng)
    v = numeric_tx_precoder(h, t1[None, :], np.inf, g)
    np.testing.assert_allclose(v, np.linalg.lstsq(h, g, rcond=None)[0], atol=1e-10)


def test_numeric_zero_target_returns_zero():
    rng = np.random.default_rng(9)
    h = _crandn(rng, 4, 3)
    t1 = _crandn(rng, 3)
    v = numeric_tx_precoder(h, t1[None, :], 1e-3, np.zeros((4, 2)))
    np.testing.assert_allclose(v, 0.0, atol=1e-8)


def test_numeric_multi_constraint_feasible_and_monotone():
    # KKT at every threshold, and the optimal objective never rises as the
    # threshold is relaxed
    rng = np.random.default_rng(10)
    h = _crandn(rng, 6, 5)
    g = 2.0 * _crandn(rng, 6, 3)
    t_rows = _crandn(rng, 3, 5)
    objectives = []
    for lam in (1e-4, 1e-3, 1e-2, 1e-1, np.inf):
        v, info = numeric_tx_precoder(h, t_rows, lam, g, return_info=True)
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
    h = _crandn(rng, 4, 2) @ _crandn(rng, 2, 8)
    t_rows = _crandn(rng, 8, 8)
    _, _, vh = np.linalg.svd(h)
    null = vh[2:].conj().T  # orthonormal basis of null(H), 8x6
    rows = t_rows.conj()
    v_min = vh[:2].conj().T @ _crandn(rng, 2, 3)  # minimum-norm solution of H V = G
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
    t_rows = _crandn(rng, 8, 8)
    rows = t_rows.conj()
    y = _crandn(rng, h.shape[0], 3)
    m = np.linalg.solve(rows.conj().T, h.conj().T @ y)
    zeta = np.linalg.norm(m, axis=1) / np.sqrt(lam)
    v_star = np.linalg.solve(rows, m / zeta[:, None])
    return t_rows, h @ v_star + y, v_star, zeta


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_PRECODER_KINDS), st.integers(0, 2**32 - 1))
def test_precoder_kkt_property(kind, seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, 4))
    if kind == "one_row":
        h = _crandn(rng, 5, 4)  # full column rank: the closed form exists
    else:
        h = _crandn(rng, 4, rank) @ _crandn(rng, rank, 8)
    n_rf = h.shape[1]
    if kind == "all_active":
        lam = 10.0 ** rng.uniform(-3.0, 0.0)
        t_rows, g, v_star, zeta_star = _all_active_instance(rng, h, lam)
    else:
        g = h @ _crandn(rng, n_rf, 3)
        n_rows = 1 if kind == "one_row" else int(rng.integers(2, 9))
        t_rows = _crandn(rng, n_rows, n_rf)
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
    zeta = info["multipliers"]
    _assert_kkt(h, t_rows, lam, g, v, zeta)
    assert info["kkt_residual"] <= 1e-8
    if kind == "zero_rows":
        assert np.all(zeta[np.linalg.norm(t_rows, axis=1) == 0.0] == 0.0)
    if kind == "all_inactive":
        assert not info["active"].any()
        np.testing.assert_allclose(v, v_ls, rtol=0, atol=1e-9 * np.linalg.norm(v_ls))
    if kind == "all_active":
        assert info["active"].all()
        np.testing.assert_allclose(v, v_star, rtol=0, atol=1e-6 * np.linalg.norm(v_star))
    if kind == "one_row":
        assert zeta[0] == pytest.approx(_closed_form_multiplier(h, t_rows[0], lam, g), rel=1e-9)


# ---------------------------------------------------------- power normalize


def _unit_modulus_bf(rng, n_chains=2, n_a=4):
    from fdisac.beamforming import assemble_analog

    phases = rng.uniform(0, 2 * np.pi, (n_chains, n_a))
    return assemble_analog(np.exp(1j * phases) / np.sqrt(n_a))


def test_power_normalize_compliant_untouched():
    rng = np.random.default_rng(11)
    bf = _unit_modulus_bf(rng)
    v = 0.1 * _crandn(rng, 2, 2)
    out = power_normalize(bf, v, 10.0)
    assert out is v  # same object, bit identical


def test_power_normalize_scales_single_column():
    rng = np.random.default_rng(12)
    bf = _unit_modulus_bf(rng)
    p_b = 1.0
    v = np.zeros((2, 2), dtype=complex)
    v[0, 0] = 2.0 * np.sqrt(p_b)  # column power 4*P_b -> scale by 1/2
    v[1, 1] = 0.5
    out = power_normalize(bf, v, p_b)
    np.testing.assert_allclose(out[0, 0], np.sqrt(p_b), rtol=1e-12)
    np.testing.assert_allclose(out[:, 1], v[:, 1], atol=1e-15)


def test_power_normalize_postcondition_on_random_violation():
    rng = np.random.default_rng(13)
    bf = _unit_modulus_bf(rng, n_chains=3, n_a=2)
    v = 5.0 * _crandn(rng, 3, 4)
    p_b = 0.7
    out = power_normalize(bf, v, p_b)
    norms = np.linalg.norm(bf.assembled @ out, axis=0) ** 2
    before = np.linalg.norm(bf.assembled @ v, axis=0) ** 2
    np.testing.assert_allclose(norms[before > p_b], p_b, rtol=1e-12)
    np.testing.assert_allclose(norms[before <= p_b], before[before <= p_b], rtol=1e-12)


# -------------------------------------------------------------- RX combiners


def test_nsp_already_orthogonal_passthrough():
    h_int_eff = np.array([[1.0], [0.0]], dtype=complex)  # interference along e1
    h_ul_eff = np.array([[0.0], [1.0]], dtype=complex)  # uplink along e2
    w = nsp_rx_combiner(h_ul_eff, h_int_eff, 1)
    np.testing.assert_allclose(w, [[0.0], [1.0]], atol=1e-12)


def test_nsp_uplink_inside_interference_raises():
    h_int_eff = np.array([[1.0], [0.0]], dtype=complex)
    h_ul_eff = np.array([[1.0], [0.0]], dtype=complex)
    with pytest.raises(DegenerateCombinerError):
        nsp_rx_combiner(h_ul_eff, h_int_eff, 1)


def test_nsp_nulling_and_optimality_against_null_basis_oracle():
    # rank-1 uplink (single LOS path): projecting its singular vector is the
    # exact optimum over unit vectors in the interference null space
    rng = np.random.default_rng(14)
    h_int_eff = _crandn(rng, 8, 3)
    u = _crandn(rng, 8)
    h_ul_eff = np.outer(u, _crandn(rng, 2).conj())
    w = nsp_rx_combiner(h_ul_eff, h_int_eff, 1)
    assert np.linalg.norm(w.conj().T @ h_int_eff) <= 1e-10 * np.linalg.norm(h_int_eff)
    np.testing.assert_allclose(np.linalg.norm(w), 1.0, rtol=1e-12)
    # oracle: best unit vector inside the orthonormal null basis of A = h_int^H
    basis = null_space(h_int_eff.conj().T)  # (8, 5)
    gains = np.linalg.svd(basis.conj().T @ h_ul_eff, compute_uv=False)
    achieved = np.linalg.norm(w.conj().T @ h_ul_eff)
    assert achieved >= gains[0] * (1 - 1e-6)


def test_nsp_nulling_on_generic_channels():
    rng = np.random.default_rng(140)
    h_int_eff = _crandn(rng, 8, 3)
    h_ul_eff = _crandn(rng, 8, 2)
    w = nsp_rx_combiner(h_ul_eff, h_int_eff, 1)
    assert np.linalg.norm(w.conj().T @ h_int_eff) <= 1e-10 * np.linalg.norm(h_int_eff)


def test_nsp_handles_rank_deficient_interference():
    # repeated directions collapse the interference rank; pinv keeps it stable
    rng = np.random.default_rng(15)
    col = _crandn(rng, 6)
    h_int_eff = np.stack([col, col, 2 * col], axis=1)
    h_ul_eff = _crandn(rng, 6, 1)
    w = nsp_rx_combiner(h_ul_eff, h_int_eff, 1)
    assert np.linalg.norm(w.conj().T @ h_int_eff) <= 1e-10 * np.linalg.norm(h_int_eff)


def test_mss_rank_one_channel():
    rng = np.random.default_rng(16)
    u = _crandn(rng, 5)
    u /= np.linalg.norm(u)
    v = _crandn(rng, 3)
    h = 2.0 * np.outer(u, v.conj())
    w = mss_rx_combiner(h, 1)
    # phase convention: compare up to the fixed rotation
    overlap = np.abs(w[:, 0].conj() @ u)
    np.testing.assert_allclose(overlap, 1.0, rtol=1e-10)


def test_mss_identity_channel_gives_basis_column():
    w = mss_rx_combiner(np.eye(4, dtype=complex), 1)
    assert np.abs(np.abs(w).max() - 1.0) < 1e-12
    assert np.linalg.norm(w) == pytest.approx(1.0)


def test_mss_beats_random_unit_vectors():
    rng = np.random.default_rng(17)
    h = _crandn(rng, 6, 4)
    w = mss_rx_combiner(h, 1)
    achieved = np.linalg.norm(w.conj().T @ h)
    draws = _crandn(rng, 6, 10000)
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


def test_user_beamformers_singular_vector_property():
    rng = np.random.default_rng(18)
    h_dl = _crandn(rng, 5, 6)
    w_u, _ = user_beamformers(h_dl, _crandn(rng, 4, 3), 1, 1.0)
    sv = np.linalg.svd(h_dl, compute_uv=False)
    np.testing.assert_allclose(np.linalg.norm(h_dl.conj().T @ w_u), sv[0], rtol=1e-10)


# ------------------------------------------------------------- full pipeline


def _single_rx_chain_config():
    # closed-form branch configuration: 5 TX chains, 1 RX chain, 5 DL paths
    return ScenarioConfig(
        tx_rf_chains=5,
        rx_rf_chains=1,
        tx_antennas_per_rf=4,
        rx_antennas_per_rf=16,
        dl_user_antennas=5,
        ul_user_antennas=4,
        n_subcarriers=64,
        analog_taps=2,
        dl_scatterers=tuple(
            TargetSpec(angle_deg=a, range_m=40.0 + 5 * i)
            for i, a in enumerate((-40.0, -25.0, -5.0, 15.0, 35.0))
        ),
        radar_targets=(),
        ul_user=TargetSpec(angle_deg=-10.0, range_m=60.0),
    )


def _estimates_for(cfg, rng):
    scatterers = [s.angle_deg for s in cfg.dl_scatterers]
    others = [t.angle_deg for t in cfg.radar_targets]
    h_bb = 1e-2 * _crandn(rng, cfg.n_rx_antennas, cfg.n_tx_antennas)
    return build_estimated_channels(
        scatterers, others, cfg.ul_user.angle_deg, h_bb,
        cfg.n_rx_antennas, cfg.n_tx_antennas,
        cfg.dl_user_antennas, cfg.ul_user_antennas,
    )


def test_algorithm_closed_form_branch_end_to_end():
    cfg = _single_rx_chain_config()
    rng = np.random.default_rng(19)
    est = _estimates_for(cfg, rng)
    bf = run_algorithm1(est, cfg)
    bf.validate(cfg.p_b_watts, cfg.p_u_watts)
    assert tx_power(bf.v_b_rf, bf.v_b_bb) <= cfg.p_b_watts * (1 + 1e-9)
    leak_rows = (
        bf.w_b_rf.assembled.conj().T @ est.h_bb_hat @ bf.v_b_rf.assembled
        + bf.cancellers.analog
    )
    residual = np.linalg.norm(leak_rows @ bf.v_b_bb, axis=1) ** 2
    assert residual.max() <= cfg.lambda_b_watts * (1 + 1e-9)
    assert bf.v_b_bb.shape == (5, 5)  # st = min(5, 5)


def test_algorithm_zero_target_zero_si_unconstrained():
    cfg = _single_rx_chain_config().with_overrides(analog_taps=0)
    est = _estimates_for(cfg, np.random.default_rng(20))
    est = build_estimated_channels(
        [s.angle_deg for s in cfg.dl_scatterers], [], cfg.ul_user.angle_deg,
        np.zeros((cfg.n_rx_antennas, cfg.n_tx_antennas)),
        cfg.n_rx_antennas, cfg.n_tx_antennas,
        cfg.dl_user_antennas, cfg.ul_user_antennas,
    )
    bf = run_algorithm1(est, cfg)
    bf.validate(cfg.p_b_watts, cfg.p_u_watts)
    # no SI: the precoder is the unconstrained least-squares match
    h_eff = est.h_dl_hat @ bf.v_b_rf.assembled
    _, _, vh = np.linalg.svd(h_eff, full_matrices=False)
    st = cfg.n_streams
    target_energy = np.linalg.norm(h_eff @ bf.v_b_bb) ** 2
    assert target_energy > 0


def test_algorithm_invariants_multi_chain():
    cfg = ScenarioConfig(
        tx_rf_chains=4,
        rx_rf_chains=4,
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
    bf.validate(cfg.p_b_watts, cfg.p_u_watts)
    h_int_eff = bf.w_b_rf.assembled.conj().T @ est.h_rad_int_hat
    nulling = np.linalg.norm(bf.w_b_bb.conj().T @ h_int_eff)
    assert nulling <= 1e-9 * np.linalg.norm(h_int_eff)


def test_algorithm_step_attribution_on_failure():
    # the UL direction coincides with a scatterer, so the NSP projector
    # annihilates the combiner candidate; the error names the failing step
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
        ul_user=TargetSpec(-10.0, 60.0),
    )
    est_bad = build_estimated_channels(
        [-10.0], [], -10.0,
        np.zeros((cfg.n_rx_antennas, cfg.n_tx_antennas)),
        cfg.n_rx_antennas, cfg.n_tx_antennas,
        cfg.dl_user_antennas, cfg.ul_user_antennas,
    )
    with pytest.raises(DegenerateCombinerError, match="NSP combiner"):
        run_algorithm1(est_bad, cfg)


# ---------------------------------------------------------- stacks of trials


def _four_chain_config():
    return ScenarioConfig(
        tx_rf_chains=4,
        rx_rf_chains=4,
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
    # per trial: scatterer DoAs, the other target's DoA, the UL DoA
    doas = [
        ((-30.0, -20.0), (20.0,), -10.0),  # ordinary
        ((-25.0, -25.0), (20.0,), -10.0),  # repeated scatterers: rank-2 interference
        ((-30.0, -10.0), (20.0,), -10.0),  # UL inside the interference span
        ((-40.0, -5.0), (30.0,), 10.0),  # ordinary
    ]
    cfg = _four_chain_config()
    rng = np.random.default_rng(22)
    h_bb = 1e-2 * _crandn(rng, len(doas), cfg.n_rx_antennas, cfg.n_tx_antennas)
    dims = (cfg.n_rx_antennas, cfg.n_tx_antennas, cfg.dl_user_antennas, cfg.ul_user_antennas)
    scat, other, ul = (np.array([d[i] for d in doas]) for i in range(3))
    block = run_algorithm1(build_estimated_channels(scat, other, ul, h_bb, *dims), cfg)
    block = block.validate(cfg.p_b_watts, cfg.p_u_watts)

    # the repeated directions leave the second trial's interference rank 2 of 4
    w_h = np.swapaxes(block.w_b_rf.assembled, -1, -2).conj()
    h_int_eff = w_h @ build_estimated_channels(scat, other, ul, h_bb, *dims).h_rad_int_hat
    assert [np.linalg.matrix_rank(h) for h in h_int_eff] == [3, 2, 3, 3]

    for t, (s, o, u) in enumerate(doas):
        est = build_estimated_channels(list(s), list(o), u, h_bb[t], *dims)
        try:
            one = run_algorithm1(est, cfg).validate(cfg.p_b_watts, cfg.p_u_watts)
        except DegenerateCombinerError as exc:
            assert t == 2
            assert block.errors[t] is not None
            assert f"{type(block.errors[t]).__name__}: {block.errors[t]}" == (
                f"{type(exc).__name__}: {exc}"
            )
            assert str(exc) == (
                "beamformer design failed at step 'NSP combiner': "
                "uplink direction lies inside the radar interference span"
            )
            continue
        assert block.errors[t] is None
        assert block.v_b_rf.codebook_indices[t] == one.v_b_rf.codebook_indices
        assert block.w_b_rf.codebook_indices[t] == one.w_b_rf.codebook_indices
        np.testing.assert_allclose(block.v_b_bb[t], one.v_b_bb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(block.w_b_bb[t], one.w_b_bb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(block.v_u_bb[t], one.v_u_bb, rtol=0, atol=1e-12)
        # the design's null space holds on every trial that completed
        assert np.linalg.norm(block.w_b_bb[t].conj().T @ h_int_eff[t]) <= 1e-9 * np.linalg.norm(
            h_int_eff[t]
        )


def test_nsp_stack_marks_degenerate_matrices_and_keeps_the_others():
    rng = np.random.default_rng(23)
    h_int = _crandn(rng, 3, 6, 2)
    h_ul = _crandn(rng, 3, 6, 1)
    h_ul[1] = h_int[1][:, :1] * (0.5 - 2j)  # inside the span of its interference
    with pytest.raises(DegenerateCombinerError) as err:
        nsp_rx_combiner(h_ul, h_int, 1)
    assert err.value.failed.tolist() == [False, True, False]
    for t in (0, 2):
        np.testing.assert_allclose(err.value.combiner[t], nsp_rx_combiner(h_ul[t], h_int[t], 1),
                                   rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(err.value.combiner, axis=-2), 1.0, rtol=1e-12)
    with pytest.raises(DegenerateCombinerError) as one:
        nsp_rx_combiner(h_ul[1], h_int[1], 1)
    assert one.value.failed.shape == () and one.value.failed


def test_validate_marks_each_violating_trial_and_raises_for_one_design():
    cfg = _four_chain_config()
    rng = np.random.default_rng(24)
    dims = (cfg.n_rx_antennas, cfg.n_tx_antennas, cfg.dl_user_antennas, cfg.ul_user_antennas)
    scat = np.array([[-30.0, -20.0]] * 3)
    est = build_estimated_channels(scat, np.array([[20.0]] * 3), np.array([-10.0] * 3),
                                   1e-2 * _crandn(rng, 3, *dims[:2]), *dims)
    block = run_algorithm1(est, cfg)
    assert block.validate(cfg.p_b_watts, cfg.p_u_watts).errors == (None, None, None)
    v_bb = block.v_b_bb.copy()
    v_bb[1] *= 2.0  # four times the power budget
    checked = replace(block, v_b_bb=v_bb).validate(cfg.p_b_watts, cfg.p_u_watts)
    assert checked.errors[0] is None and checked.errors[2] is None
    assert str(checked.errors[1]).startswith("TX power ")
    assert str(checked.errors[1]).endswith(f" exceeds budget {cfg.p_b_watts}")
    single = HybridBeamformers(
        v_b_rf=assemble_analog(block.v_b_rf.per_chain[1]), v_b_bb=v_bb[1],
        w_b_rf=assemble_analog(block.w_b_rf.per_chain[1]), w_b_bb=block.w_b_bb[1],
        w_u=block.w_u[1], v_u_bb=block.v_u_bb[1],
        cancellers=CancellerPair(block.cancellers.analog[1], block.cancellers.digital[1], 8),
    )
    with pytest.raises(ValueError, match="TX power .* exceeds budget"):
        single.validate(cfg.p_b_watts, cfg.p_u_watts)


def test_precoder_failure_fails_only_its_trial(monkeypatch):
    import fdisac.optimizer as optimizer

    cfg = _four_chain_config()
    rng = np.random.default_rng(25)
    dims = (cfg.n_rx_antennas, cfg.n_tx_antennas, cfg.dl_user_antennas, cfg.ul_user_antennas)
    est = build_estimated_channels(
        np.array([[-30.0, -20.0], [-35.0, -15.0], [-40.0, -5.0]]), np.array([[20.0]] * 3),
        np.array([-10.0, 5.0, 10.0]), 1e-2 * _crandn(rng, 3, *dims[:2]), *dims,
    )
    clean = run_algorithm1(est, cfg)
    solve = optimizer.numeric_tx_precoder
    calls = []

    def second_call_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise InfeasibleResultError("leakage 2.000000000 x threshold after 3 solves")
        return solve(*args, **kwargs)

    monkeypatch.setattr(optimizer, "numeric_tx_precoder", second_call_fails)
    block = run_algorithm1(est, cfg).validate(cfg.p_b_watts, cfg.p_u_watts)
    assert len(calls) == 3  # once per trial
    assert [e is None for e in block.errors] == [True, False, True]
    assert f"{type(block.errors[1]).__name__}: {block.errors[1]}" == (
        "InfeasibleResultError: beamformer design failed at step 'TX digital precoder': "
        "leakage 2.000000000 x threshold after 3 solves"
    )
    assert not block.v_b_bb[1].any()  # the stand-in every later step accepts
    for t in (0, 2):
        np.testing.assert_array_equal(block.v_b_bb[t], clean.v_b_bb[t])
        np.testing.assert_array_equal(block.w_b_bb[t], clean.w_b_bb[t])
    calls.clear()
    single = build_estimated_channels(
        [-35.0, -15.0], [20.0], 5.0, est.h_bb_hat[1], *dims
    )
    calls.append(None)  # the single design's one call is the second
    with pytest.raises(InfeasibleResultError, match="step 'TX digital precoder'"):
        run_algorithm1(single, cfg)
