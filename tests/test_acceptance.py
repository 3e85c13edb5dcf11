"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not tuned at runtime.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from fdisac.config import fast_profile, table1_profile
from fdisac.errors import DegenerateCombinerError
from fdisac.optimizer import nsp_rx_combiner, numeric_tx_precoder
from fdisac.runner import run_scenario, sweep, validate_suite
from oracles import crandn, steering


def _report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_1_doa_recovery():
    # fast profile, 5 objects at -30/-20/-10(UL)/+20/+40 deg, P_b = 30 dBm,
    # noise -90 dBm: every angle within 0.1 deg in at least 95 of 100 trials
    start = time.perf_counter()
    cfg = fast_profile(trials=100, seed=101)
    assert cfg.tx_power_dbm == 30.0 and cfg.bs_noise_dbm == -90.0
    assert sorted(s.angle_deg for s in cfg.all_target_specs()) == [-30, -20, -10, 20, 40]
    report = run_scenario(cfg)
    hits = 0
    for trial in report.trials:
        if "error" in trial:
            continue
        if max(row["doa_error_deg"] for row in trial["sensing"]) <= 0.1:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 95, f"only {hits}/100 trials recovered all angles"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _report(1, f"DoA recovery {hits}/100 trials within 0.1 deg in {elapsed:.1f} s")


def test_criterion_2_range_velocity_quantization():
    # Table-I numerology: on-grid targets recover exact bins with no noise and
    # perfect CSI; off-grid targets land within one bin
    cfg = table1_profile(trials=1, seed=7, bs_noise_dbm=-400.0)
    wf = cfg.waveform()
    np.testing.assert_allclose(wf.range_bin_m, 1.578, atol=1e-3)
    np.testing.assert_allclose(wf.velocity_bin_mps, 42.9, atol=0.05)
    report = run_scenario(cfg)
    trial = report.trials[0]
    assert "error" not in trial, trial.get("error")
    for row in trial["sensing"]:
        true_n = round(row["true_range_m"] / wf.range_bin_m)
        true_m = round(row["true_velocity_mps"] / wf.velocity_bin_mps)
        assert row["bin_n"] == true_n, f"range bin {row['bin_n']} != {true_n}"
        assert row["bin_m"] == true_m, f"velocity bin {row['bin_m']} != {true_m}"

    # off-grid: shift every range by 0.37 bins and every velocity by 0.4 bins
    def shift(spec):
        return spec.__class__(
            angle_deg=spec.angle_deg,
            range_m=spec.range_m + 0.37 * wf.range_bin_m,
            velocity_mps=spec.velocity_mps + 0.4 * wf.velocity_bin_mps,
        )

    off = cfg.with_overrides(
        dl_scatterers=tuple(shift(s) for s in cfg.dl_scatterers),
        radar_targets=tuple(shift(s) for s in cfg.radar_targets),
        ul_user=shift(cfg.ul_user),
    )
    trial = run_scenario(off).trials[0]
    assert "error" not in trial, trial.get("error")
    for row in trial["sensing"]:
        assert abs(row["bin_n"] - row["true_range_m"] / wf.range_bin_m) <= 1.0
        assert abs(row["bin_m"] - row["true_velocity_mps"] / wf.velocity_bin_mps) <= 1.0
    _report(2, "exact bins on-grid, within one bin off-grid (Table-I numerology)")


def test_criterion_3_nsp_nulling():
    rng = np.random.default_rng(31)
    worst = 0.0
    for i in range(1000):
        m_rf = 8
        if i % 2 == 0:
            h_int = crandn(rng, m_rf, 4)
        else:
            # steering-built interference with a random compression
            w = crandn(rng, 16, m_rf)
            angles = rng.uniform(-80, 80, size=4)
            h_int = sum(
                np.outer(w.conj().T @ steering(16, a), steering(6, a).conj())
                for a in angles
            )
        h_ul = np.outer(crandn(rng, m_rf), crandn(rng, 3).conj())
        w_bb, errors = nsp_rx_combiner(h_ul, h_int)
        assert errors == (None,)
        ratio = np.linalg.norm(w_bb.conj().T @ h_int) / np.linalg.norm(h_int)
        worst = max(worst, ratio)
    assert worst <= 1e-9, f"worst nulling ratio {worst:.3e}"

    direction = crandn(np.random.default_rng(32), 8)
    h_int = direction[:, None] * np.array([1.0, 0.5j])[None, :]
    _, errors = nsp_rx_combiner(direction[:, None], h_int)
    assert isinstance(errors[0], DegenerateCombinerError)
    _report(3, f"1000 instances nulled, worst ratio {worst:.2e}; degenerate case fails")


def test_criterion_4_closed_form_vs_numeric_precoder():
    # the dual solver against the single-RX-chain closed form (Sherman-Morrison
    # multiplier, kept here as the oracle)
    rng = np.random.default_rng(41)
    lam = 1e-6  # -30 dBm
    worst_gap, worst_feas, worst_kkt = 0.0, 0.0, 0.0
    n_active = 0
    for i in range(100):
        p_b = 10.0 ** ((40.0 * (i % 10) / 9.0 - 30.0) / 10.0)  # 0..40 dBm grid
        m_u = n_rf = st = 5
        h = crandn(rng, m_u, n_rf)
        _, _, vh = np.linalg.svd(h, full_matrices=False)
        g = h @ vh.conj().T[:, :st] * np.sqrt(p_b / st)
        t1 = crandn(rng, n_rf) * 10.0 ** rng.uniform(-4, -1)
        normal = h.conj().T @ h
        v_ls = np.linalg.solve(normal, h.conj().T @ g)
        s_quad = float(np.real(t1.conj() @ np.linalg.solve(normal, t1)))
        zeta = max(np.linalg.norm(t1.conj() @ v_ls) / np.sqrt(lam) - 1.0, 0.0) / s_quad
        v_cf = np.linalg.solve(normal + zeta * np.outer(t1, t1.conj()), h.conj().T @ g)
        v_num, info = numeric_tx_precoder(h, t1[None, :], lam, g, return_info=True)
        assert info["errors"] == (None,)
        obj_cf = np.linalg.norm(h @ v_cf - g) ** 2
        obj_num = np.linalg.norm(h @ v_num - g) ** 2
        scale = max(obj_num, 1e-12)
        worst_gap = max(worst_gap, abs(obj_cf - obj_num) / scale)
        worst_feas = max(worst_feas, float(np.linalg.norm(t1.conj() @ v_cf) ** 2) / lam)
        assert np.linalg.norm(t1.conj() @ v_num) ** 2 <= lam  # the solver is strictly feasible
        assert info["multipliers"][0] == pytest.approx(zeta, rel=1e-9, abs=0.0)
        n_active += zeta > 0
        assert zeta >= 0.0
        # KKT residuals of the closed form, and stationarity of the solver's
        # point under the closed-form multiplier
        leak = float(np.linalg.norm(t1.conj() @ v_cf) ** 2)
        slack = abs(zeta * (leak - lam)) / lam
        for v in (v_cf, v_num):
            stat = np.linalg.norm(
                normal @ v - h.conj().T @ g + zeta * np.outer(t1, t1.conj()) @ v
            ) / np.linalg.norm(h.conj().T @ g)
            worst_kkt = max(worst_kkt, slack / 1e-8, stat / 1e-6)
    assert worst_gap <= 1e-9, f"objective gap {worst_gap:.3e}"
    assert worst_feas <= 1.0 + 1e-6, f"constraint violation factor {worst_feas}"
    assert worst_kkt <= 1.0, f"KKT residual at {worst_kkt:.2f}x its tolerance"
    assert 10 <= n_active <= 90  # the instance mix actually exercises both branches
    _report(4, f"100 instances, gap <= {worst_gap:.1e}, {n_active} active constraints")


def test_criterion_5_si_budget():
    cfg = fast_profile(trials=20, seed=51)
    assert cfg.csi_nmse_db is None and cfg.tx_power_dbm == 30.0
    payload, ok = validate_suite(cfg)
    failed = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert ok, f"validate checks failed: {failed}"
    report = run_scenario(cfg)
    worst = max(max(t["analog_residual_w"]) for t in report.trials)
    assert worst <= cfg.lambda_b_watts, f"residual {worst:.3e} W above -30 dBm"
    _report(5, f"analog SI residual {worst:.2e} W <= {cfg.lambda_b_watts:.0e} W in all trials")


def test_criterion_6_ul_combiner_ordering():
    start = time.perf_counter()
    cfg = fast_profile(trials=100, seed=61)
    values = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    for value, point in zip(values, sweep(cfg, "p_u_dbm", values)):
        agg = point.aggregate
        assert agg["mean_rate_ul_nsp"] >= agg["mean_rate_ul_mss"], (
            f"MSS beat NSP at P_u = {value} dBm"
        )
    elapsed = time.perf_counter() - start
    _report(6, f"NSP >= MSS at all {len(values)} uplink power points ({elapsed:.0f} s)")


def test_criterion_7_dl_rate_sanity():
    # high TX power engages the leakage constraint so the tap count matters
    cfg = fast_profile(trials=25, seed=71, tx_power_dbm=55.0)
    taps = [0, 32, 64]  # none, half, full
    aggs = [point.aggregate for point in sweep(cfg, "n_taps", taps)]
    rates = [agg["mean_rate_dl"] for agg in aggs]
    for agg in aggs:
        assert agg["mean_rate_dl"] <= agg["mean_rate_dl_ideal"] + 1e-9
    assert rates[0] <= rates[1] + 1e-9 and rates[1] <= rates[2] + 1e-9, rates
    # default power point: proposed stays below ideal as well
    base = run_scenario(fast_profile(trials=10, seed=72))
    for t in base.trials:
        assert t["metrics"]["rate_dl"] <= t["metrics"]["rate_dl_ideal"] + 1e-9
    _report(7, f"DL rate <= ideal everywhere; taps {taps} -> rates {np.round(rates, 3)}")


def test_criterion_8_validate_determinism(tmp_path):
    start = time.perf_counter()
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fdisac.cli", "validate", "--profile", "fast",
             "--seed", "42", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append((out / "report.json").read_bytes())
    elapsed = time.perf_counter() - start
    assert outs[0] == outs[1], "validate reports differ between runs"
    assert elapsed < 300.0, f"validate suite took {elapsed:.0f} s"
    payload = json.loads(outs[0])
    assert all(c["passed"] for c in payload["checks"])
    _report(8, f"byte-identical validate reports, two runs in {elapsed:.0f} s")
