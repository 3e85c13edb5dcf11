import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from fdisac.arrays import dft_codebook
from fdisac.beamforming import assemble_analog
from fdisac.channels import (
    SPEED_OF_LIGHT, delay_doppler_phase, fill_complex_normal, gen_ul_channel,
)
from fdisac.config import ScenarioConfig, TargetSpec, fast_profile, table1_profile
from fdisac import runner
from fdisac.runner import (
    RunReport,
    _block_trials,
    _build_plan,
    _match_doas,
    _sense_block,
    _slot2,
    dwell_projections,
    receiver_rows,
    run_scenario,
    scenario_plan,
    spread_analog,
    sweep,
    synthesize_rx_snapshots,
    validate_suite,
    waveform_basis,
)
from fdisac.sensing import (
    angle_grid, combiner_manifold, delay_doppler_quotient, sample_covariance,
)
from oracles import crandn, post_canceller_si, radar_channel_at, steering
from test_workload_golden import CONFIGS, moved_from_record


def _tiny_config(**overrides):
    base = ScenarioConfig(
        tx_rf_chains=4,
        rx_rf_chains=4,
        tx_antennas_per_rf=2,
        rx_antennas_per_rf=2,
        dl_user_antennas=3,
        ul_user_antennas=2,
        n_subcarriers=32,
        n_symbols=8,
        analog_taps=8,
        codebook_bits=4,
        trials=2,
        seed=5,
    )
    wf = base.waveform()
    cfg = base.with_overrides(
        dl_scatterers=(TargetSpec(-30.0, 2 * wf.range_bin_m, 0.0),),
        radar_targets=(),
        ul_user=TargetSpec(-10.0, 3 * wf.range_bin_m, wf.velocity_bin_mps),
    )
    return cfg.with_overrides(**overrides) if overrides else cfg


def _oracle_snapshots(specs, gains, phases, h_ul, si_residual, v_rf, tx_rf, v_u, w_rf, sym_u,
                      noise_rf):
    """Slot-1 snapshots term by term on the grid, as before the waveform basis.

    ``tx_rf`` is the RF-chain TX signal V_bb sym_b and row k of ``phases``
    target k's delay-Doppler phase over the cells; target k reflects with
    ``gains[k]`` from ``specs[k]``.
    """
    w_h = w_rf.conj().T
    y = si_residual @ tx_rf
    y += np.outer(w_h @ (h_ul @ v_u), sym_u)
    for spec, gain, phase in zip(specs, gains, phases):
        a_rx = steering(h_ul.shape[0], spec.angle_deg)
        a_tx = steering(v_rf.shape[-2], spec.angle_deg)
        y += np.outer(w_h @ a_rx, gain * phase * ((a_tx.conj() @ v_rf) @ tx_rf))
    y += noise_rf
    return y


def _oracle_projection(c, specs, gains, phases, h_ul, si_residual, v_rf, tx_rf, v_u, w_rf,
                       sym_u, noise_rf):
    """c^T y of :func:`_oracle_snapshots`, each term projected before it meets the grid."""
    cw_h = c @ w_rf.conj().T
    a_tx_v = [steering(v_rf.shape[-2], spec.angle_deg).conj() @ v_rf for spec in specs]
    terms = np.array([c @ si_residual] + a_tx_v) @ tx_rf
    y = (cw_h @ (h_ul @ v_u)) * sym_u + terms[0] + c @ noise_rf
    for spec, gain, phase, echo in zip(specs, gains, phases, terms[1:]):
        y += (cw_h @ steering(h_ul.shape[0], spec.angle_deg)) * gain * phase * echo
    return y


def _oracle_pointed_analog(n_chains, cb, angle_deg):
    """Every chain on the codebook beam with the highest gain toward ``angle_deg``."""
    gains = np.abs(cb.conj() @ steering(cb.shape[-1], angle_deg))
    idx = int(np.argmax(gains))
    return assemble_analog(np.tile(cb[idx], (n_chains, 1)))


def _basis(cfg, rng, sigma):
    """One trial's waveform basis of ``cfg``: drawn rows first, echo rows after them."""
    plan, st, wf = scenario_plan(cfg), cfg.n_streams, cfg.waveform()
    n_drawn = st + 1 + cfg.rx_rf_chains
    basis = np.empty((n_drawn + cfg.k_targets * st, wf.n_subcarriers * wf.n_symbols), complex)
    # the drawn rows as a trial of _sense_block fills them: sym_b, sym_u, then the noise
    fill_complex_normal(rng, basis[:st])
    fill_complex_normal(rng, basis[st : st + 1])
    fill_complex_normal(rng, basis[st + 1 : n_drawn], sigma)
    return waveform_basis(basis, plan.delay_phases, plan.doppler_phases, st), n_drawn


def _scene(cfg, rng):
    """Target specs and random gains, UL channel and precoders of one trial of ``cfg``, its basis."""
    specs = cfg.all_target_specs()
    gains = np.array([np.exp(2j * np.pi * rng.random()) for _ in specs])
    h_ul = gen_ul_channel(1j, cfg.ul_user.angle_deg, cfg.n_rx_antennas, cfg.ul_user_antennas)
    v_u = crandn(rng, cfg.ul_user_antennas)
    v_bb = crandn(rng, cfg.tx_rf_chains, cfg.n_streams)
    basis, n_drawn = _basis(cfg, rng, 1e-3)
    return specs, gains, h_ul, v_u, v_bb, basis, n_drawn


def _snapshots(cfg, basis, n_drawn, w_rf, v_rf, h_si, h_si_hat, v_bb, h_ul, v_u, specs, gains):
    """Slot-1 snapshots of one trial and the pipeline's covariance of them, a block of one.

    The snapshots are the trial's identity receivers (:func:`receiver_rows`)
    times its whole ``basis``; the covariance comes from the chunked sum of
    :func:`synthesize_rx_snapshots`.
    """
    angles = [spec.angle_deg for spec in specs]
    args = (w_rf, v_rf, h_si[None], h_si_hat[None], v_bb, h_ul[None], v_u[None], angles,
            np.asarray(gains)[None])
    y = receiver_rows(np.eye(w_rf.shape[-1]), *args)[0] @ basis
    gram = synthesize_rx_snapshots(basis[None, :n_drawn], scenario_plan(cfg), *args)
    return y, sample_covariance(gram, basis.shape[-1])[0]


def _assert_covariance_of(y, cov, exact):
    """``cov`` is the covariance of the snapshots ``y`` (m_rf, n_cells) formed in one product.

    Bit for bit if ``exact`` (the pipeline summed one chunk), else within 1e-14
    of the largest entry.
    """
    r = y @ y.conj().T / y.shape[-1]
    want = (r + r.conj().T) / 2.0
    if exact:
        assert cov.tobytes() == want.tobytes()
    assert np.abs(cov - want).max() <= 1e-14 * np.abs(want).max()


def _si_pair(cfg, rng, scale):
    """An antenna-domain SI channel and an estimate of it off by ``scale`` CN(0, 1) entries."""
    h_si = crandn(rng, cfg.n_rx_antennas, cfg.n_tx_antennas)
    return h_si, h_si + scale * crandn(rng, *h_si.shape)


def _oracle_si(cfg, w_rf, v_rf, h_si, h_si_hat):
    """The RF-chain SI that both cancellers leave, each built as the paper states."""
    w_h = w_rf.conj().T
    return post_canceller_si(w_h @ h_si @ v_rf, w_h @ h_si_hat @ v_rf, cfg.analog_taps)


def _oracle_waveforms(cfg, specs, basis, v_bb):
    """Phases, V_bb sym_b, sym_u and noise in the per-term oracles' form, read from ``basis``."""
    wf, st = cfg.waveform(), cfg.n_streams
    column, row = np.arange(wf.n_subcarriers)[:, None], np.arange(wf.n_symbols)
    phases = [delay_doppler_phase(s.range_m, s.velocity_mps, wf, column, row).ravel()
              for s in specs]
    return phases, v_bb @ basis[:st], basis[st], basis[st + 1 : st + 1 + cfg.rx_rf_chains]


def test_snapshot_synthesis_matches_per_cell_channel_oracle():
    # oracle: assemble the same snapshots cell by cell from the radar channel
    cfg = _tiny_config()
    wf = cfg.waveform()
    rng = np.random.default_rng(0)
    cells = wf.n_subcarriers * wf.n_symbols
    specs = cfg.all_target_specs()
    gains = [0.8 + 0.1j] * len(specs)
    cb_tx = dft_codebook(cfg.tx_antennas_per_rf, cfg.codebook_bits)
    cb_rx = dft_codebook(cfg.rx_antennas_per_rf, cfg.codebook_bits)
    v_rf = spread_analog(cfg.tx_rf_chains, cb_tx)
    w_rf = spread_analog(cfg.rx_rf_chains, cb_rx)
    st = cfg.n_streams
    v_bb = (rng.standard_normal((4, st)) + 1j * rng.standard_normal((4, st))) / 2
    v_u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    h_ul = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    h_si, h_si_hat = _si_pair(cfg, rng, 0.01)
    basis, n_drawn = _basis(cfg, rng, 0.1)
    sym_b, sym_u, noise = basis[:st], basis[st], basis[st + 1 : st + 5]

    y, cov = _snapshots(cfg, basis, n_drawn, w_rf, v_rf, h_si, h_si_hat, v_bb, h_ul, v_u, specs,
                        gains)
    _assert_covariance_of(y, cov, exact=True)
    si_residual = _oracle_si(cfg, w_rf, v_rf, h_si, h_si_hat)
    assert np.abs(si_residual).min() > 0

    w_h = w_rf.conj().T
    for cell in (0, 17, cells - 1):
        p, q = divmod(cell, wf.n_symbols)
        h_rad = radar_channel_at(gains, specs, p, q, wf, 8, 8)
        x_b = v_rf @ (v_bb @ sym_b[:, cell])  # antenna-domain TX vector
        expected = w_h @ (h_rad @ x_b + h_ul @ (v_u * sym_u[cell]))
        expected += si_residual @ (v_bb @ sym_b[:, cell]) + noise[:, cell]
        np.testing.assert_allclose(y[:, cell], expected, atol=1e-10)


@pytest.mark.parametrize("profile", [fast_profile, table1_profile])
def test_waveform_basis_draws_match_complex_draws(profile):
    # oracle: the complex draws the basis replaced, on a generator of the same seed
    cfg = profile()
    wf, st, m = cfg.waveform(), cfg.n_streams, cfg.rx_rf_chains
    n = wf.n_subcarriers * wf.n_symbols
    specs = cfg.all_target_specs()
    sigma = np.sqrt(cfg.sigma_b2_watts)
    rng_basis, rng = np.random.default_rng(3), np.random.default_rng(3)
    basis, _ = _basis(cfg, rng_basis, sigma)
    sym_b = (rng.standard_normal((st, n)) + 1j * rng.standard_normal((st, n))) / np.sqrt(2)
    sym_u = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    noise = sigma * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    column, row = np.arange(wf.n_subcarriers)[:, None], np.arange(wf.n_symbols)
    echoes = [delay_doppler_phase(s.range_m, s.velocity_mps, wf, column, row).ravel() * sym_b
              for s in specs]
    expected = np.concatenate([sym_b, sym_u[None], noise, *echoes])
    assert basis.shape == expected.shape == (st + 1 + m + len(specs) * st, n)
    assert basis.tobytes() == expected.tobytes()  # bit for bit
    assert rng_basis.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("profile", [fast_profile, table1_profile])
def test_slot1_snapshots_match_per_term_oracle(profile):
    # oracle: every term of the slot-1 snapshots formed on the grid and summed,
    # with a nonzero SI residual
    cfg = profile()
    rng = np.random.default_rng(13)
    specs, gains, h_ul, v_u, v_bb, basis, n_drawn = _scene(cfg, rng)
    v_rf = spread_analog(cfg.tx_rf_chains, dft_codebook(cfg.tx_antennas_per_rf, cfg.codebook_bits))
    w_rf = spread_analog(cfg.rx_rf_chains, dft_codebook(cfg.rx_antennas_per_rf, cfg.codebook_bits))
    h_si, h_si_hat = _si_pair(cfg, rng, 1e-2)
    y, cov = _snapshots(cfg, basis, n_drawn, w_rf, v_rf, h_si, h_si_hat, v_bb, h_ul, v_u, specs,
                        gains)
    _assert_covariance_of(y, cov, exact=profile is fast_profile)
    resid = _oracle_si(cfg, w_rf, v_rf, h_si, h_si_hat)
    assert np.abs(resid).min() > 0
    phases, tx_rf, sym_u, noise = _oracle_waveforms(cfg, specs, basis, v_bb)
    expected = _oracle_snapshots(specs, gains, phases, h_ul, resid, v_rf, tx_rf, v_u, w_rf, sym_u,
                                 noise)
    assert y.shape == expected.shape
    assert np.abs(y - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-90.0, 90.0), min_size=1, max_size=6).flatmap(
        lambda true: st.tuples(
            st.just(true),
            st.lists(st.floats(-90.0, 90.0), min_size=len(true), max_size=len(true)),
        )
    )
)
def test_doa_matching_has_minimum_total_cost(angles):
    # oracle: the optimal assignment of the |estimate - true| cost matrix
    true, est = angles
    matched = _match_doas(est, true)
    assert sorted(matched) == sorted(est)
    cost = np.abs(np.subtract.outer(est, true))
    rows, cols = linear_sum_assignment(cost)
    optimum = cost[rows, cols].sum()
    assert np.abs(matched - np.asarray(true)).sum() == pytest.approx(optimum, rel=1e-12, abs=1e-9)


def test_crossed_doas_give_the_ul_user_a_neighbours_bins_in_a_trial_that_completes(monkeypatch):
    # MUSIC reads scatterer 2 (true -20 deg) at -20.5 deg and, in place of the UL
    # user's -10 deg, a spurious -20 deg: the sorted matching gives the UL user
    # -20 deg, so its dwell reads scatterer 2's bins, 234.2 m off, and the UL
    # rate falls from 0.451 to 0.0077 in a trial that does not fail. The
    # per-trial main-lobe check on the estimates (ROADMAP item 3) is to turn this
    # case into a failed trial
    def crossed(cov, k, grid_deg, manifold, gain):
        return [[-30.0, -20.5, -20.0, 20.0, 40.0]] * len(cov), (None,) * len(cov)

    monkeypatch.setattr(runner, "music_doas", crossed)
    report = run_scenario(fast_profile(trials=1, seed=6))
    (trial,) = report.trials
    assert "error" not in trial
    assert [row["doa_deg"] for row in trial["sensing"]] == [-30.0, -20.5, 20.0, 40.0, -20.0]
    assert [(row["bin_n"], row["bin_m"]) for row in trial["sensing"]] == [
        (12, 0), (25, 0), (50, 1), (62, -2), (25, 0)]
    assert report.aggregate["max_doa_error_deg"] == 10.0


def test_aggregate_reports_the_worst_velocity_error():
    cfg = fast_profile(trials=3, seed=2)
    bin_mps = cfg.waveform().velocity_bin_mps
    first, *rest = cfg.radar_targets
    off = replace(first, velocity_mps=first.velocity_mps + 0.3 * bin_mps)
    report = run_scenario(cfg.with_overrides(radar_targets=(off, *rest)))
    rows = [row for t in report.trials if "error" not in t for row in t["sensing"]]
    worst = report.aggregate["max_velocity_error_mps"]
    assert rows and worst == max(row["velocity_error_mps"] for row in rows)
    # the estimate is a whole bin, so the off-grid target's error is at least 0.3 bins
    assert worst >= 0.3 * bin_mps * (1 - 1e-12) > 0


def test_run_scenario_deterministic_bytes():
    cfg = _tiny_config()
    r1 = run_scenario(cfg).to_json()
    r2 = run_scenario(cfg).to_json()
    assert r1 == r2


def test_report_excludes_wall_clock():
    report = run_scenario(_tiny_config(trials=1))
    assert report.wall_clock_s is not None
    assert "wall_clock" not in report.to_json()


def test_report_json_keys_are_the_report_fields_but_the_wall_clock():
    cfg = _tiny_config(trials=1)
    names = {f.name for f in fields(RunReport)} - {"wall_clock_s"}
    assert names == {"config", "seed", "trials", "aggregate", "range_angle", "range_velocity"}
    for report in (run_scenario(cfg), *sweep(cfg, "n_taps", [0, 8])):
        assert set(json.loads(report.to_json())) == names


def _listed(part):
    """The map dict ``part`` with each array replaced by its ``tolist()``."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in part.items()}


def test_report_maps_are_arrays_and_serialize_as_their_lists():
    cfg = _tiny_config(trials=3)
    report = run_scenario(cfg)
    k, wf = cfg.k_targets, cfg.waveform()
    ra, rv = report.range_angle, report.range_velocity
    for array, shape in ((ra["angles_deg"], (k,)), (ra["profiles"], (k, wf.n_subcarriers)),
                         (rv["magnitude"], (wf.n_subcarriers, wf.n_symbols))):
        assert type(array) is np.ndarray and array.dtype == np.float64
        assert array.shape == shape
    assert np.allclose(ra["profiles"].max(axis=-1), 1.0)
    listed = replace(report, range_angle=_listed(ra), range_velocity=_listed(rv))
    assert report.to_json() == listed.to_json()


def test_warm_table1_report_retains_its_maps_as_arrays():
    # as nested lists of floats the maps and profiles kept ~536 KB traced per
    # report; as float64 arrays ~128 KB
    cfg = table1_profile(trials=1, seed=3)
    run_scenario(cfg)
    tracemalloc.start()
    try:
        report = run_scenario(cfg)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.aggregate["n_failed"] == 0
    assert retained <= 200e3


def test_config_echo_round_trips():
    cfg = _tiny_config(trials=1)
    report = run_scenario(cfg)
    echoed = ScenarioConfig.from_dict(report.config)
    assert echoed == cfg
    again = run_scenario(echoed)
    assert again.to_json() == report.to_json()


def test_noiseless_on_grid_end_to_end_zero_bin_error():
    # full-pipeline oracle: on-grid targets, perfect CSI, noise at -400 dBm
    # (1e-43 W, zero at double precision but keeps the SINR stage defined)
    cfg = _tiny_config(bs_noise_dbm=-400.0, trials=3)
    wf = cfg.waveform()
    report = run_scenario(cfg)
    for trial in report.trials:
        assert "error" not in trial
        for row in trial["sensing"]:
            true_n = round(row["true_range_m"] / wf.range_bin_m)
            true_m = round(row["true_velocity_mps"] / wf.velocity_bin_mps)
            assert row["bin_n"] == true_n
            assert row["bin_m"] == true_m
            assert row["doa_error_deg"] <= 0.1


def test_fig2_style_range_angle_map_peaks():
    cfg = fast_profile(trials=1, seed=2)
    wf = cfg.waveform()
    report = run_scenario(cfg)
    ra = report.range_angle
    specs = cfg.all_target_specs()
    for k, spec in enumerate(specs):
        assert abs(ra["angles_deg"][k] - spec.angle_deg) <= 0.1
        peak_range = ra["ranges_m"][int(np.argmax(ra["profiles"][k]))]
        assert abs(peak_range - spec.range_m) <= wf.range_bin_m


def test_range_velocity_map_masses_on_targets():
    cfg = fast_profile(trials=1, seed=3)
    wf = cfg.waveform()
    report = run_scenario(cfg)
    rv = report.range_velocity["magnitude"]
    # the K strongest cells sit on the configured (range, velocity) bins
    flat = np.argsort(rv.ravel())[::-1][: cfg.k_targets]
    cells = {divmod(int(i), rv.shape[1]) for i in flat}
    expected = {
        (
            round(s.range_m / wf.range_bin_m),
            round(s.velocity_mps / wf.velocity_bin_mps) + wf.n_symbols // 2,
        )
        for s in cfg.all_target_specs()
    }
    assert cells == expected


def test_all_trials_failing_raises(monkeypatch):
    def broken(z):
        raise FloatingPointError("injected")

    # the dwells' map covers the whole block, so every trial fails
    monkeypatch.setattr(runner, "delay_doppler_map", broken)
    with pytest.raises(RuntimeError, match="^all 2 trials failed; first: FloatingPointError: "
                                           "injected$"):
        run_scenario(_tiny_config())


def test_sweep_single_value_matches_run_scenario():
    cfg = _tiny_config()
    (point,) = sweep(cfg, "p_u_dbm", [cfg.ul_tx_power_dbm])
    assert point.to_json() == run_scenario(cfg).to_json()


def test_sweep_validates_variable_and_values():
    cfg = _tiny_config()
    with pytest.raises(ValueError):
        sweep(cfg, "bandwidth", [1.0])
    with pytest.raises(ValueError):
        sweep(cfg, "p_u_dbm", [])


def test_sweep_n_taps_runs_the_field_and_field_names_are_rejected():
    cfg = _tiny_config(trials=1)
    points = sweep(cfg, "n_taps", [0, 8])
    assert [point.config["analog_taps"] for point in points] == [0, 8]
    for value, point in zip((0, 8), points):
        assert point.aggregate == run_scenario(cfg.with_overrides(analog_taps=value)).aggregate
    for field in ("tx_power_dbm", "ul_tx_power_dbm", "analog_taps"):
        with pytest.raises(ValueError, match=r"\['n_taps', 'p_b_dbm', 'p_u_dbm'\]"):
            sweep(cfg, field, [0])


def test_sweep_rejects_a_non_integral_tap_count():
    cfg = _tiny_config(trials=1)
    for bad in (4.5, 16.9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tap counts must be integers"):
            sweep(cfg, "n_taps", [0, bad])
    # only the failing values are named, as numbers, also from an array
    with pytest.raises(ValueError, match=r"^tap counts must be integers, got \[4\.5\]$"):
        sweep(fast_profile(trials=1), "n_taps", np.array([0, 4.5]))
    # an integral float is a tap count, reported as an integer
    taps = sweep(cfg, "n_taps", [8.0])[0].config["analog_taps"]
    assert taps == 8 and type(taps) is int


def test_sweep_runs_a_numpy_array_of_values_as_the_list():
    cfg = fast_profile(trials=1)
    for variable, values in (("n_taps", [0, 8]), ("p_b_dbm", [10.0, 20.0])):
        assert [r.to_json() for r in sweep(cfg, variable, np.array(values))] == [
            r.to_json() for r in sweep(cfg, variable, values)]
    with pytest.raises(ValueError, match="^sweep needs at least one value$"):
        sweep(cfg, "p_b_dbm", np.array([]))


def test_validate_suite_passes_on_tiny_config():
    payload, ok = validate_suite(_tiny_config())
    assert ok, [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in payload["checks"]] == [
        "all_trials_completed", "analog_si_residual", "precoder_kkt", "nsp_nulling",
        "dl_rate_vs_ideal", "determinism", "finite_outputs",
    ]


_CORNER = {"tx_power_dbm": 100.0, "ul_tx_power_dbm": 100.0, "si_threshold_dbm": -30.0,
           "si_pathloss_db": 30.0, "analog_taps": 0}


@pytest.mark.parametrize("overrides", [
    {"seed": 42, "csi_nmse_db": -10.0},
    {**_CORNER, "csi_nmse_db": -300.0},
], ids=["csi_error", "corner"])
def test_validate_checks_the_leakage_the_precoder_bounds(overrides):
    # the precoder bounds the estimated leakage; the true residual differs by
    # the SI CSI error (1.45e-5 W at -10 dB NMSE) or by rounding (the corner)
    cfg = fast_profile(trials=2, **overrides)
    payload, ok = validate_suite(cfg)
    assert ok, [c for c in payload["checks"] if not c["passed"]]
    agg = payload["aggregate"]
    assert agg["max_analog_leakage_w"] <= cfg.lambda_b_watts * (1 + 1e-9)
    assert agg["max_precoder_kkt_residual"] <= 1e-8
    detail = next(c["detail"] for c in payload["checks"] if c["name"] == "analog_si_residual")
    assert f"estimated {agg['max_analog_leakage_w']:.6e} W" in detail
    assert f"true {agg['max_analog_residual_w']:.6e} W" in detail


def test_leakage_bound_seed_30_trial_completes():
    # 55 dBm without analog taps binds every leakage row; on this seed the
    # precoder used to stop 2.3e-6 above the threshold and fail the trial
    cfg = fast_profile(tx_power_dbm=55.0, analog_taps=0, trials=1, seed=30)
    trial = run_scenario(cfg).trials[0]
    assert "error" not in trial, trial.get("error")
    assert trial["tx_power_w"] <= cfg.p_b_watts * (1 + 1e-9)
    assert max(trial["analog_residual_w"]) <= cfg.lambda_b_watts
    assert trial["metrics"]["rate_dl"] <= trial["metrics"]["rate_dl_ideal"]


def _assert_recorded(names, configs):
    # each config is the workload golden's line of that name, and reports it
    assert [CONFIGS[name] for name in names] == configs
    assert not moved_from_record(names)


def test_fast_profile_golden_doas_bins_and_rates():
    _assert_recorded([f"fast-30dbm[{s}]" for s in range(4)],
                     [fast_profile(trials=10, seed=s) for s in range(4)])


def test_table1_profile_golden_doas_bins_rates_and_sinrs():
    _assert_recorded([f"table1-2trials[{s}]" for s in range(4)],
                     [table1_profile(trials=2, seed=s) for s in range(4)])


def test_fast_csi_profile_golden_doas_bins_rates_sinrs_and_maps():
    # with SI CSI at -10 dB NMSE the sensing SI residual is nonzero, and each
    # seed's averaged delay-Doppler map (its sum) moves with it
    _assert_recorded([f"csi-10db-2trials[{s}]" for s in range(4)],
                     [fast_profile(trials=2, seed=s, csi_nmse_db=-10.0) for s in range(4)])


@pytest.mark.parametrize(
    "golden",
    [
        test_fast_profile_golden_doas_bins_and_rates,
        test_table1_profile_golden_doas_bins_rates_and_sinrs,
        test_fast_csi_profile_golden_doas_bins_rates_sinrs_and_maps,
    ],
    ids=["fast", "table1", "fast_csi"],
)
def test_goldens_pass_from_cold_and_warm_cache(golden):
    _build_plan.cache_clear()
    dft_codebook.cache_clear()
    golden()  # the first call builds the plan and the codebooks
    golden()  # every call reads them


@pytest.mark.parametrize("profile", [fast_profile, table1_profile])
def test_combiner_manifold_matches_assembled_product(profile):
    # oracle: the factored form. W_rf is block diagonal and the ULA shift
    # invariant, so chain i's entry is exp(j*pi*i*n_a*sin(theta)) times its
    # subarray response f_i^H a_{n_a}(theta)
    cfg = profile()
    n_a = cfg.rx_antennas_per_rf
    w_rf = spread_analog(cfg.rx_rf_chains, dft_codebook(n_a, cfg.codebook_bits))
    grid = angle_grid(0.1)
    sin_grid = np.sin(np.deg2rad(grid))
    subarray_response = np.exp(1j * np.pi * np.arange(n_a)[:, None] * sin_grid)
    expected = np.array([
        np.exp(1j * np.pi * i * n_a * sin_grid)
        * (w_rf[i * n_a : (i + 1) * n_a, i].conj() @ subarray_response)
        for i in range(cfg.rx_rf_chains)
    ])
    got = combiner_manifold(w_rf, grid)
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("profile", [fast_profile, table1_profile])
def test_separable_phase_matches_single_exponential(profile):
    # oracle: one exponential of the whole argument per cell. Both forms round
    # an argument of up to ~64 cycles here (~780 off grid), so they agree to
    # 1e-14 per cycle rather than absolutely
    wf = profile().waveform()
    targets = [(s.range_m, s.velocity_mps) for s in profile().all_target_specs()]
    targets.append((1234.5, -71.3))  # off the range and velocity grid
    cell_p, cell_q = np.divmod(np.arange(wf.n_subcarriers * wf.n_symbols), wf.n_symbols)
    column, row = np.arange(wf.n_subcarriers)[:, None], np.arange(wf.n_symbols)
    for range_m, velocity_mps in targets:
        delay = 2.0 * range_m / SPEED_OF_LIGHT
        doppler = 2.0 * velocity_mps * wf.carrier_hz / SPEED_OF_LIGHT
        cycles = wf.symbol_duration_s * doppler * cell_q - (
            delay * wf.subcarrier_spacing_hz * cell_p
        )
        single = np.exp(2j * np.pi * cycles)
        grid = delay_doppler_phase(range_m, velocity_mps, wf, column, row).ravel()
        np.testing.assert_array_equal(
            grid, delay_doppler_phase(range_m, velocity_mps, wf, cell_p, cell_q))
        assert np.abs(grid - single).max() <= 1e-14 * max(1.0, np.abs(cycles).max())


@pytest.mark.parametrize("profile", [fast_profile, table1_profile])
def test_projected_dwell_stack_matches_full_synthesis_quotient(profile):
    # oracle: every dwell pointed, cancelled and synthesized in full on its
    # own, then projected and divided one by one; imperfect SI CSI leaves a
    # nonzero SI residual, and guarded cells (zero and 1e-10 references) are
    # included
    cfg = profile()
    wf = cfg.waveform()
    st, m = cfg.n_streams, cfg.rx_rf_chains
    rng = np.random.default_rng(11)
    specs, gains, h_ul, v_u, v_bb, basis, n_drawn = _scene(cfg, rng)
    for cell, scale in ((0, 0.0), (5, 1e-10), (17, 0.0)):
        # a zero or tiny reference in every dwell: scale sym_b, from which
        # the dwells form their echo rows
        basis[:st, cell] *= scale
    h_si = crandn(rng, cfg.n_rx_antennas, cfg.n_tx_antennas)
    h_si_hat = h_si + 0.1 * crandn(rng, *h_si.shape)
    cb_tx = dft_codebook(cfg.tx_antennas_per_rf, cfg.codebook_bits)
    cb_rx = dft_codebook(cfg.rx_antennas_per_rf, cfg.codebook_bits)
    angles = np.array([spec.angle_deg for spec in specs])
    (cy,), (s,) = dwell_projections(
        cfg, scenario_plan(cfg), basis[None, :n_drawn], angles[None], h_si[None],
        h_si_hat[None], v_bb, h_ul[None], v_u[None], gains[None],
    )
    shape = (len(specs), wf.n_subcarriers, wf.n_symbols)
    assert cy.shape == s.shape == shape
    z, excluded = delay_doppler_quotient(cy.copy(), s)
    cy, s = cy.reshape(len(specs), -1), s.reshape(len(specs), -1)

    phases, tx_rf, sym_u, noise = _oracle_waveforms(cfg, specs, basis, v_bb)
    for k, theta in enumerate(angles):
        v_k = _oracle_pointed_analog(cfg.tx_rf_chains, cb_tx, theta)
        w_k = _oracle_pointed_analog(m, cb_rx, theta)
        w_h = w_k.conj().T
        resid = post_canceller_si(w_h @ h_si @ v_k, w_h @ h_si_hat @ v_k,
                                  cfg.analog_taps)
        assert np.abs(resid).max() > 1e-3
        c = w_k.T @ steering(cfg.n_rx_antennas, theta).conj() / cfg.n_rx_antennas
        args = (specs, gains, phases, h_ul, resid, v_k, tx_rf, v_u, w_k, sym_u, noise)
        full = c @ _oracle_snapshots(*args)
        ref = steering(cfg.n_tx_antennas, theta).conj() @ (v_k @ tx_rf)
        for got, want in ((cy[k], full), (cy[k], _oracle_projection(c, *args)), (s[k], ref)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        z_k, excluded_k = delay_doppler_quotient(full.reshape(shape[1:]), ref.reshape(shape[1:]))
        np.testing.assert_array_equal(excluded[k], excluded_k)
        assert np.abs(z[k] - z_k).max() <= 1e-12 * np.abs(z_k).max()
    assert excluded.reshape(len(specs), -1)[:, [0, 5, 17]].all()
    assert excluded.sum() == 3 * len(specs)


def test_fewest_rx_chains_music_allows_run_every_trial():
    # K + 1 RX chains is the fewest a config accepts (test_config holds the
    # rejections); at that edge every trial completes and finds every DoA
    cfg = fast_profile(trials=2, rx_rf_chains=fast_profile().k_targets + 1, analog_taps=0)
    report = run_scenario(cfg)
    assert report.aggregate["n_failed"] == 0
    assert report.aggregate["max_doa_error_deg"] == 0.0


def _budget_steps(monkeypatch, cfg):
    """``run_scenario(cfg)`` and, per budget step, the column powers / p_b of
    its input and output precoders, and whether the output is the input's bytes."""
    import fdisac.optimizer as optimizer

    normalize, seen = optimizer.power_normalize, []

    def recorded(v_rf, v_bb, p_b):
        out = normalize(v_rf, v_bb, p_b)
        powers = [np.linalg.norm(v_rf @ v, axis=-2) ** 2 / p_b for v in (v_bb, out)]
        seen.append((*powers, out.tobytes() == np.asarray(v_bb, dtype=complex).tobytes()))
        return out

    monkeypatch.setattr(optimizer, "power_normalize", recorded)
    return run_scenario(cfg), seen


def test_precoder_overspends_its_budget_and_the_total_rescale_sets_it(monkeypatch):
    # fast-55dbm-0taps seed 7: the leakage-constrained precoder returns 3.65 p_b,
    # the budget step's column caps leave two columns at p_b each (2.0 p_b in
    # total), and only its total scaling brings the design to the budget
    cfg = fast_profile(tx_power_dbm=55.0, analog_taps=0, trials=1, seed=7)
    report, seen = _budget_steps(monkeypatch, cfg)
    ((before, after, untouched),) = seen
    assert before.sum() == pytest.approx(3.647, rel=1e-3)
    assert (before > 1).sum() == 2
    capped = np.minimum(before, 1.0)  # the column-capped stage
    assert capped.sum() == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(after, capped / capped.sum(), rtol=1e-12)
    assert after.sum() == pytest.approx(1.0, rel=1e-12) and not untouched
    assert report.trials[0]["tx_power_w"] == pytest.approx(cfg.p_b_watts, rel=1e-12)


@pytest.mark.parametrize("cfg", [fast_profile(trials=10, seed=0), table1_profile(trials=1, seed=0)],
                         ids=["fast", "table1"])
def test_budget_step_returns_its_input_where_the_precoder_meets_the_budget(monkeypatch, cfg):
    # at 30 dBm, and on table1, the precoder spends half the budget, so the
    # budget step is bit for bit a no-op on every block
    report, seen = _budget_steps(monkeypatch, cfg)
    assert report.aggregate["n_failed"] == 0
    assert len(seen) == -(-cfg.trials // _block_trials(cfg, scenario_plan(cfg)))
    for before, after, untouched in seen:
        assert untouched and (before.sum(axis=-1) <= 1).all()


def test_noise_only_sensing_can_make_the_nsp_combiner_degenerate():
    # the BS silent and 100 dBm noise: MUSIC's non-UL peaks are noise, and in
    # trial 0 they span the UL direction, so the null-space projector
    # annihilates the UL combiner; the other trials complete
    cfg = fast_profile(trials=3, seed=400, tx_power_dbm=-np.inf, ul_tx_power_dbm=100,
                       bs_noise_dbm=100, user_noise_dbm=100, si_threshold_dbm=np.inf,
                       si_kappa_db=-100, si_pathloss_db=300, csi_nmse_db=0,
                       music_grid_step_deg=1, analog_taps=0, codebook_bits=2)
    trials = run_scenario(cfg).trials
    assert trials[0] == {"error": "DegenerateCombinerError: beamformer design failed at step "
                                  "'NSP combiner': uplink direction lies inside the radar "
                                  "interference span"}
    assert all("error" not in t for t in trials[1:])


_POWER_FIELDS = ("tx_power_dbm", "ul_tx_power_dbm", "bs_noise_dbm", "user_noise_dbm",
                 "si_threshold_dbm")


@pytest.mark.parametrize("base", [
    fast_profile(trials=10, seed=3),
    fast_profile(trials=10, seed=3, tx_power_dbm=55.0, analog_taps=0),
], ids=["30dbm", "55dbm-0taps"])
def test_shifting_every_power_by_the_same_db_changes_no_answer(base):
    # every SINR is a ratio of powers, and the leakage threshold scales with
    # them: an absolute constant entering a power scale would move an answer
    # (measured worst SINR deviation 1.85e-14 relative)
    def answers(report):
        assert report.aggregate["n_failed"] == 0
        sensing = [[(r["doa_deg"], r["bin_n"], r["bin_m"]) for r in t["sensing"]]
                   for t in report.trials]
        gammas = np.array([[v for k, v in sorted(t["metrics"].items()) if k.startswith("gamma")]
                           for t in report.trials])
        return sensing, gammas

    sensing, gammas = answers(run_scenario(base))
    for shift_db in (10.0, 20.0, 40.0):
        cfg = base.with_overrides(**{f: getattr(base, f) + shift_db for f in _POWER_FIELDS})
        shifted_sensing, shifted_gammas = answers(run_scenario(cfg))
        assert shifted_sensing == sensing
        np.testing.assert_allclose(shifted_gammas, gammas, rtol=1e-12, atol=0)


def test_coincident_radar_targets_swap_roles_silently():
    # both fast radar targets at 20 deg: MUSIC finds a spurious peak near
    # -26 deg and the sorted matching shifts the roles in trials that do not
    # fail, so the config rejects the pair, naming both
    base = fast_profile(trials=2, seed=1)
    with pytest.raises(ValueError, match=re.escape(
            "radar_targets[0] and radar_targets[1]: target angles 0 apart in sin(angle)")):
        base.with_overrides(
            radar_targets=tuple(replace(t, angle_deg=20.0) for t in base.radar_targets))


@pytest.mark.parametrize("delta", [0.1, 0.2, 0.3, 0.5])
def test_closely_spaced_radar_targets(delta):
    # the fast radar targets at 20 and 20 + delta deg lie 0.0016 to 0.0082 apart
    # in sin(angle), inside the 32-antenna RX main lobe (2/32), where no trial
    # fails whatever the answers: at 0.1 deg a spurious peak swaps the roles and
    # at 0.3 deg one dwell reads its neighbour's bins. The config rejects each pair
    base = fast_profile(trials=2, seed=1)
    first, second = base.radar_targets
    gap = np.sin(np.deg2rad(20.0 + delta)) - np.sin(np.deg2rad(20.0))
    with pytest.raises(ValueError, match=re.escape(
            f"radar_targets[0] and radar_targets[1]: target angles {gap:.4g} apart")):
        base.with_overrides(
            radar_targets=(replace(first, angle_deg=20.0), replace(second, angle_deg=20.0 + delta))
        )


_M_B = fast_profile().n_rx_antennas
_LOBE = 2 / _M_B  # the RX main lobe's first null in sin(angle), which is 2-periodic
_TENTHS = range(-899, 900)  # the 0.1-deg scan grid within +-89.9 deg, in tenths of a degree
_SINES = np.array([math.sin(math.radians(t / 10)) for t in _TENTHS])  # as the config computes them
_NAMES = ("dl_scatterers[0]", "dl_scatterers[1]", "radar_targets[0]", "radar_targets[1]",
          "ul_user")


def _spaced_angles(draw, count, spacing):
    # grid indices of ascending angles whose sines lie >= spacing apart mod 2
    # (the last and the first across +-90 deg too); each draw leaves room for
    # the rest, so every draw succeeds
    def after(i):  # the first grid index spacing above index i
        return int(np.flatnonzero(_SINES - _SINES[i] >= spacing)[0])

    def room(top, rest):  # the last grid index that leaves rest more angles up to top
        for _ in range(rest):
            top = int(np.flatnonzero(_SINES[top] - _SINES >= spacing)[-1])
        return top

    picked = [draw(st.integers(0, room(len(_SINES) - 1, count - 1)))]
    top = int(np.flatnonzero(2.0 - (_SINES - _SINES[picked[0]]) >= spacing)[-1])
    for rest in range(count - 2, -1, -1):
        picked.append(draw(st.integers(after(picked[-1]), room(top, rest))))
    return picked


def _geometry(specs):
    return dict(dl_scatterers=tuple(specs[:2]), radar_targets=tuple(specs[2:4]),
                ul_user=specs[4])


@st.composite
def _on_grid_scenes(draw):
    # five grid angles outside each other's RX main lobes, permuted; ranges and
    # velocities on their bins
    wf = fast_profile().waveform()
    angles = draw(st.permutations(_spaced_angles(draw, 5, _LOBE)))
    bins = draw(st.lists(
        st.tuples(st.integers(0, wf.n_subcarriers - 1),
                  st.integers(-(wf.n_symbols // 2), wf.n_symbols // 2 - 1)),
        min_size=5, max_size=5,
    ))
    specs = [
        TargetSpec(_TENTHS[i] / 10, n * wf.range_bin_m, m * wf.velocity_bin_mps)
        for i, (n, m) in zip(angles, bins)
    ]
    return specs, bins, draw(st.integers(0, 2**16))


@st.composite
def _lobe_pair_scenes(draw):
    # four grid angles two main lobes apart and a fifth inside the lobe of one
    # of them, so outside every other's; permuted, with the pair's two positions
    angles = _spaced_angles(draw, 4, 2 * _LOBE)
    anchor = draw(st.integers(0, 3))
    gap = np.abs(_SINES - _SINES[angles[anchor]])
    angles.append(draw(st.sampled_from(np.flatnonzero(np.minimum(gap, 2.0 - gap) < _LOBE))))
    order = draw(st.permutations(range(5)))
    specs = [TargetSpec(_TENTHS[angles[k]] / 10, 0.0) for k in order]
    return specs, tuple(sorted((order.index(anchor), order.index(4))))


@settings(max_examples=20, deadline=None)
@given(_lobe_pair_scenes())
# 75.4 and -78.9 deg lie 0.051 apart in sin(angle), inside the main lobe: the UL
# user's dwell read bins (31, -5) in a trial that did not fail
@example(
    scene=([TargetSpec(angle_deg=0.0, range_m=0.0, velocity_mps=0.0),
            TargetSpec(angle_deg=10.0, range_m=0.0, velocity_mps=0.0),
            TargetSpec(angle_deg=-10.0, range_m=0.0, velocity_mps=0.0),
            TargetSpec(angle_deg=75.4, range_m=0.0, velocity_mps=0.0),
            TargetSpec(angle_deg=-78.9, range_m=0.0, velocity_mps=-42.86864790198591)],
           (3, 4)),
)
def test_a_pair_inside_one_main_lobe_is_rejected_naming_both_property(scene):
    # a pair inside the RX main lobe can swap bins in a trial that does not
    # fail, so the scene is rejected at build, naming both targets
    specs, (a, b) = scene
    if abs(specs[a].angle_deg - specs[b].angle_deg) > 90:
        event("a pair across +-90 deg")
    with pytest.raises(ValueError, match=re.escape(f"{_NAMES[a]} and {_NAMES[b]}: target angles ")
                       + f".* inside the {_M_B}-antenna RX main lobe"):
        fast_profile(**_geometry(specs))


@settings(max_examples=20, deadline=None)
@given(_on_grid_scenes())
def test_on_grid_bins_are_exact_property(scene):
    # no two targets lie inside one RX main lobe, so the scene builds and its
    # dwells read exact bins
    specs, bins, seed = scene
    if max(abs(spec.angle_deg) for spec in specs) > 80:
        event("accepted with a target beyond 80 deg")
    cfg = fast_profile(trials=1, seed=seed, **_geometry(specs))
    report = run_scenario(cfg)
    trial = report.trials[0]
    assert "error" not in trial, trial.get("error")
    assert [(row["bin_n"], row["bin_m"]) for row in trial["sensing"]] == [tuple(b) for b in bins]
    # each row reads its bins' map axis entries, so an exact detection has no error
    axes = report.range_velocity
    for row in trial["sensing"]:
        assert row["range_m"] == axes["ranges_m"][row["bin_n"]]
        assert row["velocity_mps"] == axes["velocities_mps"][row["bin_m"] + cfg.n_symbols // 2]
        assert row["range_error_m"] == 0.0 and row["velocity_error_mps"] == 0.0


def test_slot2_block_matches_one_trial_blocks_and_isolates_a_failed_trial():
    cfg = fast_profile(trials=1, seed=6)
    plan = scenario_plan(cfg)
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    block = _sense_block(cfg, plan, [np.random.default_rng(s) for s in seeds])
    # the UL user sensed at the first scatterer's direction: its NSP combiner degenerates
    block.matched[2, -1] = block.matched[2, 0]
    records = _slot2(cfg, block)
    assert _block_trials(cfg, plan) >= len(records) == 4
    assert records[2] == {
        "error": "DegenerateCombinerError: beamformer design failed at step 'NSP combiner': "
                 "uplink direction lies inside the radar interference span"
    }
    for t in (0, 1, 3):
        (one,) = _slot2(cfg, _sense_block(cfg, plan, [np.random.default_rng(seeds[t])]))
        assert one.keys() == records[t].keys() and "error" not in one
        assert one["sensing"] == records[t]["sensing"]
        for key, value in one["metrics"].items():
            assert records[t]["metrics"][key] == pytest.approx(value, rel=1e-12), key
        for key in ("tx_power_w", "ul_power_w", "nsp_nulling_ratio"):
            assert records[t][key] == pytest.approx(one[key], rel=1e-12, abs=1e-300), key
        np.testing.assert_allclose(records[t]["analog_residual_w"], one["analog_residual_w"],
                                   rtol=1e-12)


def test_sensing_does_not_depend_on_the_tap_count():
    # both cancellers leave the SI estimation error whatever the taps, so slot 1
    # and the dwells sense the same; only slot 2's leakage rows see the taps
    reports = [run_scenario(fast_profile(trials=3, csi_nmse_db=-10, seed=8, analog_taps=taps))
               for taps in (0, 8, 16, 32)]
    assert all(r.aggregate["n_failed"] == 0 for r in reports)
    assert len({runner.dumps([t["sensing"] for t in r.trials]) for r in reports}) == 1
    assert len({runner.dumps(r.range_velocity) for r in reports}) == 1
    residuals = [r.aggregate["max_analog_residual_w"] for r in reports]
    assert residuals[-1] < residuals[0]  # the taps did act on what reaches the ADCs


@pytest.mark.parametrize("name, check, key, budget", [
    ("v_b_bb", "TX power", "tx_power_w", "p_b_watts"),
    ("v_u_bb", "UL power", "ul_power_w", "p_u_watts"),
    ("w_b_bb", "UL combiner columns must have unit norm", None, None),
], ids=["tx", "ul", "combiner"])
def test_slot2_marks_each_trial_over_its_power_budget(monkeypatch, name, check, key, budget):
    # a design whose trial 1 has four times a power budget (or combiner
    # columns of norm 2) fails that trial's record; the others complete unchanged
    cfg = fast_profile(trials=3, seed=24)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    block = _sense_block(cfg, scenario_plan(cfg), [np.random.default_rng(s) for s in seeds])
    clean = _slot2(cfg, block)
    design = runner.run_algorithm1

    def doubled_in_trial_1(est, cfg):
        bf = design(est, cfg)
        value = getattr(bf, name).copy()
        value[1] *= 2.0
        return replace(bf, **{name: value})

    monkeypatch.setattr(runner, "run_algorithm1", doubled_in_trial_1)
    records = _slot2(cfg, block)
    assert "error" not in clean[1]
    assert records[0] == clean[0] and records[2] == clean[2]
    error = records[1]["error"]
    if key is None:
        assert error == f"ValueError: {check}"
    else:
        power = float(error.split(" ")[3])
        assert error == f"ValueError: {check} {power} exceeds budget {getattr(cfg, budget)}"
        assert power == pytest.approx(4.0 * clean[1][key], rel=1e-12)


@pytest.mark.parametrize("power", [
    {"ul_tx_power_dbm": 70.0}, {"ul_tx_power_dbm": 80.0}, {"tx_power_dbm": 100.0},
    {"ul_tx_power_dbm": -np.inf}, {"tx_power_dbm": -np.inf},
], ids=["ul70", "ul80", "tx100", "ul-inf", "tx-inf"])
def test_power_budgets_allow_rounding_at_any_power(power):
    # a design that meets its budget exactly rounds past it by a few ulps of
    # the budget; at 10 kW and above that is more than any absolute slack
    cfg = fast_profile(trials=10, seed=1, **power)
    report = run_scenario(cfg)
    assert report.aggregate["n_failed"] == 0, report.trials[0].get("error")
    for t in report.trials:
        assert t["tx_power_w"] <= cfg.p_b_watts * (1 + 1e-9)
        assert t["ul_power_w"] <= cfg.p_u_watts * (1 + 1e-9)


def _drawn_bytes(cfg):
    """Bytes of one trial's drawn waveform rows: N_s + 1 + M_rf complex rows over the cells."""
    return (cfg.n_streams + 1 + cfg.rx_rf_chains) * cfg.n_subcarriers * cfg.n_symbols * 16


def test_block_holds_the_trials_whose_drawn_rows_fit_in_one_mebibyte():
    for cfg, trials in ((fast_profile(), 5), (table1_profile(), 1)):
        assert _block_trials(cfg, scenario_plan(cfg)) == trials
        assert trials * _drawn_bytes(cfg) <= runner.BLOCK_BYTES or trials == 1
        assert (trials + 1) * _drawn_bytes(cfg) > runner.BLOCK_BYTES


@pytest.mark.parametrize(
    "cfg",
    [fast_profile(trials=10), fast_profile(trials=10, csi_nmse_db=-10), table1_profile(trials=2)],
    ids=["fast", "fast_csi", "table1"],
)
def test_block_size_does_not_change_the_report(cfg, monkeypatch):
    default = run_scenario(cfg).to_json()
    for trials in (1, 2):
        monkeypatch.setattr(runner, "BLOCK_BYTES", trials * _drawn_bytes(cfg))
        assert _block_trials(cfg, scenario_plan(cfg)) == trials
        assert run_scenario(cfg).to_json() == default


def _zero_snapshots_of_trial(monkeypatch, failing):
    """Make the ``failing``-th trial of a call see an all-zero slot-1 y y^H sum.

    A zero covariance leaves MUSIC 2 spectrum peaks for the K = 5 objects of
    ``fast``, so that trial's sensing fails.
    """
    seen = [0]
    covariance = runner.sample_covariance

    def zeroed(gram, n):
        for t in range(len(gram)):
            if seen[0] == failing:
                gram[t] = 0
            seen[0] += 1
        return covariance(gram, n)

    monkeypatch.setattr(runner, "sample_covariance", zeroed)


def test_failed_sensing_fails_only_its_trial_as_in_one_trial_blocks(monkeypatch):
    cfg = fast_profile(trials=7, seed=2)
    plain = run_scenario(cfg).trials
    _zero_snapshots_of_trial(monkeypatch, 2)
    blocks = run_scenario(cfg)  # blocks of 5 and 2 trials
    monkeypatch.setattr(runner, "BLOCK_BYTES", 1)  # blocks of one trial
    _zero_snapshots_of_trial(monkeypatch, 2)
    one_trial = run_scenario(cfg)
    error = {"error": "EstimationFailureError: found 2 spectrum peaks, needed 5"}
    assert blocks.trials[2] == one_trial.trials[2] == error
    assert blocks.trials == one_trial.trials
    assert blocks.trials[:2] + blocks.trials[3:] == plain[:2] + plain[3:]
    assert blocks.aggregate["n_failed"] == 1
    assert blocks.to_json() == one_trial.to_json()


def test_block_wide_design_failure_keeps_each_trial_sensing_error(monkeypatch):
    # the first block's design raises for the whole block: its trials read that
    # error, except trial 2, whose own sensing failed first; the second block completes
    cfg = fast_profile(trials=7, seed=2)
    plain = run_scenario(cfg).trials
    design = runner.run_algorithm1

    def fails_on_five(est, cfg):
        if len(est.h_bb_hat) == 5:
            raise FloatingPointError("injected")
        return design(est, cfg)

    _zero_snapshots_of_trial(monkeypatch, 2)
    monkeypatch.setattr(runner, "run_algorithm1", fails_on_five)
    report = run_scenario(cfg)  # blocks of 5 and 2 trials
    for t in (0, 1, 3, 4):
        assert report.trials[t] == {"error": "FloatingPointError: injected"}
    assert report.trials[2] == {"error": "EstimationFailureError: found 2 spectrum peaks, needed 5"}
    assert report.trials[5:] == plain[5:]
    assert report.aggregate["n_failed"] == 5


def _traced_peak(cfg):
    """tracemalloc peak of one ``run_scenario`` call, the plan and codebooks already built."""
    run_scenario(cfg.with_overrides(trials=1))
    tracemalloc.start()
    try:
        run_scenario(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "profile, few, many, bound",
    # per extra trial, a report record and the trial's maps stay until the end
    # (~15 KB on fast, ~0.24 MB on table1); stacking a whole call's design and
    # metrics instead of blocks would add ~200 KB and ~0.8 MB
    [(fast_profile, 10, 100, 40e3), (table1_profile, 1, 8, 0.5e6)],
)
def test_peak_memory_grows_per_trial_only_by_the_records(profile, few, many, bound):
    growth = _traced_peak(profile(trials=many, seed=3)) - _traced_peak(profile(trials=few, seed=3))
    assert growth / (many - few) <= bound


@pytest.mark.parametrize(
    "profile, trials, bound",
    # a block holds its trials' drawn waveform rows and one basis chunk:
    # blocks of 5 on fast peak at ~2.6 MB (the per-trial loop at 1.65 MB,
    # full bases for all 10 trials at 7.5 MB), the one-trial table1 block at
    # ~4.9 MB (~9.24 MB when it held one whole basis)
    [(fast_profile, 10, 3e6), (table1_profile, 1, 9.7e6)],
)
def test_peak_memory_of_one_call_is_bounded(profile, trials, bound):
    assert _traced_peak(profile(trials=trials, seed=3)) <= bound


def test_warm_table1_call_holds_no_more_than_drawn_rows_dwell_grids_and_one_chunk():
    # a one-trial table1 block needs its drawn rows, the K dwells' projections
    # and references (two K x P*Q complex grids) and one basis chunk; 20 %
    # covers the rest. Holding one whole basis peaked at 8.81 MiB, over this
    # bound; chunked, the call peaks at ~4.7 MiB
    cfg = table1_profile(trials=1, seed=2)
    dwell_grids = 2 * cfg.k_targets * cfg.n_subcarriers * cfg.n_symbols * 16
    bound = 1.2 * (_drawn_bytes(cfg) + dwell_grids + runner.CHUNK_BYTES)
    assert _traced_peak(cfg) <= bound


def _chunked_sensing(cfg, subcarriers, monkeypatch):
    """Slot-1 snapshots and covariance and the dwell grids of one scene, and the report of ``cfg``.

    The basis is formed in chunks of ``subcarriers``, or of the default size for None.
    """
    wf = cfg.waveform()
    plan, rng = scenario_plan(cfg), np.random.default_rng(17)
    specs, gains, h_ul, v_u, v_bb, basis, n_drawn = _scene(cfg, rng)
    if subcarriers is not None:
        n_rows = cfg.n_streams * (1 + cfg.k_targets) + 1 + cfg.rx_rf_chains
        monkeypatch.setattr(runner, "CHUNK_BYTES", subcarriers * n_rows * wf.n_symbols * 16)
        _, cells, _ = next(runner.basis_chunks(basis[None, :n_drawn], plan, cfg.n_streams))
        assert cells.stop - cells.start == subcarriers * wf.n_symbols
    h_si, h_si_hat = _si_pair(cfg, rng, 1e-2)
    y, cov = _snapshots(cfg, basis, n_drawn, plan.w_rf0, plan.v_rf0, h_si, h_si_hat, v_bb, h_ul,
                        v_u, specs, gains)
    angles = np.array([[spec.angle_deg for spec in specs]]) + 0.05
    dwells = dwell_projections(cfg, plan, basis[None, :n_drawn], angles, h_si[None],
                               h_si_hat[None], v_bb, h_ul[None], v_u[None], gains[None])
    return y, cov, dwells, run_scenario(cfg)


@pytest.mark.parametrize("profile", [fast_profile, table1_profile])
def test_basis_chunk_size_does_not_change_snapshots_dwells_or_report(profile, monkeypatch):
    # Every chunk size gives the covariance of the snapshots formed in one
    # product: bit for bit where one chunk holds the whole fast grid, else
    # within 1e-14 of the largest entry, as its sum adds the chunks' y y^H in
    # another order. Chunks of 2 and 10 subcarriers (10 divides neither P = 64
    # nor P = 792, so the last chunk is short) give the default's dwell bytes
    # and report. OpenBLAS's zgemm forms a product's columns in groups of four
    # and rounds a last group of one to three columns differently, so chunks
    # of 1 and 7 subcarriers (14 and 98 cells) differ in the last bits of two
    # dwell columns each: 33-term dot products, within 1e-14 of the largest
    # entry. Their trial records are the default's, and their maps differ by
    # rounding only (~1e-18 of the peak).
    cfg = profile(trials=2, seed=4, csi_nmse_db=-10.0)
    y, cov, dwells, report = _chunked_sensing(cfg, None, monkeypatch)
    _assert_covariance_of(y, cov, exact=profile is fast_profile)
    for subcarriers in (2, 10):
        _, chunked_cov, chunked, chunked_report = _chunked_sensing(cfg, subcarriers, monkeypatch)
        _assert_covariance_of(y, chunked_cov, exact=False)
        for got, want in zip(chunked, dwells):
            assert got.tobytes() == want.tobytes()
        assert chunked_report.to_json() == report.to_json()
    for subcarriers in (1, 7):
        _, chunked_cov, chunked, chunked_report = _chunked_sensing(cfg, subcarriers, monkeypatch)
        _assert_covariance_of(y, chunked_cov, exact=False)
        for got, want in zip(chunked, dwells):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert chunked_report.trials == report.trials
        got, want = chunked_report.range_velocity["magnitude"], report.range_velocity["magnitude"]
        assert np.abs(got - want).max() <= 1e-12 * want.max()


@pytest.mark.parametrize("profile", [fast_profile, table1_profile])
def test_factored_phases_give_each_chunk_the_whole_grid_phase_rows(profile):
    # oracle: each target's phase over the whole grid; with unit symbols a
    # chunk's echo rows are its phase rows (times 1 + 0j, which is exact)
    cfg = profile()
    wf, plan, st = cfg.waveform(), scenario_plan(cfg), cfg.n_streams
    p, q = np.arange(wf.n_subcarriers), np.arange(wf.n_symbols)
    want = [delay_doppler_phase(s.range_m, s.velocity_mps, wf, p[:, None], q).ravel()
            for s in cfg.all_target_specs()]
    for first in range(0, wf.n_subcarriers, 7):
        cells = slice(first * wf.n_symbols, min(first + 7, wf.n_subcarriers) * wf.n_symbols)
        basis = np.ones((st + cfg.k_targets * st, cells.stop - cells.start), dtype=complex)
        waveform_basis(basis, plan.delay_phases[:, first : first + 7], plan.doppler_phases, st)
        echo = basis[st:].reshape(cfg.k_targets, st, -1)
        for rows, phase in zip(echo, want):
            assert all(row.tobytes() == phase[cells].tobytes() for row in rows)


@pytest.mark.parametrize("profile, trials, chunks", [(fast_profile, 10, 1), (table1_profile, 1, 12)])
def test_each_pass_forms_a_trial_basis_in_its_chunks(profile, trials, chunks, monkeypatch):
    # two passes per trial, slot 1 and the dwells; a fast trial's basis is one chunk
    calls = []
    basis = runner.waveform_basis

    def counted(*args):
        calls.append(args[0].shape)
        return basis(*args)

    monkeypatch.setattr(runner, "waveform_basis", counted)
    cfg = profile(trials=trials, seed=1)
    run_scenario(cfg)
    assert len(calls) == 2 * trials * chunks
    cells = cfg.n_subcarriers * cfg.n_symbols
    assert sum(shape[1] for shape in calls) == 2 * trials * cells


_FAULTS_OF_A_WARM_CALL = """
import resource
from fdisac import run_scenario, table1_profile

cfg = table1_profile(trials=1, seed=2)
run_scenario(cfg)
run_scenario(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_scenario(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
def test_warm_one_trial_table1_call_touches_no_fresh_pages():
    # Every array of a warm one-trial call, the 512 KiB basis chunk included,
    # is small enough to reuse heap memory that the previous call freed, so
    # the call faults in no new pages (0-1 measured). Per-call arrays that
    # crossed into fresh mappings took ~1,100-2,200 faults per call. The count
    # runs in a fresh process after two warm-up calls: earlier tests'
    # allocations would hide fresh pages, and the allocator settles only
    # after the first call.
    src = str(Path(runner.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", _FAULTS_OF_A_WARM_CALL], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 100


def _assert_constant_modulus_blocks(network, n_a):
    """Each network of a stack is block-diagonal: |entry|^2 = 1/n_a on chain i's block, 0 off it."""
    n_chains = network.shape[-1]
    on_block = np.kron(np.eye(n_chains, dtype=bool), np.ones((n_a, 1), dtype=bool))
    assert network.shape[-2:] == on_block.shape
    np.testing.assert_allclose(np.abs(network[..., on_block]) ** 2, 1.0 / n_a, rtol=0, atol=1e-12)
    assert not network[..., ~on_block].any()


def test_every_analog_network_of_a_fast_run_meets_the_constant_modulus_constraint(monkeypatch):
    # the analog networks are assembled from codebook rows unchecked; this pins every one a run builds
    cfg = fast_profile(trials=3, rx_antennas_per_rf=8)  # 4 TX antennas per chain
    pointed, designs = [], []
    runner_pointed, runner_design = runner.pointed_analog_stack, runner.run_algorithm1

    def pointed_recorded(n_chains, cb, angles_deg):
        pointed.append((runner_pointed(n_chains, cb, angles_deg), cb.shape[-1]))
        return pointed[-1][0]

    def design_recorded(est, point_cfg):
        designs.append(runner_design(est, point_cfg))
        return designs[-1]

    monkeypatch.setattr(runner, "pointed_analog_stack", pointed_recorded)
    monkeypatch.setattr(runner, "run_algorithm1", design_recorded)
    report = run_scenario(cfg)
    assert not any("error" in t for t in report.trials)
    plan = scenario_plan(cfg)
    tx, rx = cfg.tx_antennas_per_rf, cfg.rx_antennas_per_rf
    networks = [(plan.v_rf0, tx), (plan.w_rf0, rx), *pointed]
    networks += [(net, n_a) for bf in designs for net, n_a in ((bf.v_b_rf, tx), (bf.w_b_rf, rx))]
    assert len(pointed) == 2 and designs  # TX and RX dwells of the one block, and its design
    assert sorted(n_a for _, n_a in pointed) == [tx, rx]
    for network, n_a in networks:
        _assert_constant_modulus_blocks(network, n_a)
