import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from fdisac.arrays import dft_codebook, ula_response_matrix
from fdisac.channels import (
    PathParams, TargetParams, delay_doppler_phase, gen_ul_channel, radar_channel_at,
)
from fdisac.config import ScenarioConfig, TargetSpec, fast_profile, table1_profile
from fdisac.runner import (
    _match_doas,
    pointed_analog,
    project_snapshots,
    run_scenario,
    spread_analog,
    sweep,
    synthesize_rx_snapshots,
    validate_suite,
)
from fdisac.sensing import (
    angle_grid,
    combiner_manifold,
    delay_doppler_quotient,
    dwell_weights,
    reference_signal_grid,
)


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


def test_snapshot_synthesis_matches_per_cell_channel_oracle():
    # oracle: assemble the same snapshots cell by cell from the radar channel
    cfg = _tiny_config()
    wf = cfg.waveform()
    rng = np.random.default_rng(0)
    cells = wf.n_subcarriers * wf.n_symbols
    targets = [
        TargetParams(gain=0.8 + 0.1j, angle_deg=s.angle_deg, range_m=s.range_m,
                     velocity_mps=s.velocity_mps)
        for s in cfg.all_target_specs()
    ]
    cb_tx = dft_codebook(cfg.tx_antennas_per_rf, cfg.codebook_bits)
    cb_rx = dft_codebook(cfg.rx_antennas_per_rf, cfg.codebook_bits)
    v_rf = spread_analog(cfg.tx_rf_chains, cb_tx)
    w_rf = spread_analog(cfg.rx_rf_chains, cb_rx)
    st = cfg.n_streams
    v_bb = (rng.standard_normal((4, st)) + 1j * rng.standard_normal((4, st))) / 2
    v_u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    h_ul = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    si_residual = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) * 0.01
    sym_b = (rng.standard_normal((st, cells)) + 1j * rng.standard_normal((st, cells)))
    sym_u = rng.standard_normal(cells) + 1j * rng.standard_normal(cells)
    noise = np.zeros((4, cells), dtype=complex)
    cell_p, cell_q = np.divmod(np.arange(cells), wf.n_symbols)
    phases = [delay_doppler_phase(t, wf, cell_p, cell_q) for t in targets]
    tx_rf = v_bb @ sym_b

    y = synthesize_rx_snapshots(
        targets, phases, h_ul, si_residual, v_rf, tx_rf, v_u, w_rf, sym_u, noise
    )

    w_h = w_rf.assembled.conj().T
    for cell in (0, 17, cells - 1):
        p, q = divmod(cell, wf.n_symbols)
        h_rad = radar_channel_at(targets, p, q, wf, 8, 8)
        x_b = v_rf.assembled @ (v_bb @ sym_b[:, cell])  # antenna-domain TX vector
        expected = w_h @ (h_rad @ x_b + h_ul @ (v_u * sym_u[cell]))
        expected += si_residual @ (v_bb @ sym_b[:, cell])
        np.testing.assert_allclose(y[:, cell], expected, atol=1e-10)


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


def test_run_scenario_deterministic_bytes():
    cfg = _tiny_config()
    r1 = run_scenario(cfg).to_json()
    r2 = run_scenario(cfg).to_json()
    assert r1 == r2


def test_report_excludes_wall_clock():
    report = run_scenario(_tiny_config(trials=1))
    assert report.wall_clock_s is not None
    assert "wall_clock" not in report.to_json()


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
        profile = np.asarray(ra["profiles"][k])
        peak_range = ra["ranges_m"][int(np.argmax(profile))]
        assert abs(peak_range - spec.range_m) <= wf.range_bin_m


def test_range_velocity_map_masses_on_targets():
    cfg = fast_profile(trials=1, seed=3)
    wf = cfg.waveform()
    report = run_scenario(cfg)
    rv = np.asarray(report.range_velocity["magnitude"])
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


def test_all_trials_failing_raises():
    # K = 5 targets with 4 RX chains violates the MUSIC subspace condition
    cfg = _tiny_config(
        radar_targets=(
            TargetSpec(10.0, 50.0, 0.0),
            TargetSpec(25.0, 70.0, 0.0),
            TargetSpec(40.0, 90.0, 0.0),
        )
    )
    with pytest.raises(RuntimeError, match="trials failed"):
        run_scenario(cfg)


def test_sweep_single_value_matches_run_scenario():
    cfg = _tiny_config()
    report = sweep(cfg, "p_u_dbm", [cfg.ul_tx_power_dbm])
    single = run_scenario(cfg)
    row = report.rate_rows[0]
    assert row["sweep_value"] == cfg.ul_tx_power_dbm
    assert row["rate_dl"] == pytest.approx(single.aggregate["mean_rate_dl"])
    assert row["rate_ul_nsp"] == pytest.approx(single.aggregate["mean_rate_ul_nsp"])


def test_sweep_validates_variable_and_values():
    cfg = _tiny_config()
    with pytest.raises(ValueError):
        sweep(cfg, "bandwidth", [1.0])
    with pytest.raises(ValueError):
        sweep(cfg, "p_u_dbm", [])


def test_sweep_accepts_canonical_and_field_names():
    cfg = _tiny_config(trials=1)
    by_alias = sweep(cfg, "n_taps", [0, 8])
    by_field = sweep(cfg, "analog_taps", [0, 8])
    assert by_alias.rate_rows == by_field.rate_rows


def test_validate_suite_passes_on_tiny_config():
    payload, ok = validate_suite(_tiny_config())
    assert ok, [c for c in payload["checks"] if not c["passed"]]
    names = {c["name"] for c in payload["checks"]}
    assert {
        "analog_si_residual", "nsp_nulling", "kkt_closed_form", "kkt_multi_chain", "determinism",
    } <= names


def test_leakage_bound_seed_30_trial_completes():
    # 55 dBm without analog taps binds every leakage row; on this seed the
    # precoder used to stop 2.3e-6 above the threshold and fail the trial
    cfg = fast_profile(tx_power_dbm=55.0, analog_taps=0, trials=1, seed=30)
    trial = run_scenario(cfg).trials[0]
    assert "error" not in trial, trial.get("error")
    assert trial["tx_power_w"] <= cfg.p_b_watts * (1 + 1e-9)
    assert max(trial["analog_residual_w"]) <= cfg.lambda_b_watts
    assert trial["metrics"]["rate_dl"] <= trial["metrics"]["rate_dl_ideal"]


def test_fast_profile_golden_doas_bins_and_rates():
    # values recorded from the antenna-domain sensing chain this one replaced
    golden = json.loads((Path(__file__).parent / "golden_fast_profile.json").read_text())
    got = []
    for seed in range(4):
        for trial in run_scenario(fast_profile(trials=10, seed=seed)).trials:
            got.append((seed, trial))
    assert len(got) == len(golden)
    for (seed, trial), want in zip(got, golden):
        assert seed == want["seed"]
        assert [row["doa_deg"] for row in trial["sensing"]] == want["doa_deg"]
        assert [[row["bin_n"], row["bin_m"]] for row in trial["sensing"]] == want["bins"]
        for key in ("rate_dl", "rate_ul_nsp", "rate_ul_mss"):
            assert trial["metrics"][key] == pytest.approx(want[key], rel=1e-9)


def test_table1_profile_golden_doas_bins_rates_and_sinrs():
    # values recorded before the dwells were projected onto their RX weights
    golden = json.loads((Path(__file__).parent / "golden_table1_profile.json").read_text())
    got = []
    for seed in range(4):
        for trial in run_scenario(table1_profile(trials=2, seed=seed)).trials:
            got.append((seed, trial))
    assert len(got) == len(golden)
    for (seed, trial), want in zip(got, golden):
        assert seed == want["seed"]
        assert [row["doa_deg"] for row in trial["sensing"]] == want["doa_deg"]
        assert [[row["bin_n"], row["bin_m"]] for row in trial["sensing"]] == want["bins"]
        for key in (
            "rate_dl", "rate_ul_nsp", "rate_ul_mss",
            "gamma_rad", "gamma_dl", "gamma_ul_nsp", "gamma_ul_mss",
        ):
            assert trial["metrics"][key] == pytest.approx(want[key], rel=1e-9)


@pytest.mark.parametrize("profile", [fast_profile, table1_profile])
def test_combiner_manifold_matches_assembled_product(profile):
    # oracle: the RX combiner applied to the full-aperture ULA responses
    cfg = profile()
    w_rf = spread_analog(cfg.rx_rf_chains, dft_codebook(cfg.rx_antennas_per_rf, cfg.codebook_bits))
    grid = angle_grid(0.1)
    expected = w_rf.assembled.conj().T @ ula_response_matrix(cfg.n_rx_antennas, grid)
    got = combiner_manifold(w_rf, grid)
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("profile", [fast_profile, table1_profile])
def test_separable_phase_matches_single_exponential(profile):
    # oracle: one exponential of the whole argument per cell. Both forms round
    # an argument of up to ~64 cycles here (~780 off grid), so they agree to
    # 1e-14 per cycle rather than absolutely
    wf = profile().waveform()
    targets = [
        TargetParams(1.0, s.angle_deg, s.range_m, s.velocity_mps)
        for s in profile().all_target_specs()
    ] + [TargetParams(1.0, 0.0, 1234.5, -71.3)]  # off the range and velocity grid
    cell_p, cell_q = np.divmod(np.arange(wf.n_subcarriers * wf.n_symbols), wf.n_symbols)
    column, row = np.arange(wf.n_subcarriers)[:, None], np.arange(wf.n_symbols)
    for t in targets:
        cycles = wf.symbol_duration_s * t.doppler_hz(wf.carrier_hz) * cell_q - (
            t.delay_s * wf.subcarrier_spacing_hz * cell_p
        )
        single = np.exp(2j * np.pi * cycles)
        grid = delay_doppler_phase(t, wf, column, row).ravel()
        np.testing.assert_array_equal(grid, delay_doppler_phase(t, wf, cell_p, cell_q))
        assert np.abs(grid - single).max() <= 1e-14 * max(1.0, np.abs(cycles).max())


def _dwell_stack(cfg, rng, quiet_cells):
    """One trial's K dwells both ways: full synthesis then quotient, and projected."""
    wf = cfg.waveform()
    cells = wf.n_subcarriers * wf.n_symbols
    targets = [
        TargetParams(np.exp(2j * np.pi * rng.random()), s.angle_deg, s.range_m, s.velocity_mps)
        for s in cfg.all_target_specs()
    ]

    def crandn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    h_ul = gen_ul_channel(PathParams(1j, cfg.ul_user.angle_deg), cfg.n_rx_antennas, cfg.ul_user_antennas)
    v_u = crandn(cfg.ul_user_antennas)
    tx_rf = crandn(cfg.tx_rf_chains, cells)
    for cell, scale in quiet_cells:
        tx_rf[:, cell] *= scale  # a zero or tiny reference in every dwell
    sym_u = crandn(cells)
    noise = 1e-3 * crandn(cfg.rx_rf_chains, cells)
    column, row = np.arange(wf.n_subcarriers)[:, None], np.arange(wf.n_symbols)
    phases = [delay_doppler_phase(t, wf, column, row).ravel() for t in targets]
    cb_tx = dft_codebook(cfg.tx_antennas_per_rf, cfg.codebook_bits)
    cb_rx = dft_codebook(cfg.rx_antennas_per_rf, cfg.codebook_bits)
    full, projected, refs = [], [], []
    for t in targets:
        v_k = pointed_analog(cfg.tx_rf_chains, cb_tx, t.angle_deg)
        w_k = pointed_analog(cfg.rx_rf_chains, cb_rx, t.angle_deg)
        resid = 1e-2 * crandn(cfg.rx_rf_chains, cfg.tx_rf_chains)
        args = (targets, phases, h_ul, resid, v_k, tx_rf, v_u, w_k, sym_u, noise)
        c = dwell_weights(w_k, t.angle_deg)
        full.append(synthesize_rx_snapshots(*args).T @ c)
        projected.append(project_snapshots(c, *args))
        refs.append(reference_signal_grid(t.angle_deg, v_k, tx_rf))
    shape = (len(targets), wf.n_subcarriers, wf.n_symbols)
    return [np.reshape(x, shape) for x in (full, projected, refs)]


@pytest.mark.parametrize("profile", [fast_profile, table1_profile])
def test_projected_dwell_stack_matches_full_synthesis_quotient(profile):
    # oracle: every dwell synthesized in full, then projected and divided one
    # by one; guarded cells (zero and 1e-10 references) included
    full, projected, s = _dwell_stack(
        profile(), np.random.default_rng(11), quiet_cells=((0, 0.0), (5, 1e-10), (17, 0.0))
    )
    z, excluded = delay_doppler_quotient(projected, s)
    for k in range(len(full)):
        z_k, excluded_k = delay_doppler_quotient(full[k], s[k])
        np.testing.assert_array_equal(excluded[k], excluded_k)
        assert np.abs(z[k] - z_k).max() <= 1e-12 * np.abs(z_k).max()
    assert excluded.reshape(len(full), -1)[:, [0, 5, 17]].all()
    assert excluded.sum() == 3 * len(full)


def test_coincident_radar_targets_swap_roles_silently():
    # both fast radar targets at 20 deg: MUSIC does not raise but finds a
    # spurious peak near -26 deg, and the sorted matching shifts the roles:
    # the first 20-deg target is sensed at the UL user's -10 deg (and reports
    # its bins), the UL user at the scatterer's -20 deg. Nothing fails.
    base = fast_profile(trials=2, seed=1)
    cfg = base.with_overrides(
        radar_targets=tuple(replace(t, angle_deg=20.0) for t in base.radar_targets)
    )
    report = run_scenario(cfg)
    assert report.aggregate["n_failed"] == 0
    assert report.aggregate["max_doa_error_deg"] == pytest.approx(30.0)
    for trial, spurious in zip(report.trials, (-25.6, -26.2)):
        rows = trial["sensing"]
        assert [row["true_angle_deg"] for row in rows] == [-30.0, -20.0, 20.0, 20.0, -10.0]
        assert [row["doa_deg"] for row in rows] == pytest.approx(
            [-30.0, spurious, -10.0, 20.0, -20.0], abs=1e-9
        )
        assert [row["bin_n"] for row in rows] == [12, 25, 37, 50, 25]


@st.composite
def _on_grid_scenes(draw):
    # angles on the 0.1-deg scan grid within +-80 deg, pairwise >= 10 deg apart;
    # ranges and velocities on their bins
    wf = fast_profile().waveform()
    tenths = draw(
        st.lists(st.integers(-800, 800), min_size=5, max_size=5, unique=True).filter(
            lambda a: np.diff(sorted(a)).min() >= 100
        )
    )
    bins = draw(st.lists(
        st.tuples(st.integers(0, wf.n_subcarriers - 1),
                  st.integers(-(wf.n_symbols // 2), wf.n_symbols // 2 - 1)),
        min_size=5, max_size=5,
    ))
    specs = [
        TargetSpec(t / 10, n * wf.range_bin_m, m * wf.velocity_bin_mps)
        for t, (n, m) in zip(tenths, bins)
    ]
    return specs, bins, draw(st.integers(0, 2**16))


@settings(max_examples=20, deadline=None)
@given(_on_grid_scenes())
def test_on_grid_bins_are_exact_property(scene):
    specs, bins, seed = scene
    cfg = fast_profile(trials=1, seed=seed).with_overrides(
        dl_scatterers=tuple(specs[:2]), radar_targets=tuple(specs[2:4]), ul_user=specs[4]
    )
    trial = run_scenario(cfg).trials[0]
    assert "error" not in trial, trial.get("error")
    assert [(row["bin_n"], row["bin_m"]) for row in trial["sensing"]] == [tuple(b) for b in bins]
