import dataclasses
import json
import re

import numpy as np
import pytest

from fdisac.config import (
    _LIMITS,
    ScenarioConfig,
    TargetSpec,
    dbm_to_watt,
    fast_profile,
    get_profile,
    load_config,
    table1_profile,
)
from fdisac.runner import run_scenario


def test_dbm_to_watt_examples():
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert dbm_to_watt(-90.0) == pytest.approx(1e-12)
    assert dbm_to_watt(10.0) == pytest.approx(0.01)
    assert dbm_to_watt(float("-inf")) == 0.0


def test_default_configuration_values():
    cfg = table1_profile()
    assert cfg.carrier_hz == 28e9
    assert cfg.tx_rf_chains == 8 and cfg.rx_rf_chains == 8
    assert cfg.tx_antennas_per_rf == 16 and cfg.rx_antennas_per_rf == 16
    assert cfg.n_subcarriers == 792 and cfg.n_symbols == 14
    assert cfg.symbol_duration_s == pytest.approx(8.92e-6)
    assert cfg.bs_noise_dbm == -90.0 and cfg.user_noise_dbm == -90.0
    assert cfg.si_threshold_dbm == -30.0
    assert cfg.n_tx_antennas == 128 and cfg.n_rx_antennas == 128


def test_partially_connected_products_and_stream_count():
    cfg = fast_profile()
    assert cfg.n_tx_antennas == cfg.tx_rf_chains * cfg.tx_antennas_per_rf == 32
    assert cfg.n_rx_antennas == cfg.rx_rf_chains * cfg.rx_antennas_per_rf == 32
    assert cfg.n_streams == min(cfg.tx_rf_chains, cfg.dl_user_antennas)
    assert cfg.k_targets == len(cfg.dl_scatterers) + len(cfg.radar_targets) + 1 == 5


def test_default_geometry_is_on_grid():
    for cfg in (fast_profile(), table1_profile()):
        wf = cfg.waveform()
        for spec in cfg.all_target_specs():
            assert (spec.range_m / wf.range_bin_m) == pytest.approx(
                round(spec.range_m / wf.range_bin_m)
            )
            assert (spec.velocity_mps / wf.velocity_bin_mps) == pytest.approx(
                round(spec.velocity_mps / wf.velocity_bin_mps), abs=1e-9
            )


def test_tap_validation():
    with pytest.raises(ValueError, match="analog taps 5 must be a nonnegative multiple of 8 RX"):
        fast_profile(analog_taps=5)  # not divisible by 8 chains
    with pytest.raises(ValueError, match="analog taps exceed the compressed SI channel size"):
        fast_profile(analog_taps=128)  # 16 columns > 8 available


@pytest.mark.parametrize("taps", [16.0, 16.5, "16", True])
def test_non_integer_tap_count_rejected(tmp_path, taps):
    # every trial would fail in build_cancellers ("slice indices must be integers")
    with pytest.raises(ValueError, match="analog taps must be an integer"):
        fast_profile(analog_taps=taps)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"analog_taps": taps}), encoding="utf-8")
    with pytest.raises(ValueError, match="analog taps must be an integer"):
        load_config(path, base=fast_profile())
    assert fast_profile(analog_taps=np.int64(16)).analog_taps == 16


def test_config_without_dl_scatterers_rejected(tmp_path):
    # every trial would fail in gen_dl_channel ("downlink channel needs at least one path")
    with pytest.raises(ValueError, match="at least one DL scatterer"):
        fast_profile(dl_scatterers=())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dl_scatterers": []}), encoding="utf-8")
    with pytest.raises(ValueError, match="at least one DL scatterer"):
        load_config(path, base=fast_profile())
    assert len(ScenarioConfig().dl_scatterers) == 1  # the default has one


def test_config_dict_round_trip():
    cfg = fast_profile(seed=9, trials=3)
    clone = ScenarioConfig.from_dict(cfg.to_dict())
    assert clone == cfg


def test_config_rejects_unknown_keys():
    data = fast_profile().to_dict()
    data["bogus_field"] = 1
    with pytest.raises(ValueError, match="bogus_field"):
        ScenarioConfig.from_dict(data)


def test_load_config_overlay(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 77, "trials": 2}), encoding="utf-8")
    cfg = load_config(path, base=fast_profile())
    assert cfg.seed == 77 and cfg.trials == 2
    assert cfg.n_subcarriers == 64  # base profile preserved


def test_get_profile_names():
    assert get_profile("fast").n_subcarriers == 64
    assert get_profile("table1").n_subcarriers == 792
    with pytest.raises(ValueError):
        get_profile("warp")


def test_waveform_cp_from_symbol_duration():
    wf = table1_profile().waveform()
    # 120 kHz spacing leaves T_cp = 8.92 us - 8.333 us
    assert wf.cp_duration_s == pytest.approx(8.92e-6 - 1.0 / 120e3, rel=1e-9)
    assert wf.range_bin_m == pytest.approx(1.5772, abs=2e-4)
    assert wf.velocity_bin_mps == pytest.approx(42.87, abs=0.01)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"ul_user": TargetSpec(95.0, 100.0)}, "angle"),
        ({"radar_targets": (TargetSpec(20.0, -5.0),)}, "range"),
        ({"dl_scatterers": (TargetSpec(-90.5, 10.0),)}, "angle"),
        ({"ul_user": TargetSpec(float("nan"), 10.0)}, "angle"),
    ],
)
def test_target_geometry_checked_when_config_is_built(overrides, message):
    with pytest.raises(ValueError, match=message):
        fast_profile(**overrides)
    with pytest.raises(ValueError, match=message):
        table1_profile().with_overrides(**overrides)


def test_target_geometry_at_its_limits_is_accepted():
    # one config per limit: +-90 deg together are one ULA direction, which is rejected
    assert fast_profile(ul_user=TargetSpec(90.0, 0.0)).ul_user.angle_deg == 90.0
    cfg = fast_profile(radar_targets=(TargetSpec(-90.0, 5.0),))
    assert cfg.radar_targets[0].angle_deg == -90.0 and cfg.radar_targets[0].range_m == 5.0


def test_targets_inside_one_rx_main_lobe_are_rejected():
    # each dwell weighs all M_b = 32 RX antennas, so two targets closer than the
    # main lobe's first null, 2/M_b in sin(angle), can read each other's bins
    # in a trial that does not fail
    lobe = "inside the 32-antenna RX main lobe of 2/32"
    # sin(angle) is 2-periodic in the ULA phase: +-90 deg are one direction
    with pytest.raises(ValueError, match=re.escape(
            f"radar_targets[0] and ul_user: target angles 0 apart in sin(angle), {lobe}")):
        fast_profile(radar_targets=(TargetSpec(-90.0, 5.0),), ul_user=TargetSpec(90.0, 0.0))
    # across endfire: 75.4 and -78.9 deg are 0.051 apart
    with pytest.raises(ValueError, match=re.escape(
            f"radar_targets[1] and ul_user: target angles 0.051 apart in sin(angle), {lobe}")):
        fast_profile(radar_targets=(TargetSpec(20.0, 0.0), TargetSpec(75.4, 0.0)),
                     ul_user=TargetSpec(-78.9, 0.0))
    # the first null is the threshold: the UL user 0.0624 below the 20-deg
    # target in sin(angle) is rejected, 0.0626 below is accepted
    sin_20 = np.sin(np.deg2rad(20.0))
    with pytest.raises(ValueError, match=re.escape("radar_targets[0] and ul_user")):
        fast_profile(ul_user=TargetSpec(np.degrees(np.arcsin(sin_20 - 0.0624)), 0.0))
    fast_profile(ul_user=TargetSpec(np.degrees(np.arcsin(sin_20 - 0.0626)), 0.0))


@pytest.mark.parametrize(
    "data, message",
    [
        ({"ul_user": {"angle_deg": 95.0, "range_m": 100.0}}, "angle"),
        ({"radar_targets": [{"angle_deg": 20.0, "range_m": -5.0}]}, "range"),
    ],
)
def test_load_config_rejects_bad_target_geometry(tmp_path, data, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_config(path, base=fast_profile())
    with pytest.raises(ValueError, match=message):
        load_config(path, base=ScenarioConfig())


@pytest.mark.parametrize(
    "data, message",
    [
        ({"ul_user": {"angle": 5.0, "range_m": 100.0}}, "ul_user is not a target"),
        ({"radar_targets": [{"angle_deg": 20.0}]}, "radar_targets[0] is not a target"),
        ({"radar_targets": {"angle_deg": 20.0, "range_m": 5.0}},
         "radar_targets must be a list of targets"),
        ({"ul_user": None}, "ul_user is not a target"),
        ([{"seed": 3}], "must hold a JSON object, got list"),
    ],
    ids=["unknown-key", "missing-range", "object-not-list", "null-target", "list-file"],
)
def test_load_config_rejects_bad_structure_naming_the_key(tmp_path, data, message):
    # each raised a bare TypeError from TargetSpec(**...) or the overlay
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path, base=fast_profile())
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path, base=ScenarioConfig())


def test_targets_beyond_the_unambiguous_bins_are_rejected():
    cfg = fast_profile(trials=2)
    wf = cfg.waveform()
    r, v = wf.range_bin_m, wf.velocity_bin_mps
    # P = 64 range bins and Doppler bins [-7, 6]: a UL user at 70 range bins
    # reported bin 6, 1,249 m off, in a trial that did not fail
    beyond = r"ul_user: target range .* m is 70 range bins, beyond the 64 unambiguous ones"
    with pytest.raises(ValueError, match=beyond):
        fast_profile(ul_user=TargetSpec(-10.0, 70 * r))
    with pytest.raises(ValueError, match=re.escape("radar_targets[1]: target velocity")):
        fast_profile(radar_targets=(cfg.radar_targets[0], TargetSpec(40.0, 62 * r, 7 * v)))
    with pytest.raises(ValueError, match=re.escape("is -8 Doppler bins, outside [-7, 6]")):
        fast_profile(ul_user=TargetSpec(-10.0, 37 * r, -8 * v))
    # the outermost bins are accepted and recovered exactly
    for n, m in ((63, -7), (0, 6)):
        edge = cfg.with_overrides(ul_user=TargetSpec(-10.0, n * r, m * v))
        report = run_scenario(edge)
        assert report.aggregate["n_failed"] == 0
        for trial in report.trials:
            assert (trial["sensing"][-1]["bin_n"], trial["sensing"][-1]["bin_m"]) == (n, m)


# Each kind of bounded field, physical units and the codebook: every finite
# endpoint of the table runs.
_BOUNDED = [f.name for cls in (ScenarioConfig, TargetSpec) for f in dataclasses.fields(cls)
            if f.type in ("float", "float | None")] + ["codebook_bits"]
_ENDPOINTS = [(name, bound) for name in _BOUNDED for bound in _LIMITS[name][:2]
              if np.isfinite(bound)]


def _fast_at(field, value):
    """``fast_profile(trials=2)`` with ``field`` at ``value``.

    A target field moves the UL user. A numerology value keeps the targets on
    their bins: ranges and velocities scale with the bin widths, and a
    subcarrier spacing or symbol duration x comes with a partner 2 / x, a
    cyclic prefix as long as the useful symbol.
    """
    cfg = fast_profile(trials=2)
    if field in ("angle_deg", "range_m", "velocity_mps"):
        return cfg.with_overrides(ul_user=dataclasses.replace(cfg.ul_user, **{field: value}))
    partner = {"subcarrier_spacing_hz": "symbol_duration_s",
               "symbol_duration_s": "subcarrier_spacing_hz"}
    overrides = {field: value, **({partner[field]: 2.0 / value} if field in partner else {})}
    wf0 = cfg.waveform()
    wf = dataclasses.replace(wf0, **{k: v for k, v in overrides.items() if hasattr(wf0, k)})
    scale_r, scale_v = wf.range_bin_m / wf0.range_bin_m, wf.velocity_bin_mps / wf0.velocity_bin_mps

    def moved(t):
        return TargetSpec(t.angle_deg, t.range_m * scale_r, t.velocity_mps * scale_v)

    return cfg.with_overrides(**overrides, dl_scatterers=tuple(map(moved, cfg.dl_scatterers)),
                              radar_targets=tuple(map(moved, cfg.radar_targets)),
                              ul_user=moved(cfg.ul_user))


@pytest.mark.parametrize("field, value", _ENDPOINTS)
def test_every_finite_endpoint_of_the_table_runs(field, value):
    cfg = _fast_at(field, value)
    assert getattr(cfg, field, None) == value or getattr(cfg.ul_user, field) == value
    report = run_scenario(cfg)
    assert report.aggregate["n_failed"] == 0, report.trials[0].get("error")


def test_worst_dynamic_range_corner_runs_over_twenty_seeds():
    # tx - threshold - path loss at its largest, with the largest CSI error
    # and no analog taps: the corner closest to the precoder's dynamic-range limit
    corner = dict(tx_power_dbm=_LIMITS["tx_power_dbm"][1],
                  si_threshold_dbm=_LIMITS["si_threshold_dbm"][0],
                  si_pathloss_db=_LIMITS["si_pathloss_db"][0],
                  csi_nmse_db=_LIMITS["csi_nmse_db"][1], analog_taps=0)
    assert corner["tx_power_dbm"] - corner["si_threshold_dbm"] - corner["si_pathloss_db"] == 100.0
    for seed in range(1, 21):
        report = run_scenario(fast_profile(trials=2, seed=seed, **corner))
        assert report.aggregate["n_failed"] == 0, (seed, report.trials[0].get("error"))


@pytest.mark.parametrize("range_m", [-1.0, np.nan, np.inf])
def test_target_rejects_bad_range(range_m):
    with pytest.raises(ValueError, match="range"):
        fast_profile(radar_targets=(TargetSpec(10.0, range_m, 0.0),))


def _json_round_trip(tmp_path, data):
    """Write ``data`` as a config file (NaN and Infinity as JSON's literals) and load it."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return load_config(path, base=fast_profile())


def _as_overrides(data):
    """Config-file ``data`` as keyword overrides: target dicts become TargetSpecs."""
    return {k: TargetSpec(**v) if isinstance(v, dict) else v for k, v in data.items()}


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "data, message",
    [
        # fractional or boolean counts would fail later in spawn, reshape or slicing
        ({"trials": 2.5}, "trials must be an integer"),
        ({"trials": True}, "trials must be an integer"),
        ({"n_subcarriers": 64.5}, "n subcarriers must be an integer"),
        ({"n_symbols": "14"}, "n symbols must be an integer"),
        ({"codebook_bits": 5.0}, "codebook bits must be an integer"),
        ({"tx_rf_chains": False}, "tx rf chains must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        # NaN would run to a NaN rate or fail every trial with a misleading error
        ({"user_noise_dbm": _NAN}, "user noise dbm must not be NaN"),
        ({"bs_noise_dbm": _NAN}, "bs noise dbm must not be NaN"),
        ({"ul_tx_power_dbm": _NAN}, "ul tx power dbm must not be NaN"),
        ({"tx_power_dbm": _NAN}, "tx power dbm must not be NaN"),
        ({"si_pathloss_db": _NAN}, "si pathloss db must not be NaN"),
        ({"si_kappa_db": _NAN}, "si kappa db must not be NaN"),
        ({"si_threshold_dbm": _NAN}, "si threshold dbm must not be NaN"),
        ({"csi_nmse_db": _NAN}, "csi nmse db must not be NaN"),
        ({"carrier_hz": _NAN}, "carrier hz must not be NaN"),
        ({"subcarrier_spacing_hz": _NAN}, "subcarrier spacing hz must not be NaN"),
        ({"symbol_duration_s": _NAN}, "symbol duration s must not be NaN"),
        ({"music_grid_step_deg": _NAN}, "music grid step deg must not be NaN"),
        # a noise power of -inf dBm is zero watts; +inf drowns every signal
        ({"bs_noise_dbm": -_INF}, "bs noise dbm must be finite"),
        ({"user_noise_dbm": -_INF}, "user noise dbm must be finite"),
        ({"user_noise_dbm": _INF}, "user noise dbm must be finite"),
        ({"ul_user": {"angle_deg": -10.0, "range_m": 100.0, "velocity_mps": _NAN}},
         "target velocity must not be NaN"),
        ({"ul_user": {"angle_deg": -10.0, "range_m": 100.0, "velocity_mps": -_INF}},
         "target velocity must be finite"),
        ({"ul_user": {"angle_deg": -10.0, "range_m": _INF}}, "target range must be finite"),
        ({"ul_user": {"angle_deg": -10.0, "range_m": _NAN}}, "target range must not be NaN"),
        # infinities outside the legal table fail every trial with a misleading error
        ({"csi_nmse_db": _INF}, "csi nmse db must be finite, got inf"),
        ({"tx_power_dbm": _INF}, "tx power dbm must be finite, got inf"),
        ({"ul_tx_power_dbm": _INF}, "ul tx power dbm must be finite, got inf"),
        ({"si_pathloss_db": -_INF}, "si pathloss db must be finite, got -inf"),
        ({"carrier_hz": _INF}, "carrier hz must be finite, got inf"),
        ({"subcarrier_spacing_hz": _INF}, "subcarrier spacing hz must be finite, got inf"),
        ({"symbol_duration_s": _INF}, "symbol duration s must be finite, got inf"),
        ({"si_threshold_dbm": -_INF}, "si threshold dbm must be finite, got -inf"),
        ({"music_grid_step_deg": _INF}, "music grid step deg must be finite, got inf"),
        # a grid step that is not positive fails only once the run starts
        ({"music_grid_step_deg": 0.0}, "music grid step deg must lie in [0.01, 1.0], got 0.0"),
        ({"music_grid_step_deg": -0.1}, "music grid step deg must lie in [0.01, 1.0], got -0.1"),
        # finite dBm values that underflow to 0 W
        ({"bs_noise_dbm": -5000.0}, "bs noise dbm must lie in [-400.0, 100.0], got -5000.0"),
        ({"user_noise_dbm": -5000.0}, "user noise dbm must lie in [-400.0, 100.0], got -5000.0"),
        ({"si_threshold_dbm": -5000.0},
         "si threshold dbm must lie in [-30.0, 100.0], got -5000.0"),
        # strings and booleans are no real numbers
        ({"tx_power_dbm": "30"}, "tx power dbm must be a real number, got '30'"),
        ({"carrier_hz": "28e9"}, "carrier hz must be a real number, got '28e9'"),
        ({"csi_nmse_db": "-10"}, "csi nmse db must be a real number, got '-10'"),
        ({"bs_noise_dbm": True}, "bs noise dbm must be a real number, got True"),
        # finite dB values whose linear value overflows: a bare OverflowError
        # at build, or every trial failing with one
        ({"tx_power_dbm": 5000.0}, "tx power dbm must lie in [-100.0, 100.0], got 5000.0"),
        ({"ul_tx_power_dbm": 5000.0}, "ul tx power dbm must lie in [-100.0, 100.0], got 5000.0"),
        ({"bs_noise_dbm": 5000.0}, "bs noise dbm must lie in [-400.0, 100.0], got 5000.0"),
        ({"user_noise_dbm": 5000.0}, "user noise dbm must lie in [-400.0, 100.0], got 5000.0"),
        ({"si_threshold_dbm": 5000.0}, "si threshold dbm must lie in [-30.0, 100.0], got 5000.0"),
        ({"si_kappa_db": 5000.0}, "si kappa db must lie in [-100.0, 100.0], got 5000.0"),
        ({"si_pathloss_db": -5000.0}, "si pathloss db must lie in [30.0, 300.0], got -5000.0"),
        ({"csi_nmse_db": 5000.0}, "csi nmse db must lie in [-300.0, 0.0], got 5000.0"),
        # finite values that built and then failed every trial: "SVD did not converge",
        # "covariance matrix must be Hermitian", "leakage ... x threshold", the
        # precoder at -300 dB and dBm, a negative seed, codebooks of 0 and 25 bits
        ({"csi_nmse_db": 3000.0}, "csi nmse db must lie in [-300.0, 0.0], got 3000.0"),
        ({"tx_power_dbm": 3112.0, "si_kappa_db": 3082.0}, "tx power dbm must lie in"),
        ({"tx_power_dbm": 200.0}, "tx power dbm must lie in [-100.0, 100.0], got 200.0"),
        ({"si_pathloss_db": -300.0}, "si pathloss db must lie in [30.0, 300.0], got -300.0"),
        ({"si_threshold_dbm": -300.0}, "si threshold dbm must lie in [-30.0, 100.0], got -300.0"),
        ({"seed": -1}, "seed must lie in [0, inf], got -1"),
        ({"codebook_bits": 0}, "codebook bits must lie in [2, 12], got 0"),
        ({"codebook_bits": 25}, "codebook bits must lie in [2, 12], got 25"),
        ({"ul_user": {"angle_deg": -10.0, "range_m": 100.0, "velocity_mps": 1e300}},
         "ul_user: target velocity 1e+300 m/s is"),
        # MUSIC needs K < M_rf: these built and then failed every trial with "MUSIC
        # requires k < array size" (32 taps on 5 chains trip the tap rule first)
        ({"rx_rf_chains": 4}, "rx rf chains must exceed the 5 targets (UL user included) "
                              "that MUSIC resolves, got 4"),
        ({"rx_rf_chains": 5, "analog_taps": 0}, "rx rf chains must exceed the 5 targets "
                                                "(UL user included) that MUSIC resolves, got 5"),
        # the array, channel, canceller and metric functions take these rules as given
        ({"tx_rf_chains": 0}, "tx rf chains must lie in [1, inf], got 0"),
        ({"rx_rf_chains": 0}, "rx rf chains must lie in [1, inf], got 0"),
        ({"tx_antennas_per_rf": 0}, "tx antennas per rf must lie in [1, inf], got 0"),
        ({"rx_antennas_per_rf": 0}, "rx antennas per rf must lie in [1, inf], got 0"),
        ({"dl_user_antennas": 0}, "dl user antennas must lie in [1, inf], got 0"),
        ({"ul_user_antennas": 0}, "ul user antennas must lie in [1, inf], got 0"),
        ({"n_subcarriers": 0}, "n subcarriers must lie in [1, inf], got 0"),
        ({"n_symbols": 0}, "n symbols must lie in [1, inf], got 0"),
        ({"analog_taps": -8}, "analog taps must lie in [0, inf], got -8"),
        ({"ul_user": {"angle_deg": 91.0, "range_m": 100.0}},
         "ul_user: target angle must lie in [-90.0, 90.0], got 91.0"),
        ({"ul_user": {"angle_deg": -_INF, "range_m": 100.0}},
         "ul_user: target angle must be finite, got -inf"),
    ],
)
def test_config_holes_rejected_when_config_is_built(tmp_path, data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        fast_profile(**_as_overrides(data))
    with pytest.raises(ValueError, match=re.escape(message)):
        _json_round_trip(tmp_path, data)


@pytest.mark.parametrize(
    "data",
    [
        {"si_threshold_dbm": _INF},  # no ADC saturation cap
        {"si_kappa_db": _INF},  # pure line-of-sight SI channel
        {"csi_nmse_db": -_INF},  # perfect SI channel estimate
        {"ul_tx_power_dbm": -_INF},  # silent uplink user
        {"tx_power_dbm": -_INF},  # silent base station
        {"si_pathloss_db": _INF},  # no self-interference
        {"si_kappa_db": -_INF},  # fully scattered SI channel
        {"csi_nmse_db": None},  # perfect SI CSI, the default
        {"seed": np.int64(3), "trials": np.int32(2)},
    ],
)
def test_legal_infinities_and_numpy_integers_accepted(tmp_path, data):
    cfg = fast_profile(**data)
    assert all(getattr(cfg, k) == v for k, v in data.items())
    if not any(isinstance(v, np.integer) for v in data.values()):
        assert _json_round_trip(tmp_path, data) == cfg
