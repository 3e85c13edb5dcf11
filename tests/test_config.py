import json

import numpy as np
import pytest

from fdisac.config import (
    ScenarioConfig,
    TargetSpec,
    dbm_to_watt,
    fast_profile,
    get_profile,
    load_config,
    table1_profile,
)


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
    with pytest.raises(ValueError):
        fast_profile(analog_taps=5)  # not divisible by 8 chains
    with pytest.raises(ValueError):
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
    cfg = fast_profile(ul_user=TargetSpec(90.0, 0.0), radar_targets=(TargetSpec(-90.0, 5.0),))
    assert cfg.ul_user.angle_deg == 90.0 and cfg.radar_targets[0].range_m == 5.0


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
        load_config(path)


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
         "target velocity must be finite"),
        ({"ul_user": {"angle_deg": -10.0, "range_m": 100.0, "velocity_mps": -_INF}},
         "target velocity must be finite"),
        ({"ul_user": {"angle_deg": -10.0, "range_m": _INF}}, "target range must be finite"),
        ({"ul_user": {"angle_deg": -10.0, "range_m": _NAN}}, "target range must be finite"),
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
        ({"music_grid_step_deg": 0.0}, "music grid step deg must be positive, got 0.0"),
        ({"music_grid_step_deg": -0.1}, "music grid step deg must be positive, got -0.1"),
        # finite dBm values that underflow to 0 W
        ({"bs_noise_dbm": -5000.0}, "bs noise power must be positive, got 0.0 W"),
        ({"user_noise_dbm": -5000.0}, "user noise power must be positive, got 0.0 W"),
        ({"si_threshold_dbm": -5000.0}, "si threshold power must be positive, got 0.0 W"),
        # strings and booleans are no real numbers
        ({"tx_power_dbm": "30"}, "tx power dbm must be a real number, got '30'"),
        ({"carrier_hz": "28e9"}, "carrier hz must be a real number, got '28e9'"),
        ({"csi_nmse_db": "-10"}, "csi nmse db must be a real number, got '-10'"),
        ({"bs_noise_dbm": True}, "bs noise dbm must be a real number, got True"),
        # finite dB values whose linear value overflows: a bare OverflowError
        # at build, or every trial failing with one
        ({"tx_power_dbm": 5000.0}, "tx power dbm of 5000.0 overflows"),
        ({"ul_tx_power_dbm": 5000.0}, "ul tx power dbm of 5000.0 overflows"),
        ({"bs_noise_dbm": 5000.0}, "bs noise dbm of 5000.0 overflows"),
        ({"user_noise_dbm": 5000.0}, "user noise dbm of 5000.0 overflows"),
        ({"si_threshold_dbm": 5000.0}, "si threshold dbm of 5000.0 overflows"),
        ({"si_kappa_db": 5000.0}, "si kappa db of 5000.0 overflows"),
        ({"si_pathloss_db": -5000.0}, "si pathloss db of -5000.0 overflows"),
        ({"csi_nmse_db": 5000.0}, "csi nmse db of 5000.0 overflows"),
    ],
)
def test_config_holes_rejected_when_config_is_built(tmp_path, data, message):
    with pytest.raises(ValueError, match=message):
        fast_profile(**_as_overrides(data))
    with pytest.raises(ValueError, match=message):
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
