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
