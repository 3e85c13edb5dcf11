"""The cached scenario plan: keyed by the geometry it reads, shared, read-only."""

import dataclasses

import numpy as np
import pytest

from fdisac.arrays import dft_codebook
from fdisac.config import TargetSpec, fast_profile, table1_profile
from fdisac.runner import _block_trials, _build_plan, run_scenario, scenario_plan, sweep

# One override per field the plan reads; each keeps the fast profile runnable.
_PLAN_FIELDS = {
    "tx_rf_chains": 4,
    "rx_rf_chains": 16,
    "tx_antennas_per_rf": 8,
    "rx_antennas_per_rf": 8,
    "codebook_bits": 4,
    "music_grid_step_deg": 0.2,
    "n_subcarriers": 32,
    "n_symbols": 8,
    "subcarrier_spacing_hz": 115e3,  # up to ~123.8 kHz keeps the farthest target, 1,211 m, in range
    "symbol_duration_s": 9.5e-6,
    "carrier_hz": 24e9,
    "dl_scatterers": (TargetSpec(-35.0, 100.0), TargetSpec(-20.0, 488.0)),
    "radar_targets": (TargetSpec(20.0, 700.0, 5.0), TargetSpec(40.0, 1200.0, -10.0)),
    "ul_user": TargetSpec(-10.0, 722.2, 3.0),
}

# Fields a run reads per trial only.
_TRIAL_FIELDS = {
    "seed": 7,
    "trials": 3,
    "tx_power_dbm": 40.0,
    "ul_tx_power_dbm": 0.0,
    "analog_taps": 0,
    "csi_nmse_db": -20.0,
}


def _arrays(obj):
    """Every ndarray held by ``obj`` or by the dataclasses among its fields."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            yield f.name, value
        elif dataclasses.is_dataclass(value):
            yield from ((f"{f.name}.{name}", a) for name, a in _arrays(value))


@pytest.mark.parametrize("field, value", list(_PLAN_FIELDS.items()))
def test_each_plan_field_gives_a_new_plan_and_warm_equals_cold(field, value):
    base = fast_profile(trials=1, seed=3)
    cfg = base.with_overrides(**{field: value})
    assert getattr(cfg, field) != getattr(base, field)
    plan = scenario_plan(cfg)
    assert plan is not scenario_plan(base)
    assert scenario_plan(cfg) is plan
    warm = run_scenario(cfg).to_json()
    _build_plan.cache_clear()
    cold = run_scenario(cfg).to_json()
    assert warm == cold


@pytest.mark.parametrize("field, value", list(_TRIAL_FIELDS.items()))
def test_trial_fields_share_the_plan(field, value):
    base = fast_profile()
    cfg = base.with_overrides(**{field: value})
    assert getattr(cfg, field) != getattr(base, field)
    assert scenario_plan(cfg) is scenario_plan(base)


@pytest.mark.parametrize("profile", [fast_profile, table1_profile])
def test_cached_arrays_are_read_only(profile):
    cfg = profile()
    plan = scenario_plan(cfg)
    arrays = dict(_arrays(plan))
    assert sorted(arrays) == sorted([
        "cb_tx", "cb_rx", "v_rf0", "w_rf0", "grid_deg", "manifold", "gain", "delay_phases",
        "doppler_phases",
    ])
    arrays["dft_codebook"] = dft_codebook(cfg.tx_antennas_per_rf, cfg.codebook_bits)
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0
    assert isinstance(plan.ranges_m, tuple) and isinstance(plan.velocities_mps, tuple)


def test_sweep_builds_the_plan_and_codebooks_once():
    cfg = fast_profile(trials=2, seed=4, tx_antennas_per_rf=8)
    _build_plan.cache_clear()
    dft_codebook.cache_clear()
    sweep(cfg, "p_u_dbm", [0.0, 5.0, 10.0])
    plans = _build_plan.cache_info()
    assert (plans.misses, plans.hits) == (1, 2)
    # the plan's two codebooks, then two lookups per design, one design per
    # block of trials (both trials form one block)
    assert _block_trials(cfg, scenario_plan(cfg)) >= cfg.trials
    books = dft_codebook.cache_info()
    assert (books.misses, books.hits) == (2, 2 * 3)


@pytest.mark.parametrize("profile", [fast_profile, table1_profile])
def test_map_axes_equal_per_bin_products(profile):
    wf = profile().waveform()
    plan = scenario_plan(profile())
    ranges = [n * wf.range_bin_m for n in range(wf.n_subcarriers)]
    velocities = [(m - wf.n_symbols // 2) * wf.velocity_bin_mps for m in range(wf.n_symbols)]
    assert plan.ranges_m == tuple(ranges)
    assert plan.velocities_mps == tuple(velocities)
    assert all(type(x) is float for x in plan.ranges_m + plan.velocities_mps)
    report = run_scenario(profile(trials=1))
    assert report.range_angle["ranges_m"] is plan.ranges_m
    assert report.range_velocity["velocities_mps"] is plan.velocities_mps
