"""The benchmark's per-layer trace rebinds names inside the package.

``benchmarks/spans.py`` wraps the module-level names that ``fdisac.runner``
and ``fdisac.optimizer`` look up at call time. A rename or removal there makes
``--trace 1`` die with ``AttributeError``; these tests load the file by path
(it is only read) and check that its names and the counts it reports hold.
"""

import importlib
import importlib.util
import math
from collections import Counter
from pathlib import Path

from fdisac.arrays import dft_codebook
from fdisac.config import fast_profile
from fdisac.runner import _block_trials, _build_plan, run_scenario, scenario_plan

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _blocks(cfg):
    """Blocks of one call: all but the generator draws and the precoder run once per block."""
    return math.ceil(cfg.trials / _block_trials(cfg, scenario_plan(cfg)))


def _load_spans():
    spec = importlib.util.spec_from_file_location("fdisac_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rebound_name_resolves():
    spans = _load_spans()
    for module_name, names in spans.REBOUND.items():
        module = importlib.import_module(module_name)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"{module_name} lost {missing}"


def test_traced_run_calls_quotient_and_map_once_per_block():
    spans = _load_spans()
    cfg = fast_profile(trials=7, seed=0)
    wf = cfg.waveform()
    blocks = _blocks(cfg)
    assert blocks == 2  # 5 and 2 trials
    plain = run_scenario(cfg).to_json()
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run_scenario(cfg).to_json()
    assert traced == plain
    calls = [span[0] for span in tracer.spans]
    assert calls.count("sensing.delay_doppler_quotient") == blocks
    assert calls.count("sensing.delay_doppler_map") == blocks
    assert calls.count("sensing.reference_signal_grid") == blocks  # all K dwells of all trials
    layers = tracer.layer_metrics(cfg.trials)
    # slot 1 only: the K dwells are projected, not synthesized
    assert layers["runner.synthesize_rx_snapshots.calls"] == blocks / cfg.trials
    # once per block, in the slot-2 design: sensing forms no canceller
    assert layers["cancellers.build_cancellers.calls"] == blocks / cfg.trials
    assert layers["sensing.delay_doppler_quotient.cells"] == (
        cfg.k_targets * wf.n_subcarriers * wf.n_symbols
    )


def test_traced_run_counts_hold_from_warm_and_cold_cache():
    spans = _load_spans()
    cfg = fast_profile(trials=2, seed=0)
    wf = cfg.waveform()
    blocks = _blocks(cfg)
    plain = run_scenario(cfg).to_json()  # leaves the plan cached
    calls = {}
    for cache in ("warm", "cold"):
        if cache == "cold":
            _build_plan.cache_clear()
            dft_codebook.cache_clear()
        misses = _build_plan.cache_info().misses
        tracer = spans.Tracer()
        with tracer.installed():
            traced = run_scenario(cfg).to_json()
        assert traced == plain
        assert _build_plan.cache_info().misses == misses + (cache == "cold")
        layers = tracer.layer_metrics(cfg.trials)
        assert layers["runner.synthesize_rx_snapshots.calls"] == blocks / cfg.trials
        assert layers["cancellers.build_cancellers.calls"] == blocks / cfg.trials
        assert layers["sensing.delay_doppler_quotient.cells"] == (
            cfg.k_targets * wf.n_subcarriers * wf.n_symbols
        )
        calls[cache] = Counter(span[0] for span in tracer.spans)
    # the plan adds no traced call: the SI draws run per trial, every other
    # rebound name (the precoder too) per block
    assert calls["warm"] == calls["cold"]
    per_trial = {"channels.gen_si_channel", "channels.perturb_estimate"}
    for name, n in calls["cold"].items():
        if name in per_trial:
            assert n == cfg.trials, name
        else:
            assert n == blocks * (2 if name == "metrics.ul_sinr" else 1), name


def test_traced_run_keeps_a_failed_trial_record():
    # the noise-only config whose trial 0 fails at the NSP combiner: the
    # combiner returns that failure as a value, so it leaves no traced call
    # as an exception, and the record is the plain run's
    spans = _load_spans()
    cfg = fast_profile(trials=3, seed=400, tx_power_dbm=-math.inf, ul_tx_power_dbm=100,
                       bs_noise_dbm=100, user_noise_dbm=100, si_threshold_dbm=math.inf,
                       si_kappa_db=-100, si_pathloss_db=300, csi_nmse_db=0,
                       music_grid_step_deg=1, analog_taps=0, codebook_bits=2)
    plain = run_scenario(cfg)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run_scenario(cfg)
    assert traced.to_json() == plain.to_json()
    assert traced.trials[0] == {"error": "DegenerateCombinerError: beamformer design failed at "
                                         "step 'NSP combiner': uplink direction lies inside the "
                                         "radar interference span"}
    assert all("error" not in t for t in traced.trials[1:])
    assert "optimizer.nsp_rx_combiner" in {span[0] for span in tracer.spans}
    assert sum(tracer.errors.values()) == 0
