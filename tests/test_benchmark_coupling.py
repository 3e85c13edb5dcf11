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
    """Slot-2 blocks of one call: the design and the metrics run once per block."""
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


def test_traced_run_calls_quotient_and_map_once_per_trial():
    spans = _load_spans()
    cfg = fast_profile(trials=2, seed=0)
    wf = cfg.waveform()
    plain = run_scenario(cfg).to_json()
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run_scenario(cfg).to_json()
    assert traced == plain
    calls = [span[0] for span in tracer.spans]
    assert calls.count("sensing.delay_doppler_quotient") == cfg.trials
    assert calls.count("sensing.delay_doppler_map") == cfg.trials
    assert calls.count("sensing.reference_signal_grid") == cfg.trials  # all K dwells at once
    layers = tracer.layer_metrics(cfg.trials)
    # slot 1 only: the K dwells are projected, not synthesized
    assert layers["runner.synthesize_rx_snapshots.calls"] == 1
    # slot 1 and the stack of K dwells per trial, the slot-2 design per block
    assert _blocks(cfg) == 1
    assert layers["cancellers.build_cancellers.calls"] == 2 + _blocks(cfg) / cfg.trials
    assert layers["sensing.delay_doppler_quotient.cells"] == (
        cfg.k_targets * wf.n_subcarriers * wf.n_symbols
    )


def test_traced_run_counts_hold_from_warm_and_cold_cache():
    spans = _load_spans()
    cfg = fast_profile(trials=2, seed=0)
    wf = cfg.waveform()
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
        assert layers["runner.synthesize_rx_snapshots.calls"] == 1
        assert layers["cancellers.build_cancellers.calls"] == 2 + _blocks(cfg) / cfg.trials
        assert layers["sensing.delay_doppler_quotient.cells"] == (
            cfg.k_targets * wf.n_subcarriers * wf.n_symbols
        )
        calls[cache] = Counter(span[0] for span in tracer.spans)
    # the plan adds no traced call: every rebound name runs per trial (sensing)
    # or per block (design and metrics) as before
    assert calls["warm"] == calls["cold"]
    per_block = {
        "optimizer.build_estimated_channels", "optimizer.run_algorithm1",
        "optimizer.user_beamformers", "optimizer.select_tx_analog",
        "optimizer.select_rx_analog", "optimizer.power_normalize",
        "optimizer.nsp_rx_combiner", "optimizer.mss_rx_combiner",
        "metrics.radar_sinr", "metrics.dl_snr", "metrics.ul_sinr", "metrics.ideal_dl_rate",
    }
    for name, n in calls["cold"].items():
        if name in per_block:
            assert n == _blocks(cfg) * (2 if name == "metrics.ul_sinr" else 1), name
        elif name == "cancellers.build_cancellers":
            assert n == 2 * cfg.trials + _blocks(cfg)
        else:
            assert n % cfg.trials == 0, name
