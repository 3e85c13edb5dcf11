"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_harness.py
"""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from fdisac import fast_profile, runner, table1_profile  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A two-call workload and a constant set-up time, so a run takes seconds."""
    configs = (fast_profile(trials=1, seed=0), fast_profile(trials=1, seed=1))
    monkeypatch.setitem(harness.WORKLOADS, "tiny", harness.Workload(configs, round_s=1.0))
    monkeypatch.setattr(harness, "setup_seconds", lambda: 1.0)
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    return "tiny"


@pytest.fixture(scope="module")
def trial():
    report = runner.run_scenario(fast_profile(trials=1, seed=0))
    return report.trials[0]


def test_printed_metric_names_match_benchmark_json(tiny):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = harness.run(tiny, seed=3, seconds=1, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_raising_layer_counts_as_failed_call(tiny, monkeypatch):
    @functools.wraps(runner.delay_doppler_map)  # keeps the span name sensing.*
    def broken(z):
        raise FloatingPointError("injected")

    monkeypatch.setattr(runner, "delay_doppler_map", broken)
    result = harness.run(tiny, seed=3, seconds=1, trace=True)
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert result["correct"]  # nothing wrong was returned, the calls raised
    assert result["metrics"]["sensing.errors"]["value"] == 1.0
    assert result["metrics"]["runner.errors"]["value"] == 1.0


def test_trial_error_record_fails_the_call(monkeypatch):
    original = runner.delay_doppler_map
    seen = []

    def first_raises(z):
        seen.append(1)
        if len(seen) == 1:
            raise FloatingPointError("injected")
        return original(z)

    monkeypatch.setattr(runner, "delay_doppler_map", first_raises)
    outcome = harness.timed_call(fast_profile(trials=2, seed=0))
    assert outcome.report is not None and outcome.failed
    assert "injected" in outcome.error


def test_expected_bins_follow_the_configured_grid():
    assert checks.expected_bins(table1_profile()) == [(12, 0), (25, 0), (50, 1), (62, -2), (37, 0)]
    with pytest.raises(ValueError, match="not on the delay-Doppler grid"):
        checks.expected_bins(fast_profile(ul_user=table1_profile().ul_user))


def _set(path, value):
    def doctor(trial):
        *keys, last = path
        for key in keys:
            trial = trial[key]
        trial[last] = value(trial[last]) if callable(value) else value
    return doctor


DOCTORED = {
    "range bin off by one": _set(("sensing", 0, "bin_n"), lambda n: n + 1),
    "velocity bin off by one": _set(("sensing", 3, "bin_m"), lambda m: m - 1),
    "DoA error over the grid step": _set(("sensing", 1, "doa_error_deg"), 0.2),
    "TX power over budget": _set(("tx_power_w",), 1.001),
    "UL power over budget": _set(("ul_power_w",), 0.0101),
    "analog residual over the ADC threshold": _set(("analog_residual_w", 2), 1.01e-6),
    "NSP nulling too shallow": _set(("nsp_nulling_ratio",), 1e-6),
    "DL rate above the ideal": _set(("metrics", "rate_dl"), 1e3),
    "non-finite SINR": _set(("metrics", "gamma_dl"), math.nan),
    "zero rate": _set(("metrics", "rate_ul_mss"), 0.0),
}


def test_untouched_trial_passes_every_check(trial):
    assert checks.trial_problems(fast_profile(), trial) == []


@pytest.mark.parametrize("defect", DOCTORED)
def test_each_check_rejects_a_doctored_trial(trial, defect):
    doctored = json.loads(json.dumps(trial))
    DOCTORED[defect](doctored)
    assert checks.trial_problems(fast_profile(), doctored)


def test_traced_run_leaves_outputs_identical():
    cfg = fast_profile(trials=2, seed=4)
    plain = runner.run_scenario(cfg).to_json()
    originals = {name: getattr(runner, name) for name in spans.REBOUND["fdisac.runner"]}
    tracer = spans.Tracer()
    with tracer.installed():
        traced = tracer.wrap(runner.run_scenario)(cfg).to_json()
    assert traced == plain
    assert {name: getattr(runner, name) for name in originals} == originals
    layers = tracer.layer_metrics(trials=2)
    wf, k = cfg.waveform(), cfg.k_targets
    assert layers["runner.synthesize_rx_snapshots.calls"] == 1 + k
    assert layers[spans.CELLS] == k * wf.n_subcarriers * wf.n_symbols * cfg.n_rx_antennas
    assert layers[spans.ITERATIONS] >= 1
    assert all(layers[f"{m}.errors"] == 0 for m in spans.MODULES)
    # self times partition the root spans' wall time
    roots = sum(end - start for name, start, end, _, _ in tracer.spans if name == spans.ROOT)
    assert sum(tracer.self_times().values()) == pytest.approx(roots, rel=1e-9)


def test_plan_is_whole_rounds_fixed_by_the_seed():
    workload = harness.WORKLOADS["fast-55dbm-0taps"]
    plan = workload.plan(seed=7, seconds=30)
    assert plan == workload.plan(seed=7, seconds=30)
    size = len(workload.configs)
    assert len(plan) % size == 0 and len(plan) >= 40
    for start in range(0, len(plan), size):
        assert sorted(c.seed for c in plan[start:start + size]) == list(range(size))


@pytest.mark.parametrize("calls, percentile", [(20, 50.0), (40, 75.0), (99, 75.0), (120, 90.0), (200, 95.0)])
def test_tail_percentile_keeps_ten_calls_beyond(calls, percentile):
    assert harness.tail_percentile(calls) == percentile
    values = list(range(calls))
    beyond = sum(v > harness.nearest_rank(values, percentile) for v in values)
    assert beyond >= 10 or percentile == 50.0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    args = ["--workload", "fast-30dbm", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
