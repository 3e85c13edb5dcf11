"""Workloads, the timed loop and the metrics of the fdisac benchmark.

One operation is one ``fdisac.runner.run_scenario(cfg)`` call. Each workload
holds a fixed list of call configurations, one *round*; a run performs whole
rounds, each in an order drawn from the run's seed. Only the time inside
``run_scenario`` is measured; every report is checked afterwards.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fdisac import fast_profile, runner, table1_profile

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_LAUNCHES = 3
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0)
TAIL_MIN_BEYOND = 10  # calls that must lie beyond the tail percentile
END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "call_ms.p50": "ms",
    "call_ms.tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rate_dl_bps_hz": "bit/s/Hz",
    "rate_ul_nsp_bps_hz": "bit/s/Hz",
    "sinr_rad_db": "dB",
}


@dataclass(frozen=True)
class Workload:
    """One round of calls and how long it took on the reference machine."""

    configs: tuple
    round_s: float  # sets the number of rounds a run of given length performs

    def plan(self, seed: int, seconds: float) -> list:
        """Call configurations of one run, whole rounds in seed-drawn order."""
        rng = np.random.default_rng(seed)
        rounds = max(1, round(seconds / self.round_s))
        return [self.configs[i] for _ in range(rounds) for i in rng.permutation(len(self.configs))]


# Seeds inside each round are fixed rather than drawn from the run seed: on
# fast-55dbm-0taps the cost of one realization ranges from 60 ms to 6 s and
# some realizations make the precoder raise, so a drawn set would change the
# work and the failures from run to run. Fixed rounds also keep every count
# of the traced run and every rate identical between runs.
WORKLOADS = {
    "fast-30dbm": Workload(
        tuple(fast_profile(trials=10, seed=s) for s in range(40)), round_s=9.6
    ),
    "fast-55dbm-0taps": Workload(
        tuple(fast_profile(tx_power_dbm=55.0, analog_taps=0, trials=1, seed=s) for s in range(40)),
        round_s=9.7,
    ),
    "table1": Workload(tuple(table1_profile(trials=1, seed=s) for s in range(20)), round_s=14.0),
}


@dataclass
class Outcome:
    """One timed call: its wall time, report or error, and what the checks found."""

    seconds: float
    report: object = None
    error: str | None = None
    problems: tuple = ()

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)

    def fingerprint(self) -> str:
        return self.report.to_json() if self.report is not None else self.error


def timed_call(cfg, scenario=None) -> Outcome:
    """Time one ``run_scenario`` call, then check its report."""
    scenario = scenario or runner.run_scenario
    start = time.perf_counter()
    try:
        report = scenario(cfg)
    except Exception as exc:
        return Outcome(time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    errors = [t["error"] for t in report.trials if "error" in t]
    problems = [
        f"trial {i}: {p}"
        for i, t in enumerate(report.trials)
        if "error" not in t
        for p in checks.trial_problems(cfg, t)
    ]
    return Outcome(elapsed, report, "; ".join(errors) or None, tuple(problems))


def setup_seconds() -> float:
    """Median wall time from a fresh interpreter to ``import fdisac`` done."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fdisac"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail_percentile(n_calls: int) -> float:
    """Highest percentile in the ladder with at least ten calls beyond it."""
    fit = [p for p in TAIL_PERCENTILES if n_calls * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND]
    return fit[-1] if fit else TAIL_PERCENTILES[0]


def nearest_rank(values, percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile * len(ordered) / 100.0) - 1)]


def end_to_end(outcomes, setup_s: float) -> dict:
    """The end-to-end metrics of one run; a failed call counts as infinitely slow."""
    ms = [1e3 * o.seconds if not o.failed else math.inf for o in outcomes]
    done = [t for o in outcomes if not o.failed for t in o.report.trials]
    tail = tail_percentile(len(ms))
    print(f"call_ms.tail is p{tail:g} of {len(ms)} timed calls")
    return {
        "trials_per_s": len(done) / sum(o.seconds for o in outcomes),
        "call_ms.p50": statistics.median(ms),
        "call_ms.tail": nearest_rank(ms, tail),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rate_dl_bps_hz": statistics.fmean(t["metrics"]["rate_dl"] for t in done),
        "rate_ul_nsp_bps_hz": statistics.fmean(t["metrics"]["rate_ul_nsp"] for t in done),
        "sinr_rad_db": statistics.fmean(10.0 * math.log10(t["metrics"]["gamma_rad"]) for t in done),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object that ``run.py`` prints."""
    plan = WORKLOADS[workload].plan(seed, seconds)
    setup_s = setup_seconds() if not trace else None
    # untimed warm-up with the first call, repeated by the timed loop below
    warm = timed_call(plan[0])
    tracer = spans.Tracer() if trace else None
    outcomes, traced = [], []
    for call, cfg in enumerate(plan):
        outcomes.append(timed_call(cfg))
        if tracer is not None:
            tracer.call = call
            with tracer.installed():
                traced.append(timed_call(cfg, tracer.wrap(runner.run_scenario)))
    mismatches = int(warm.fingerprint() != outcomes[0].fingerprint())
    mismatches += sum(t.fingerprint() != o.fingerprint() for o, t in zip(outcomes, traced))
    for o in outcomes + traced:
        for line in ([o.error] if o.error else []) + list(o.problems):
            print(f"failed call: {line}")
    if mismatches:
        print(f"{mismatches} reports differ from the same call run before")
    correct = not mismatches and not any(o.problems for o in outcomes + traced)
    measured = traced if trace else outcomes
    if trace:
        trials = sum(cfg.trials for cfg in plan)
        values = tracer.layer_metrics(trials)
        values[spans.OVERHEAD] = 100.0 * (
            sum(o.seconds for o in traced) / sum(o.seconds for o in outcomes) - 1.0
        )
        unit = spans.units()
        tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.json")
    else:
        values = end_to_end(outcomes, setup_s)
        unit = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": len(measured),
        "failed": sum(o.failed for o in measured),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
    }
