"""Same behaviour: every benchmark config reports its recorded answers.

``golden_workloads.jsonl`` holds one JSON line per config: the 100 configs
of ``benchmarks/harness.py``'s ``WORKLOADS`` (loaded by path and only read),
five corners the workloads do not reach, then the ``table1`` and CSI-error
configs of the pipeline's earlier goldens. A line holds the config's name,
the sums of its two maps and, per trial, its sensing rows' DoAs and bins,
its eight metrics, its TX and UL powers and its analog leakage, or its error
string. DoAs, bins and error strings must match exactly, every other value
to 1e-9 relative with no absolute floor (a leakage reads ~1e-8 W). The
precoder's KKT residual and the NSP nulling ratio are rounding noise, so
they are held to bounds instead of stored.

An answer-changing change re-records the file, once, with::

    PYTHONPATH=src python tests/test_workload_golden.py
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fdisac.config import fast_profile, table1_profile
from fdisac.runner import run_scenario

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
GOLDEN = Path(__file__).with_name("golden_workloads.jsonl")
REL = 1e-9
KKT_MAX = 1e-8
NULLING_MAX = 1e-9
EXACT = ("error", "doa_deg", "bin_n", "bin_m")


def _load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("fdisac_bench_harness", BENCH_DIR / "harness.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their annotations there
    sys.path.insert(0, str(BENCH_DIR))  # it imports checks and spans by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module.WORKLOADS


def _configs() -> dict:
    """Name -> config, in the file's order."""
    configs = {
        f"{name}[{i}]": cfg
        for name, workload in _load_workloads().items()
        for i, cfg in enumerate(workload.configs)
    }
    # the BS silent and 100 dBm noise: trial 0's noise peaks span the UL direction
    configs["noise-only"] = fast_profile(
        trials=3, seed=400, tx_power_dbm=-math.inf, ul_tx_power_dbm=100, bs_noise_dbm=100,
        user_noise_dbm=100, si_threshold_dbm=math.inf, si_kappa_db=-100, si_pathloss_db=300,
        csi_nmse_db=0, music_grid_step_deg=1, analog_taps=0, codebook_bits=2)
    # SI CSI error: the sensing SI term is nonzero, which no workload has
    configs["csi-10db"] = fast_profile(trials=4, seed=3, csi_nmse_db=-10.0)
    # eight leakage rows on two TX chains, then on one: every leakage row binds
    for chains, name in ((2, "two-chains"), (1, "one-chain")):
        configs[f"{name}-55dbm-0taps"] = fast_profile(
            trials=4, seed=5, tx_rf_chains=chains, tx_power_dbm=55.0, analog_taps=0)
    # the config table's widest dynamic range: tx - threshold - path loss = 100 dB
    configs["corner-100dbm"] = fast_profile(
        trials=3, tx_power_dbm=100.0, ul_tx_power_dbm=100.0, si_threshold_dbm=-30.0,
        si_pathloss_db=30.0, analog_taps=0)
    for seed in range(4):
        configs[f"table1-2trials[{seed}]"] = table1_profile(trials=2, seed=seed)
    for seed in range(4):
        configs[f"csi-10db-2trials[{seed}]"] = fast_profile(trials=2, seed=seed, csi_nmse_db=-10.0)
    return configs


CONFIGS = _configs()


def _line(name: str) -> dict:
    """What config ``name`` reports, in the file's form; rounding noise held to its bounds."""
    report = run_scenario(CONFIGS[name])
    trials = []
    for trial in report.trials:
        if "error" in trial:
            trials.append({"error": trial["error"]})
            continue
        assert trial["precoder_kkt_residual"] <= KKT_MAX, name
        assert trial["nsp_nulling_ratio"] <= NULLING_MAX, name
        trials.append({
            **{key: [row[key] for row in trial["sensing"]] for key in ("doa_deg", "bin_n", "bin_m")},
            **trial["metrics"],
            **{key: trial[key] for key in ("tx_power_w", "ul_power_w", "analog_leakage_w")},
        })
    return {
        "name": name,
        "map_sum": float(np.sum(report.range_velocity["magnitude"])),
        "profile_sum": float(np.sum(report.range_angle["profiles"])),
        "trials": trials,
    }


def _flat(line: dict) -> dict:
    flat = {"map_sum": line["map_sum"], "profile_sum": line["profile_sum"]}
    for t, trial in enumerate(line["trials"]):
        flat.update({f"trial {t} {key}": value for key, value in trial.items()})
    return flat


def _moved(got: dict, want: dict) -> list:
    """Each value of ``got`` that departs from the recorded line ``want``."""
    got, want = _flat(got), _flat(want)
    moved = []
    for key in dict.fromkeys([*want, *got]):
        a, b = want.get(key), got.get(key)
        exact = key.rsplit(" ", 1)[-1] in EXACT or a is None or b is None
        if not (a == b if exact else b == pytest.approx(a, rel=REL, abs=0)):
            moved.append(f"{key}: {a!r} -> {b!r}")
    return moved


def _recorded() -> dict:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return {line["name"]: line for line in map(json.loads, lines)}


def moved_from_record(names) -> dict:
    """Name -> the moved values of each config in ``names`` that departs from its line."""
    recorded = _recorded()
    return {name: m for name in names if (m := _moved(_line(name), recorded[name]))}


def test_every_config_reports_its_recorded_answers():
    assert list(_recorded()) == list(CONFIGS)
    moved = moved_from_record(CONFIGS)
    assert not moved, f"{len(moved)} of {len(CONFIGS)} configs moved:\n" + "\n".join(
        f"{name}: {len(m)} values, first {m[0]}" for name, m in moved.items())


if __name__ == "__main__":
    GOLDEN.write_text("".join(
        json.dumps(_line(name), separators=(",", ":")) + "\n" for name in CONFIGS
    ), encoding="utf-8")
