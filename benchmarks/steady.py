"""Steadiness check: two alternating sets of benchmark runs of one workload.

From the repository root:

    python3 benchmarks/steady.py --workload table1 --runs 10

Runs ``BENCHMARK.json``'s command ``2 * runs`` times, alternating between set
A and set B, each run with its own seed. For every end-to-end metric it
prints each set's median and quartiles, the spread (quartile distance over
the median) against the metric's bound, and whether set B's median is worse
than set A's by more than the bound. Exits 1 if any metric is unsteady or
the share of failed calls differs between the sets. Raw results go to
``benchmarks/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def one_run(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def summary(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worsening(metric: dict, first: float, second: float) -> float:
    """Share by which ``second`` is worse than ``first`` in the metric's direction."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 10 to judge)")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = {"A": [], "B": []}
    for i in range(2 * args.runs):
        name = "AB"[i % 2]
        result = one_run(spec, args.workload, i + 1, spec["run_seconds"])
        sets[name].append(result)
        print(f"run {i + 1:2d} set {name} seed {i + 1}: {result['wall_s']:.1f} s, "
              f"{result['failed']}/{result['attempted']} failed, correct={result['correct']}",
              flush=True)

    steady = True
    print(f"\n{'metric':22s} {'set':3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for set_name, results in sets.items():
            med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in results])
            medians.append(med)
            # set-up time is exempt from the spread limit; its median shift is not
            ok = name == "setup_s" or spread <= bound
            steady &= ok
            note = "ok" if spread <= bound / 3 else ("within bound" if ok else "SPREAD OVER BOUND")
            print(f"{name:22s} {set_name:3s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.2%} {bound:6.2%}  {note}")
        shift = worsening(metric, *medians)
        steady &= shift <= bound
        print(f"{'':22s} B vs A median worse by {shift:.2%}: "
              f"{'ok' if shift <= bound else 'OVER BOUND'}")
    per_run = {r["failed"] / r["attempted"] for v in sets.values() for r in v}
    print(f"failed share per run: {sorted(per_run)}")
    steady &= len(per_run) == 1 and all(r["correct"] for v in sets.values() for r in v)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"steady-{args.workload}.json").write_text(json.dumps(sets, indent=1))
    print("STEADY" if steady else "NOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
