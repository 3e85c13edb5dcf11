"""Run one benchmark workload and print its result as the last output line.

From the repository root:

    python3 benchmarks/run.py --workload fast-30dbm --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every call
untraced and traced and prints the per-layer metrics. The package is imported
from ``src/`` next to this directory; without it the run exits with code 2.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS and OpenMP thread, set before numpy loads: on a two-core machine a
# second BLAS thread doubles CPU time without lowering wall time (README).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "fdisac" / "__init__.py").is_file():
        print(f"no fdisac package under {SRC_DIR}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC_DIR))
    import harness  # loads numpy, so it comes after the thread settings

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
