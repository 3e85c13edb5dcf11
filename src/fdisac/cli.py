"""Command-line entry point.

Subcommands:
  sense        run the sensing pipeline, emit range-angle / range-velocity maps
  rates        run a rate sweep, emit the rates table
  validate     run the invariant suite; nonzero exit on any violation
  show-config  print the fully resolved configuration

The configuration, a rate sweep's values and the output directory are
resolved once, before the subcommand runs; one that cannot be read, made or
is rejected prints ``fdisac: error: <message>`` and exits 2.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .config import PROFILES, ScenarioConfig, load_config
from .runner import SWEEP_VARIABLES, dumps, run_scenario, sweep, sweep_configs, validate_suite


def _add_common(parser: argparse.ArgumentParser, *, out: bool = True) -> None:
    """The config options, plus ``--out`` where the subcommand writes files."""
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--trials", type=int, default=None, help="trial count override")
    parser.add_argument(
        "--profile", choices=PROFILES, default="table1", help="base parameter profile"
    )
    if out:
        parser.add_argument("--out", type=Path, default=Path("."), help="output directory")


def _resolve_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = PROFILES[args.profile]()
    if args.config is not None:
        cfg = load_config(args.config, base=cfg)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    return cfg.with_overrides(**overrides) if overrides else cfg


def _write_table(path: Path, header: list[str], rows: Iterable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_sense(args, cfg: ScenarioConfig) -> int:
    report = run_scenario(cfg)
    out = args.out

    # one row per map cell, row-major: the first axis repeats, the second (a tuple) tiles
    ra = report.range_angle
    n_k, n_p = ra["profiles"].shape
    rows = zip(np.repeat(ra["angles_deg"], n_p).tolist(), ra["ranges_m"] * n_k,
               ra["profiles"].ravel().tolist())
    _write_table(out / "range_angle.csv", ["angle_deg", "range_m", "magnitude"], rows)

    rv = report.range_velocity
    n_p, n_q = rv["magnitude"].shape
    rows = zip(np.repeat(rv["ranges_m"], n_q).tolist(), rv["velocities_mps"] * n_p,
               rv["magnitude"].ravel().tolist())
    _write_table(out / "range_velocity.csv", ["range_m", "velocity_mps", "magnitude"], rows)
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    print(f"sense: {report.aggregate['n_trials']} trials, "
          f"max DoA error {report.aggregate['max_doa_error_deg']:.4f} deg, "
          f"wall clock {report.wall_clock_s:.2f} s")
    return 0


def _parse_values(raw: str | None, variable: str, cfg: ScenarioConfig) -> list:
    if raw:
        return [float(v) for v in raw.split(",") if v.strip() != ""]
    if variable == "n_taps":  # every legal tap count: 0, M_rf, ..., M_rf N_rf
        return list(range(0, cfg.rx_rf_chains * cfg.tx_rf_chains + 1, cfg.rx_rf_chains))
    return [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]


# Each rates.csv column after sweep_value, and the point's aggregate key it reads.
RATE_COLUMNS = {"rate_dl": "mean_rate_dl", "rate_ideal": "mean_rate_dl_ideal",
                "rate_ul_nsp": "mean_rate_ul_nsp", "rate_ul_mss": "mean_rate_ul_mss",
                "gamma_rad": "mean_gamma_rad"}


def _cmd_rates(args, cfg: ScenarioConfig) -> int:
    reports = sweep(cfg, args.sweep, args.values)  # main parsed the values and checked them
    out = args.out
    field_name = SWEEP_VARIABLES[args.sweep]
    points = [{"sweep_value": r.config[field_name], "aggregate": r.aggregate} for r in reports]
    rows = [[p["sweep_value"], *(p["aggregate"][k] for k in RATE_COLUMNS.values())]
            for p in points]
    _write_table(out / "rates.csv", ["sweep_value", *RATE_COLUMNS], rows)
    payload = {"config": cfg.to_dict(), "seed": cfg.seed, "variable": args.sweep, "points": points}
    (out / "report.json").write_text(dumps(payload) + "\n", encoding="utf-8")
    print(f"rates: swept {args.sweep} over {len(points)} points, "
          f"wall clock {sum(r.wall_clock_s for r in reports):.2f} s")
    return 0


def _cmd_validate(args, cfg: ScenarioConfig) -> int:
    payload, ok = validate_suite(cfg)
    (args.out / "report.json").write_text(dumps(payload) + "\n", encoding="utf-8")
    for check in payload["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['detail']}")
    return 0 if ok else 1


def _cmd_show_config(args, cfg: ScenarioConfig) -> int:
    print(dumps(cfg.to_dict()))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fdisac",
        description="Full-duplex MIMO ISAC base-station simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sense = sub.add_parser("sense", help="emit range-angle and range-velocity maps")
    _add_common(p_sense)
    p_sense.set_defaults(func=_cmd_sense)

    p_rates = sub.add_parser("rates", help="emit rate sweep tables")
    _add_common(p_rates)
    p_rates.add_argument(
        "--sweep", choices=sorted(SWEEP_VARIABLES), default="p_u_dbm",
        help="sweep variable",
    )
    p_rates.add_argument("--values", type=str, default=None,
                         help="comma-separated sweep values")
    p_rates.set_defaults(func=_cmd_rates)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    _add_common(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_show = sub.add_parser("show-config", help="print the resolved configuration")
    _add_common(p_show, out=False)
    p_show.set_defaults(func=_cmd_show_config)

    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "rates":  # the sweep's points are outside values too
            args.values = _parse_values(args.values, args.sweep, cfg)
            sweep_configs(cfg, args.sweep, args.values)
        if "out" in args:  # made before any trial runs: an unusable directory is rejected here
            args.out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:  # a rejected config is one line, as argparse's errors
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    return args.func(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
