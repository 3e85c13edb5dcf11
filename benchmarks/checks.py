"""Output checks applied to every report the benchmark gets back.

Each check is computed from the scenario configuration alone, independently
of the package's own helpers: range and velocity bins from c/(2 P df) and
c/(2 f_c Q T_s), power budgets and the ADC threshold from the dBm settings.
"""

from __future__ import annotations

import math

SPEED_OF_LIGHT = 299_792_458.0  # m/s
REL_TOL = 1e-9  # relative slack on the budget and rate inequalities
NULLING_MAX = 1e-9
ON_GRID_TOL = 1e-6  # a target further than this from a bin centre is off-grid


def watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def expected_bins(cfg) -> list[tuple[int, int]]:
    """(range bin, signed velocity bin) of every target, in report order."""
    range_bin = SPEED_OF_LIGHT / (2.0 * cfg.n_subcarriers * cfg.subcarrier_spacing_hz)
    velocity_bin = SPEED_OF_LIGHT / (
        2.0 * cfg.carrier_hz * cfg.n_symbols * cfg.symbol_duration_s
    )
    bins = []
    for spec in cfg.all_target_specs():
        n = spec.range_m / range_bin
        m = spec.velocity_mps / velocity_bin
        if abs(n - round(n)) > ON_GRID_TOL or abs(m - round(m)) > ON_GRID_TOL:
            raise ValueError(f"target {spec} is not on the delay-Doppler grid")
        bins.append((round(n), round(m)))
    return bins


def trial_problems(cfg, trial: dict) -> list[str]:
    """Every property a completed trial of ``cfg`` violates (empty if none)."""
    problems = []
    bins = expected_bins(cfg)
    rows = trial["sensing"]
    if len(rows) != len(bins):
        problems.append(f"{len(rows)} sensing rows for {len(bins)} targets")
    for k, (row, (n, m)) in enumerate(zip(rows, bins)):
        if (row["bin_n"], row["bin_m"]) != (n, m):
            problems.append(
                f"target {k}: bins ({row['bin_n']}, {row['bin_m']}) != expected ({n}, {m})"
            )
        if not row["doa_error_deg"] <= cfg.music_grid_step_deg * (1 + REL_TOL):
            problems.append(
                f"target {k}: DoA error {row['doa_error_deg']} deg exceeds the "
                f"{cfg.music_grid_step_deg} deg grid step"
            )
    p_b, p_u = watts(cfg.tx_power_dbm), watts(cfg.ul_tx_power_dbm)
    if not trial["tx_power_w"] <= p_b * (1 + REL_TOL):
        problems.append(f"TX power {trial['tx_power_w']} W over the {p_b} W budget")
    if not trial["ul_power_w"] <= p_u * (1 + REL_TOL):
        problems.append(f"UL power {trial['ul_power_w']} W over the {p_u} W budget")
    threshold = watts(cfg.si_threshold_dbm)
    worst = max(trial["analog_residual_w"])
    if not worst <= threshold:
        problems.append(f"analog SI residual {worst} W over the {threshold} W ADC threshold")
    if not trial["nsp_nulling_ratio"] <= NULLING_MAX:
        problems.append(f"NSP nulling ratio {trial['nsp_nulling_ratio']} above {NULLING_MAX}")
    metrics = trial["metrics"]
    if not metrics["rate_dl"] <= metrics["rate_dl_ideal"] * (1 + REL_TOL):
        problems.append(
            f"DL rate {metrics['rate_dl']} above the ideal {metrics['rate_dl_ideal']}"
        )
    for key, value in metrics.items():
        if not (math.isfinite(value) and value > 0):
            problems.append(f"metric {key} = {value} is not finite and positive")
    return problems
