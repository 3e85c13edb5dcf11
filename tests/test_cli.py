import csv
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from fdisac import cli
from fdisac.cli import main

TINY = {
    "tx_rf_chains": 4,
    "rx_rf_chains": 4,
    "tx_antennas_per_rf": 2,
    "rx_antennas_per_rf": 2,
    "dl_user_antennas": 3,
    "ul_user_antennas": 2,
    "n_subcarriers": 32,
    "n_symbols": 8,
    "analog_taps": 8,
    "codebook_bits": 4,
    "trials": 2,
    "dl_scatterers": [{"angle_deg": -30.0, "range_m": 78.0705359375, "velocity_mps": 0.0}],
    "radar_targets": [],
    "ul_user": {"angle_deg": -10.0, "range_m": 117.10580390625, "velocity_mps": 0.0},
}


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "fdisac.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY), encoding="utf-8")
    return path


def test_show_config_prints_resolved_json(tiny_config):
    proc = _run("show-config", "--profile", "fast", "--config", str(tiny_config), "--seed", "9")
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["seed"] == 9
    assert data["n_subcarriers"] == 32  # file overrides the profile
    assert data["carrier_hz"] == 28e9  # profile default preserved


def test_config_outside_the_table_fails_naming_its_field(tmp_path):
    path = tmp_path / "outside.json"
    path.write_text(json.dumps({"tx_power_dbm": 200.0}), encoding="utf-8")
    proc = _run("show-config", "--profile", "fast", "--config", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "fdisac: error: tx power dbm must lie in [-100.0, 100.0], got 200.0\n"


@pytest.mark.parametrize("command", ["show-config", "sense", "rates", "validate"])
@pytest.mark.parametrize("case, message", [
    ("few_chains", "rx rf chains must exceed the 5 targets (UL user included) that MUSIC "
                   "resolves, got 4"),
    ("zero_trials", "trials must lie in [1, inf], got 0"),
    ("missing_file", "No such file or directory"),
])
def test_rejected_config_is_one_line_and_exit_2(tmp_path, capsys, command, case, message):
    # no traceback and no output: the config is resolved before any subcommand runs
    path = tmp_path / "few_chains.json"
    path.write_text(json.dumps({"rx_rf_chains": 4}), encoding="utf-8")
    args = {"few_chains": ["--config", str(path)], "zero_trials": ["--trials", "0"],
            "missing_file": ["--config", str(tmp_path / "missing.json")]}[case]
    out = [] if command == "show-config" else ["--out", str(tmp_path / "out")]
    assert main([command, "--profile", "fast", *args, *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fdisac: error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sense", "rates", "validate"])
def test_unusable_out_is_rejected_before_any_trial_runs(tmp_path, capsys, monkeypatch, command):
    def no_run(cfg):
        raise AssertionError("a trial ran")
    # sense runs cli.run_scenario; rates and validate reach the runner's own
    monkeypatch.setattr(cli, "run_scenario", no_run)
    monkeypatch.setattr("fdisac.runner.run_scenario", no_run)
    not_a_dir = tmp_path / "not_a_dir"
    not_a_dir.write_text("", encoding="utf-8")
    assert main([command, "--profile", "fast", "--trials", "1", "--out", str(not_a_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fdisac: error: ") and captured.err.count("\n") == 1
    assert not_a_dir.read_text(encoding="utf-8") == ""


def test_worst_dynamic_range_corner_validates(tmp_path):
    # tx - threshold - path loss = 100 dB with perfect SI CSI; the same call runs in CI
    corner = {"tx_power_dbm": 100.0, "ul_tx_power_dbm": 100.0, "si_threshold_dbm": -30.0,
              "si_pathloss_db": 30.0, "analog_taps": 0}
    path = tmp_path / "corner.json"
    path.write_text(json.dumps(corner), encoding="utf-8")
    assert main(["validate", "--profile", "fast", "--trials", "2", "--config", str(path),
                 "--out", str(tmp_path / "v")]) == 0


@pytest.mark.parametrize("args", [
    ["show-config", "--out", "x"],
    ["show-config", "--format", "json"],
    ["validate", "--format", "json"],
    ["sense", "--format", "json"],
    ["rates", "--format", "csv"],
], ids=["show-config-out", "show-config-format", "validate-format", "sense-format",
        "rates-format"])
def test_subcommands_reject_options_they_do_not_read(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sense_writes_maps_and_report(tmp_path, tiny_config):
    out = tmp_path / "out"
    proc = _run("sense", "--profile", "fast", "--config", str(tiny_config),
                "--seed", "4", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    # the tables only as CSV: report.json is the one JSON form of the run
    assert sorted(f.name for f in out.iterdir()) == [
        "range_angle.csv", "range_velocity.csv", "report.json"]

    raw = (out / "range_angle.csv").read_bytes()
    assert b"\r" not in raw  # newline is plain \n
    with open(out / "range_angle.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["angle_deg", "range_m", "magnitude"]
    assert len(rows) == 1 + 2 * 32  # K=2 targets x P=32 range bins
    float(rows[1][1])  # '.' decimal separator parses

    with open(out / "range_velocity.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["range_m", "velocity_mps", "magnitude"]
    assert len(rows) == 1 + 32 * 8

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["seed"] == 4
    assert len(report["trials"]) == 2


def test_sense_tables_of_array_maps_equal_those_of_listed_maps(tmp_path, tiny_config, monkeypatch):
    # the report's float64 entries render like the Python floats of their tolist()
    args = ["sense", "--profile", "fast", "--config", str(tiny_config)]
    assert main(args + ["--out", str(tmp_path / "arrays")]) == 0

    def listed(part):
        """``part``'s arrays as object arrays of their ``tolist()`` floats."""
        return {k: np.array(v.tolist(), dtype=object) if isinstance(v, np.ndarray) else v
                for k, v in part.items()}

    def run_listed(cfg, run=cli.run_scenario):
        report = run(cfg)
        assert type(report.range_velocity["magnitude"][0, 0]) is np.float64
        return replace(report, range_angle=listed(report.range_angle),
                       range_velocity=listed(report.range_velocity))

    monkeypatch.setattr(cli, "run_scenario", run_listed)
    assert main(args + ["--out", str(tmp_path / "lists")]) == 0
    for name in ("range_angle.csv", "range_velocity.csv", "report.json"):
        assert (tmp_path / "arrays" / name).read_bytes() == (tmp_path / "lists" / name).read_bytes()


def test_rates_sweep_table(tmp_path, tiny_config):
    out = tmp_path / "rates_out"
    proc = _run("rates", "--profile", "fast", "--config", str(tiny_config),
                "--seed", "1", "--trials", "1", "--sweep", "p_u_dbm",
                "--values", "0,10", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out / "rates.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sweep_value", "rate_dl", "rate_ideal", "rate_ul_nsp",
                       "rate_ul_mss", "gamma_rad"]
    assert len(rows) == 3
    assert [float(r[0]) for r in rows[1:]] == [0.0, 10.0]


def test_rates_json_format(tmp_path, tiny_config):
    out = tmp_path / "rates_json"
    proc = _run("rates", "--profile", "fast", "--config", str(tiny_config),
                "--trials", "1", "--values", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["variable"] == "p_u_dbm"
    assert report["points"][0]["sweep_value"] == 5.0


def test_validate_deterministic_and_green(tmp_path, tiny_config):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    p1 = _run("validate", "--profile", "fast", "--config", str(tiny_config),
              "--seed", "42", "--out", str(out1))
    p2 = _run("validate", "--profile", "fast", "--config", str(tiny_config),
              "--seed", "42", "--out", str(out2))
    assert p1.returncode == 0, p1.stdout + p1.stderr
    assert p2.returncode == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert "[PASS]" in p1.stdout and "[FAIL]" not in p1.stdout


def test_rates_rejects_a_non_integral_tap_count(tmp_path, tiny_config, capsys):
    assert main(["rates", "--profile", "fast", "--config", str(tiny_config), "--sweep", "n_taps",
                 "--values", "16.9", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "fdisac: error: tap counts must be integers, got [16.9]\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep, values, message", [
    ("p_b_dbm", "200", "tx power dbm must lie in [-100.0, 100.0], got 200.0"),
    ("n_taps", "12", "analog taps 12 must be a nonnegative multiple of 8 RX chains"),
    ("p_b_dbm", "abc", "could not convert string to float: 'abc'"),
    ("p_b_dbm", ",", "sweep needs at least one value"),
])
def test_rejected_sweep_value_is_one_line_and_exit_2(tmp_path, capsys, sweep, values, message):
    # the sweep's points are built and checked with the config, before any point runs
    assert main(["rates", "--profile", "fast", "--trials", "1", "--sweep", sweep,
                 "--values", values, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"fdisac: error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_rates_error_of_the_run_itself_is_no_rejected_config(tmp_path, monkeypatch):
    def failing_sweep(*args):
        raise ValueError("raised by the run")
    monkeypatch.setattr(cli, "sweep", failing_sweep)
    with pytest.raises(ValueError, match="raised by the run"):
        main(["rates", "--profile", "fast", "--trials", "1", "--values", "0",
              "--out", str(tmp_path / "out")])


def test_rates_sweeps_the_tap_count(tmp_path):
    out = tmp_path / "r"
    assert main(["rates", "--profile", "fast", "--trials", "2", "--seed", "3", "--sweep", "n_taps",
                 "--values", "0,8,16", "--out", str(out)]) == 0
    with open(out / "rates.csv", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[0] == "sweep_value"
    assert [r[0] for r in rows] == ["0", "8", "16"]
    # at 30 dBm the leakage caps do not bind, so the taps do not change the design
    assert rows[0][1:] == rows[1][1:] == rows[2][1:]
    assert all(float(x) > 0 for r in rows for x in r[1:])


def test_rates_sweeps_every_legal_tap_count_without_values(tmp_path):
    # the dBm grid 0, 5, ..., 30 is no tap sweep (5 is not a multiple of the
    # 8 RX chains); the default is 0, M_rf, ..., M_rf N_rf of the resolved config
    out = tmp_path / "r"
    assert main(["rates", "--profile", "fast", "--trials", "1", "--sweep", "n_taps",
                 "--out", str(out)]) == 0
    with open(out / "rates.csv", encoding="utf-8") as fh:
        _, *rows = list(csv.reader(fh))
    assert [int(r[0]) for r in rows] == list(range(0, 8 * 8 + 1, 8))


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it costs most of the CLI start-up
    code = "import fdisac, sys; assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
