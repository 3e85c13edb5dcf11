import csv
import json
import subprocess
import sys

import pytest

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


def test_sense_writes_maps_and_report(tmp_path, tiny_config):
    out = tmp_path / "out"
    proc = _run("sense", "--profile", "fast", "--config", str(tiny_config),
                "--seed", "4", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    for name in ("range_angle.csv", "range_velocity.csv", "report.json"):
        assert (out / name).exists()

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
                "--trials", "1", "--values", "5", "--format", "json", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    records = json.loads((out / "rates.json").read_text(encoding="utf-8"))
    assert records[0]["sweep_value"] == 5.0


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


def test_rates_rejects_a_non_integral_tap_count(tmp_path, tiny_config):
    with pytest.raises(ValueError, match="tap counts must be integers"):
        main(["rates", "--profile", "fast", "--config", str(tiny_config), "--sweep", "n_taps",
              "--values", "16.9", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it costs most of the CLI start-up
    code = "import fdisac, sys; assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
