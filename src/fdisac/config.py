"""Scenario configuration: dimensions, numerology, powers, geometry, seeds.

A :class:`ScenarioConfig` is the single source of truth for a run. Two
factory profiles ship with the package: ``table1`` (the full 128x128
configuration) and ``fast`` (a 32x32 desk-scale configuration that keeps the
test suite quick). Config files are JSON documents mirroring the field names.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .channels import Waveform

__all__ = [
    "dbm_to_watt",
    "TargetSpec",
    "ScenarioConfig",
    "fast_profile",
    "table1_profile",
    "PROFILES",
    "load_config",
]

_INF = math.inf

# The legal values of each scalar field, in its own unit: (lo, hi, legal infinities).
# Each finite endpoint runs on the fast profile. The box keeps the precoder's
# dynamic range tx - threshold - path loss at or below 100 dB: at ~140 dB rounding
# puts the leakage above the final guard's 1e-9 x lambda_b allowance.
_LIMITS = {
    **dict.fromkeys(("tx_rf_chains", "rx_rf_chains", "tx_antennas_per_rf", "rx_antennas_per_rf",
                     "dl_user_antennas", "ul_user_antennas", "n_subcarriers", "n_symbols",
                     "trials"), (1, _INF, ())),  # sizes are bounded below only
    "analog_taps": (0, _INF, ()),
    "codebook_bits": (2, 12, ()),  # one bit leaves two beams, too coarse to design with
    "seed": (0, _INF, ()),
    "subcarrier_spacing_hz": (1e3, 1e7, ()),
    "symbol_duration_s": (2e-7, 2e-3, ()),
    "carrier_hz": (1e8, 1e12, ()),
    "tx_power_dbm": (-100.0, 100.0, (-_INF,)),  # -inf: a silent base station
    "ul_tx_power_dbm": (-100.0, 100.0, (-_INF,)),  # -inf: a silent uplink user
    "bs_noise_dbm": (-400.0, 100.0, ()),
    "user_noise_dbm": (-400.0, 100.0, ()),
    "si_threshold_dbm": (-30.0, 100.0, (_INF,)),  # inf: no ADC saturation cap
    "si_kappa_db": (-100.0, 100.0, (-_INF, _INF)),  # fully scattered or pure line of sight
    "si_pathloss_db": (30.0, 300.0, (_INF,)),  # inf: no self-interference
    "csi_nmse_db": (-300.0, 0.0, (-_INF,)),  # -inf (or None): perfect SI CSI
    "music_grid_step_deg": (0.01, 1.0, ()),
    # target geometry; range and velocity are further bounded by the waveform's bins
    "angle_deg": (-90.0, 90.0, ()),
    "range_m": (0.0, _INF, ()),
    "velocity_mps": (-_INF, _INF, ()),
}


def dbm_to_watt(x_dbm: float) -> float:
    """Power conversion 10^((x - 30) / 10); accepts -inf as exactly zero watts."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def _check(obj, name) -> None:
    """Check each field of ``obj`` that :data:`_LIMITS` lists: its annotated
    type, then NaN, then whether it is a legal infinity, then its interval.
    ``name(field)`` is how a message names the field."""
    # Annotations are strings (postponed evaluation); a config file can put
    # any JSON value, NaN and the infinities included, into any field.
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name not in _LIMITS or (value is None and f.type == "float | None"):
            continue
        (lo, hi, infinities), label = _LIMITS[f.name], name(f.name)
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{label} must be an integer, got {value!r}")
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{label} must be a real number, got {value!r}")
        if value != value:
            raise ValueError(f"{label} must not be NaN")
        if math.isinf(value) and value not in infinities:
            raise ValueError(f"{label} must be finite, got {value}")
        if not (lo <= value <= hi or value in infinities):
            raise ValueError(f"{label} must lie in [{lo}, {hi}], got {value}")


@dataclass(frozen=True)
class TargetSpec:
    """Geometry of one radar-visible object (gains are drawn per trial)."""

    angle_deg: float
    range_m: float
    velocity_mps: float = 0.0


@dataclass(frozen=True)
class ScenarioConfig:
    # BS hybrid architecture (totals are products: N_b = chains * per-chain)
    tx_rf_chains: int = 8
    rx_rf_chains: int = 8
    tx_antennas_per_rf: int = 16
    rx_antennas_per_rf: int = 16
    dl_user_antennas: int = 4   # digital DL receive array
    ul_user_antennas: int = 4   # digital UL transmit array

    # OFDM numerology
    n_subcarriers: int = 792
    n_symbols: int = 14
    subcarrier_spacing_hz: float = 120e3
    symbol_duration_s: float = 8.92e-6  # includes the cyclic prefix
    carrier_hz: float = 28e9

    # Powers and noise (dBm)
    tx_power_dbm: float = 30.0
    ul_tx_power_dbm: float = 10.0
    bs_noise_dbm: float = -90.0
    user_noise_dbm: float = -90.0
    si_threshold_dbm: float = -30.0  # per-RF-chain ADC saturation cap

    # Self-interference channel and its estimate
    si_kappa_db: float = 35.0
    si_pathloss_db: float = 40.0
    csi_nmse_db: float | None = None  # None means perfect CSI

    # Cancellation and codebooks
    analog_taps: int = 32  # must be divisible by rx_rf_chains
    codebook_bits: int = 5

    # Geometry: DL scatterers double as radar targets (the DL channel needs
    # at least one); the UL user is the final active target.
    dl_scatterers: tuple[TargetSpec, ...] = (TargetSpec(-30.0, 50.0, 0.0),)
    radar_targets: tuple[TargetSpec, ...] = ()
    ul_user: TargetSpec = field(default_factory=lambda: TargetSpec(0.0, 50.0, 0.0))

    # Estimation and experiment control
    music_grid_step_deg: float = 0.1
    seed: int = 1
    trials: int = 10

    def __post_init__(self):
        _check(self, lambda field: field.replace("_", " "))
        if self.analog_taps % self.rx_rf_chains != 0:
            raise ValueError(
                f"analog taps {self.analog_taps} must be a nonnegative multiple "
                f"of {self.rx_rf_chains} RX chains"
            )
        if self.analog_taps // self.rx_rf_chains > self.tx_rf_chains:
            raise ValueError("analog taps exceed the compressed SI channel size")
        if not self.dl_scatterers:
            raise ValueError("need at least one DL scatterer: the downlink channel is their paths")
        if self.rx_rf_chains <= self.k_targets:
            raise ValueError(f"rx rf chains must exceed the {self.k_targets} targets (UL user "
                             f"included) that MUSIC resolves, got {self.rx_rf_chains}")
        wf = self.waveform()
        if wf.cp_duration_s < 0:
            raise ValueError("symbol duration shorter than 1/df leaves no room for a CP")
        p, q_lo, q_hi = wf.n_subcarriers, -(wf.n_symbols // 2), wf.n_symbols - wf.n_symbols // 2
        targets = [(f"{key}[{i}]", spec) for key in ("dl_scatterers", "radar_targets")
                   for i, spec in enumerate(getattr(self, key))] + [("ul_user", self.ul_user)]
        # each target, named by its config key, is checked against the table, and
        # its nearest bins must be cells of the map, or its echo aliases
        for where, spec in targets:
            _check(spec, lambda field: f"{where}: target {field.split('_')[0]}")
            n, m = spec.range_m / wf.range_bin_m, spec.velocity_mps / wf.velocity_bin_mps
            if not n < p - 0.5:
                raise ValueError(f"{where}: target range {spec.range_m} m is {n:.4g} range bins, "
                                 f"beyond the {p} unambiguous ones")
            if not q_lo - 0.5 <= m < q_hi - 0.5:
                raise ValueError(f"{where}: target velocity {spec.velocity_mps} m/s is {m:.4g} "
                                 f"Doppler bins, outside [{q_lo}, {q_hi - 1}]")
        # each dwell weighs all M_b RX antennas, so it resolves angles only as finely as
        # the array: a pair inside its main lobe (first null 2/M_b away in sin(angle),
        # which is 2-periodic) can swap bins in a trial that does not fail
        m_b = self.n_rx_antennas
        sines = [(where, math.sin(math.radians(spec.angle_deg))) for where, spec in targets]
        for (a, sin_a), (b, sin_b) in itertools.combinations(sines, 2):
            gap = min(abs(sin_a - sin_b), 2.0 - abs(sin_a - sin_b))
            if gap < 2.0 / m_b:
                raise ValueError(f"{a} and {b}: target angles {gap:.4g} apart in sin(angle), "
                                 f"inside the {m_b}-antenna RX main lobe of 2/{m_b}")

    # Derived dimensions
    @property
    def n_tx_antennas(self) -> int:
        return self.tx_rf_chains * self.tx_antennas_per_rf

    @property
    def n_rx_antennas(self) -> int:
        return self.rx_rf_chains * self.rx_antennas_per_rf

    @property
    def n_streams(self) -> int:
        return min(self.tx_rf_chains, self.dl_user_antennas)

    @property
    def k_targets(self) -> int:
        """Total radar-visible objects: scatterers + passive targets + UL user."""
        return len(self.dl_scatterers) + len(self.radar_targets) + 1

    # Unit conversions: the powers in watts
    p_b_watts = property(lambda self: dbm_to_watt(self.tx_power_dbm))
    p_u_watts = property(lambda self: dbm_to_watt(self.ul_tx_power_dbm))
    sigma_b2_watts = property(lambda self: dbm_to_watt(self.bs_noise_dbm))
    sigma_u2_watts = property(lambda self: dbm_to_watt(self.user_noise_dbm))
    lambda_b_watts = property(lambda self: dbm_to_watt(self.si_threshold_dbm))

    def waveform(self) -> Waveform:
        return Waveform(*(getattr(self, f.name) for f in fields(Waveform)))

    def all_target_specs(self) -> tuple[TargetSpec, ...]:
        """Scatterers first, passive targets next, UL user last."""
        return tuple(self.dl_scatterers) + tuple(self.radar_targets) + (self.ul_user,)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("dl_scatterers", "radar_targets"):
            if key in kwargs:
                if not isinstance(kwargs[key], (list, tuple)):
                    raise ValueError(f"{key} must be a list of targets, got {kwargs[key]!r}")
                kwargs[key] = tuple(_target(f"{key}[{i}]", t) for i, t in enumerate(kwargs[key]))
        if "ul_user" in kwargs:
            kwargs["ul_user"] = _target("ul_user", kwargs["ul_user"])
        return cls(**kwargs)

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)


def _target(key: str, data) -> TargetSpec:
    """The target of config entry ``key``; a malformed entry raises naming it."""
    try:
        return TargetSpec(**data)
    except TypeError as exc:  # not a mapping, or a missing or unknown key
        raise ValueError(f"{key} is not a target: {exc}") from None


def _profile(base: ScenarioConfig, overrides: dict) -> ScenarioConfig:
    """``base`` with the shared target layout, then ``overrides``.

    Ranges and velocities are snapped to ``base``'s range and velocity bins;
    range bins are kept well separated so per-target delay profiles do not
    leak into a neighbor's cell.
    """
    wf = base.waveform()
    r, v = wf.range_bin_m, wf.velocity_bin_mps
    geometry = dict(
        dl_scatterers=(TargetSpec(-30.0, 12 * r, 0.0), TargetSpec(-20.0, 25 * r, 0.0)),
        radar_targets=(TargetSpec(20.0, 50 * r, v), TargetSpec(40.0, 62 * r, -2 * v)),
        ul_user=TargetSpec(-10.0, 37 * r, 0.0),
    )
    return base.with_overrides(**{**geometry, **overrides})


def table1_profile(**overrides) -> ScenarioConfig:
    """Full-scale configuration (128x128 BS, 792 subcarriers)."""
    return _profile(ScenarioConfig(), overrides)


def fast_profile(**overrides) -> ScenarioConfig:
    """Desk-scale configuration (32x32 BS, 64 subcarriers); runs in seconds."""
    return _profile(
        ScenarioConfig(tx_antennas_per_rf=4, rx_antennas_per_rf=4, n_subcarriers=64), overrides
    )


# Each profile's name and factory.
PROFILES = {"table1": table1_profile, "fast": fast_profile}


def load_config(path: str | Path, base: ScenarioConfig) -> ScenarioConfig:
    """Load a JSON config file, overlaying it on ``base``."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object, got {type(data).__name__}")
    return ScenarioConfig.from_dict({**base.to_dict(), **data})
