"""Scenario configuration: dimensions, numerology, powers, geometry, seeds.

A :class:`ScenarioConfig` is the single source of truth for a run. Two
factory profiles ship with the package: ``table1`` (the full 128x128
configuration) and ``fast`` (a 32x32 desk-scale configuration that keeps the
test suite quick). Config files are JSON documents mirroring the field names.
"""

from __future__ import annotations

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
    "get_profile",
    "load_config",
    "PROFILE_NAMES",
]

PROFILE_NAMES = ("table1", "fast")

# The infinite float values that run: silent links, no SI, no ADC cap, perfect SI CSI.
_LEGAL_INFINITIES = {"tx_power_dbm": (-math.inf,), "ul_tx_power_dbm": (-math.inf,),
                     "si_pathloss_db": (math.inf,), "si_kappa_db": (-math.inf, math.inf),
                     "si_threshold_dbm": (math.inf,), "csi_nmse_db": (-math.inf,)}


def dbm_to_watt(x_dbm: float) -> float:
    """Power conversion 10^((x - 30) / 10); accepts -inf as exactly zero watts."""
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


# Each dB field's linear value (watts for dBm) as the pipeline computes it.
_TO_LINEAR = {
    **dict.fromkeys(("tx_power_dbm", "ul_tx_power_dbm", "bs_noise_dbm", "user_noise_dbm",
                     "si_threshold_dbm"), dbm_to_watt),
    "si_kappa_db": lambda x: 10.0 ** (x / 10.0), "csi_nmse_db": lambda x: 10.0 ** (x / 10.0),
    "si_pathloss_db": lambda x: 10.0 ** (-x / 10.0),
}


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
        # Annotations are strings (postponed evaluation); a config file can put
        # any JSON value, NaN and the infinities included, into any field.
        for f in fields(self):
            name, value = f.name.replace("_", " "), getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if f.type == "float" or (f.type == "float | None" and value is not None):
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ValueError(f"{name} must be a real number, got {value!r}")
                if value != value:
                    raise ValueError(f"{name} must not be NaN")
                if math.isinf(value) and value not in _LEGAL_INFINITIES.get(f.name, ()):
                    raise ValueError(f"{name} must be finite, got {value}")
                if f.name in _TO_LINEAR:
                    try:
                        _TO_LINEAR[f.name](value)
                    except OverflowError:
                        raise ValueError(
                            f"{name} of {value} overflows as a linear value") from None
                if f.name == "music_grid_step_deg" and not value > 0:
                    raise ValueError(f"{name} must be positive, got {value}")
        for name, watts in (("bs noise", self.sigma_b2_watts), ("user noise", self.sigma_u2_watts),
                            ("si threshold", self.lambda_b_watts)):
            if not watts > 0:  # a finite dBm value can underflow to 0 W
                raise ValueError(f"{name} power must be positive, got {watts} W")
        if min(
            self.tx_rf_chains,
            self.rx_rf_chains,
            self.tx_antennas_per_rf,
            self.rx_antennas_per_rf,
            self.dl_user_antennas,
            self.ul_user_antennas,
        ) < 1:
            raise ValueError("all array dimensions must be positive")
        if self.analog_taps < 0 or self.analog_taps % self.rx_rf_chains != 0:
            raise ValueError(
                f"analog taps {self.analog_taps} must be a nonnegative multiple "
                f"of {self.rx_rf_chains} RX chains"
            )
        if self.analog_taps // self.rx_rf_chains > self.tx_rf_chains:
            raise ValueError("analog taps exceed the compressed SI channel size")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        for spec in self.all_target_specs():
            if not -90.0 <= spec.angle_deg <= 90.0:
                raise ValueError(f"target angle must lie in [-90, 90] degrees, got {spec.angle_deg}")
            if not 0.0 <= spec.range_m < math.inf:
                raise ValueError(
                    f"target range must be finite and nonnegative, got {spec.range_m}")
            if not -math.inf < spec.velocity_mps < math.inf:
                raise ValueError(f"target velocity must be finite, got {spec.velocity_mps}")
        if not self.dl_scatterers:
            raise ValueError("need at least one DL scatterer: the downlink channel is their paths")
        # K < M_rf is required only by the MUSIC stage and is checked there,
        # so optimizer-only configurations with few RX chains stay legal.
        self.waveform()  # validates the numerology

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

    # Unit conversions
    @property
    def p_b_watts(self) -> float:
        return dbm_to_watt(self.tx_power_dbm)

    @property
    def p_u_watts(self) -> float:
        return dbm_to_watt(self.ul_tx_power_dbm)

    @property
    def sigma_b2_watts(self) -> float:
        return dbm_to_watt(self.bs_noise_dbm)

    @property
    def sigma_u2_watts(self) -> float:
        return dbm_to_watt(self.user_noise_dbm)

    @property
    def lambda_b_watts(self) -> float:
        return dbm_to_watt(self.si_threshold_dbm)

    def waveform(self) -> Waveform:
        return Waveform(
            n_subcarriers=self.n_subcarriers,
            n_symbols=self.n_symbols,
            subcarrier_spacing_hz=self.subcarrier_spacing_hz,
            symbol_duration_s=self.symbol_duration_s,
            carrier_hz=self.carrier_hz,
        )

    def all_target_specs(self) -> tuple[TargetSpec, ...]:
        """Scatterers first, passive targets next, UL user last."""
        return tuple(self.dl_scatterers) + tuple(self.radar_targets) + (self.ul_user,)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("dl_scatterers", "radar_targets"):
            if key in kwargs:
                kwargs[key] = tuple(TargetSpec(**t) for t in kwargs[key])
        if "ul_user" in kwargs:
            kwargs["ul_user"] = TargetSpec(**kwargs["ul_user"])
        return cls(**kwargs)

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)


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


def get_profile(name: str) -> ScenarioConfig:
    if name == "table1":
        return table1_profile()
    if name == "fast":
        return fast_profile()
    raise ValueError(f"unknown profile '{name}', expected one of {PROFILE_NAMES}")


def load_config(path: str | Path, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Load a JSON config file, overlaying it on ``base`` when given."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if base is None:
        return ScenarioConfig.from_dict(data)
    return ScenarioConfig.from_dict({**base.to_dict(), **data})
