"""Full-duplex MIMO ISAC base-station simulator.

Channel synthesis, hybrid A/D beamformer optimization with self-interference
cancellation, MUSIC + delay-Doppler sensing, and SINR/rate evaluation, plus a
CLI for scenario runs, rate sweeps and an invariant suite. The lower-level
pieces live in the submodules (``fdisac.channels``, ``fdisac.optimizer``, ...).
"""

from .config import ScenarioConfig, fast_profile, table1_profile
from .runner import run_scenario, sweep

__all__ = ["ScenarioConfig", "fast_profile", "table1_profile", "run_scenario", "sweep"]
