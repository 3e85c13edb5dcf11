"""Full-duplex MIMO ISAC base-station simulator.

Channel synthesis, hybrid A/D beamformer optimization with self-interference
cancellation, MUSIC + delay-Doppler sensing, and SINR/rate evaluation, plus a
CLI for scenario runs, rate sweeps and an invariant suite.
"""

from .arrays import Codebook, dft_codebook, ula_response
from .beamforming import AnalogBeamformer, assemble_analog, tx_power
from .cancellers import CancellerPair, analog_residual_power_per_chain, build_cancellers
from .channels import (
    SPEED_OF_LIGHT,
    PathParams,
    TargetParams,
    Waveform,
    gen_dl_channel,
    gen_si_channel,
    gen_ul_channel,
    perturb_estimate,
)
from .config import (
    ScenarioConfig,
    TargetSpec,
    dbm_to_watt,
    fast_profile,
    get_profile,
    load_config,
    table1_profile,
)
from .errors import (
    ConstraintViolationError,
    DegenerateCombinerError,
    EstimationFailureError,
    InfeasibleResultError,
)
from .metrics import LinkMetrics, dl_snr, ideal_dl_rate, radar_sinr, ul_sinr
from .optimizer import (
    EstimatedChannels,
    HybridBeamformers,
    build_estimated_channels,
    mss_rx_combiner,
    nsp_rx_combiner,
    numeric_tx_precoder,
    power_normalize,
    run_algorithm1,
    select_rx_analog,
    select_tx_analog,
    user_beamformers,
)
from .runner import RunReport, run_scenario, sweep, synthesize_rx_snapshots, validate_suite
from .sensing import (
    DelayDopplerMap,
    MusicResult,
    SensingEstimate,
    delay_doppler_map,
    delay_doppler_quotient,
    music_doas,
    recover_parameters,
    sample_covariance,
)

__version__ = "0.1.0"
