"""End-to-end experiment orchestration.

One trial follows the two-slot protocol: slot 1 transmits with a fixed
spread-beam configuration and runs the sensing chain (MUSIC directions first,
then one delay-Doppler dwell per detected direction with the RX chains
repointed at it); the estimated directions feed the beamformer design used in
slot 2, whose link metrics are then scored: the DL and SI terms on the true
channels, the radar echo and the UL term on the estimated ones.

A call runs its trials in blocks, one loop over a leading trial axis. Within
a block only the generator draws and the basis chunks stay per trial, each
trial drawing from its own generator in its own order; the channels,
covariances, MUSIC (one stacked eigendecomposition, peaks picked per trial),
the K dwells, the delay-Doppler quotients and maps, and then slot 2's design
and metrics (:func:`_slot2`) each run once over the block. A trial whose
sensing, design or power check fails records the same error as a one-trial
block and the rest of its block continues. Every receiver forms the SI both
cancellers leave, the compressed estimation error, through its own weights
(:func:`receiver_rows`).

Every sensing observation is linear in a few per-trial waveforms: the DL and
UL symbols, the RX noise and each target's delay-Doppler phase times the DL
symbols. A trial draws the first three once, as its drawn rows (each a block
of :func:`~fdisac.channels.fill_complex_normal`); each receiver is a row of
coefficients over its waveform basis (:func:`receiver_rows`). Each pass
(slot 1, then the dwells) forms a trial's basis, echo rows included, one chunk
of whole subcarriers at a time in one scratch of at most :data:`CHUNK_BYTES`
(512 KiB) (:func:`basis_chunks`): one chunk per ``fast`` trial, 12 per
``table1`` trial. Slot 1 adds each chunk's y y^H into its trial's covariance
sum; the dwells write their products into one grid, which the quotient and
the periodogram then overwrite. A block holds as many trials as fit their
drawn rows in :data:`BLOCK_BYTES` (1 MiB): 5 on ``fast`` and 1 on ``table1``.

What depends on the configured geometry alone (codebooks, slot-1 networks,
MUSIC manifold, the targets' factored phases, the map axes) is built once per
geometry into a cached, read-only :class:`ScenarioPlan` shared by every call
and trial (:func:`scenario_plan`).

Trials are statistically independent (each gets its own spawned generator),
so results do not depend on execution order and a fixed seed reproduces a
report byte for byte. Every report and CLI payload is written by :func:`dumps`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arrays import dft_codebook, ula_response_matrix
from .beamforming import assemble_analog, tx_power
# build_cancellers is not called here: benchmarks/spans.py rebinds it (REBOUND) in this module
from .cancellers import analog_residual_power_per_chain, build_cancellers  # noqa: F401
from .channels import (
    Waveform, delay_doppler_phase, fill_complex_normal, gen_dl_channel, gen_si_channel,
    gen_ul_channel, perturb_estimate,
)
from .config import ScenarioConfig, TargetSpec
from .metrics import dl_snr, ideal_dl_rate, radar_sinr, ul_sinr
from .optimizer import build_estimated_channels, mss_rx_combiner, run_algorithm1
from .sensing import (
    angle_grid,
    combiner_manifold,
    delay_doppler_map,
    delay_doppler_quotient,
    dwell_weights,
    music_doas,
    recover_parameters,
    reference_signal_grid,
    sample_covariance,
)

__all__ = [
    "RunReport",
    "ScenarioPlan",
    "scenario_plan",
    "run_scenario",
    "sweep",
    "sweep_configs",
    "validate_suite",
    "waveform_basis",
    "synthesize_rx_snapshots",
    "dwell_projections",
    "SWEEP_VARIABLES",
    "dumps",
]

# The paper's sweep names mapped onto config fields.
SWEEP_VARIABLES = {"p_b_dbm": "tx_power_dbm", "p_u_dbm": "ul_tx_power_dbm", "n_taps": "analog_taps"}


def dumps(obj) -> str:
    """``obj`` as the indented, key-sorted JSON of every report; numpy values go through tolist."""
    return json.dumps(obj, indent=2, sort_keys=True, default=lambda o: o.tolist())


@dataclass
class RunReport:
    """Everything one scenario or sweep produced.

    The maps stay float64 arrays: ``range_angle`` holds ``angles_deg`` (K,)
    and the peak-normalized range ``profiles`` (K, P), ``range_velocity``
    the mean delay-Doppler ``magnitude`` (P, Q); their axes ``ranges_m`` and
    ``velocities_mps`` are the plan's tuples. :func:`dumps` writes the
    arrays as lists. ``wall_clock_s`` is kept in memory only; serialization
    drops it so that repeated runs under the same seed stay byte identical.
    """

    config: dict
    seed: int
    trials: list
    aggregate: dict
    range_angle: dict | None = None
    range_velocity: dict | None = None
    rate_rows: list | None = None
    wall_clock_s: float | None = None

    def to_json(self) -> str:
        return dumps({f.name: getattr(self, f.name) for f in fields(self)
                      if f.name != "wall_clock_s"})


def spread_analog(n_chains: int, cb: np.ndarray) -> np.ndarray:
    """Deterministic slot-1 analog setting: chains fan out across the codebook.

    Distinct per-chain beams keep the RF-domain manifold unambiguous for the
    direction scan and illuminate the whole angular sector. Alternate chains
    are offset by one codebook step so the subarray null lattices of the
    chains never align: a uniformly spread on-grid assignment would leave
    exact blind directions on the critically sampled beam grid.
    """
    size = len(cb)
    idx = [(((2 * i + 1) * size) // (2 * n_chains) + (i % 2)) % size for i in range(n_chains)]
    return assemble_analog(cb[idx])


@dataclass(frozen=True)
class ScenarioPlan:
    """What a run derives from its configuration's geometry alone; every array is read-only.

    ``cb_tx``/``cb_rx`` are the DFT codebooks, ``v_rf0``/``w_rf0`` the slot-1
    spread networks, ``manifold`` the MUSIC manifold behind ``w_rf0`` over
    ``grid_deg`` and ``gain`` its ||b||^2 per angle, ``delay_phases`` (K, P)
    and ``doppler_phases`` (K, Q) the two factors of each configured target's
    delay-Doppler phase, whose outer product is its phase over the cells
    ``p * Q + q``, and ``ranges_m``/``velocities_mps`` the axes of the
    delay-Doppler maps.
    """

    wf: Waveform
    cb_tx: np.ndarray
    cb_rx: np.ndarray
    v_rf0: np.ndarray
    w_rf0: np.ndarray
    grid_deg: np.ndarray
    manifold: np.ndarray
    gain: np.ndarray
    delay_phases: np.ndarray
    doppler_phases: np.ndarray
    ranges_m: tuple
    velocities_mps: tuple


def scenario_plan(cfg: ScenarioConfig) -> ScenarioPlan:
    """The plan of ``cfg``'s geometry, built on first use and cached.

    The key is exactly the fields the plan reads: chains, antennas per chain,
    codebook bits, MUSIC grid step, the numerology (as its
    :class:`~fdisac.channels.Waveform`) and the target specs. Seed, trials,
    powers, taps and CSI are not among them, so seed loops and sweeps share
    one plan.
    """
    return _build_plan(
        cfg.tx_rf_chains, cfg.rx_rf_chains, cfg.tx_antennas_per_rf, cfg.rx_antennas_per_rf,
        cfg.codebook_bits, cfg.music_grid_step_deg, cfg.waveform(), cfg.all_target_specs(),
    )


@lru_cache(maxsize=4, typed=True)
def _build_plan(tx_chains: int, rx_chains: int, tx_per_rf: int, rx_per_rf: int, n_bits: int,
                grid_step_deg: float, wf: Waveform,
                specs: tuple[TargetSpec, ...]) -> ScenarioPlan:
    cb_tx, cb_rx = dft_codebook(tx_per_rf, n_bits), dft_codebook(rx_per_rf, n_bits)
    v_rf0, w_rf0 = spread_analog(tx_chains, cb_tx), spread_analog(rx_chains, cb_rx)
    grid = angle_grid(grid_step_deg)
    manifold = combiner_manifold(w_rf0, grid)
    p, q = np.arange(wf.n_subcarriers), np.arange(wf.n_symbols)
    delay = np.array([delay_doppler_phase(s.range_m, s.velocity_mps, wf, p, 0) for s in specs])
    doppler = np.array([delay_doppler_phase(s.range_m, s.velocity_mps, wf, 0, q) for s in specs])
    plan = ScenarioPlan(
        wf=wf, cb_tx=cb_tx, cb_rx=cb_rx, v_rf0=v_rf0, w_rf0=w_rf0, grid_deg=grid,
        manifold=manifold, gain=np.sum(np.abs(manifold) ** 2, axis=0), delay_phases=delay,
        doppler_phases=doppler, ranges_m=tuple((p * wf.range_bin_m).tolist()),
        velocities_mps=tuple(((q - wf.n_symbols // 2) * wf.velocity_bin_mps).tolist()),
    )
    for array in (grid, manifold, plan.gain, delay, doppler, v_rf0, w_rf0):
        array.flags.writeable = False
    return plan


def waveform_basis(basis: np.ndarray, delay_phases: np.ndarray, doppler_phases: np.ndarray,
                   n_streams: int) -> np.ndarray:
    """Complete one trial's waveform basis, or a chunk of whole subcarriers of it, in place.

    ``basis`` starts with the trial's drawn rows (sym_b, sym_u, noise)
    over the cells ``p * Q + q`` of its subcarriers; its last K * ``n_streams``
    rows receive phase_k * sym_b[s] for every target k and stream s,
    k-major. Target k's phase over the cells is the outer product of
    ``delay_phases[k]`` (its factor on those subcarriers) and
    ``doppler_phases[k]`` (Q,), as :class:`ScenarioPlan` holds them.
    """
    n_targets = len(delay_phases)
    phases = np.multiply(delay_phases[:, :, None], doppler_phases[:, None, :])
    echo = basis[basis.shape[0] - n_targets * n_streams :].reshape(n_targets, n_streams, -1)
    np.multiply(phases.reshape(n_targets, 1, -1), basis[:n_streams], out=echo)
    return basis


def basis_chunks(drawn: np.ndarray, plan: ScenarioPlan, n_streams: int):
    """``(t, cells, basis)``: each trial t of ``drawn`` (T, n_drawn, n_cells), chunk by chunk.

    ``basis`` is trial t's waveform basis over the ``cells`` of one chunk of whole
    subcarriers (:data:`CHUNK_BYTES`), drawn rows copied in and echo rows formed
    (:func:`waveform_basis`), in one scratch: no more than one chunk of a basis exists.
    """
    n_drawn = drawn.shape[1]
    n_rows = n_drawn + len(plan.delay_phases) * n_streams
    n_p, n_q = plan.wf.n_subcarriers, plan.wf.n_symbols
    step = min(max(1, CHUNK_BYTES // (n_rows * n_q * 16)), n_p)  # subcarriers: 70 on table1
    scratch = np.empty((n_rows, step * n_q), dtype=complex)
    for t in range(len(drawn)):
        for first in range(0, n_p, step):
            cells = slice(first * n_q, min(first + step, n_p) * n_q)
            basis = scratch[:, : cells.stop - cells.start]
            basis[:n_drawn] = drawn[t, :, cells]
            yield t, cells, waveform_basis(basis, plan.delay_phases[:, first : first + step],
                                           plan.doppler_phases, n_streams)


def receiver_rows(c, w_rf: np.ndarray, v_rf: np.ndarray, h_si: np.ndarray,
                  h_si_hat: np.ndarray, v_bb: np.ndarray, h_ul: np.ndarray, v_u: np.ndarray,
                  angles_deg, gains: np.ndarray) -> np.ndarray:
    """Coefficients of the receivers c^T y over :func:`waveform_basis`, shape (..., n, n_rows).

    ``c`` (..., n, m_rf) holds n weight vectors on the RX chains of ``w_rf``.
    The leading axes of ``c``, of the networks ``w_rf`` and ``v_rf``, the
    SI channels ``h_si`` and their estimates ``h_si_hat``, the UL channels
    ``h_ul`` and precoders ``v_u`` and the gains ``gains`` (..., K) of the
    targets at ``angles_deg`` broadcast together. With x = c^T W_rf^H the
    blocks are (x H_si V_rf - x H_si_hat V_rf) V_bb on sym_b, the SI both
    cancellers leave for any tap count (x (H_si - H_si_hat) V_rf would round
    differently), x h_ul v_u on sym_u, c^T on the noise and (x a_rx,k) beta_k
    (a_tx,k^H V_rf V_bb) on target k's rows.
    """
    x = c @ np.swapaxes(w_rf, -1, -2).conj()
    a_rx = ula_response_matrix(h_ul.shape[-2], angles_deg)
    a_tx_v = ula_response_matrix(v_rf.shape[-2], angles_deg).conj().T @ v_rf @ v_bb
    echo = ((x @ a_rx) * gains[..., None, :])[..., :, None] * a_tx_v[..., None, :, :]
    si = (x @ h_si @ v_rf - x @ h_si_hat @ v_rf) @ v_bb
    parts = [si, x @ (h_ul @ v_u[..., None]), c,
             echo.reshape(*echo.shape[:-2], -1)]
    lead = np.broadcast_shapes(*(part.shape[:-1] for part in parts))
    return np.concatenate([part if part.shape[:-1] == lead else
                           np.broadcast_to(part, lead + part.shape[-1:]) for part in parts],
                          axis=-1)


def synthesize_rx_snapshots(drawn: np.ndarray, plan: ScenarioPlan, w_rf: np.ndarray,
                            v_rf: np.ndarray, h_si: np.ndarray, h_si_hat: np.ndarray,
                            v_bb: np.ndarray, h_ul: np.ndarray, v_u: np.ndarray, angles_deg,
                            gains: np.ndarray) -> np.ndarray:
    """Sum of y y^H over the RF-chain-domain slot-1 snapshots y of T trials, shape (T, m_rf, m_rf).

    Chain i is the receiver c = e_i of :func:`receiver_rows`; each chunk of a
    trial's basis (:func:`basis_chunks`) gives its snapshots y in one product
    and adds their y y^H, so no trial's whole snapshots are formed. The name
    stays because ``benchmarks/spans.py`` rebinds it (``REBOUND``).
    """
    rows = receiver_rows(np.eye(w_rf.shape[-1]), w_rf, v_rf, h_si, h_si_hat, v_bb, h_ul, v_u,
                         angles_deg, gains)
    gram = np.zeros(rows.shape[:-1] + (w_rf.shape[-1],), dtype=complex)
    for t, _, basis in basis_chunks(drawn, plan, v_bb.shape[-1]):
        y = rows[t] @ basis
        gram[t] += y @ y.conj().T
    return gram


def _match_doas(est_doas, true_angles: Sequence[float]) -> np.ndarray:
    """Assign estimated directions to the configured objects (one to one), per trial of a stack.

    Sorted estimates go to sorted true angles: for the |x - y| cost on a line
    this order-preserving matching has the minimum total cost.
    """
    matched = np.empty(np.shape(est_doas))
    matched[..., np.argsort(true_angles, kind="stable")] = np.sort(est_doas, axis=-1)
    return matched


def pointed_analog_stack(n_chains: int, cb: np.ndarray, angles_deg) -> np.ndarray:
    """One network per angle, every chain on the codebook beam of highest gain toward it."""
    gains = np.abs(cb.conj() @ ula_response_matrix(cb.shape[-1], angles_deg))
    idx = np.argmax(gains, axis=-2)
    return assemble_analog(np.repeat(cb[idx, None, :], n_chains, axis=-2))


def dwell_projections(cfg: ScenarioConfig, plan: ScenarioPlan, drawn: np.ndarray,
                      angles_deg: np.ndarray, h_si_true: np.ndarray, h_si_hat: np.ndarray,
                      v_bb: np.ndarray, h_ul: np.ndarray, v_u: np.ndarray, gains: np.ndarray):
    """Projected snapshots c^T y and references s of one dwell per angle, each (T, K, P, Q).

    A dwell repoints the TX and RX chains to the codebook beam nearest its
    angle, which restores full array gain for that target and pushes the
    others into the subarray sidelobes; its SI residual follows the new
    compression. Only the projection onto the dwell's RX weights is
    formed, a trial's K dwells (``angles_deg`` (T, K)) as one product per
    chunk of its basis (:func:`basis_chunks`), written into the grid.
    """
    v_k = pointed_analog_stack(cfg.tx_rf_chains, plan.cb_tx, angles_deg)
    w_k = pointed_analog_stack(cfg.rx_rf_chains, plan.cb_rx, angles_deg)
    c = dwell_weights(w_k, angles_deg)[..., None, :]
    angles = [t.angle_deg for t in cfg.all_target_specs()]
    rows = receiver_rows(c, w_k, v_k, h_si_true[:, None], h_si_hat[:, None], v_bb, h_ul[:, None],
                         v_u[:, None], angles, gains[:, None])[..., 0, :]
    st = v_bb.shape[-1]
    cy = np.empty(rows.shape[:-1] + drawn.shape[-1:], dtype=complex)
    for t, cells, basis in basis_chunks(drawn, plan, st):
        np.matmul(rows[t], basis, out=cy[t, :, cells])
    del basis  # the last chunk's view would keep the scratch alive beside the references
    s = reference_signal_grid(angles_deg, v_k, v_bb, drawn[:, :st])
    grid = cy.shape[:-1] + (plan.wf.n_subcarriers, plan.wf.n_symbols)
    return cy.reshape(grid), s.reshape(grid)


# Bytes of drawn waveform rows that one block of trials may hold.
BLOCK_BYTES = 1 << 20
# Bytes of one basis chunk (basis_chunks): a whole fast trial's basis (473 KB) fits.
CHUNK_BYTES = BLOCK_BYTES // 2


def _block_trials(cfg: ScenarioConfig, plan: ScenarioPlan) -> int:
    """Trials per block: as many as fit their drawn waveform rows in :data:`BLOCK_BYTES`.

    A trial draws N_s + 1 + M_rf complex rows over the P Q cells
    (:func:`_sense_block`), so a block holds 5 trials on ``fast`` and 1 on
    ``table1``; the scratch of one basis chunk (:func:`basis_chunks`) comes on top.
    """
    n_cells = plan.wf.n_subcarriers * plan.wf.n_symbols
    return max(1, BLOCK_BYTES // ((cfg.n_streams + 1 + cfg.rx_rf_chains) * n_cells * 16))


@dataclass
class _Block:
    """A block of sensed trials, every array over a leading trial axis.

    ``errors`` holds per trial None or the exception that failed its
    sensing; a failed trial's entries are stand-ins.
    """

    matched: np.ndarray  # (T, K) DoA estimates matched to the configured objects
    h_si_true: np.ndarray
    h_si_hat: np.ndarray
    h_dl_true: np.ndarray
    sensing_rows: list
    map_sum: np.ndarray  # (T, P, Q) sums of the K peak-normalized delay-Doppler maps
    profiles: np.ndarray  # (T, K, P) range profiles of those maps
    errors: list


def _sense_block(cfg: ScenarioConfig, plan: ScenarioPlan,
                 rngs: Sequence[np.random.Generator]) -> _Block:
    """Channel realizations and slot-1 sensing of a block of trials, one generator each.

    Each trial draws from its own generator in the order of a one-trial
    block; every other step runs once over the block's leading trial axis.
    """
    wf = plan.wf
    n_b, m_b = cfg.n_tx_antennas, cfg.n_rx_antennas
    n_u, st, k = cfg.ul_user_antennas, cfg.n_streams, cfg.k_targets
    n_scatter, n_trials = len(cfg.dl_scatterers), len(rngs)
    specs = cfg.all_target_specs()
    angles = [s.angle_deg for s in specs]

    # Per trial and in this order: uniform path phases (scatterers, targets,
    # UL user), the SI channel and its estimate, the slot-1 UL direction and
    # the drawn waveform rows, over which every slot-1 snapshot and every
    # dwell below is a row of coefficients.
    uniform, v_u0 = np.empty((n_trials, n_scatter + k + 1)), np.empty((n_trials, n_u), complex)
    h_si_true, h_si_hat = np.empty((2, n_trials, m_b, n_b), dtype=complex)
    n_cells = wf.n_subcarriers * wf.n_symbols
    drawn = np.empty((n_trials, st + 1 + cfg.rx_rf_chains, n_cells), dtype=complex)
    for t, rng in enumerate(rngs):
        uniform[t] = rng.random(uniform.shape[1])
        h_si_true[t] = gen_si_channel(m_b, n_b, cfg.si_kappa_db, cfg.si_pathloss_db, rng)
        h_si_hat[t] = perturb_estimate(h_si_true[t], cfg.csi_nmse_db, rng)
        raw = rng.standard_normal(n_u) + 1j * rng.standard_normal(n_u)
        v_u0[t] = raw / np.linalg.norm(raw)
        fill_complex_normal(rng, drawn[t, :st])  # DL symbols, one row per stream
        fill_complex_normal(rng, drawn[t, st : st + 1])  # UL symbols
        fill_complex_normal(rng, drawn[t, st + 1 :], np.sqrt(cfg.sigma_b2_watts))  # RX noise

    # Channel realization: unit-magnitude gains with random phase.
    path_gains = np.exp(2j * np.pi * uniform)
    gains = path_gains[:, n_scatter:-1]
    h_dl_true = gen_dl_channel(path_gains[:, :n_scatter], angles[:n_scatter],
                               cfg.dl_user_antennas, n_b)
    h_ul_true = gen_ul_channel(path_gains[:, -1], cfg.ul_user.angle_deg, m_b, n_u)

    # Slot 1: spread beams, identity-like digital precoder, random UL direction.
    v_bb0 = np.eye(cfg.tx_rf_chains, dtype=complex)[:, :st] * np.sqrt(cfg.p_b_watts / st)
    v_u0 *= np.sqrt(cfg.p_u_watts)
    gram = synthesize_rx_snapshots(drawn, plan, plan.w_rf0, plan.v_rf0, h_si_true, h_si_hat,
                                   v_bb0, h_ul_true, v_u0, angles, gains)

    # Sensing: directions first, then per-target delay-Doppler. A trial whose
    # MUSIC fails keeps its error and senses the configured angles as a stand-in.
    cov = sample_covariance(gram, n_cells)
    doas, music_errors = music_doas(cov, k, plan.grid_deg, plan.manifold, plan.gain)
    est = [d if e is None else angles for d, e in zip(doas, music_errors)]
    matched = _match_doas(est, angles)

    grid, s = dwell_projections(cfg, plan, drawn, matched, h_si_true, h_si_hat, v_bb0, h_ul_true,
                                v_u0, gains)
    del drawn  # the quotient's mask and the map's magnitude reuse its memory
    # the quotient and the map both overwrite grid
    magnitude, bin_n, bin_m = delay_doppler_map(delay_doppler_quotient(grid, s)[0])

    delay, doppler, range_m, velocity = recover_parameters(bin_n, bin_m, wf)
    true = np.array([(spec.angle_deg, spec.range_m, spec.velocity_mps) for spec in specs]).T
    columns = {
        "doa_deg": matched, "delay_s": delay, "doppler_hz": doppler, "range_m": range_m,
        "velocity_mps": velocity, "bin_n": bin_n, "bin_m": bin_m,
        "doa_error_deg": np.abs(matched - true[0]), "range_error_m": np.abs(range_m - true[1]),
        "velocity_error_mps": np.abs(velocity - true[2]),
    }
    sensing_rows = [
        [{"true_angle_deg": spec.angle_deg, "true_range_m": spec.range_m,
          "true_velocity_mps": spec.velocity_mps, **dict(zip(columns, row))}
         for spec, row in zip(specs, zip(*trial))]
        for trial in zip(*(column.tolist() for column in columns.values()))
    ]
    normed = _peak_normalized(magnitude, (-2, -1))
    return _Block(
        matched=matched, h_si_true=h_si_true, h_si_hat=h_si_hat, h_dl_true=h_dl_true,
        sensing_rows=sensing_rows, map_sum=normed.sum(axis=1), profiles=normed.max(axis=-1),
        errors=list(music_errors),
    )


def _peak_normalized(a: np.ndarray, axis) -> np.ndarray:
    """``a`` divided in place by its peak over ``axis``; a slice whose peak is not > 0 stays."""
    peak = a.max(axis=axis, keepdims=True)
    return np.divide(a, peak, out=a, where=peak > 0)


def _within_budget(power, budget: float):
    """``power`` <= ``budget`` up to rounding, which grows with the budget: 1e-9 relative."""
    return power <= budget * (1 + 1e-9)


def _error_record(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _slot2(cfg: ScenarioConfig, block: _Block) -> list:
    """Design the block's beamformers and score them, all trials as one stack.

    Returns one trial record per trial of ``block``: its sensing rows and
    metrics, or its first error: that of its sensing, of its design, or of
    its power checks (budgets, unit-norm UL combiner columns). A trial whose
    sensing failed is designed from its stand-in angles. A step that fails
    for the whole block raises; :func:`run_scenario` records it.
    """
    est = build_estimated_channels(
        doas_deg=block.matched,
        n_scatterers=len(cfg.dl_scatterers),
        h_bb_hat=block.h_si_hat,
        m_b=cfg.n_rx_antennas,
        n_b=cfg.n_tx_antennas,
        m_u=cfg.dl_user_antennas,
        n_u=cfg.ul_user_antennas,
    )
    bf = run_algorithm1(est, cfg)

    w_h = np.swapaxes(bf.w_b_rf, -1, -2).conj()
    # R = H_tilde - H_tilde_hat, a difference of compressions as in receiver_rows
    h_tilde_true = w_h @ block.h_si_true @ bf.v_b_rf
    si = (h_tilde_true - bf.h_tilde_hat) @ bf.v_b_bb
    echo = w_h @ est.h_rad_hat @ bf.v_b_rf @ bf.v_b_bb
    h_ul_eff = w_h @ est.h_ul_hat
    ul = h_ul_eff @ bf.v_u_bb[..., None]
    gamma_dl = dl_snr(bf, block.h_dl_true, cfg.sigma_u2_watts)
    gamma_ul = ul_sinr(bf.w_b_bb, ul, echo, si, cfg.sigma_b2_watts)
    gamma_ul_mss = ul_sinr(mss_rx_combiner(h_ul_eff), ul, echo, si, cfg.sigma_b2_watts)
    metrics = {
        "gamma_rad": radar_sinr(echo, si, bf.w_b_rf, cfg.sigma_b2_watts),
        "gamma_dl": gamma_dl, "gamma_ul_nsp": gamma_ul, "gamma_ul_mss": gamma_ul_mss,
        "rate_dl": np.log2(1.0 + gamma_dl), "rate_ul_nsp": np.log2(1.0 + gamma_ul),
        "rate_ul_mss": np.log2(1.0 + gamma_ul_mss),
        "rate_dl_ideal": ideal_dl_rate(block.h_dl_true, cfg.p_b_watts, cfg.sigma_u2_watts,
                                       cfg.n_streams),
    }

    h_int_eff = w_h @ est.h_rad_int_hat
    int_norm = np.linalg.norm(h_int_eff, axis=(-2, -1))
    null_norm = np.linalg.norm(np.swapaxes(bf.w_b_bb, -1, -2).conj() @ h_int_eff, axis=(-2, -1))
    tx_power_w = tx_power(bf.v_b_rf, bf.v_b_bb)
    ul_power_w = np.linalg.norm(bf.v_u_bb, axis=-1) ** 2
    col_dev = np.abs(np.linalg.norm(bf.w_b_bb, axis=-2) - 1.0).max(axis=-1)
    scalars = {
        "tx_power_w": tx_power_w, "ul_power_w": ul_power_w,
        "analog_residual_w": analog_residual_power_per_chain(h_tilde_true, bf.analog_canceller,
                                                             bf.v_b_bb),
        # the estimated leakage, which the precoder bounds by lambda_b
        "analog_leakage_w": analog_residual_power_per_chain(bf.h_tilde_hat, bf.analog_canceller,
                                                            bf.v_b_bb).max(axis=-1),
        "precoder_kkt_residual": bf.kkt_residual,
        "nsp_nulling_ratio": np.divide(null_norm, int_norm, out=np.zeros_like(int_norm),
                                       where=int_norm > 0),
    }

    records = []
    for t, rows in enumerate(block.sensing_rows):
        error = block.errors[t] or bf.errors[t]
        if error is None and not _within_budget(tx_power_w[t], cfg.p_b_watts):
            error = ValueError(f"TX power {float(tx_power_w[t])} exceeds budget {cfg.p_b_watts}")
        elif error is None and not _within_budget(ul_power_w[t], cfg.p_u_watts):
            error = ValueError(f"UL power {float(ul_power_w[t])} exceeds budget {cfg.p_u_watts}")
        elif error is None and col_dev[t] > 1e-9:
            error = ValueError("UL combiner columns must have unit norm")
        records.append(_error_record(error) if error is not None else {
            "sensing": rows,
            "metrics": {name: v[t].tolist() for name, v in metrics.items()},
            **{name: v[t].tolist() for name, v in scalars.items()},
        })
    return records


def _aggregate(trials: list) -> dict:
    """Means and maxima over the ok trials; :func:`run_scenario` passes at least one."""
    ok = [t for t in trials if "error" not in t]
    agg = {"n_trials": len(trials), "n_failed": len(trials) - len(ok)}
    for key in ok[0]["metrics"]:
        agg[f"mean_{key}"] = float(np.mean([t["metrics"][key] for t in ok]))
    agg["max_analog_residual_w"] = float(np.max([max(t["analog_residual_w"]) for t in ok]))
    for key in ("analog_leakage_w", "precoder_kkt_residual", "nsp_nulling_ratio"):
        agg[f"max_{key}"] = float(np.max([t[key] for t in ok]))
    for key in ("doa_error_deg", "range_error_m"):
        agg[f"max_{key}"] = float(np.max([row[key] for t in ok for row in t["sensing"]]))
    return agg


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Run ``cfg.trials`` independent trials and aggregate the results.

    A failing trial is recorded under an ``error`` key instead of aborting the
    run; only a run where every trial failed raises. A step that fails for a
    whole block gives each of its trials its own sensing error where it has
    one, and that step's error otherwise.
    """
    start = time.perf_counter()
    plan = scenario_plan(cfg)
    block_trials = _block_trials(cfg, plan)

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    trials, map_stack, profile_stack, angle_stack = [], [], [], []
    for first in range(0, cfg.trials, block_trials):
        rngs = [np.random.default_rng(s) for s in seeds[first : first + block_trials]]
        errors = [None] * len(rngs)
        try:
            block = _sense_block(cfg, plan, rngs)
            errors = block.errors
            records = _slot2(cfg, block)
        except Exception as exc:  # a step failed for the whole block
            records = [_error_record(e or exc) for e in errors]
        for t, record in enumerate(records):
            if "error" not in record:
                map_stack.append(block.map_sum[t])
                profile_stack.append(block.profiles[t])
                angle_stack.append(block.matched[t])
            trials.append(record)

    if not any("error" not in t for t in trials):
        raise RuntimeError(f"all {cfg.trials} trials failed; first: {trials[0]['error']}")

    range_angle = {
        "angles_deg": np.mean(angle_stack, axis=0),
        "ranges_m": plan.ranges_m,
        "profiles": _peak_normalized(np.mean(profile_stack, axis=0), -1),
    }
    range_velocity = {
        "ranges_m": plan.ranges_m,
        "velocities_mps": plan.velocities_mps,
        "magnitude": np.mean(map_stack, axis=0),
    }
    return RunReport(
        config=cfg.to_dict(),
        seed=cfg.seed,
        trials=trials,
        aggregate=_aggregate(trials),
        range_angle=range_angle,
        range_velocity=range_velocity,
        wall_clock_s=time.perf_counter() - start,
    )


def sweep_configs(cfg: ScenarioConfig, variable: str, values: Sequence) -> list:
    """``cfg`` at each sweep value; an unknown variable or a rejected value raises ValueError."""
    if variable not in SWEEP_VARIABLES:
        raise ValueError(
            f"unknown sweep variable '{variable}', expected one of {sorted(SWEEP_VARIABLES)}"
        )
    if len(values) == 0:
        raise ValueError("sweep needs at least one value")
    field_name = SWEEP_VARIABLES[variable]
    if field_name == "analog_taps":
        if not all(float(v).is_integer() for v in values):
            raise ValueError(f"tap counts must be integers, got {list(values)}")
        values = [int(v) for v in values]
    return [cfg.with_overrides(**{field_name: value}) for value in values]


def sweep(cfg: ScenarioConfig, variable: str, values: Sequence) -> RunReport:
    """Re-run the scenario for each value of the sweep variable.

    Every point reuses the same seed so channel realizations are paired across
    values. Emits one aggregated rate row per value of :func:`sweep_configs`.
    """
    start = time.perf_counter()
    rows = []
    trials = []
    for point_cfg in sweep_configs(cfg, variable, values):
        value = getattr(point_cfg, SWEEP_VARIABLES[variable])
        report = run_scenario(point_cfg)
        agg = report.aggregate
        rows.append({
            "sweep_value": value, "rate_dl": agg["mean_rate_dl"],
            "rate_ideal": agg["mean_rate_dl_ideal"], "rate_ul_nsp": agg["mean_rate_ul_nsp"],
            "rate_ul_mss": agg["mean_rate_ul_mss"], "gamma_rad": agg["mean_gamma_rad"],
        })
        trials.append({"sweep_value": value, "aggregate": agg})
    return RunReport(
        config=cfg.to_dict(),
        seed=cfg.seed,
        trials=trials,
        aggregate={"variable": variable, "n_points": len(values)},
        rate_rows=rows,
        wall_clock_s=time.perf_counter() - start,
    )


def validate_suite(cfg: ScenarioConfig) -> tuple[dict, bool]:
    """Deterministic invariant suite over one run; returns (report dict, all passed).

    Checks that every trial completed (which includes the power budgets), the
    estimated per-chain SI leakage the precoder bounds against the ADC
    threshold (the true residual shown beside it), the precoder's own KKT
    residual in every trial, NSP nulling depth, DL rate against the
    unconstrained baseline, run-to-run byte determinism, and finiteness of
    every output.
    """
    report = run_scenario(cfg)
    ok_trials = [t for t in report.trials if "error" not in t]
    checks = []

    def add(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    add("all_trials_completed", len(ok_trials) == len(report.trials),
        f"{len(ok_trials)}/{len(report.trials)} trials")

    leakage = report.aggregate["max_analog_leakage_w"]
    resid = report.aggregate["max_analog_residual_w"]
    add("analog_si_residual", _within_budget(leakage, cfg.lambda_b_watts),
        f"max estimated {leakage:.6e} W (true {resid:.6e} W) vs threshold "
        f"{cfg.lambda_b_watts:.6e} W")

    kkt = report.aggregate["max_precoder_kkt_residual"]
    add("precoder_kkt", kkt <= 1e-8, f"max in-run residual {kkt:.3e}")

    worst_null = report.aggregate["max_nsp_nulling_ratio"]
    add("nsp_nulling", worst_null <= 1e-9, f"max ratio {worst_null:.3e}")

    dl_ok = all(_within_budget(t["metrics"]["rate_dl"], t["metrics"]["rate_dl_ideal"])
                for t in ok_trials)
    add("dl_rate_vs_ideal", dl_ok, "proposed <= ideal on every trial")

    rerun = run_scenario(cfg)
    add("determinism", report.to_json() == rerun.to_json(), "byte-identical rerun")

    finite = all(
        np.isfinite(v) for v in report.aggregate.values() if isinstance(v, float)
    )
    add("finite_outputs", finite, "all aggregate values finite")

    payload = {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "checks": checks,
        "aggregate": report.aggregate,
    }
    return payload, all(c["passed"] for c in checks)
