"""End-to-end experiment orchestration.

One trial follows the two-slot protocol: slot 1 transmits with a fixed
spread-beam configuration and runs the sensing chain (MUSIC directions first,
then one delay-Doppler dwell per detected direction with the RX chains
repointed at it); the estimated directions feed the beamformer design used in
slot 2, whose link metrics are then evaluated against the true channels.

A call runs in two phases. Sensing runs trial by trial, because its waveform
basis is the memory peak; each sensed trial keeps only what slot 2 needs
(:class:`_Sensed`). Slot 2 then runs once per block of trials, every design
step and metric over a leading trial axis (:func:`_slot2`). A block holds as
many trials as fit in one trial's basis bytes (:func:`_block_trials`), so the
peak does not grow with the number of trials.

Every sensing observation is linear in a few per-trial waveforms: the DL and
UL symbols, the RX noise and each target's delay-Doppler phase times the DL
symbols. A trial draws them once into one basis (:func:`waveform_basis`);
each receiver is a row of coefficients over it (:func:`receiver_rows`), so
the slot-1 snapshots and the K dwells' projections are one product each.

What depends on the configured geometry alone (codebooks, slot-1 networks,
MUSIC manifold, the targets' phase rows, the map axes) is built once per
geometry into a cached, read-only :class:`ScenarioPlan` shared by every call
and trial (:func:`scenario_plan`).

Trials are statistically independent (each gets its own spawned generator),
so results do not depend on execution order and a fixed seed reproduces a
report byte for byte.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arrays import Codebook, dft_codebook, ula_response_matrix
from .beamforming import AnalogBeamformer, assemble_analog, tx_power
from .cancellers import analog_residual_power_per_chain, build_cancellers, si_residual
from .channels import (
    TargetParams, Waveform, delay_doppler_phase, gen_dl_channel, gen_si_channel, gen_ul_channel,
    perturb_estimate,
)
from .config import ScenarioConfig, TargetSpec
from .metrics import LinkMetrics, dl_snr, ideal_dl_rate, radar_sinr, ul_sinr
from .optimizer import (
    build_estimated_channels,
    mss_rx_combiner,
    numeric_tx_precoder,
    run_algorithm1,
)
from .sensing import (
    SensingEstimate,
    angle_grid,
    combiner_manifold,
    delay_doppler_map,
    delay_doppler_quotient,
    dwell_weights,
    music_doas,
    reference_signal_grid,
    sample_covariance,
)

__all__ = [
    "RunReport",
    "ScenarioPlan",
    "scenario_plan",
    "run_scenario",
    "sweep",
    "validate_suite",
    "waveform_basis",
    "synthesize_rx_snapshots",
    "dwell_projections",
    "SWEEP_VARIABLES",
    "jsonify",
]

# The paper's sweep names mapped onto config fields.
SWEEP_VARIABLES = {"p_b_dbm": "tx_power_dbm", "p_u_dbm": "ul_tx_power_dbm", "n_taps": "analog_taps"}


def jsonify(obj):
    """``obj`` with numpy arrays and scalars replaced by JSON-serializable builtins."""
    if isinstance(obj, dict):
        return {k: jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonify(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass
class RunReport:
    """Everything one scenario or sweep produced.

    ``wall_clock_s`` is kept in memory only; serialization drops it so that
    repeated runs under the same seed stay byte identical.
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
        payload = {
            "config": jsonify(self.config),
            "seed": self.seed,
            "trials": jsonify(self.trials),
            "aggregate": jsonify(self.aggregate),
            "range_angle": jsonify(self.range_angle),
            "range_velocity": jsonify(self.range_velocity),
            "rate_rows": jsonify(self.rate_rows),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def spread_analog(n_chains: int, cb: Codebook) -> AnalogBeamformer:
    """Deterministic slot-1 analog setting: chains fan out across the codebook.

    Distinct per-chain beams keep the RF-domain manifold unambiguous for the
    direction scan and illuminate the whole angular sector. Alternate chains
    are offset by one codebook step so the subarray null lattices of the
    chains never align: a uniformly spread on-grid assignment would leave
    exact blind directions on the critically sampled beam grid.
    """
    size = len(cb)
    idx = tuple(
        (((2 * i + 1) * size) // (2 * n_chains) + (i % 2)) % size
        for i in range(n_chains)
    )
    return assemble_analog(cb.vectors[list(idx)], codebook_indices=idx)


@dataclass(frozen=True)
class ScenarioPlan:
    """What a run derives from its configuration's geometry alone; every array is read-only.

    ``cb_tx``/``cb_rx`` are the DFT codebooks, ``v_rf0``/``w_rf0`` the slot-1
    spread networks, ``manifold`` the MUSIC manifold behind ``w_rf0`` over
    ``grid_deg`` and ``gain`` its ||b||^2 per angle, ``phases`` (K, P*Q) each
    configured target's delay-Doppler phase over the cells ``p * Q + q``, and
    ``ranges_m``/``velocities_mps`` the axes of the delay-Doppler maps.
    """

    wf: Waveform
    cb_tx: Codebook
    cb_rx: Codebook
    v_rf0: AnalogBeamformer
    w_rf0: AnalogBeamformer
    grid_deg: np.ndarray
    manifold: np.ndarray
    gain: np.ndarray
    phases: np.ndarray
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
    targets = [TargetParams(1.0, s.angle_deg, s.range_m, s.velocity_mps) for s in specs]
    phases = np.array([delay_doppler_phase(t, wf, p[:, None], q).ravel() for t in targets])
    plan = ScenarioPlan(
        wf=wf, cb_tx=cb_tx, cb_rx=cb_rx, v_rf0=v_rf0, w_rf0=w_rf0, grid_deg=grid,
        manifold=manifold, gain=np.sum(np.abs(manifold) ** 2, axis=0), phases=phases,
        ranges_m=tuple((p * wf.range_bin_m).tolist()),
        velocities_mps=tuple(((q - wf.n_symbols // 2) * wf.velocity_bin_mps).tolist()),
    )
    for array in (grid, manifold, plan.gain, phases, v_rf0.per_chain, v_rf0.assembled,
                  w_rf0.per_chain, w_rf0.assembled):
        array.flags.writeable = False
    return plan


def waveform_basis(rng: np.random.Generator, phases: np.ndarray, n_streams: int, n_noise: int,
                   sigma: float) -> np.ndarray:
    """One trial's waveforms, one row each and one column per cell ``p * Q + q``.

    Rows: the ``n_streams`` DL symbol streams sym_b, the UL symbols sym_u,
    ``n_noise`` RX-chain noise rows, then phase_k * sym_b[s] for every target k
    and stream s, k-major, with ``phases`` (K, n_cells) holding each target's
    :func:`~fdisac.channels.delay_doppler_phase` (:attr:`ScenarioPlan.phases`).
    Each CN(0, 1) or CN(0, sigma^2) block is drawn real part first and scaled
    in place; numpy divides a complex by sqrt(2) as a product with 1/sqrt(2),
    so the rows equal (a + 1j*b)/sqrt(2) and sigma*(a + 1j*b)/sqrt(2) exactly.
    """
    (n_targets, n_cells), st = phases.shape, n_streams
    basis = np.empty((st + 1 + n_noise + n_targets * st, n_cells), dtype=complex)
    draw = np.empty((max(st, n_noise), n_cells))
    row = 0
    for n_rows, scale in ((st, 1.0), (1, 1.0), (n_noise, sigma)):
        for part in (basis.real, basis.imag):
            block = rng.standard_normal(out=draw[:n_rows])
            block *= scale
            np.multiply(block, 1 / np.sqrt(2), out=part[row : row + n_rows])
        row += n_rows
    np.multiply(phases[:, None], basis[:st], out=basis[row:].reshape(n_targets, st, n_cells))
    return basis


def receiver_rows(c, w_rf: AnalogBeamformer, v_rf: AnalogBeamformer, si_residual: np.ndarray,
                  v_bb: np.ndarray, h_ul: np.ndarray, v_u: np.ndarray,
                  targets: Sequence[TargetParams]) -> np.ndarray:
    """Coefficients of the receivers c^T y over :func:`waveform_basis`, shape (..., n, n_rows).

    ``c`` (..., n, m_rf) holds n weight vectors on the RX chains of ``w_rf``;
    its leading axes match those of a stack of networks ``w_rf`` and ``v_rf``
    and residuals ``si_residual``. With x = c^T W_rf^H the blocks are
    c^T R V_bb on sym_b (R = H_tilde + C + D acts on the RF-chain TX signal
    V_bb sym_b), x h_ul v_u on sym_u, c^T on the noise and
    (x a_rx,k) beta_k (a_tx,k^H V_rf V_bb) on target k's rows.
    """
    x = c @ np.swapaxes(w_rf.assembled, -1, -2).conj()
    angles = [t.angle_deg for t in targets]
    gains = np.array([t.gain for t in targets])
    a_rx = ula_response_matrix(h_ul.shape[0], angles)
    a_tx_v = ula_response_matrix(v_rf.n_antennas, angles).conj().T @ v_rf.assembled @ v_bb
    echo = ((x @ a_rx) * gains)[..., :, None] * a_tx_v[..., None, :, :]
    return np.concatenate(
        [c @ si_residual @ v_bb, (x @ (h_ul @ v_u))[..., None], c,
         echo.reshape(*echo.shape[:-2], -1)],
        axis=-1,
    )


def synthesize_rx_snapshots(basis: np.ndarray, w_rf: AnalogBeamformer, v_rf: AnalogBeamformer,
                            si_residual: np.ndarray, v_bb: np.ndarray, h_ul: np.ndarray,
                            v_u: np.ndarray, targets: Sequence[TargetParams]) -> np.ndarray:
    """RF-chain-domain snapshots over the whole OFDM grid, shape (m_rf, P*Q).

    Chain i is the receiver c = e_i of :func:`receiver_rows`, so the snapshots
    are one product with ``basis`` and no antenna-domain signal is formed.
    """
    rows = receiver_rows(np.eye(w_rf.n_chains), w_rf, v_rf, si_residual, v_bb, h_ul, v_u, targets)
    return rows @ basis


def _match_doas(est_doas: Sequence[float], true_angles: Sequence[float]) -> np.ndarray:
    """Assign estimated directions to the configured objects (one to one).

    Sorted estimates go to sorted true angles: for the |x - y| cost on a line
    this order-preserving matching has the minimum total cost.
    """
    matched = np.empty(len(true_angles))
    matched[np.argsort(true_angles, kind="stable")] = np.sort(est_doas)
    return matched


def _si_residual(w_rf: AnalogBeamformer, v_rf: AnalogBeamformer, h_si_true: np.ndarray,
                 h_si_hat: np.ndarray, n_taps: int) -> np.ndarray:
    """Post-canceller SI matrix H_tilde + C + D, the cancellers built from the estimate.

    H_tilde = W_rf^H H_si V_rf for one pair of networks or a stack of pairs.
    """
    w_h = np.swapaxes(w_rf.assembled, -1, -2).conj()
    canc = build_cancellers(w_h @ h_si_hat @ v_rf.assembled, n_taps)
    return si_residual(w_h @ h_si_true @ v_rf.assembled, canc)


def pointed_analog_stack(n_chains: int, cb: Codebook, angles_deg) -> AnalogBeamformer:
    """One network per angle, every chain on the codebook beam of highest gain toward it."""
    gains = np.abs(cb.vectors.conj() @ ula_response_matrix(cb.n_elems, angles_deg))
    idx = np.argmax(gains, axis=0)
    return assemble_analog(np.repeat(cb.vectors[idx, None, :], n_chains, axis=1))


def dwell_projections(cfg: ScenarioConfig, basis: np.ndarray, angles_deg, cb_tx: Codebook,
                      cb_rx: Codebook, h_si_true: np.ndarray, h_si_hat: np.ndarray,
                      v_bb: np.ndarray, h_ul: np.ndarray, v_u: np.ndarray,
                      targets: Sequence[TargetParams]):
    """Projected snapshots c^T y and references s of one dwell per angle, each (K, P*Q).

    A dwell repoints the TX and RX chains to the codebook beam nearest its
    angle, which restores full array gain for that target and pushes the
    others into the subarray sidelobes; its SI canceller is rebuilt for the
    new compression. Only the projection onto the dwell's RX weights is
    formed, all K dwells as one product with the trial's ``basis``.
    """
    v_k = pointed_analog_stack(cfg.tx_rf_chains, cb_tx, angles_deg)
    w_k = pointed_analog_stack(cfg.rx_rf_chains, cb_rx, angles_deg)
    resid = _si_residual(w_k, v_k, h_si_true, h_si_hat, cfg.analog_taps)
    c = dwell_weights(w_k, angles_deg)[:, None, :]
    rows = receiver_rows(c, w_k, v_k, resid, v_bb, h_ul, v_u, targets)
    s = reference_signal_grid(angles_deg, v_k, v_bb, basis[: v_bb.shape[1]])
    return rows.reshape(len(angles_deg), -1) @ basis, s


@dataclass
class _Sensed:
    """What slot 2 needs of one sensed trial."""

    index: int
    matched: np.ndarray  # DoA estimates matched to the configured objects
    h_si_true: np.ndarray
    h_si_hat: np.ndarray
    h_dl_true: np.ndarray
    sensing_rows: list
    map_sum: np.ndarray  # sum of the K peak-normalized delay-Doppler maps
    profiles: np.ndarray  # (K, P) range profiles of those maps


def _sense(cfg: ScenarioConfig, rng: np.random.Generator, plan: ScenarioPlan,
           index: int) -> _Sensed:
    """Channel realization and slot-1 sensing of one trial."""
    wf = plan.wf
    n_b, m_b = cfg.n_tx_antennas, cfg.n_rx_antennas
    m_u, n_u = cfg.dl_user_antennas, cfg.ul_user_antennas
    st = cfg.n_streams
    k = cfg.k_targets
    specs = cfg.all_target_specs()

    # Channel realization. Gains default to unit magnitude with random phase.
    dl_phases = np.exp(2j * np.pi * rng.random(len(cfg.dl_scatterers)))
    radar_phases = np.exp(2j * np.pi * rng.random(k))
    beta = np.exp(2j * np.pi * rng.random())
    targets = [
        TargetParams(gain=radar_phases[i], angle_deg=s.angle_deg,
                     range_m=s.range_m, velocity_mps=s.velocity_mps)
        for i, s in enumerate(specs)
    ]
    h_dl_true = gen_dl_channel(dl_phases, [s.angle_deg for s in cfg.dl_scatterers], m_u, n_b)
    h_ul_true = gen_ul_channel(beta, cfg.ul_user.angle_deg, m_b, n_u)
    h_si_true = gen_si_channel(m_b, n_b, cfg.si_kappa_db, cfg.si_pathloss_db, rng)
    h_si_hat = perturb_estimate(h_si_true, cfg.csi_nmse_db, rng)

    # Slot 1: spread beams, identity-like digital precoder, random UL direction.
    v_bb0 = np.eye(cfg.tx_rf_chains, dtype=complex)[:, :st] * np.sqrt(cfg.p_b_watts / st)
    raw = rng.standard_normal(n_u) + 1j * rng.standard_normal(n_u)
    v_u0 = raw / np.linalg.norm(raw) * np.sqrt(cfg.p_u_watts)
    si_residual0 = _si_residual(plan.w_rf0, plan.v_rf0, h_si_true, h_si_hat, cfg.analog_taps)

    # Every slot-1 snapshot and every dwell below is a row of coefficients
    # over this basis.
    basis = waveform_basis(rng, plan.phases, st, cfg.rx_rf_chains, np.sqrt(cfg.sigma_b2_watts))
    y_rf = synthesize_rx_snapshots(
        basis, plan.w_rf0, plan.v_rf0, si_residual0, v_bb0, h_ul_true, v_u0, targets
    )

    # Sensing: directions first, then per-target delay-Doppler.
    cov = sample_covariance(y_rf.T)
    del y_rf
    music = music_doas(cov, k, plan.grid_deg, plan.manifold, plan.gain)
    true_angles = [s.angle_deg for s in specs]
    matched = _match_doas(music.doas_deg, true_angles)

    cy, s = dwell_projections(
        cfg, basis, matched, plan.cb_tx, plan.cb_rx, h_si_true, h_si_hat, v_bb0, h_ul_true, v_u0,
        targets,
    )
    del basis  # the quotient's temporaries reuse its memory
    dwell_grid = (k, wf.n_subcarriers, wf.n_symbols)
    z, _ = delay_doppler_quotient(cy.reshape(dwell_grid), s.reshape(dwell_grid))
    dd = delay_doppler_map(z)
    del cy, s, z  # the normalized maps below reuse their memory

    sensing_rows = []
    for i, spec in enumerate(specs):
        est_i = SensingEstimate.from_bins(matched[i], dd.peak_n[i], dd.peak_m[i], wf)
        sensing_rows.append(
            {
                "true_angle_deg": spec.angle_deg,
                "true_range_m": spec.range_m,
                "true_velocity_mps": spec.velocity_mps,
                **vars(est_i),  # doa_deg, range_m, velocity_mps, delay_s, doppler_hz, bin_n, bin_m
                "doa_error_deg": abs(est_i.doa_deg - spec.angle_deg),
                "range_error_m": abs(est_i.range_m - spec.range_m),
                "velocity_error_mps": abs(est_i.velocity_mps - spec.velocity_mps),
            }
        )
    normed = [m / m.max() if m.max() > 0 else m for m in dd.magnitude]
    return _Sensed(
        index=index, matched=matched, h_si_true=h_si_true, h_si_hat=h_si_hat,
        h_dl_true=h_dl_true, sensing_rows=sensing_rows, map_sum=np.sum(normed, axis=0),
        profiles=np.array([m.max(axis=1) for m in normed]),
    )


def _block_trials(cfg: ScenarioConfig, plan: ScenarioPlan) -> int:
    """Trials per slot-2 block: as many as fit, together, in one trial's waveform-basis bytes.

    The basis (:func:`waveform_basis`: N_s + 1 + M_rf + K N_s rows over the
    P Q cells) is sensing's memory peak. Per trial a block holds four M_b x N_b
    matrices: the true and estimated SI channels carried over from sensing and
    the design's radar and interference estimates.
    """
    (n_targets, n_cells), st = plan.phases.shape, cfg.n_streams
    basis_entries = (st + 1 + cfg.rx_rf_chains + n_targets * st) * n_cells
    return max(1, basis_entries // (4 * cfg.n_rx_antennas * cfg.n_tx_antennas))


def _error_record(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _slot2(cfg: ScenarioConfig, block: Sequence[_Sensed]) -> list:
    """Design the block's beamformers and score them, all trials as one stack.

    Returns one trial record per sensed trial: its metrics, or the error that
    failed its design, validation or, for the whole block, any other step.
    """
    n_scatter, k = len(cfg.dl_scatterers), cfg.k_targets
    matched = np.array([t.matched for t in block])
    h_si_true = np.array([t.h_si_true for t in block])
    h_dl_true = np.array([t.h_dl_true for t in block])
    try:
        est = build_estimated_channels(
            scatterer_doas_deg=matched[:, :n_scatter],
            other_doas_deg=matched[:, n_scatter : k - 1],
            ul_doa_deg=matched[:, k - 1],
            h_bb_hat=np.array([t.h_si_hat for t in block]),
            m_b=cfg.n_rx_antennas,
            n_b=cfg.n_tx_antennas,
            m_u=cfg.dl_user_antennas,
            n_u=cfg.ul_user_antennas,
        )
        bf = run_algorithm1(est, cfg).validate(cfg.p_b_watts, cfg.p_u_watts)

        w_h = np.swapaxes(bf.w_b_rf.assembled, -1, -2).conj()
        h_tilde_true = w_h @ h_si_true @ bf.v_b_rf.assembled
        gamma_rad = radar_sinr(bf, est, h_tilde_true, cfg.sigma_b2_watts)
        gamma_dl = dl_snr(bf, h_dl_true, cfg.sigma_u2_watts)
        gamma_ul = ul_sinr(bf, est, h_tilde_true, cfg.sigma_b2_watts)
        bf_mss = replace(bf, w_b_bb=mss_rx_combiner(w_h @ est.h_ul_hat, 1))
        gamma_ul_mss = ul_sinr(bf_mss, est, h_tilde_true, cfg.sigma_b2_watts)
        link = LinkMetrics.from_sinrs(gamma_rad, gamma_dl, gamma_ul)
        rate_dl_ideal = ideal_dl_rate(h_dl_true, cfg.p_b_watts, cfg.sigma_u2_watts, cfg.n_streams)

        residual = analog_residual_power_per_chain(h_tilde_true, bf.cancellers.analog, bf.v_b_bb)
        h_int_eff = w_h @ est.h_rad_int_hat
        int_norm = np.linalg.norm(h_int_eff, axis=(-2, -1))
        null_norm = np.linalg.norm(np.swapaxes(bf.w_b_bb, -1, -2).conj() @ h_int_eff, axis=(-2, -1))
        nulling = np.divide(null_norm, int_norm, out=np.zeros_like(int_norm), where=int_norm > 0)
        tx_power_w = tx_power(bf.v_b_rf, bf.v_b_bb)
        ul_power_w = np.linalg.norm(bf.v_u_bb, axis=-1) ** 2
    except Exception as exc:  # a step failed for the whole block
        return [_error_record(exc) for _ in block]

    records = []
    for t, (trial, error) in enumerate(zip(block, bf.errors)):
        if error is not None:
            records.append(_error_record(error))
            continue
        records.append({
            "sensing": trial.sensing_rows,
            "metrics": {
                "gamma_rad": float(link.gamma_rad[t]),
                "gamma_dl": float(link.gamma_dl[t]),
                "gamma_ul_nsp": float(link.gamma_ul[t]),
                "gamma_ul_mss": float(gamma_ul_mss[t]),
                "rate_dl": float(link.rate_dl[t]),
                "rate_ul_nsp": float(link.rate_ul[t]),
                "rate_ul_mss": float(np.log2(1.0 + gamma_ul_mss[t])),
                "rate_dl_ideal": float(rate_dl_ideal[t]),
            },
            "tx_power_w": float(tx_power_w[t]),
            "ul_power_w": float(ul_power_w[t]),
            "analog_residual_w": residual[t].tolist(),
            "nsp_nulling_ratio": float(nulling[t]),
        })
    return records


def _aggregate(trials: list) -> dict:
    ok = [t for t in trials if "error" not in t]
    agg = {"n_trials": len(trials), "n_failed": len(trials) - len(ok)}
    if not ok:
        return agg
    for key in (
        "gamma_rad", "gamma_dl", "gamma_ul_nsp", "gamma_ul_mss",
        "rate_dl", "rate_ul_nsp", "rate_ul_mss", "rate_dl_ideal",
    ):
        agg[f"mean_{key}"] = float(np.mean([t["metrics"][key] for t in ok]))
    agg["max_analog_residual_w"] = float(np.max([max(t["analog_residual_w"]) for t in ok]))
    agg["max_nsp_nulling_ratio"] = float(np.max([t["nsp_nulling_ratio"] for t in ok]))
    agg["max_doa_error_deg"] = float(
        np.max([row["doa_error_deg"] for t in ok for row in t["sensing"]])
    )
    agg["max_range_error_m"] = float(
        np.max([row["range_error_m"] for t in ok for row in t["sensing"]])
    )
    return agg


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Run ``cfg.trials`` independent trials and aggregate the results.

    A failing trial is recorded under an ``error`` key instead of aborting the
    run; only a run where every trial failed raises.
    """
    start = time.perf_counter()
    plan = scenario_plan(cfg)
    block_trials = _block_trials(cfg, plan)

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    trials = [None] * cfg.trials
    map_stack = []
    profile_stack = []
    angle_stack = []
    block = []
    for index, trial_seed in enumerate(seeds):
        rng = np.random.default_rng(trial_seed)
        try:
            block.append(_sense(cfg, rng, plan, index))
        except Exception as exc:  # recorded, not fatal
            trials[index] = _error_record(exc)
        if block and (len(block) == block_trials or index == cfg.trials - 1):
            for sensed, record in zip(block, _slot2(cfg, block)):
                trials[sensed.index] = record
                if "error" not in record:
                    map_stack.append(sensed.map_sum)
                    profile_stack.append(sensed.profiles)
                    angle_stack.append([row["doa_deg"] for row in sensed.sensing_rows])
            block = []

    if not any("error" not in t for t in trials):
        raise RuntimeError(f"all {cfg.trials} trials failed; first: {trials[0]['error']}")

    mean_profiles = np.mean(profile_stack, axis=0)
    range_angle = {
        "angles_deg": np.mean(angle_stack, axis=0).tolist(),
        "ranges_m": plan.ranges_m,
        "profiles": [
            (row / row.max() if row.max() > 0 else row).tolist() for row in mean_profiles
        ],
    }
    range_velocity = {
        "ranges_m": plan.ranges_m,
        "velocities_mps": plan.velocities_mps,
        "magnitude": np.mean(map_stack, axis=0).tolist(),
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


def sweep(cfg: ScenarioConfig, variable: str, values: Sequence) -> RunReport:
    """Re-run the scenario for each value of the sweep variable.

    Every point reuses the same seed so channel realizations are paired across
    values. Emits one aggregated rate row per value.
    """
    if variable not in SWEEP_VARIABLES:
        raise ValueError(
            f"unknown sweep variable '{variable}', expected one of {sorted(SWEEP_VARIABLES)}"
        )
    if not values:
        raise ValueError("sweep needs at least one value")
    field_name = SWEEP_VARIABLES[variable]
    if field_name == "analog_taps":
        if not all(float(v).is_integer() for v in values):
            raise ValueError(f"tap counts must be integers, got {list(values)}")
        values = [int(v) for v in values]
    start = time.perf_counter()
    rows = []
    trials = []
    for value in values:
        point_cfg = cfg.with_overrides(**{field_name: value})
        report = run_scenario(point_cfg)
        agg = report.aggregate
        rows.append(
            {
                "sweep_value": value,
                "rate_dl": agg.get("mean_rate_dl"),
                "rate_ideal": agg.get("mean_rate_dl_ideal"),
                "rate_ul_nsp": agg.get("mean_rate_ul_nsp"),
                "rate_ul_mss": agg.get("mean_rate_ul_mss"),
                "gamma_rad": agg.get("mean_gamma_rad"),
            }
        )
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
    """Deterministic invariant suite; returns (report dict, all passed).

    Checks power budgets, the per-chain analog SI residual against the ADC
    threshold, NSP nulling depth, DL rate against the unconstrained baseline,
    KKT conditions of the TX precoder on synthetic instances (one leakage row,
    where a closed form exists, and eight rows with a rank-deficient channel),
    run-to-run byte determinism, and finiteness of every output.
    """
    report = run_scenario(cfg)
    ok_trials = [t for t in report.trials if "error" not in t]
    checks = []

    def add(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    add("all_trials_completed", len(ok_trials) == len(report.trials),
        f"{len(ok_trials)}/{len(report.trials)} trials")

    worst_tx = max(t["tx_power_w"] for t in ok_trials)
    add("tx_power_budget", worst_tx <= cfg.p_b_watts * (1 + 1e-9),
        f"max {worst_tx:.6e} W vs budget {cfg.p_b_watts:.6e} W")

    worst_ul = max(t["ul_power_w"] for t in ok_trials)
    add("ul_power_budget", worst_ul <= cfg.p_u_watts * (1 + 1e-9),
        f"max {worst_ul:.6e} W vs budget {cfg.p_u_watts:.6e} W")

    worst_resid = max(max(t["analog_residual_w"]) for t in ok_trials)
    add("analog_si_residual", worst_resid <= cfg.lambda_b_watts,
        f"max {worst_resid:.6e} W vs threshold {cfg.lambda_b_watts:.6e} W")

    worst_null = max(t["nsp_nulling_ratio"] for t in ok_trials)
    add("nsp_nulling", worst_null <= 1e-9, f"max ratio {worst_null:.3e}")

    dl_ok = all(
        t["metrics"]["rate_dl"] <= t["metrics"]["rate_dl_ideal"] * (1 + 1e-9) + 1e-12
        for t in ok_trials
    )
    add("dl_rate_vs_ideal", dl_ok, "proposed <= ideal on every trial")

    # (M_u, N_rf, rank of H, leakage rows): one row has the closed form; eight
    # rows with a rank-2 4x8 channel are the pipeline's shape
    for name, shape in (("kkt_closed_form", (5, 5, 5, 1)), ("kkt_multi_chain", (4, 8, 2, 8))):
        kkt_worst = _kkt_spot_checks(cfg.seed, *shape)
        add(name, kkt_worst <= 1e-6, f"worst scaled residual {kkt_worst:.3e}")

    rerun = run_scenario(cfg)
    add("determinism", report.to_json() == rerun.to_json(), "byte-identical rerun")

    finite = all(
        np.isfinite(v) for v in report.aggregate.values() if isinstance(v, float)
    )
    add("finite_outputs", finite, "all aggregate values finite")

    payload = {
        "config": jsonify(cfg.to_dict()),
        "seed": cfg.seed,
        "checks": checks,
        "aggregate": jsonify(report.aggregate),
    }
    return payload, all(c["passed"] for c in checks)


def _kkt_spot_checks(seed: int, m_u: int, n_rf: int, rank: int, n_rows: int) -> float:
    """Worst KKT residual of the TX precoder over 20 random instances."""
    rng = np.random.default_rng([seed, 7151, n_rows])
    st, lam = 3, 1e-3

    def crandn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    worst = 0.0
    for _ in range(20):
        h = crandn(m_u, rank) @ crandn(rank, n_rf)
        t_rows = crandn(n_rows, n_rf) * 0.05
        _, _, vh = np.linalg.svd(h, full_matrices=False)
        g = h @ vh.conj().T[:, :st]
        _, info = numeric_tx_precoder(h, t_rows, lam, g, return_info=True)
        worst = max(worst, info["kkt_residual"])
    return worst
