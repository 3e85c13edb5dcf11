"""Joint A/D beamformer design for the full-duplex ISAC base station.

The design runs as an ordered sequence of sub-problems:

  1. user-side combiner and uplink precoder from SVDs of the estimated
     downlink/uplink channels,
  2. per-chain codebook search for the TX analog beamformer (radar gain),
  3. per-chain codebook ratio search for the RX analog beamformer (radar gain
     over SI leakage),
  4. canceller construction from the compressed SI estimate,
  5. TX digital precoder: constrained least squares toward the SVD-ideal
     downlink target with a per-RX-chain SI leakage cap, solved through its
     Lagrangian dual by projected Newton on the per-chain multipliers (one
     solver for any number of RX chains; with one chain it reproduces the
     closed form),
  6. per-column power normalization,
  7. uplink digital combiner: null-space projection away from the radar
     interference subspace.

Every step takes a stack of trials along leading axes (a single matrix is a
stack with none); only the TX precoder, whose iteration count depends on
the data, runs once per trial. A trial that fails a step is recorded in
:attr:`HybridBeamformers.errors` and the other trials continue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .arrays import Codebook, dft_codebook
from .beamforming import AnalogBeamformer, assemble_analog, tx_power
from .cancellers import CancellerPair, build_cancellers
from .channels import gen_dl_channel, gen_ul_channel
from .errors import DegenerateCombinerError, InfeasibleResultError

__all__ = [
    "EstimatedChannels",
    "HybridBeamformers",
    "build_estimated_channels",
    "select_tx_analog",
    "select_rx_analog",
    "numeric_tx_precoder",
    "power_normalize",
    "nsp_rx_combiner",
    "mss_rx_combiner",
    "user_beamformers",
    "run_algorithm1",
]

_RATIO_GUARD = 1e-12  # regularizes the RX ratio search denominator
_RANK_TOL_REL = 1e-10  # singular values below this fraction of the largest are noise
_EPS = float(np.finfo(float).eps)
# TX precoder dual solver
_NULL_RIDGE_REL = 1e-10  # null(H) ridge, relative to the mean squared singular value
_GUARD_MAX_REL = 1e-9  # largest relative scale the final feasibility step may apply
_ARMIJO = 1e-4  # sufficient-increase fraction of the dual line search
_MAX_SOLVES = 200  # cap on evaluations of V(zeta)


@dataclass(frozen=True)
class EstimatedChannels:
    """Channel knowledge available to the optimizer.

    The radar estimate decomposes as h_rad_hat = h_rad_int_hat + the uplink
    user's steering outer product (the user is the last active target);
    ``h_bb_hat`` is the uncompressed SI channel estimate.
    """

    h_rad_hat: np.ndarray
    h_rad_int_hat: np.ndarray
    h_dl_hat: np.ndarray
    h_ul_hat: np.ndarray
    h_bb_hat: np.ndarray


def build_estimated_channels(
    scatterer_doas_deg,
    other_doas_deg,
    ul_doa_deg: float,
    h_bb_hat: np.ndarray,
    m_b: int,
    n_b: int,
    m_u: int,
    n_u: int,
) -> EstimatedChannels:
    """Reconstruct channel estimates from estimated directions.

    Scatterer directions feed the downlink estimate; scatterers plus the other
    passive targets form the radar interference estimate; the uplink direction
    adds the final radar term and defines the uplink estimate. Gains are not
    estimated, so every term is a unit-gain path of
    :func:`~fdisac.channels.gen_dl_channel`.

    Directions of shape (..., n) with ``ul_doa_deg`` and ``h_bb_hat`` carrying
    the same leading axes give a stack of estimates, one per trial.
    """

    scatterers = np.asarray(scatterer_doas_deg, dtype=float)
    interferers = np.concatenate([scatterers, np.asarray(other_doas_deg, dtype=float)], axis=-1)
    h_int = gen_dl_channel(np.ones(interferers.shape[-1]), interferers, m_b, n_b)
    h_rad = h_int + gen_ul_channel(1.0, ul_doa_deg, m_b, n_b)
    h_dl = gen_dl_channel(np.ones(scatterers.shape[-1]), scatterers, m_u, n_b)
    h_ul = gen_ul_channel(1.0, ul_doa_deg, m_b, n_u)
    return EstimatedChannels(
        h_rad_hat=h_rad,
        h_rad_int_hat=h_int,
        h_dl_hat=h_dl,
        h_ul_hat=h_ul,
        h_bb_hat=np.asarray(h_bb_hat, dtype=complex),
    )


@dataclass(frozen=True)
class HybridBeamformers:
    """Full beamformer solution for one slot, or a stack of them (one per trial).

    ``errors`` holds one entry per trial of a stack (leading axes flattened):
    None, or the exception that failed the trial's design or validation. A
    failed trial's arrays hold finite stand-ins and carry no meaning.
    """

    v_b_rf: AnalogBeamformer
    v_b_bb: np.ndarray
    w_b_rf: AnalogBeamformer
    w_b_bb: np.ndarray
    w_u: np.ndarray
    v_u_bb: np.ndarray
    cancellers: CancellerPair
    errors: tuple = ()

    def validate(self, p_b_watts: float, p_u_watts: float) -> "HybridBeamformers":
        """Check the power and normalization invariants of every trial.

        Returns the design with each trial that violates one marked failed by
        its ``ValueError``; trials that already failed are not checked. A
        single design (no trial axis) raises its error instead.
        """
        pw = np.ravel(tx_power(self.v_b_rf, self.v_b_bb))
        ul_pw = np.ravel(np.linalg.norm(self.v_u_bb, axis=-1) ** 2)
        col_dev = np.abs(np.linalg.norm(self.w_b_bb, axis=-2) - 1.0).max(axis=-1).ravel()
        errors = list(self.errors or (None,) * pw.size)
        for t, error in enumerate(errors):
            if error is not None:
                continue
            if pw[t] > p_b_watts + 1e-9:
                errors[t] = ValueError(f"TX power {float(pw[t])} exceeds budget {p_b_watts}")
            elif ul_pw[t] > p_u_watts + 1e-12:
                errors[t] = ValueError(f"UL power {float(ul_pw[t])} exceeds budget {p_u_watts}")
            elif col_dev[t] > 1e-9:
                errors[t] = ValueError("UL combiner columns must have unit norm")
        return _settled(replace(self, errors=tuple(errors)))


def _settled(bf: HybridBeamformers) -> HybridBeamformers:
    """``bf``, unless it is a single design that failed: then its error is raised."""
    if bf.v_b_bb.ndim == 2 and bf.errors[0] is not None:
        raise bf.errors[0]
    return bf


def _fix_phase(m: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is real positive.

    Works on the last two axes of a stack; all-zero columns are left as they are.
    """
    m = np.asarray(m, dtype=complex)
    mags = np.abs(m)
    first = (mags > 1e-12 * mags.max(axis=-2, keepdims=True)).argmax(axis=-2)
    # the first significant entry of each column, summed out of a one-hot mask
    pivot = (m * (np.arange(m.shape[-2])[:, None] == first[..., None, :])).sum(axis=-2)
    mag = np.abs(pivot)
    return m * (pivot.conj() / (mag + (mag == 0.0)))[..., None, :]


def _index_tuple(idx: np.ndarray) -> tuple:
    """Codebook indices as a tuple per network, nested along leading axes."""
    return tuple(idx.tolist()) if idx.ndim == 1 else tuple(map(_index_tuple, idx))


def select_tx_analog(h_rad_hat: np.ndarray, cb: Codebook, n_rf: int) -> AnalogBeamformer:
    """Per-chain codebook search maximizing the radar channel gain.

    The Frobenius objective ||H V_rf||^2 decomposes over the block-diagonal
    columns, so each chain's beam is chosen independently as
    argmax_v ||H[:, block_i] v||^2. Ties resolve to the lowest codebook index.
    A stack of channels gives a stack of networks; the search loops over the
    chains, so no per-chain score tensor of the whole stack is formed.
    """
    h = np.asarray(h_rad_hat, dtype=complex)
    n_a = cb.n_elems
    if h.shape[-1] != n_rf * n_a:
        raise ValueError(
            f"channel has {h.shape[-1]} TX columns, expected {n_rf} chains x {n_a}"
        )
    cb_t = cb.vectors.T
    idx = np.empty(h.shape[:-2] + (n_rf,), dtype=int)
    for i in range(n_rf):
        scores = np.linalg.norm(h[..., i * n_a : (i + 1) * n_a] @ cb_t, axis=-2) ** 2
        idx[..., i] = np.argmax(scores, axis=-1)
    return assemble_analog(cb.vectors[idx], codebook_indices=_index_tuple(idx))


def select_rx_analog(
    h_rad_hat: np.ndarray,
    h_bb_hat: np.ndarray,
    v_b_rf: AnalogBeamformer,
    cb: Codebook,
) -> AnalogBeamformer:
    """Per-chain codebook ratio search: radar return over SI leakage.

    Chain j maximizes its own contribution ratio n_j(w) / (d_j(w) + eps) where
    n_j and d_j are the row-block-j terms of ||W^H H_rad V_rf||^2 and
    ||W^H H_si V_rf||^2. Exact for a single RX chain; a tractable
    per-chain decomposition otherwise. Stacks of channels and TX networks
    give a stack of networks. All chains are scored at once: the scores
    hold one entry per chain, codebook beam and TX chain, never per antenna.
    """
    radar_eff = np.asarray(h_rad_hat, dtype=complex) @ v_b_rf.assembled
    si_eff = np.asarray(h_bb_hat, dtype=complex) @ v_b_rf.assembled
    m_a = cb.n_elems
    lead, (m_b, n_rf) = radar_eff.shape[:-2], radar_eff.shape[-2:]
    if m_b % m_a != 0:
        raise ValueError(f"channel has {m_b} RX rows, not a multiple of {m_a}")
    chains = lead + (m_b // m_a, m_a, n_rf)
    conj_cb = cb.vectors.conj()
    num = np.linalg.norm(conj_cb @ radar_eff.reshape(chains), axis=-1) ** 2
    den = np.linalg.norm(conj_cb @ si_eff.reshape(chains), axis=-1) ** 2
    idx = np.argmax(num / (den + _RATIO_GUARD), axis=-1)
    return assemble_analog(cb.vectors[idx], codebook_indices=_index_tuple(idx))


def numeric_tx_precoder(
    h_dl_eff: np.ndarray,
    t_rows,
    lambda_b_watts: float,
    g_target: np.ndarray,
    return_info: bool = False,
):
    """Leakage-constrained TX digital precoder, solved exactly in the dual.

    Minimizes ||H V - G||_F^2 subject to ||V^H t_r||^2 <= lambda_b for every
    row r of ``t_rows`` (one per RX chain; with t_r = conj(row_r) of the
    post-analog-cancellation SI matrix this is the residual reaching ADC r).
    Stationarity of the Lagrangian gives

        V(zeta) = (H^H H + sum_r zeta_r t_r t_r^H)^{-1} H^H G,

    and the multipliers zeta >= 0 maximize the concave dual, whose gradient
    is c_r - lambda_b with c_r = ||V(zeta)^H t_r||^2 (Boyd & Vandenberghe,
    Convex Optimization, 5.2-5.5). The dual is solved by projected Newton
    (Bertsekas, SIAM J. Control Optim. 20(2), 1982): rows at zeta_r = 0 whose
    gradient points below zero stay fixed, the rest take a Newton step, and
    the step is halved until the dual value rises enough (Armijo). Close to
    the optimum the dual value is flat to rounding and cannot rank steps;
    from then on full Newton steps are taken while each halves the largest
    projected gradient, and the iteration stops at the first that does not.

    V(zeta) is solved in the right singular basis of H, which makes null(H)
    explicit: H has rank below its column count in every scenario, so the
    normal matrix is singular. The null block carries a ridge of 1e-10 times
    the mean squared singular value, so when the optimum is a whole face
    (H V = G reachable inside the leakage set) the result is its
    minimum-norm point. With one row the iteration converges to the
    Sherman-Morrison closed form of the single-RX-chain case.

    Final step, the only one that changes the Newton solution: V is scaled
    by min(1, sqrt(lambda_b / max_r(c_r + e_r))), where e_r bounds the
    rounding of the computed c_r, so every c_r is <= lambda_b in floating
    point, also after later column down-scaling. A scale below 1 - 1e-9
    raises :class:`InfeasibleResultError`. ``lambda_b_watts = inf``
    returns the minimum-norm least-squares solution.

    With ``return_info`` the result is ``(V, info)``; ``info`` holds
    ``iterations`` (linear solves, >= 1), ``multipliers`` (zeta), ``active``
    (zeta_r > 0) and ``kkt_residual``: the largest of the stationarity
    residual relative to ||H^H G||, the constraint violation relative to
    lambda_b, and the complementary slackness sum_r zeta_r |c_r - lambda_b|
    relative to ||G||^2, the objective at V = 0.
    """
    h = np.asarray(h_dl_eff, dtype=complex)
    g = np.asarray(g_target, dtype=complex)
    t_rows = np.atleast_2d(np.asarray(t_rows, dtype=complex))
    lam = float(lambda_b_watts)
    if t_rows.shape[1] != h.shape[1]:
        raise ValueError(f"leakage rows length {t_rows.shape[1]} != {h.shape[1]} TX chains")
    if not lam > 0:
        raise ValueError(f"leakage threshold must be positive, got {lambda_b_watts}")
    rows = t_rows.conj()  # c_r = ||row_r @ V||^2
    if np.isinf(lam):
        rows = rows[:0]  # no row can bind
    n, st = h.shape[1], g.shape[1]

    u, sig, wh = np.linalg.svd(h)
    rank = int(np.sum(sig > _RANK_TOL_REL * sig[0])) if sig.size and sig[0] > 0 else 0
    basis = wh.conj().T
    g_fit = u[:, :rank].conj().T @ g  # the part of G that H can reach
    diag = np.full(n, _NULL_RIDGE_REL * float(np.mean(sig**2)) if rank else 1.0)
    diag[:rank] = sig[:rank] ** 2
    r_basis = rows @ basis
    rhs = np.zeros((n, st + rows.shape[0]), dtype=complex)
    rhs[:rank, :st] = sig[:rank, None] * g_fit
    rhs[:, st:] = r_basis.conj().T

    def evaluate(zeta):
        """V(zeta) in the singular basis, leakages, -Hessian and value of the dual."""
        a = np.diag(diag) + (r_basis.conj().T * zeta) @ r_basis
        jac = 1.0 / np.sqrt(np.real(np.diagonal(a)))  # Jacobi scaling
        sol = jac[:, None] * np.linalg.solve(
            a * jac[:, None] * jac[None, :], jac[:, None] * rhs
        )
        x = sol[:, :st]
        w = r_basis @ x
        leak = np.linalg.norm(w, axis=1) ** 2
        hess = 2.0 * np.real((r_basis @ sol[:, st:]) * (w @ w.conj().T).conj())
        dual = (
            np.linalg.norm(sig[:rank, None] * x[:rank] - g_fit) ** 2
            + diag[rank:] @ np.linalg.norm(x[rank:], axis=1) ** 2
            + zeta @ (leak - lam)
        )
        return x, leak, hess, float(dual)

    def projected_gradient(zeta, leak):
        d = leak - lam
        return np.abs(np.where(zeta > 0, d, np.maximum(d, 0.0))).max(initial=0.0) / lam

    zeta = np.zeros(rows.shape[0])
    x, leak, hess, dual = evaluate(zeta)
    pg = projected_gradient(zeta, leak)
    iterations = 1
    refine = False  # set once the dual value is too flat to rank steps
    while pg > 0.0 and iterations < _MAX_SOLVES:
        d = leak - lam
        free = (zeta > 0) | (d > 0)
        step = np.zeros_like(zeta)
        # minimum-norm step where the Hessian is singular (e.g. repeated rows)
        step[free] = np.linalg.lstsq(hess[np.ix_(free, free)], d[free], rcond=1e-14)[0]
        # rounding of the dual value: its terms, not their sum, set the scale
        noise = 64 * _EPS * (abs(dual) + zeta @ (leak + lam))
        full = np.maximum(zeta + step, 0.0)
        full_result = evaluate(full)
        iterations += 1
        trial, result, alpha = full, full_result, 1.0
        while not refine:
            gain = float(d @ (trial - zeta))  # first-order increase of the dual
            if gain <= noise or alpha < _EPS:
                refine = True  # too small a change for the dual value to rank
                trial, result = full, full_result
            elif result[3] >= dual + _ARMIJO * gain:
                break
            else:
                alpha *= 0.5
                trial = np.maximum(zeta + alpha * step, 0.0)
                result = evaluate(trial)
                iterations += 1
        pg_trial = projected_gradient(trial, result[1])
        if refine and pg_trial > 0.5 * pg:
            break
        zeta, (x, leak, hess, dual), pg = trial, result, pg_trial

    v = basis @ x
    w = rows @ v
    leak = np.linalg.norm(w, axis=1) ** 2
    # rounding bound of the computed sums |row_r . v_col|^2
    err = 4 * (n + 2) * _EPS * np.sqrt(leak) * np.linalg.norm(np.abs(rows) @ np.abs(v), axis=1)
    worst = float(np.max(leak + err, initial=0.0))
    if worst > lam:
        scale = np.sqrt(lam / worst)
        if scale < 1.0 - _GUARD_MAX_REL:
            raise InfeasibleResultError(
                f"leakage {leak.max() / lam:.9f} x threshold after {iterations} solves"
            )
        v, w, leak = v * scale, w * scale, leak * scale**2
    if not return_info:
        return v
    tiny = np.finfo(float).tiny
    grad = h.conj().T @ (h @ v - g) + rows.conj().T @ (zeta[:, None] * w)
    kkt = max(
        np.linalg.norm(grad) / max(np.linalg.norm(h.conj().T @ g), tiny),
        max(leak.max(initial=0.0) / lam - 1.0, 0.0),
        zeta @ np.abs(leak - lam) / max(np.linalg.norm(g) ** 2, tiny),
    )
    info = {
        "iterations": iterations,
        "multipliers": zeta,
        "active": zeta > 0,
        "kkt_residual": float(kkt),
    }
    return v, info


def power_normalize(v_rf: AnalogBeamformer, v_bb: np.ndarray, p_b_watts: float) -> np.ndarray:
    """Rescale precoder columns whose radiated power exceeds ``p_b_watts``.

    Column c of V_rf @ V_bb with squared norm above the budget is brought back
    to exactly the budget by scaling column c of V_bb; compliant columns are
    left untouched (the input is returned unchanged when nothing violates).
    Works on stacks of networks and precoders.
    """
    v_bb = np.asarray(v_bb, dtype=complex)
    col_power = np.linalg.norm(v_rf.assembled @ v_bb, axis=-2) ** 2
    if not (col_power > p_b_watts).any():
        return v_bb
    return v_bb * np.sqrt(p_b_watts / np.maximum(col_power, p_b_watts))[..., None, :]


def nsp_rx_combiner(
    h_ul_eff: np.ndarray, h_rad_int_eff: np.ndarray, n_streams: int
) -> np.ndarray:
    """Uplink digital combiner constrained to null the radar interference.

    The candidate X holds the top ``n_streams`` left singular vectors of the
    effective uplink channel; projecting X onto the orthogonal complement of
    the interference column space, W = (I - A^H (A A^H)^+ A) X with
    A = h_rad_int_eff^H, zeroes W^H h_rad_int_eff exactly. The pseudo-inverse
    (rank tolerance 1e-10 relative) keeps rank-deficient interference, e.g.
    repeated target directions, well behaved. Columns are normalized to unit
    norm; if the projector annihilates a column the uplink direction lies
    inside the interference span and :class:`DegenerateCombinerError` is
    raised.

    On a stack each matrix keeps its own rank: the singular vectors beyond it
    are masked to zero. The error then marks the degenerate matrices and
    carries the others' combiners.
    """
    h_ul = np.asarray(h_ul_eff, dtype=complex)
    h_int = np.asarray(h_rad_int_eff, dtype=complex)
    if h_ul.shape[-2] != h_int.shape[-2]:
        raise ValueError("uplink and interference channels disagree on RX chains")
    u, _, _ = np.linalg.svd(h_ul, full_matrices=False)
    if n_streams < 1 or n_streams > u.shape[-1]:
        raise ValueError(f"cannot extract {n_streams} streams from shape {h_ul.shape}")
    x = _fix_phase(u[..., :n_streams])

    sing_u, sing_vals, _ = np.linalg.svd(h_int, full_matrices=False)
    # singular values descend, so the kept columns are each matrix's rank;
    # an all-zero matrix keeps none
    keep = sing_vals > _RANK_TOL_REL * sing_vals[..., :1]
    basis = sing_u * keep[..., None, :]
    w = x - basis @ (np.swapaxes(basis, -1, -2).conj() @ x)
    norms = np.linalg.norm(w, axis=-2)
    failed = np.any(norms < 1e-9, axis=-1)
    if failed.any():
        w = np.where(failed[..., None, None], x, w / np.where(failed[..., None], 1.0, norms)[..., None, :])
        raise DegenerateCombinerError(
            "uplink direction lies inside the radar interference span",
            failed=failed, combiner=w,
        )
    return w / norms[..., None, :]


def mss_rx_combiner(h_ul_eff: np.ndarray, n_streams: int) -> np.ndarray:
    """Baseline combiner: top left singular vectors, no interference nulling (stacks too)."""
    h_ul = np.asarray(h_ul_eff, dtype=complex)
    u, _, _ = np.linalg.svd(h_ul, full_matrices=False)
    if n_streams < 1 or n_streams > u.shape[-1]:
        raise ValueError(f"cannot extract {n_streams} streams from shape {h_ul.shape}")
    return _fix_phase(u[..., :n_streams])


def user_beamformers(
    h_dl_hat: np.ndarray, h_ul_hat: np.ndarray, st: int, p_u_watts: float
):
    """DL user combiner (top st left singular vectors) and UL precoder.

    The uplink precoder is the first right singular vector of the uplink
    estimate scaled so ||v||^2 equals the uplink power budget. Stacks of
    estimates give stacks of combiners and precoders.
    """
    h_dl = np.asarray(h_dl_hat, dtype=complex)
    h_ul = np.asarray(h_ul_hat, dtype=complex)
    u, _, _ = np.linalg.svd(h_dl, full_matrices=False)
    if st < 1 or st > u.shape[-1]:
        raise ValueError(f"cannot extract {st} streams from shape {h_dl.shape}")
    w_u = _fix_phase(u[..., :st])
    _, _, vh = np.linalg.svd(h_ul, full_matrices=False)
    v_u = _fix_phase(vh[..., 0, :, None].conj())[..., 0] * np.sqrt(p_u_watts)
    return w_u, v_u


def _at_step(exc: Exception, step: str) -> Exception:
    """``exc`` with the failing design step named in its message."""
    exc.args = (f"beamformer design failed at step '{step}': {exc}",)
    return exc


def run_algorithm1(est: EstimatedChannels, cfg) -> HybridBeamformers:
    """Execute the full beamformer design from estimated channels.

    ``cfg`` is a :class:`~fdisac.config.ScenarioConfig`. Steps run in order
    (user beamformers, TX analog, RX analog, channel compression, cancellers,
    TX digital precoder, power normalization, NSP combiner); sub-operation
    failures are re-raised with the failing step named.

    ``est`` may be a stack of estimates along leading axes, designed as one
    stack; the TX precoder alone runs trial by trial. A step that fails for
    single trials (the precoder, the NSP combiner) records the step-named
    error in :attr:`HybridBeamformers.errors` and the other trials continue;
    a single design raises it. A step that fails for the whole stack raises.
    """
    st = cfg.n_streams
    p_b = cfg.p_b_watts
    p_u = cfg.p_u_watts
    lam = cfg.lambda_b_watts
    lead = np.shape(est.h_dl_hat)[:-2]
    errors = [None] * math.prod(lead)

    step = "user beamformers"
    try:
        w_u, v_u = user_beamformers(est.h_dl_hat, est.h_ul_hat, st, p_u)

        step = "TX analog codebook search"
        cb_tx = dft_codebook(cfg.tx_antennas_per_rf, cfg.codebook_bits)
        v_rf = select_tx_analog(est.h_rad_hat, cb_tx, cfg.tx_rf_chains)

        step = "RX analog codebook search"
        cb_rx = dft_codebook(cfg.rx_antennas_per_rf, cfg.codebook_bits)
        w_rf = select_rx_analog(est.h_rad_hat, est.h_bb_hat, v_rf, cb_rx)

        step = "channel compression"
        w_h = np.swapaxes(w_rf.assembled, -1, -2).conj()
        h_tilde_hat = w_h @ est.h_bb_hat @ v_rf.assembled
        h_dl_eff = est.h_dl_hat @ v_rf.assembled

        step = "canceller construction"
        cancellers = build_cancellers(h_tilde_hat, cfg.analog_taps)
        # Conjugated rows of the post-analog-canceller SI matrix: with
        # t_r = conj(row_r), the constrained quantity ||V^H t_r||^2 equals the
        # physical per-chain residual ||row_r @ V||^2 that reaches the ADC.
        leak_vecs = (h_tilde_hat + cancellers.analog).conj()

        step = "TX digital precoder"
        _, _, vh = np.linalg.svd(h_dl_eff, full_matrices=False)
        v_right = _fix_phase(np.swapaxes(vh, -1, -2)[..., :st].conj())
        g_target = h_dl_eff @ v_right * np.sqrt(p_b / st)
        # a trial whose precoder fails keeps V = 0, which no later step rejects
        v_bb = np.zeros(lead + (h_dl_eff.shape[-1], st), dtype=complex)
        per_trial = [a.reshape(-1, *a.shape[-2:]) for a in (v_bb, h_dl_eff, leak_vecs, g_target)]
        for i, (v, h, t_rows, g) in enumerate(zip(*per_trial)):
            try:
                v[...] = numeric_tx_precoder(h, t_rows, lam, g)
            except Exception as exc:
                errors[i] = _at_step(exc, step)

        step = "power normalization"
        # down-scaling columns can only lower the per-chain leakage
        v_bb = power_normalize(v_rf, v_bb, p_b)
        total = tx_power(v_rf, v_bb)
        if (total > p_b).any():
            v_bb = v_bb * np.sqrt(p_b / np.maximum(total, p_b))[..., None, None]

        step = "NSP combiner"
        h_ul_eff = w_h @ est.h_ul_hat
        if cfg.rx_rf_chains == 1:
            # a single RX chain leaves no null space to project into; the
            # non-nulling singular-vector combiner is the only choice
            w_bb = mss_rx_combiner(h_ul_eff, n_streams=1)
        else:
            try:
                w_bb = nsp_rx_combiner(h_ul_eff, w_h @ est.h_rad_int_hat, n_streams=1)
            except DegenerateCombinerError as exc:
                w_bb = exc.combiner
                _at_step(exc, step)
                for i in np.flatnonzero(exc.failed):
                    errors[i] = errors[i] or exc
    except Exception as exc:
        _at_step(exc, step)
        raise

    return _settled(HybridBeamformers(
        v_b_rf=v_rf,
        v_b_bb=v_bb,
        w_b_rf=w_rf,
        w_b_bb=w_bb,
        w_u=w_u,
        v_u_bb=v_u,
        cancellers=cancellers,
        errors=tuple(errors),
    ))
