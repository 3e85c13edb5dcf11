"""Joint A/D beamformer design for the full-duplex ISAC base station.

The design runs as an ordered sequence of sub-problems:

  1. user-side combiner and uplink precoder from SVDs of the estimated
     downlink/uplink channels,
  2. per-chain codebook search for the TX analog beamformer (radar gain),
  3. per-chain codebook ratio search for the RX analog beamformer (radar gain
     over SI leakage),
  4. analog canceller construction from the compressed SI estimate,
  5. TX digital precoder: constrained least squares toward the SVD-ideal
     downlink target with a per-RX-chain SI leakage cap, solved through its
     Lagrangian dual by projected Newton on the per-chain multipliers (one
     solver for any number of RX chains; with one chain it reproduces the
     closed form),
  6. the TX power budget: per-column, then total power normalization,
  7. uplink digital combiner: null-space projection away from the radar
     interference subspace.

Every step takes a stack of trials along leading axes (a single matrix is a
stack with none). A step that can fail for one problem of its stack (the TX
precoder, the NSP combiner) returns an ``errors`` tuple, one entry per
problem of the flattened stack: None or that problem's exception. A trial
that fails a step is recorded in :attr:`HybridBeamformers.errors` and the
other trials continue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import dft_codebook
from .beamforming import assemble_analog
from .cancellers import build_cancellers
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

# A guard's comment names the tier-1 test that fails with the guard set to 0.
_RATIO_GUARD = 1e-12  # RX ratio search ridge (test_rx_analog_zero_si_reduces_to_gain_search)
_RANK_TOL_REL = 1e-10  # relative singular-value noise floor (test_criterion_1_doa_recovery)
_EPS = float(np.finfo(float).eps)
# TX precoder dual solver
_NULL_RIDGE_REL = 1e-12  # null(H) ridge, relative to the mean squared singular value
# largest relative scale the final feasibility step may apply
# (test_criterion_4_closed_form_vs_numeric_precoder)
_GUARD_MAX_REL = 1e-9
_ARMIJO = 1e-4  # sufficient-increase fraction of the dual line search
_MAX_SOLVES = 200  # cap on evaluations of V(zeta)
_KKT_TOL = 1e-12  # Newton stop: the largest projected gradient relative to lambda_b
# Newton system eigenvalues below this fraction of the largest are zero
# (test_precoder_completes_every_trial_with_more_leakage_rows_than_tx_chains[55.0])
_RCOND = 1e-14


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


def build_estimated_channels(doas_deg: np.ndarray, h_bb_hat: np.ndarray, cfg) -> EstimatedChannels:
    """Reconstruct channel estimates from estimated directions.

    ``cfg`` is a :class:`~fdisac.config.ScenarioConfig`. It sets the array
    sizes, and ``doas_deg`` (..., K) follows the order of its objects: the
    downlink scatterers, the other passive targets, then the uplink user.
    Scatterer directions feed the downlink estimate; all but the user's form
    the radar interference estimate; the user's adds the final radar term and
    defines the uplink estimate. Gains are not estimated, so every term is a
    unit-gain path of :func:`~fdisac.channels.gen_dl_channel`.

    Leading axes of ``doas_deg``, shared by ``h_bb_hat``, give a stack of
    estimates, one per trial.
    """
    n_scatterers, m_b, n_b = len(cfg.dl_scatterers), cfg.n_rx_antennas, cfg.n_tx_antennas
    m_u, n_u = cfg.dl_user_antennas, cfg.ul_user_antennas
    interferers, ul_doa_deg = doas_deg[..., :-1], doas_deg[..., -1]
    h_int = gen_dl_channel(np.ones(interferers.shape[-1]), interferers, m_b, n_b)
    h_rad = h_int + gen_ul_channel(1.0, ul_doa_deg, m_b, n_b)
    h_dl = gen_dl_channel(np.ones(n_scatterers), doas_deg[..., :n_scatterers], m_u, n_b)
    h_ul = gen_ul_channel(1.0, ul_doa_deg, m_b, n_u)
    return EstimatedChannels(
        h_rad_hat=h_rad,
        h_rad_int_hat=h_int,
        h_dl_hat=h_dl,
        h_ul_hat=h_ul,
        h_bb_hat=h_bb_hat,
    )


@dataclass(frozen=True)
class HybridBeamformers:
    """Full beamformer solution for one slot, or a stack of them (one per trial).

    ``h_tilde_hat`` is the compressed SI estimate W_rf^H H_si_hat V_rf,
    ``analog_canceller`` its C of :func:`~fdisac.cancellers.build_cancellers`
    and ``kkt_residual`` the TX precoder's KKT residual per trial
    (:func:`numeric_tx_precoder`).
    ``errors`` holds one entry per trial of a stack (leading axes flattened):
    None, or the exception that failed the trial's design. A failed trial's
    arrays hold finite stand-ins and carry no meaning.
    """

    v_b_rf: np.ndarray
    v_b_bb: np.ndarray
    w_b_rf: np.ndarray
    w_b_bb: np.ndarray
    w_u: np.ndarray
    v_u_bb: np.ndarray
    h_tilde_hat: np.ndarray
    analog_canceller: np.ndarray
    kkt_residual: np.ndarray | None = None
    errors: tuple = ()


def _fix_phase(m: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry above 1e-12 of its largest is real positive.

    Works on the last two axes of a stack; all-zero columns are left as they are.
    The 1e-12 guard (test_user_combiner_phase_ignores_rounding_level_entries)
    skips an entry the SVD left at rounding level, of no set phase.
    """
    mags = np.abs(m)
    first = (mags > 1e-12 * mags.max(axis=-2, keepdims=True)).argmax(axis=-2)
    # the first significant entry of each column, summed out of a one-hot mask
    pivot = (m * (np.arange(m.shape[-2])[:, None] == first[..., None, :])).sum(axis=-2)
    mag = np.abs(pivot)
    return m * (pivot.conj() / (mag + (mag == 0.0)))[..., None, :]


def _principal(h: np.ndarray, n: int, right: bool = False) -> np.ndarray:
    """The top ``n`` left (``right``: right) singular vectors of ``h``, phase-fixed (stacks too)."""
    u, _, vh = np.linalg.svd(h, full_matrices=False)
    vecs = np.swapaxes(vh, -1, -2).conj() if right else u
    return _fix_phase(vecs[..., :n])


def select_tx_analog(h_rad_hat: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Per-chain codebook search maximizing the radar channel gain.

    Each codebook length of TX columns is one chain. The Frobenius objective
    ||H V_rf||^2 decomposes over the block-diagonal columns, so each chain's
    beam is chosen independently as argmax_v ||H[:, block_i] v||^2. Ties
    resolve to the lowest codebook index.
    A stack of channels gives a stack of networks; the search loops over the
    chains, so no per-chain score tensor of the whole stack is formed.
    """
    n_a = cb.shape[-1]
    n_rf = h_rad_hat.shape[-1] // n_a
    cb_t = cb.T
    idx = np.empty(h_rad_hat.shape[:-2] + (n_rf,), dtype=int)
    for i in range(n_rf):
        scores = np.linalg.norm(h_rad_hat[..., i * n_a : (i + 1) * n_a] @ cb_t, axis=-2) ** 2
        idx[..., i] = np.argmax(scores, axis=-1)
    return assemble_analog(cb[idx])


def select_rx_analog(
    h_rad_hat: np.ndarray,
    h_bb_hat: np.ndarray,
    v_b_rf: np.ndarray,
    cb: np.ndarray,
) -> np.ndarray:
    """Per-chain codebook ratio search: radar return over SI leakage.

    Chain j maximizes its own contribution ratio n_j(w) / (d_j(w) + eps) where
    n_j and d_j are the row-block-j terms of ||W^H H_rad V_rf||^2 and
    ||W^H H_si V_rf||^2. Exact for a single RX chain; a tractable
    per-chain decomposition otherwise. Stacks of channels and TX networks
    give a stack of networks. All chains are scored at once: the scores
    hold one entry per chain, codebook beam and TX chain, never per antenna.
    """
    radar_eff = h_rad_hat @ v_b_rf
    si_eff = h_bb_hat @ v_b_rf
    m_a = cb.shape[-1]
    lead, (m_b, n_rf) = radar_eff.shape[:-2], radar_eff.shape[-2:]
    chains = lead + (m_b // m_a, m_a, n_rf)
    conj_cb = cb.conj()
    num = np.linalg.norm(conj_cb @ radar_eff.reshape(chains), axis=-1) ** 2
    den = np.linalg.norm(conj_cb @ si_eff.reshape(chains), axis=-1) ** 2
    idx = np.argmax(num / (den + _RATIO_GUARD), axis=-1)
    return assemble_analog(cb[idx])


def _newton_step(hess: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution of ``hess s = d`` for the symmetric
    ``hess``, by its eigendecomposition; singular along repeated rows, for example."""
    if not d.size:  # every row is held at zero
        return d
    w, q = np.linalg.eigh(hess)  # ascending, so the largest modulus is at an end
    w[np.abs(w) <= _RCOND * max(-w[0], w[-1])] = np.inf  # no step along a zero eigenvalue
    return q @ ((d @ q) / w)


def _dual_newton(r_basis, sig, rank, g_fit, lam):
    """Projected Newton on the dual of one problem of :func:`numeric_tx_precoder`,
    in its singular basis from zeta = 0. Returns V, zeta and the solves made."""
    n, st = r_basis.shape[1], g_fit.shape[1]
    diag = np.full(n, _NULL_RIDGE_REL * float(np.mean(sig**2)) if rank else 1.0)
    diag[:rank] = sig[:rank] ** 2
    # the objective term of the dual, ridge included: ||fit_w * x - target||^2
    fit_w = np.sqrt(diag)[:, None]
    fit_w[:rank, 0] = sig[:rank]
    target = np.zeros((n, st), dtype=complex)
    target[:rank] = g_fit[:rank]
    r_h = r_basis.conj().T
    diag_m = np.diag(diag).astype(complex)
    rhs = np.concatenate([fit_w * target, r_h], axis=1)

    def solved(sol, zeta):
        """V(zeta), the dual's gradient c - lambda_b, its -Hessian and the largest
        projected gradient relative to lambda_b, from sol = A(zeta)^-1 rhs."""
        rs = r_basis @ sol
        ww = rs[:, :st].conj() @ rs[:, :st].T  # conj(W W^H), the leakages c on its diagonal
        d = ww.real.diagonal() - lam
        pg = np.where(zeta > 0, np.abs(d), d).max(initial=0.0) / lam
        return sol[:, :st], d, 2.0 * (rs[:, st:] * ww).real, pg

    def evaluate(zeta):
        a = diag_m + (r_h * zeta) @ r_basis
        jac = a.real.diagonal() ** -0.5  # Jacobi scaling
        jac_col = jac[:, None]
        a *= jac_col
        a *= jac
        return solved(jac_col * np.linalg.solve(a, jac_col * rhs), zeta)

    def dual_value(x, d, zeta):
        fit = fit_w * x - target
        return float(np.vdot(fit, fit).real + zeta @ d)

    zeta = np.zeros(r_basis.shape[0])
    x, d, hess, pg = solved(rhs / diag[:, None], zeta)
    dual = dual_value(x, d, zeta)
    iterations = 1
    while pg > _KKT_TOL and iterations < _MAX_SOLVES:
        # Bertsekas' epsilon-active set: eps is the largest diagonally scaled
        # projected-gradient step; rows within it of zero that point down step to 0
        with np.errstate(divide="ignore"):  # a zero row has no curvature
            eps = np.abs(zeta - np.maximum(zeta + d / hess.diagonal(), 0.0)).max()
        free = (zeta > eps) | (d >= 0)
        step = -zeta  # a full step takes the held rows to zero
        step[free] = _newton_step(hess[free][:, free], d[free])
        # rounding of the dual value: its terms, not their sum, set the scale
        noise = 64 * _EPS * (abs(dual) + zeta @ (d + 2.0 * lam))
        alpha, trial = 1.0, np.maximum(zeta + step, 0.0)
        while True:
            result = evaluate(trial)
            iterations += 1
            gain = float(d @ (trial - zeta))  # first-order increase of the dual
            value = dual_value(result[0], result[1], trial)
            # Armijo where the dual value can rank the step, else a fall of pg
            if (value >= dual + _ARMIJO * gain) if gain > noise else (result[3] < pg):
                break
            alpha *= 0.5
            trial = np.maximum(zeta + alpha * step, 0.0)
            if alpha < _EPS or np.array_equal(trial, zeta):  # no shorter step moves zeta
                return x, zeta, iterations  # no step passes: the final guard judges this point
        zeta, dual, (x, d, hess, pg) = trial, value, result
    return x, zeta, iterations


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
    (Bertsekas, SIAM J. Control Optim. 20(2), 1982) on its epsilon-active
    set: with eps the largest diagonally scaled projected-gradient step, rows
    with zeta_r <= eps whose gradient points below zero step to zero and the
    rest take a Newton step. Each step is halved until it passes one test:
    Armijo on the dual value where its first-order gain exceeds the dual's
    rounding noise, else a strict fall of the largest projected gradient.
    The iteration stops once that gradient is within 1e-12 lambda_b, or when
    no step passes, which leaves the point to the final step below.

    V(zeta) is solved in the right singular basis of H, which makes null(H)
    explicit: H has rank below its column count in every scenario, so the
    normal matrix is singular. The null block carries a ridge of 1e-12 times
    the mean squared singular value, so when the optimum is a whole face
    (H V = G reachable inside the leakage set) the result is its
    minimum-norm point. The ridge adds ridge * V to the stationarity
    residual on null(H), linear in it: 2.4e-10 of ||H^H G|| on a 3x8 H with
    five active rows.
    With one row the iteration converges to the
    Sherman-Morrison closed form of the single-RX-chain case.

    A stack of problems along leading axes is solved at zeta = 0 at once,
    where V(0) = pinv(H) G in closed form; only the problems with a row above
    lambda_b then run the Newton iteration, one at a time, because its length
    depends on the data. The iteration runs on the rows that can bind, and
    the others' multipliers are 0: a zero row never binds, so it stays out,
    and with one TX chain row r states |t_r|^2 ||V||^2 <= lambda_b, so only
    the row of largest modulus runs.

    Final step, the only one that changes the Newton solution: V is scaled
    by min(1, sqrt(lambda_b / max_r(c_r + e_r))), where e_r bounds the
    rounding of the computed c_r, so every c_r is <= lambda_b in floating
    point, also after later column down-scaling. A scale below 1 - 1e-9
    fails the problem, as does an exception in its Newton iteration; a
    failed problem's V is 0.
    ``lambda_b_watts`` is positive; ``inf`` returns the minimum-norm least-squares solution.

    With ``return_info`` the result is ``(V, info)`` and nothing fails
    loudly; ``info`` holds ``iterations`` (linear solves over the stack,
    >= 1 per problem), ``multipliers`` (zeta, > 0 on the active rows),
    ``kkt_residual`` per problem: the largest of the stationarity residual
    relative to ||H^H G||, the constraint violation relative to lambda_b,
    and the complementary slackness sum_r zeta_r |c_r - lambda_b| relative
    to ||G||^2, the objective at V = 0, and ``errors``: per problem of the
    flattened stack None or its error (a failed problem's other entries are
    stand-ins). Without it, any failure raises one
    :class:`InfeasibleResultError` with the first failed problem's message.
    """
    rows = t_rows.conj()  # c_r = ||row_r @ V||^2
    lam = float(lambda_b_watts)
    lead, n = h_dl_eff.shape[:-2], h_dl_eff.shape[-1]
    # a flat stack of problems; rows without leading axes are shared by all
    h, g, rows = (a.reshape((-1,) + a.shape[-2:]) for a in (h_dl_eff, g_target, rows))
    if np.isinf(lam):
        rows = rows[:, :0]  # no row can bind

    u, sig, wh = np.linalg.svd(h)
    k = sig.shape[-1]
    keep = sig > _RANK_TOL_REL * sig[:, :1]  # sig descends: each problem keeps a prefix
    rank = keep.sum(axis=-1)
    basis = np.swapaxes(wh, -1, -2).conj()
    g_fit = keep[..., None] * (np.swapaxes(u[..., :k], -1, -2).conj() @ g)  # the part H can reach
    x = np.zeros((len(h), n, g.shape[-1]), dtype=complex)
    x[:, :k] = g_fit / np.where(keep, sig, 1.0)[..., None]  # V(0) = pinv(H) G
    r_basis = rows @ basis
    zeta = np.zeros(r_basis.shape[:2])
    iterations = np.ones(len(h), dtype=int)
    binding = (np.linalg.norm(r_basis @ x, axis=-1) ** 2 > lam).any(axis=-1)
    errors = [None] * len(h)
    for i in np.flatnonzero(binding):
        # the rows that can bind: every nonzero row, but with one TX chain the largest alone
        live = np.flatnonzero(r_basis[i].any(axis=-1)) if n > 1 else [np.abs(r_basis[i]).argmax()]
        try:
            x[i], zeta[i, live], iterations[i] = _dual_newton(
                r_basis[i, live], sig[i], rank[i], g_fit[i], lam)
        except Exception as exc:  # fails this problem only, with V = 0
            x[i], errors[i] = 0.0, exc

    v = basis @ x
    w = rows @ v
    leak = np.linalg.norm(w, axis=-1) ** 2
    # rounding bound of the computed sums |row_r . v_col|^2
    err = 4 * (n + 2) * _EPS * np.sqrt(leak) * np.linalg.norm(np.abs(rows) @ np.abs(v), axis=-1)
    worst = (leak + err).max(axis=-1, initial=0.0)
    scale = np.maximum(worst / lam, 1.0) ** -0.5
    failed = scale < 1.0 - _GUARD_MAX_REL
    v *= scale[:, None, None]
    for i in np.flatnonzero(failed):
        loop = np.linalg.norm(r_basis[i] @ x[i], axis=-1).max() ** 2 / lam
        errors[i] = InfeasibleResultError(
            f"leakage {leak[i].max() / lam:.9f} x threshold ({loop:.9f} x in the Newton basis; "
            f"guard's sums round within {err[i].max() / lam:.2g} x) after {iterations[i]} solves")
    v[[e is not None for e in errors]] = 0.0
    if not return_info:
        if any(errors):
            raise InfeasibleResultError(str(next(filter(None, errors))))
        return v.reshape(lead + v.shape[1:])
    w, leak = w * scale[:, None, None], leak * scale[:, None] ** 2
    tiny = np.finfo(float).tiny
    h_h = np.swapaxes(h, -1, -2).conj()
    grad = h_h @ (h @ v - g) + np.swapaxes(rows, -1, -2).conj() @ (zeta[..., None] * w)
    grad_norm, rhs_norm, g_norm = (np.linalg.norm(a, axis=(-2, -1)) for a in (grad, h_h @ g, g))
    kkt = np.maximum.reduce([
        grad_norm / np.maximum(rhs_norm, tiny),
        np.maximum(leak.max(axis=-1, initial=0.0) / lam - 1.0, 0.0),
        (zeta * np.abs(leak - lam)).sum(axis=-1) / np.maximum(g_norm**2, tiny),
    ])
    zeta = zeta.reshape(lead + zeta.shape[1:])
    return v.reshape(lead + v.shape[1:]), {
        "iterations": int(iterations.sum()),
        "multipliers": zeta,
        "kkt_residual": kkt.reshape(lead)[()],
        "errors": tuple(errors),
    }


def power_normalize(v_rf: np.ndarray, v_bb: np.ndarray, p_b_watts: float) -> np.ndarray:
    """The TX power budget: cap each column of V_rf @ V_bb at ``p_b_watts``, then the total.

    A column above the budget is brought back to exactly the budget by
    scaling its column of V_bb (paper step 6); a design whose total power
    still exceeds the budget is then scaled as a whole to exactly the budget.
    Compliant columns and designs are scaled by 1 (a zero one is no 0 / 0).
    Works on stacks of networks and precoders.
    """
    for axis in (-2, (-2, -1)):  # the columns, then the whole precoder
        power = np.linalg.norm(v_rf @ v_bb, axis=axis, keepdims=True) ** 2
        v_bb = v_bb * np.sqrt(np.divide(p_b_watts, power, out=np.ones_like(power),
                                        where=power > p_b_watts))
    return v_bb


def nsp_rx_combiner(h_ul_eff: np.ndarray, h_rad_int_eff: np.ndarray):
    """Uplink digital combiner constrained to null the radar interference.

    The candidate x is the principal left singular vector of the effective
    uplink channel (the UL user sends one stream); projecting x onto the
    orthogonal complement of the interference column space,
    w = (I - A^H (A A^H)^+ A) x with A = h_rad_int_eff^H, zeroes
    w^H h_rad_int_eff exactly. The pseudo-inverse (rank tolerance 1e-10
    relative) keeps rank-deficient interference, e.g. repeated target
    directions, well behaved. If the projector annihilates the column, the
    uplink direction lies inside the interference span: the matrix fails and
    keeps its unprojected candidate. Each column is normalized to unit norm.

    On a stack each matrix keeps its own rank: the singular vectors beyond it
    are masked to zero. Returns ``(w, errors)``, ``errors`` holding per
    matrix of the flattened stack None or its :class:`DegenerateCombinerError`.
    """
    x = _principal(h_ul_eff, 1)

    sing_u, sing_vals, _ = np.linalg.svd(h_rad_int_eff, full_matrices=False)
    # singular values descend, so the kept columns are each matrix's rank;
    # an all-zero matrix keeps none
    keep = sing_vals > _RANK_TOL_REL * sing_vals[..., :1]
    basis = sing_u * keep[..., None, :]
    w = x - basis @ (np.swapaxes(basis, -1, -2).conj() @ x)
    failed = (np.linalg.norm(w, axis=-2) < 1e-9).any(axis=-1)
    w = np.where(failed[..., None, None], x, w)
    errors = tuple(DegenerateCombinerError("uplink direction lies inside the radar interference span")
                   if f else None for f in failed.ravel())
    return w / np.linalg.norm(w, axis=-2, keepdims=True), errors


def mss_rx_combiner(h_ul_eff: np.ndarray) -> np.ndarray:
    """Baseline UL combiner: the principal left singular vector, no nulling (stacks too)."""
    return _principal(h_ul_eff, 1)


def user_beamformers(
    h_dl_hat: np.ndarray, h_ul_hat: np.ndarray, st: int, p_u_watts: float
):
    """DL user combiner (top st left singular vectors) and UL precoder.

    The uplink precoder is the first right singular vector of the uplink
    estimate scaled so ||v||^2 equals the uplink power budget. Stacks of
    estimates give stacks of combiners and precoders.
    """
    w_u = _principal(h_dl_hat, st)
    v_u = _principal(h_ul_hat, 1, right=True)[..., 0] * np.sqrt(p_u_watts)
    return w_u, v_u


def _at_step(exc: Exception | None, step: str) -> Exception | None:
    """``exc`` with the failing design step named in its message; None stays None."""
    if exc is not None:
        exc.args = (f"beamformer design failed at step '{step}': {exc}",)
    return exc


def run_algorithm1(est: EstimatedChannels, cfg) -> HybridBeamformers:
    """Execute the full beamformer design from estimated channels.

    ``cfg`` is a :class:`~fdisac.config.ScenarioConfig`. Steps run in order
    (user beamformers, TX analog, RX analog, channel compression, analog canceller,
    TX digital precoder, power normalization, NSP combiner); sub-operation
    failures are re-raised with the failing step named. The precoder has no
    power term: :func:`power_normalize` alone sets the TX budget.

    ``est`` may be a stack of estimates along leading axes, designed as one
    stack (a single one is a stack of one). A step that fails for single
    trials (the precoder, the NSP combiner) returns their errors; the
    step-named error of each failed trial goes to
    :attr:`HybridBeamformers.errors` and the other trials continue. A step
    that fails for the whole stack raises.
    """
    st = cfg.n_streams
    p_b = cfg.p_b_watts
    p_u = cfg.p_u_watts
    lam = cfg.lambda_b_watts

    step = "user beamformers"
    try:
        w_u, v_u = user_beamformers(est.h_dl_hat, est.h_ul_hat, st, p_u)

        step = "TX analog codebook search"
        cb_tx = dft_codebook(cfg.tx_antennas_per_rf, cfg.codebook_bits)
        v_rf = select_tx_analog(est.h_rad_hat, cb_tx)

        step = "RX analog codebook search"
        cb_rx = dft_codebook(cfg.rx_antennas_per_rf, cfg.codebook_bits)
        w_rf = select_rx_analog(est.h_rad_hat, est.h_bb_hat, v_rf, cb_rx)

        step = "channel compression"
        w_h = np.swapaxes(w_rf, -1, -2).conj()
        h_tilde_hat = w_h @ est.h_bb_hat @ v_rf
        h_dl_eff = est.h_dl_hat @ v_rf

        step = "canceller construction"
        analog_canceller = build_cancellers(h_tilde_hat, cfg.analog_taps)
        # Conjugated rows of the post-analog-canceller SI matrix: with
        # t_r = conj(row_r), the constrained quantity ||V^H t_r||^2 equals the
        # physical per-chain residual ||row_r @ V||^2 that reaches the ADC.
        leak_vecs = (h_tilde_hat + analog_canceller).conj()

        step = "TX digital precoder"
        g_target = h_dl_eff @ _principal(h_dl_eff, st, right=True) * np.sqrt(p_b / st)
        # a trial whose precoder fails keeps V = 0, which no later step rejects
        v_bb, info = numeric_tx_precoder(h_dl_eff, leak_vecs, lam, g_target, return_info=True)
        errors = [_at_step(e, step) for e in info["errors"]]

        step = "power normalization"
        # down-scaling columns can only lower the per-chain leakage
        v_bb = power_normalize(v_rf, v_bb, p_b)

        step = "NSP combiner"
        w_bb, nsp_errors = nsp_rx_combiner(w_h @ est.h_ul_hat, w_h @ est.h_rad_int_hat)
        # a trial keeps the first step that failed it
        errors = [e or _at_step(n, step) for e, n in zip(errors, nsp_errors)]
    except Exception as exc:
        _at_step(exc, step)
        raise

    return HybridBeamformers(
        v_b_rf=v_rf,
        v_b_bb=v_bb,
        w_b_rf=w_rf,
        w_b_bb=w_bb,
        w_u=w_u,
        v_u_bb=v_u,
        h_tilde_hat=h_tilde_hat,
        analog_canceller=analog_canceller,
        kkt_residual=info["kkt_residual"],
        errors=tuple(errors),
    )
