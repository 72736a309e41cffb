"""Value-function ansatz, lifted costs, feedback synthesis, and the
Bellman residual check.

Measures enter only through (mean, covariance): for a law with those
moments, Var(mu)(M) = tr(M Cov), so every expression here is a closed
moment form. The Bellman residual re-assembles the identity the Riccati
system was derived from, with time derivatives taken by fourth-order
finite differences of the stored solution, centered, or one-sided near a
knot of the coefficients — an independent consistency check (using the ODE
right-hand sides would make it zero by construction).
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfDomainError
from .model import AffineFeedback, LqModel, MomentState
from .riccati import RiccatiSolution, _solved_aux, _unpack


def value(sol: RiccatiSolution, t: float, ms: MomentState) -> float:
    """tr(Lam(t) Cov) + mean'Gam(t) mean + gam(t).mean + chi(t)."""
    sol.model.check_law(ms)
    st = sol.at(t)
    m = ms.mean
    return float(np.trace(st.Lam @ ms.cov) + m @ st.Gam @ m + st.gam @ m + st.chi)


def g_hat(model: LqModel, ms: MomentState) -> float:
    """Lifted terminal cost tr(P2 Cov) + mean'(P2+P2bar) mean + (p1+p1bar).mean."""
    model.check_law(ms)
    c = model.cost
    m = ms.mean
    return float(np.trace(c.P2 @ ms.cov) + m @ (c.P2 + c.P2bar) @ m
                 + (c.p1 + c.p1bar) @ m)


def _g_inf(c: dict, P: np.ndarray, ms: MomentState) -> float:
    """Value of the inner minimization over feedback laws at its argmin, at
    the one-row table c, with the augmented pair P = (Lam~, Gam~) stacked
    and m~ = [mean; 1]:

        -tr(S U^{-1} S' Cov) - m~'Z~ V^{-1} Z~' m~
    """
    d = ms.d
    _, (S, Z), (Ui_St, Vi_Zt) = _solved_aux(c, 0, P)
    m = np.append(ms.mean, 1.0)
    return float(-np.trace(S[:d] @ Ui_St[:, :d] @ ms.cov) - m @ Z @ Vi_Zt @ m)


def optimal_gains(model: LqModel, sol: RiccatiSolution, times):
    """Gains of the minimizing law at every time in ``times``, stacked on
    a leading axis; they are -W, W = (U^{-1}S~', V^{-1}Z~') (riccati module
    docstring), split as

        K1 = -U^{-1}S',  K2 = -V^{-1}Z',  k = -1/2 V^{-1} Y.

    The solution's states come from its Hermite table and the coefficients
    from the model's table; U and V go through the solve's own factorization
    and check (one stacked eigh of the (U, V) pair), so they pass its
    positivity floor and condition cap at every time. Each row depends on
    its own time alone. A breakdown carries the earliest failing time.
    """
    d = model.dims.d
    rows = sol._rows(times)
    P = np.moveaxis(rows.reshape(rows.shape[:-1] + (2, d + 1, d + 1)), -3, 0)
    W = _solved_aux(model.table(times), ..., P)[2]
    return -W[0, ..., :d], -W[1, ..., :d], -W[1, ..., d]


def optimal_feedback(model: LqModel, sol: RiccatiSolution) -> AffineFeedback:
    """Synthesize the minimizing law

        a*(t, x, mu) = -U^{-1}S' (x - mean) - V^{-1}Z' mean - 1/2 V^{-1} Y.

    Gains are synthesised in batch (optimal_gains) over the stage times a
    caller tabulates, through the solution's Hermite interpolation, so K1,
    K2, k inherit the integrator's accuracy at every t, not only at grid
    knots. A pointwise gain is the one-row batch.
    """
    return AffineFeedback(table=lambda times: optimal_gains(model, sol, times))


def bellman_residual(model: LqModel, sol: RiccatiSolution, t: float,
                     ms: MomentState) -> float:
    """Residual of the dynamic-programming identity at (t, ms); 0 for the
    exact solution.

    Time derivatives of (Lam, Gam, gam, chi) are fourth-order centered
    differences (Fornberg 1988) over t +- h, t +- 2h, h the grid step, so t
    lies at least 2h inside (0, T) and the residual is bounded by the
    finite-difference plus integrator error, not zero. Within 2h of an
    interior knot of the model's knot groups, where the second derivative
    of the solution jumps, the difference is the one-sided fourth-order one
    over t, t + sh, ..., t + 4sh on the side s that holds no knot
    (_knot_free_side). The grouping mirrors the identification that
    produced the ODE system: the Var(.) block, the mean-quadratic block,
    the mean-linear block (including gam'), and the scalar block, plus the
    minimized inner objective. Coefficients come from the one-row model
    table at t, as in the solve. The four blocks are
    summed here, not taken from the solver's right-hand side (_rhs): that
    keeps the residual an independent check of a transcription error in
    _rhs. Only the minimized inner objective (_g_inf) shares the solver's
    U/V inversion.
    """
    model.check_law(ms)
    dt = sol.step
    if not (t - 2.0 * dt >= 0.0 and t + 2.0 * dt <= sol.horizon):
        raise OutOfDomainError(
            f"t={t} must be at least two grid steps inside (0, {sol.horizon})")
    side = _knot_free_side(model, t, dt, sol.horizon)

    def derivative(y):
        if side:
            return (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3]
                    - 3.0 * y[4]) / (12.0 * side * dt)
        return (8.0 * (y[2] - y[3]) - y[1] + y[4]) / (12.0 * dt)

    rows = sol._rows(t + dt * (side * np.arange(5.0) if side
                               else np.array([0.0, 2.0, 1.0, -1.0, -2.0])))
    d = model.dims.d
    (Lam, Gam, gam, chi), (dL, dG, dg, dc) = _unpack(rows, d), _unpack(derivative(rows), d)

    c = model.table([t])
    B, BpB, D, DpD, Q2, Q2bar = (c[n][0] for n in ("B", "BpB", "D", "DpD", "Q2", "Q2bar"))
    b0, s0, q1, q1bar = (c[n][0, :, 0] for n in ("b0", "sigma0", "q1", "q1bar"))
    L, G, g = Lam[0], Gam[0], gam[0]
    m, cov = ms.mean, ms.cov

    var_block = dL + Q2 + D.T @ L @ D + L @ B + B.T @ L
    mean_quad = dG + Q2 + Q2bar + DpD.T @ L @ DpD + G @ BpB + BpB.T @ G
    mean_lin = dg + BpB.T @ g + q1 + q1bar + 2.0 * DpD.T @ (L @ s0) + 2.0 * G @ b0
    scalar = dc + g @ b0 + s0 @ (L @ s0)
    return float(np.trace(var_block @ cov) + m @ mean_quad @ m
                 + mean_lin @ m + scalar + _g_inf(c, rows[0].reshape(2, d + 1, d + 1), ms))


def _knot_free_side(model: LqModel, t: float, h: float, horizon: float) -> float:
    """0 when no interior knot lies within 2h of t; otherwise the side s, +1
    or -1, whose interval from t to t + 4sh holds no knot inside it and lies
    in [0, horizon], or 0 when neither side does."""
    knots = np.concatenate([sched.knot_times()[1:-1] for sched, _ in model.knot_groups])
    if not (np.abs(knots - t) < 2.0 * h).any():
        return 0.0
    for side in (1.0, -1.0):
        lo, hi = sorted((t, t + 4.0 * side * h))
        if lo >= 0.0 and hi <= horizon and not ((knots > lo) & (knots < hi)).any():
            return side
    return 0.0
