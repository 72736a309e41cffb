"""Value-function ansatz, lifted costs, feedback synthesis, and the
Bellman residual check.

Measures enter only through (mean, covariance), Var(mu)(M) = tr(M Cov), so
the value and the terminal cost are contractions <P~, S~> of (Lam~, Gam~)
pairs with the law's moment pair S~ = (Cov padded, m~m~') (model._pair_of).
The Bellman residual is the verification theorem in moment form: the law
Hamiltonian H = d/dt <P~, S~> + f = <dP~, S~> + [vec P~, 1] L y, a
contraction of the generator L of an affine law's moment flow y' = L y
(model._flow), must vanish at the synthesised gains, which must be
stationary for it: policy evaluation plus stationarity. It does not use the
solve's right-hand side or minimum, but it reads the solve's LqModel.table
pairs, so an error in those is invisible to it; the moment flow's test
against the particle state equation and the Riccati test catch one.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfDomainError
from .model import AffineFeedback, LqModel, MomentState, _finite, _flow, _law_pairs, _pair_of
from .riccati import RiccatiSolution, _pack, _solved_aux, terminal_state


def value(sol: RiccatiSolution, t: float, ms: MomentState) -> float:
    """tr(Lam(t) Cov) + mean'Gam(t) mean + gam(t).mean + chi(t)."""
    return _contract(sol.model, sol._rows([t])[0], ms)


def g_hat(model: LqModel, ms: MomentState) -> float:
    """Lifted terminal cost tr(P2 Cov) + mean'(P2+P2bar) mean + (p1+p1bar).mean."""
    return _contract(model, _pack(terminal_state(model)), ms)


def _contract(model: LqModel, P: np.ndarray, ms: MomentState) -> float:
    """<P~, S~> over the nonzero P~, as m~m~' may overflow; a ValueError if not finite."""
    model.check_law(ms)
    with np.errstate(over="ignore", invalid="ignore"):  # m~m~' overflows past |mean| 1.3e154
        return float(_finite(P @ np.where(P == 0.0, 0.0, _pair_of(ms).ravel()), "the value"))


def optimal_gains(model: LqModel, sol: RiccatiSolution, times):
    """The minimizing law's AffineFeedback table at ``times``: the gain pair
    K~ = -W, W = (U^{-1}S~', V^{-1}Z~') (riccati module docstring), with a
    zero last column in member 0; its split is

        K1 = -U^{-1}S',  K2 = -V^{-1}Z',  k = -1/2 V^{-1} Y.

    The solution's states are Hermite-interpolated, the coefficients come
    from the model's table; U and V go through the solve's own factorization
    and check (one stacked eigh of the (U, V) pair), so they pass its
    positivity floor and condition cap at every time. Each row depends on
    its own time alone. A breakdown carries the earliest failing time.
    """
    d = model.dims.d
    rows = sol._rows(times)
    P = np.moveaxis(rows.reshape(rows.shape[:-1] + (2, d + 1, d + 1)), -3, 0)
    return -_solved_aux(model.table(times), ..., P)[1]


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
    """The verification theorem's residual at (t, ms); 0 for the exact
    solution. With H(K~) = <dP~, S~> + [vec P~, 1] L y at the solution's
    pair P~ at t, the flat state y of the law's moment pair S~ and, under
    gains K~, the generator L of _flow over _law_pairs, K~* = -W from
    _solved_aux there (all that is read from the solve) and e ones on K1 and
    k, it is

        max(|H(K~*)|, |H(K~*+e) - H(K~*-e)| / (2 (H(K~*+e) + H(K~*-e) - 2 H(K~*))))

    The second term, exact as H is quadratic in the gains, is the distance
    along e from K~* to the minimiser of H (inf if the curvature is not
    positive; a ValueError if H is not finite, as at a huge mean). H sees K2
    and k only through K2 m + k, so e moves k alone and V > 0 keeps the
    curvature positive at every law. Time derivatives are fourth-order
    centered differences (Fornberg 1988) over t +- h, t +- 2h, h the grid
    step, so t lies at least 2h inside (0, T) and the residual is bounded
    by the finite-difference plus integrator error. Within 2h of an
    interior knot of the model's knot groups, where the second derivative
    jumps, the difference is the one-sided fourth-order one over t, t + sh,
    ..., t + 4sh on the side s that holds no knot (_knot_free_side).
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
    n = model.dims.d + 1
    P, dP = rows[0].reshape(2, n, n), derivative(rows)
    c = model.table([t])
    K = -_solved_aux(c, 0, P)[1]
    e = np.zeros_like(K)
    e[0, :, :-1] = e[1, :, -1] = 1.0

    def hamiltonian(gains):  # one generator at a time bounds the memory at large d
        L = _flow(*_law_pairs(c, 0, gains))
        return (P.ravel() * (L @ np.append(S, 0.0))[:-1] + (dP + L[-1, :-1]) * S).sum()

    with np.errstate(over="ignore", invalid="ignore"):  # m~m~' overflows past |mean| 1.3e154
        S = _pair_of(ms).ravel()
        h0, hp, hm = _finite([hamiltonian(g) for g in (K, K + e, K - e)], "the Bellman residual")
    curvature = hp + hm - 2.0 * h0
    if not curvature > 0.0:
        return float("inf")
    return float(max(abs(h0), abs(hp - hm) / (2.0 * curvature)))


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
