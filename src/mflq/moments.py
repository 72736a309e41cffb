"""Deterministic propagation of (mean, covariance) under affine feedback.

Because drift and diffusion are affine in (x, a) and the feedback is
affine in (x, mean), the law's first two moments close exactly:

    a(x)   = K1 (x - m) + K2 m + k,          abar = K2 m + k
    m'     = (B + Bbar) m + (C + Cbar) abar + b0
    sigma(x) = G x + h,   G = D + F K1,
               h = sigma0 + Dbar m + F (K2 - K1) m + F k + Fbar abar
    Cov'   = A Cov + Cov A' + G Cov G' + (G m + h)(G m + h)',
             A = B + C K1

(the diffusion is an R^d vector on scalar noise, so its second-moment
contribution is E[sigma sigma'] = G Cov G' + (Gm+h)(Gm+h)'). The running
cost integral rides the same RK4 as an augmented component, which keeps
the quadrature at integrator order. This module is the noise-free oracle
for the value identity and the dynamic-programming check.

Every coefficient of this system depends on time alone once the gains are
fixed, so propagate_moments tabulates the affine moment coefficients (the
drift, diffusion and running-cost matrices under the gains, from one
batched gain query) for each block of RK4 stages (``LqModel.block_steps``
steps) and steps the flat state (mean, Cov, running cost) with the RK4
core shared with the Riccati solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CovarianceInstabilityError, OutOfDomainError
from .model import AffineFeedback, LqModel, MomentState, _tr, check_count, clip_psd
from .riccati import RiccatiSolution, _rk4
from .value import g_hat, optimal_feedback
from .value import value as value_at

CLIP_FLOOR = -1e-9
INSTABILITY_FLOOR = -1e-6


@dataclass(frozen=True)
class MomentTrajectory:
    grid: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    running: np.ndarray
    clip_count: int

    def __post_init__(self):
        for a in (self.grid, self.means, self.covs, self.running):
            a.setflags(write=False)

    @property
    def final_state(self) -> MomentState:
        return MomentState(self.means[-1], self.covs[-1])

    @property
    def final_running(self) -> float:
        return float(self.running[-1])


def _moment_table(model: LqModel, fb: AffineFeedback, times) -> dict:
    """Affine moment coefficients under ``fb`` at ``times``, one row per
    stage. With abar = K2 m + k, the flow and its running cost are

        m'   = Mm m + mc
        Cov' = A Cov + Cov A' + G Cov G' + (Hm m + hc)(Hm m + hc)'
        f    = tr(W Cov) + m'P m + p.m + p0

    where Hm m + hc = G m + h collects the mean part of the diffusion.
    """
    c = model.table(times)
    K1, K2, k0 = fb.table(c["t"])
    model.check_gains(K1)
    k0 = k0[..., None]
    F, K2t = c["F"], _tr(K2)
    RR, MM = c["RR"], c["MM"]
    rr = c["r1"] + c["r1bar"]
    G = c["D"] + F @ K1
    M2K1, MMK2, RRk0 = c["M2"] @ K1, MM @ K2, RR @ k0
    W = c["Q2"] + _tr(K1) @ c["R2"] @ K1 + M2K1 + _tr(M2K1)
    return {
        "Mm": c["BpB"] + c["CpC"] @ K2,
        "mc": (c["CpC"] @ k0 + c["b0"])[..., 0],
        "A": c["B"] + c["C"] @ K1,
        "G": G,
        "Hm": G + c["Dbar"] + F @ (K2 - K1) + c["Fbar"] @ K2,
        "hc": (c["sigma0"] + c["FpF"] @ k0)[..., 0],
        "W": W.reshape(W.shape[0], -1),
        "P": c["QQ"] + K2t @ RR @ K2 + MMK2 + _tr(MMK2),
        "p": (2.0 * (K2t @ RRk0 + MM @ k0) + c["q1"] + c["q1bar"] + K2t @ rr)[..., 0],
        "p0": (_tr(k0) @ RRk0 + _tr(rr) @ k0)[..., 0, 0],
    }


def _running(c: dict, j: int, m: np.ndarray, S: np.ndarray) -> float:
    """Lifted running cost at moment-table row j (S symmetric)."""
    return c["W"][j] @ S.ravel() + m @ c["P"][j] @ m + c["p"][j] @ m + c["p0"][j]


def _moment_rhs(c: dict, j: int, y: np.ndarray) -> np.ndarray:
    """Derivative of the flat state (mean, Cov, running cost) at row j."""
    d = c["mc"].shape[-1]
    m, S = y[:d], y[d:-1].reshape(d, d)
    AS, G = c["A"][j] @ S, c["G"][j]
    gm = c["Hm"][j] @ m + c["hc"][j]
    out = np.empty_like(y)
    out[:d] = c["Mm"][j] @ m + c["mc"][j]
    out[d:-1] = (AS + AS.T + G @ S @ G.T + gm[:, None] * gm).ravel()
    out[-1] = _running(c, j, m, S)
    return out


def propagate_moments(model: LqModel, fb: AffineFeedback, t0: float,
                      ms0: MomentState, n_steps: int,
                      t_end: float | None = None) -> MomentTrajectory:
    """RK4 integration of the moment system on [t0, t_end] (default T),
    accumulating the running cost as an augmented state component.

    The gains and every affine moment coefficient are tabulated once per
    block of model.block_steps steps (282 at d = 1). The covariance is
    re-symmetrized every step and eigenvalue-clipped at -1e-9; clipping
    beyond -1e-6, or a non-finite mean, covariance or running cost, raises
    CovarianceInstabilityError at that step's time. A block's table is
    built before its steps run, so a RiccatiBreakdownError of the gains
    anywhere in a block is raised ahead of an instability at an earlier
    step of that block; an instability in an earlier block raises first.
    """
    model.check_law(ms0)
    model.check_time(t0)
    T = model.horizon if t_end is None else float(t_end)
    model.check_time(T)
    if T < t0:
        raise OutOfDomainError(f"end time {T} before start {t0}")
    check_count("n_steps", n_steps, 1)
    d = model.dims.d
    grid = np.linspace(t0, T, n_steps + 1)
    states = np.empty((n_steps + 1, d + d * d + 1))
    states[0] = np.concatenate((ms0.mean, ms0.cov.ravel(), [0.0]))
    clips = 0

    def settle(k, y):
        nonlocal clips
        if not np.isfinite(y).all():
            raise CovarianceInstabilityError(
                f"non-finite moment state at t={grid[k]:.6g}", time=float(grid[k]))
        S = y[d:-1].reshape(d, d)
        S[...], lo = clip_psd(S)
        if lo < INSTABILITY_FLOOR:
            raise CovarianceInstabilityError(
                f"covariance eigenvalue {lo:.3e} at t={grid[k]:.6g}",
                time=float(grid[k]), eigenvalue=lo)
        if lo < CLIP_FLOOR:
            clips += 1
        return y

    if T == t0:
        grid, states = grid[:1], states[:1]
    else:
        for k, y, _ in _rk4(grid, (T - t0) / n_steps, states[0],
                            lambda ts: _moment_table(model, fb, ts),
                            _moment_rhs, settle, model.block_steps):
            states[k] = y
    return MomentTrajectory(grid=grid, means=states[:, :d],
                            covs=states[:, d:-1].reshape(-1, d, d),
                            running=states[:, -1], clip_count=clips)


def cost_from_moments(model: LqModel, fb: AffineFeedback, t0: float,
                      ms0: MomentState, n_steps: int) -> float:
    """Total cost of the feedback from (t0, ms0): accumulated running cost
    plus the lifted terminal cost at the propagated final law."""
    traj = propagate_moments(model, fb, t0, ms0, n_steps)
    return traj.final_running + g_hat(model, traj.final_state)


def dpp_check(model: LqModel, sol: RiccatiSolution, t: float, theta: float,
              ms: MomentState, n_steps: int) -> float:
    """Residual of the dynamic-programming split at the intermediate time:

        |value(t, ms) - running cost on [t, theta] - value(theta, law_theta)|

    propagated under the optimal feedback, for which the split holds with
    equality. Zero for the exact flow; numerically bounded by the
    integrator order.
    """
    if theta < t:
        raise OutOfDomainError(f"need t <= theta, got t={t}, theta={theta}")
    fb = optimal_feedback(model, sol)
    traj = propagate_moments(model, fb, t, ms, n_steps, t_end=theta)
    return abs(value_at(sol, t, ms) - traj.final_running
               - value_at(sol, theta, traj.final_state))
