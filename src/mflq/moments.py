"""Deterministic propagation of (mean, covariance) under affine feedback.

Drift and diffusion are affine in (x, a) and the feedback
a = K1 (x - m) + K2 m + k is affine in (x, m), so the law's first two
moments close exactly. With m~ = [m; 1] and the pairs (A~, G~, W~) of
``model._law_pairs`` under the law's gain pair K~ = ([K1, 0], [K2, k]), its
table as it is (AffineFeedback), over the coefficient pairs the Riccati
solve reads, the flow is

    m~'  = A~[1] m~                       (its last entry is 0)
    Cov' = A Cov + Cov A' + G Cov G' + h h',    h = (G~[1] m~)[:d]
    f    = tr(W Cov) + m~'W~[1] m~

with A, G and W the d x d blocks of member 0: a particle's diffusion
G (x - m) + h is an R^d vector on scalar noise. The running cost integral
rides the same RK4 as an augmented component, which keeps the quadrature
at integrator order. This module is the noise-free oracle for the value
identity and the dynamic-programming split.

Once the gains are fixed every coefficient depends on time alone, so
propagate_moments tabulates the pairs (from one batched gain query) per
block of RK4 stages (``LqModel.block_steps`` steps) and steps the flat
state (m~, Cov, running cost) with the Riccati solve's RK4 core; the 1 of
m~ has derivative 0 and stays 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CovarianceInstabilityError, OutOfDomainError
from .model import AffineFeedback, LqModel, MomentState, _law_pairs, check_count, clip_psd
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
    """The flow's coefficients under ``fb`` at ``times``, one row per stage:
    the blocks of _law_pairs that the module docstring's system reads, A, G
    and W (flattened) of member 0 and the mean members "Am" = A~[1],
    "Gm" = G~[1][:d] and "Wm" = W~[1]."""
    c = model.table(times)
    K = fb.table(c["t"])
    model.check_gains(K)
    A, G, W = _law_pairs(c, ..., K)
    return {"A": A[0, :, :-1, :-1], "G": G[0, :, :-1, :-1],
            "W": W[0, :, :-1, :-1].reshape(W.shape[1], -1),
            "Am": A[1], "Gm": G[1, :, :-1], "Wm": W[1]}


def _running(c: dict, j: int, m: np.ndarray, S: np.ndarray) -> float:
    """Lifted running cost at moment-table row j, m = m~ and S symmetric."""
    return c["W"][j] @ S.ravel() + m @ c["Wm"][j] @ m


def _moment_rhs(c: dict, j: int, y: np.ndarray) -> np.ndarray:
    """Derivative of the flat state (m~, Cov, running cost) at row j."""
    n = c["Am"].shape[-1]
    m, S = y[:n], y[n:-1].reshape(n - 1, n - 1)
    AS, G = c["A"][j] @ S, c["G"][j]
    h = c["Gm"][j] @ m
    out = np.empty_like(y)
    out[:n] = c["Am"][j] @ m
    out[n:-1] = (AS + AS.T + G @ S @ G.T + h[:, None] * h).ravel()
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
    states = np.empty((n_steps + 1, d + 1 + d * d + 1))
    states[0] = np.concatenate((ms0.mean, [1.0], ms0.cov.ravel(), [0.0]))
    clips = 0

    def settle(k, y):
        nonlocal clips
        if not np.isfinite(y).all():
            raise CovarianceInstabilityError(
                f"non-finite moment state at t={grid[k]:.6g}", time=float(grid[k]))
        S = y[d + 1:-1].reshape(d, d)
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
                            covs=states[:, d + 1:-1].reshape(-1, d, d),
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
