"""Deterministic propagation of a law's moments under affine feedback.

Drift and diffusion are affine in (x, a) and the feedback
a = K1 (x - m) + K2 m + k is affine in (x, m), so the law's first two
moments close exactly, as the moment pair S~ = (Cov padded with zeros,
m~m~'), m~ = [m; 1] (``model._pair_of``), dual to the Riccati pair
P~ = (Lam~, Gam~): the value is <P~, S~>. Under the pairs (A~, G~, W~) of
``model._law_pairs`` at the law's gain pair K~ = ([K1, 0], [K2, k]), its
table as it is (AffineFeedback), the flow (``model._flow``) is linear in S~:

    S~' = (A0 S0 + S0 A0' + G0 S0 G0' + G1 S1 G1',  A1 S1 + S1 A1')
    f   = <W~, S~>

with G1 S1 G1' = h h', h = (G1 m~)[:d] the mean's noise. Along it the law
Hamiltonian d/dt <P~, S~> + f = <P~', S~> + <P~, S~'> + <W~, S~> is what
value.bellman_residual reads. The running cost integral rides the same RK4
as an augmented component, at integrator order. This module is the
noise-free oracle for the value identity and the dynamic-programming split.

Once the gains are fixed every coefficient depends on time alone, so
propagate_moments tabulates the pairs per block of RK4 stages
(``LqModel.block_steps`` steps) and steps the flat state (S~, running cost),
laid out like a RiccatiSolution row plus the cost, with the Riccati solve's
RK4 core. The last rows of A~ and G~ are zero, so S1[d, d] stays 1.0, S0's
padding stays 0, and the mean is S1[:d, d].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CovarianceInstabilityError, OutOfDomainError
from .model import (AffineFeedback, LqModel, MomentState, _flow, _law_pairs, _pair_of,
                    check_count, clip_psd)
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


def _moment_table(model: LqModel, fb: AffineFeedback, times) -> tuple:
    """The flow's coefficients under ``fb`` at ``times``, one row per stage:
    the pairs (A~, G~, W~) of _law_pairs, each of shape (2, rows, d+1, d+1)."""
    c = model.table(times)
    K = fb.table(c["t"])
    model.check_gains(K)
    return _law_pairs(c, ..., K)


def _moment_rhs(c: tuple, j: int, y: np.ndarray) -> np.ndarray:
    """Derivative of the flat state (S~, running cost) at row j: _flow and
    <W~, S~>."""
    A, G, W = c
    n = A.shape[-1]
    out = np.empty_like(y)
    out[:-1] = _flow(A[:, j], G[:, j], y[:-1].reshape(2, n, n)).ravel()
    out[-1] = W[:, j].ravel() @ y[:-1]
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
    states = np.empty((n_steps + 1, 2 * (d + 1) ** 2 + 1))
    states[0] = np.append(_pair_of(ms0), 0.0)
    clips = 0

    def settle(k, y):
        nonlocal clips
        if not np.isfinite(y).all():
            raise CovarianceInstabilityError(
                f"non-finite moment state at t={grid[k]:.6g}", time=float(grid[k]))
        S = y[:(d + 1) ** 2].reshape(d + 1, d + 1)[:d, :d]
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
    S = states[:, :-1].reshape(-1, 2, d + 1, d + 1)
    return MomentTrajectory(grid=grid, means=S[:, 1, :d, d], covs=S[:, 0, :d, :d],
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
