"""Deterministic propagation of a law's moments under affine feedback.

Drift and diffusion are affine in (x, a) and the feedback
a = K1 (x - m) + K2 m + k is affine in (x, m), so the law's first two
moments close exactly, as the moment pair S~ = (Cov padded with zeros,
m~m~'), m~ = [m; 1] (``model._pair_of``), dual to the Riccati pair
P~ = (Lam~, Gam~): the value is <P~, S~>. Under the pairs (A~, G~, W~) of
``model._law_pairs`` at the law's gain pair K~ = ([K1, 0], [K2, k]), its
table as it is (AffineFeedback), the flow is linear in S~:

    S~' = (A0 S0 + S0 A0' + G0 S0 G0' + G1 S1 G1',  A1 S1 + S1 A1')
    f   = <W~, S~>

with G1 S1 G1' = h h', h = (G1 m~)[:d] the mean's noise. So the flat state
y = (S~, running cost), laid out like a RiccatiSolution row plus the cost,
follows y' = L(t) y, L the generator of ``model._flow``; the law Hamiltonian
of value.bellman_residual contracts it. This module is the noise-free oracle
for the value identity and the dynamic-programming split.

propagate_moments tabulates L per block of ``LqModel.block_steps`` steps,
builds the block's step matrices Phi_k at once (the Riccati solve's RK4 step
on a stacked identity) and advances y_{k+1} = Phi_k y_k. A batched isfinite
and eigvalsh finds the first new state not finite or not PSD; only there is
it projected (clip_psd) and the recurrence restarted, as projecting every
step would. Phi_k keeps S1[d, d] at 1.0 and S0's padding at 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CovarianceInstabilityError, OutOfDomainError
from .model import (AffineFeedback, LqModel, MomentState, _flow, _law_pairs, _pair_of,
                    check_count, clip_psd)
from .riccati import RiccatiSolution, _rk4_step, _stages
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


def _moment_table(model: LqModel, fb: AffineFeedback, times) -> np.ndarray:
    """The flow's generators L (_flow) under ``fb``, one per time in ``times``."""
    c = model.table(times)
    K = fb.table(c["t"])
    model.check_gains(K)
    return _flow(*_law_pairs(c, ..., K))


def _settle(ys: np.ndarray, times: np.ndarray, d: int) -> tuple[int, bool]:
    """(i, clipped): i indexes the first flat state of ``ys`` (at ``times``)
    not finite or not PSD, or is len(ys); that covariance is projected in
    place (clip_psd), clipped if an eigenvalue below CLIP_FLOOR was."""
    n = int(np.isfinite(ys).all(axis=1).cumprod().sum())
    covs = ys[:, :(d + 1) ** 2].reshape(-1, d + 1, d + 1)[:, :d, :d]
    i = int(np.append(np.linalg.eigvalsh(covs[:n])[:, 0] < 0.0, True).argmax())
    if i == len(ys):
        return i, False
    t = float(times[i])
    if i == n:
        raise CovarianceInstabilityError(f"non-finite moment state at t={t:.6g}", time=t)
    covs[i], lo = clip_psd(covs[i])
    if lo < INSTABILITY_FLOOR:
        raise CovarianceInstabilityError(
            f"covariance eigenvalue {lo:.3e} at t={t:.6g}", time=t, eigenvalue=lo)
    return i, lo < CLIP_FLOOR


def propagate_moments(model: LqModel, fb: AffineFeedback, t0: float,
                      ms0: MomentState, n_steps: int,
                      t_end: float | None = None) -> MomentTrajectory:
    """RK4 integration of the moment system on [t0, t_end] (default T),
    accumulating the running cost as an augmented state component.

    The gains and the step matrices are built once per block of
    model.block_steps steps (264 at d = 1); no result depends on the block
    length. A covariance with a negative eigenvalue is symmetrized and
    clipped, counted as a clip below -1e-9; clipping beyond -1e-6, or a
    non-finite state, raises CovarianceInstabilityError at that step's time
    unless the gains break down anywhere in its block, which raises first.
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
    clips = 0
    if T == t0:
        grid, states = grid[:1], states[:1]
    with np.errstate(over="ignore", invalid="ignore"):  # _settle raises on a non-finite state
        states[0] = np.append(_pair_of(ms0), 0.0)
        for k0, k1, L in _stages(grid, model.block_steps, lambda ts: _moment_table(model, fb, ts)):
            steps = _rk4_step(lambda L, j, Y: L[j] @ Y, L, np.s_[1::2], np.s_[2::2],
                              np.eye(L.shape[-1]), L[:-1:2], (T - t0) / n_steps)
            k = k0
            while k < k1:
                for P, y, out in zip(steps[k - k0:], states[k:k1], states[k + 1:k1 + 1]):
                    np.dot(P, y, out=out)
                i, clipped = _settle(states[k + 1:k1 + 1], grid[k + 1:k1 + 1], d)
                k, clips = k + 1 + i, clips + clipped
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
