"""Interacting N-particle Euler-Maruyama simulator and Monte Carlo cost
estimation.

The law coupling of the controlled dynamics is replaced by empirical
means over the ensemble: each step computes the state mean over particles
in fixed index order, every particle's control against that mean, the
control mean, then one Euler-Maruyama update per particle.

The initial law is a MomentState: the particles are drawn from the
Gaussian law with its mean and covariance, or all start at the mean (a
point mass) when the covariance is zero.

Randomness
----------
The normal increment for (step k, particle i) is a pure function of
(seed, k, i): a Philox counter-based generator keyed by the root seed is
positioned at counter k << 128, its i-th 64-bit output word is mapped to
(0, 1), and transformed by the inverse normal CDF. Exactly one normal is
consumed per particle per step, so results are bit-reproducible and
independent of execution order or chunking. Empirical means use numpy's
deterministic pairwise reduction over the fixed particle-index layout.
The initial Gaussian draw comes from a separately keyed stream.

Running costs use the left-endpoint rule, order-matched to the weak
order-1 scheme; the terminal cost is added against the final empirical
mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Philox, SeedSequence
from scipy.special import ndtri

from .errors import ShapeError, SimulationDivergedError
from .model import (AffineFeedback, LqModel, MomentState, _row_terms,
                    _sample_moments, _terminal_rows, _write_csv)
from .riccati import STAGE_BLOCK, RiccatiSolution
from .value import optimal_feedback


@dataclass(frozen=True)
class SimConfig:
    n_particles: int
    n_steps: int
    seed: int
    t0: float = 0.0
    initial: MomentState | None = None
    store_every: int = 0  # 0: keep only the final ensemble snapshot

    def validate(self, model: LqModel) -> None:
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not 0.0 <= self.t0 < model.horizon:
            raise ValueError(f"t0={self.t0} outside [0, {model.horizon})")
        if not isinstance(self.initial, MomentState):
            raise ValueError("initial law must be a MomentState, got "
                             f"{type(self.initial).__name__}")
        if self.store_every < 0:
            raise ValueError("store_every must be >= 0")


@dataclass(frozen=True)
class SimResult:
    times: np.ndarray
    mean_path: np.ndarray
    cov_path: np.ndarray
    running_mean: np.ndarray
    ensembles: dict = field(repr=False)
    per_particle_cost: np.ndarray = field(repr=False)
    cost_mean: float = 0.0
    cost_stderr: float = 0.0


def _keys(seed: int) -> tuple[np.ndarray, np.ndarray]:
    words = SeedSequence(seed).generate_state(4, np.uint64)
    return words[:2], words[2:]


def step_normals(path_key: np.ndarray, step: int, n: int) -> np.ndarray:
    """Standard normals for (step, particles 0..n-1); pure in (key, step, i)."""
    raw = Philox(key=path_key, counter=(int(step) << 128)).random_raw(n)
    u = (raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54
    return ndtri(u)


def _initial_states(initial: MomentState, d: int, n: int,
                    init_key: np.ndarray) -> np.ndarray:
    """N rows drawn from the Gaussian law with the moments of ``initial``,
    or the mean tiled, with no draw, when its covariance is zero."""
    if initial.d != d:
        raise ShapeError(f"initial law has dimension {initial.d}, the model has d={d}")
    if not initial.cov.any():
        return np.tile(initial.mean, (n, 1))
    rng = np.random.Generator(Philox(key=init_key))
    w, q = np.linalg.eigh(initial.cov)  # PSD square root (cov may be singular)
    root = q * np.sqrt(np.clip(w, 0.0, None))
    return initial.mean + rng.standard_normal((n, d)) @ root.T


def simulate(model: LqModel, fb: AffineFeedback, cfg: SimConfig) -> SimResult:
    """Simulate the interacting particle system under the feedback law.

    Coefficients and gains are read from tables built once per block of
    steps. Deterministic for fixed (seed, N, K, model, fb). Raises
    SimulationDivergedError (with the step index) if any state goes
    non-finite. A block's tables are built before its steps run, so a
    RiccatiBreakdownError of the gains anywhere in a block is raised ahead
    of a divergence at an earlier step of that block.
    """
    cfg.validate(model)
    d = model.dims.d
    n, K = cfg.n_particles, cfg.n_steps
    dt = (model.horizon - cfg.t0) / K
    sqdt = np.sqrt(dt)
    times = cfg.t0 + dt * np.arange(K + 1)
    path_key, init_key = _keys(cfg.seed)
    X = _initial_states(cfg.initial, d, n, init_key)

    mean_path = np.empty((K + 1, d))
    cov_path = np.empty((K + 1, d, d))
    running_mean = np.empty(K + 1)
    ensembles: dict[int, np.ndarray] = {}
    run = np.zeros(n)

    def record(j: int) -> np.ndarray:
        mean_path[j], cov_path[j] = _sample_moments(X)
        running_mean[j] = run.mean()
        if cfg.store_every and j % cfg.store_every == 0:
            ensembles[j] = X.copy()
        return mean_path[j]

    mhat = record(0)
    for j0 in range(0, K, STAGE_BLOCK):
        block = times[j0:min(j0 + STAGE_BLOCK, K)]
        c = model.table(block)
        K1s, K2s, k0s = fb.table(block)
        for r in range(block.size):
            j = j0 + r
            A = (X - mhat) @ K1s[r].T + mhat @ K2s[r].T + k0s[r]
            b, s, f = _row_terms(c, r, X, A, mhat, A.mean(axis=0))
            run += dt * f
            xi = step_normals(path_key, j, n)
            X = X + dt * b + sqdt * s * xi[:, None]
            if not np.isfinite(X).all():
                raise SimulationDivergedError(
                    f"non-finite particle state after step {j}", step=j)
            mhat = record(j + 1)

    per_cost = run + _terminal_rows(model.cost, X, mean_path[K])
    ensembles[K] = X.copy()
    return SimResult(
        times=times, mean_path=mean_path, cov_path=cov_path,
        running_mean=running_mean, ensembles=ensembles,
        per_particle_cost=per_cost,
        cost_mean=float(per_cost.mean()),
        cost_stderr=float(per_cost.std(ddof=1) / np.sqrt(n)),
    )


# ---------------------------------------------------------------------------
# optimality-gap testing with common random numbers


@dataclass(frozen=True)
class FeedbackPerturbation:
    """Multiplicative gain scalings and an additive offset shift applied to
    a reference feedback law."""

    label: str
    k1_scale: float = 1.0
    k2_scale: float = 1.0
    k_scale: float = 1.0
    k_shift: float = 0.0

    def apply(self, fb: AffineFeedback) -> AffineFeedback:
        """The law with gains K1*k1_scale, K2*k2_scale, k*k_scale + k_shift."""
        shift = np.broadcast_to(np.asarray(self.k_shift, dtype=float), (fb.m,))
        base = fb.table

        def table(times):
            K1, K2, k0 = base(times)
            return self.k1_scale * K1, self.k2_scale * K2, self.k_scale * k0 + shift

        return AffineFeedback(m=fb.m, d=fb.d, table=table)


def canonical_perturbations() -> list[FeedbackPerturbation]:
    """The 10 canonical candidates: offsets shifted by +-0.5, alone and
    combined with the deviation gain (or all gains jointly) scaled by
    {0.8, 1.2}.

    Every candidate carries an offset component on purpose: with shared
    noise an offset shift is sharply detectable on both presets, whereas a
    lone gain scaling changes each path's *noise response* and decorrelates
    the coupled pairs — on control-multiplied noise its Monte Carlo gap
    t-statistic stays near 1 at desk scale. Lone scalings also leave laws
    with a zero gain component unchanged.
    """
    out = [
        FeedbackPerturbation("k + 0.5", k_shift=0.5),
        FeedbackPerturbation("k - 0.5", k_shift=-0.5),
    ]
    for s in (0.8, 1.2):
        for dk in (0.5, -0.5):
            out.append(FeedbackPerturbation(
                f"k1 x {s}, k {'+' if dk > 0 else '-'} 0.5",
                k1_scale=s, k_shift=dk))
    for s in (0.8, 1.2):
        for dk in (0.5, -0.5):
            out.append(FeedbackPerturbation(
                f"all gains x {s}, k {'+' if dk > 0 else '-'} 0.5",
                k1_scale=s, k2_scale=s, k_scale=s, k_shift=dk))
    return out


@dataclass(frozen=True)
class CandidateResult:
    label: str
    cost_mean: float
    cost_stderr: float
    gap: float
    gap_stderr: float
    beats_optimal: bool


@dataclass(frozen=True)
class GapReport:
    optimal_cost: float
    optimal_stderr: float
    candidates: tuple

    @property
    def any_beats_optimal(self) -> bool:
        return any(c.beats_optimal for c in self.candidates)


def optimality_gap(model: LqModel, sol: RiccatiSolution, cfg: SimConfig,
                   perturbations) -> GapReport:
    """Simulate the optimal law and each perturbed law with the same seed
    (common random numbers) and report per-candidate cost and gap.

    The gap stderr is the paired per-particle cost-difference stderr —
    with shared noise this is the variance-reduced estimator that makes
    desk-scale gap detection possible. A candidate is flagged when it
    beats the optimal cost by more than twice that stderr.
    """
    base = optimal_feedback(model, sol)
    ref = simulate(model, base, cfg)
    results = []
    for pert in perturbations:
        cand = simulate(model, pert.apply(base), cfg)
        diff = cand.per_particle_cost - ref.per_particle_cost
        gap = float(diff.mean())
        gap_se = float(diff.std(ddof=1) / np.sqrt(cfg.n_particles))
        results.append(CandidateResult(
            label=pert.label, cost_mean=cand.cost_mean,
            cost_stderr=cand.cost_stderr, gap=gap, gap_stderr=gap_se,
            beats_optimal=gap < -2.0 * gap_se,
        ))
    return GapReport(optimal_cost=ref.cost_mean,
                     optimal_stderr=ref.cost_stderr,
                     candidates=tuple(results))


def result_to_csv(res: SimResult, path, thin: int = 1) -> None:
    """Rows "t,emp_mean_*,emp_cov_*,running_cost_mean", one per kept time."""
    d = res.mean_path.shape[1]
    last = res.times.size - 1
    keep = sorted(set(range(0, res.times.size, max(1, thin))) | {last})
    _write_csv(path,
               ["t"] + [f"emp_mean_{i}" for i in range(d)]
               + [f"emp_cov_{i}{j}" for i in range(d) for j in range(d)]
               + ["running_cost_mean"],
               ([res.times[k], *res.mean_path[k], *res.cov_path[k].ravel(),
                 res.running_mean[k]] for k in keep))
