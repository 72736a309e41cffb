"""Interacting N-particle Euler-Maruyama simulator and Monte Carlo cost
estimation.

The law coupling of the controlled dynamics is replaced by empirical
means over the ensemble, the component-major (d+1, N) buffer [x; 1] (one
column per particle; controls are not stored). Each step applies the law's
step map S at the state mean m (``model._step_map``, whose control mean
K2 m + k is the controls' empirical mean up to rounding) in one product,
whose rows give the drift and diffusion increments and the running cost,
then one Euler-Maruyama update. Stored ensembles are particle-major, (N, d).

Randomness
----------
The normal increment for (step k, particle i) is a pure function of
(seed, k, i): a run's one Philox counter-based generator, keyed by the root
seed, is repositioned at counter k << 128, its i-th 64-bit output word is
mapped to (0, 1), and transformed by the inverse normal CDF (scipy's ndtri,
imported at the first draw). Exactly one normal is consumed per particle per step, so
results are bit-reproducible and the noise does not depend on execution order
or chunking. A chunk [i0, i1) of at least two particles, i0 % 4 == 0, draws
its normals at counter (k << 128) + i0 // 4 and gets the full run's columns
bitwise if the BLAS product S [x; 1] gives a column the same bits whichever
columns share it (not promised; the tests check it). Empirical means are
numpy's pairwise sums over each component's particle row, divided by N.
The initial Gaussian draw comes from a separately keyed stream.

Running costs use the left-endpoint rule, order-matched to the weak
order-1 scheme; the terminal cost is added against the final empirical
mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Philox, SeedSequence

from .errors import SimulationDivergedError
from .model import (AffineFeedback, LqModel, MomentState, _finite, _row_factors,
                    _sample_moments, _step_map, _terminal_rows, _write_csv, check_count)
from .riccati import RiccatiSolution
from .value import optimal_feedback


@dataclass(frozen=True)
class SimConfig:
    n_particles: int
    n_steps: int
    seed: int
    initial: MomentState | None = None
    store_every: int = 0  # 0: keep only the final ensemble snapshot

    def validate(self) -> None:
        check_count("n_particles", self.n_particles, 2)
        check_count("n_steps", self.n_steps, 1)
        check_count("seed", self.seed, 0)
        if not isinstance(self.initial, MomentState):
            raise ValueError("initial law must be a MomentState, got "
                             f"{type(self.initial).__name__}")
        check_count("store_every", self.store_every, 0)


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

    def __post_init__(self):
        for a in (self.times, self.mean_path, self.cov_path, self.running_mean,
                  self.per_particle_cost, *self.ensembles.values()):
            a.setflags(write=False)


def _keys(seed: int) -> tuple[np.ndarray, np.ndarray]:
    words = SeedSequence(seed).generate_state(4, np.uint64)
    return words[:2], words[2:]


def step_normals(gen: Philox, step: int, n: int) -> np.ndarray:
    """Standard normals for (step, particles 0..n-1) from ``gen``, a Philox
    keyed by the path key, repositioned at counter step << 128 whatever it
    drew before: pure in (key, step, i)."""
    from scipy.special import ndtri  # on first use: three quarters of `import mflq`
    state = gen.state
    state["state"]["counter"] = np.array([0, 0, step, 0], dtype=np.uint64)
    gen.state = {**state, "buffer_pos": 4, "has_uint32": 0}
    u = gen.random_raw(n)
    u >>= np.uint64(11)
    u = np.multiply(u, 2.0 ** -53, out=u.view(np.float64))  # 53-bit words: exact
    u += 2.0 ** -54
    return ndtri(u, out=u)


def _initial_states(model: LqModel, initial: MomentState, n: int,
                    init_key: np.ndarray) -> np.ndarray:
    """N rows drawn from the Gaussian law with the moments of ``initial``,
    or the mean tiled, with no draw, when its covariance is zero."""
    model.check_law(initial)
    if not initial.cov.any():
        return np.tile(initial.mean, (n, 1))
    rng = np.random.Generator(Philox(key=init_key))
    w, q = np.linalg.eigh(initial.cov)  # PSD square root (cov may be singular)
    root = q * np.sqrt(np.clip(w, 0.0, None))
    return initial.mean + rng.standard_normal((n, initial.d)) @ root.T


def simulate(model: LqModel, fb: AffineFeedback, cfg: SimConfig) -> SimResult:
    """Simulate the interacting particle system under the feedback law.

    Coefficients, gains and row factors are tabulated once per block of
    model.block_steps steps (264 at d = 1); no result depends on the block
    length. Deterministic for fixed (seed, N, K, model, fb). Raises
    SimulationDivergedError (with the step index) if any state goes
    non-finite; a RiccatiBreakdownError of the gains anywhere in a block is
    raised before that block's steps run, so ahead of a divergence at an
    earlier step of the same block.
    """
    cfg.validate()
    d = model.dims.d
    n, K = cfg.n_particles, cfg.n_steps
    dt = model.horizon / K
    times = np.linspace(0.0, model.horizon, K + 1)
    path_key, init_key = _keys(cfg.seed)
    gen = Philox(key=path_key)
    Xt = np.ones((d + 1, n))  # component-major ensemble [x; 1]; controls are not stored
    X = Xt[:d]
    X[...] = _initial_states(model, cfg.initial, n, init_key).T
    W = np.empty((d, n))  # centred states
    Y = np.empty((3 * d + 1, n))

    mean_path = np.empty((K + 1, d))
    cov_path = np.empty((K + 1, d, d))
    running_mean = np.empty(K + 1)
    ensembles: dict[int, np.ndarray] = {}
    run = np.zeros(n)

    def record(j: int) -> np.ndarray:
        mean_path[j], cov_path[j] = _sample_moments(X, W)
        running_mean[j] = np.add.reduce(run) / n
        if cfg.store_every and j % cfg.store_every == 0:
            ensembles[j] = X.T.copy()
        return mean_path[j]

    mhat = record(0)
    steps = model.block_steps
    for j0 in range(0, K, steps):
        block = times[j0:min(j0 + steps, K)]
        c = model.table(block)
        H = _row_factors(c)
        G = np.ascontiguousarray(fb.table(block))  # no product depends on the table's layout
        model.check_gains(G)
        for r, j in enumerate(range(j0, j0 + block.size)):
            np.matmul(_step_map(c, H, r, G[:, r], mhat, dt), Xt, out=Y)
            run += np.einsum("ij,ij->j", Y[2 * d:], Xt)
            Y[d:2 * d] *= step_normals(gen, j, n)
            X += Y[:d]
            X += Y[d:2 * d]
            if not np.isfinite(X).all():
                raise SimulationDivergedError(
                    f"non-finite particle state after step {j}", step=j)
            mhat = record(j + 1)

    per_cost = run + _terminal_rows(model.cost, X, mean_path[K])
    ensembles[K] = X.T.copy()
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
    """Multiplicative gain scalings and an additive offset shift, each a
    finite number, applied to a reference feedback law."""

    label: str
    k1_scale: float = 1.0
    k2_scale: float = 1.0
    k_scale: float = 1.0
    k_shift: float = 0.0

    def __post_init__(self):
        for name in ("k1_scale", "k2_scale", "k_scale", "k_shift"):
            if _finite(getattr(self, name), name).ndim:
                raise ValueError(f"{name} must be a scalar, got {getattr(self, name)!r}")

    def apply(self, fb: AffineFeedback) -> AffineFeedback:
        """The law with gains K1*k1_scale, K2*k2_scale, k*k_scale + k_shift:
        one scale and shift of its gain pair K~ (adding -0.0 changes no bit)."""
        scale = np.array([[self.k1_scale] * 2, [self.k2_scale, self.k_scale]])
        shift = np.array([[-0.0, -0.0], [-0.0, self.k_shift]])

        def table(times):
            K = fb.table(times)
            k = (np.arange(K.shape[-1]) == K.shape[-1] - 1).astype(int)  # 1 on k's column
            return scale[:, None, None, k] * K + shift[:, None, None, k]

        return AffineFeedback(table=table)


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
    shifts = ((0.5, "k + 0.5"), (-0.5, "k - 0.5"))
    out = [FeedbackPerturbation(k, k_shift=dk) for dk, k in shifts]
    for name, joint in (("k1", False), ("all gains", True)):
        for s in (0.8, 1.2):
            g = s if joint else 1.0
            out += [FeedbackPerturbation(f"{name} x {s}, {k}", k1_scale=s, k2_scale=g,
                                         k_scale=g, k_shift=dk) for dk, k in shifts]
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
    """Rows "t,emp_mean_*,emp_cov_*,running_cost_mean" at every thin-th time and the last."""
    check_count("thin", thin, 1)
    d = res.mean_path.shape[1]
    last = res.times.size - 1
    keep = sorted(set(range(0, res.times.size, thin)) | {last})
    _write_csv(path,
               ["t"] + [f"emp_mean_{i}" for i in range(d)]
               + [f"emp_cov_{i}{j}" for i in range(d) for j in range(d)]
               + ["running_cost_mean"],
               ([res.times[k], *res.mean_path[k], *res.cov_path[k].ravel(),
                 res.running_mean[k]] for k in keep))
