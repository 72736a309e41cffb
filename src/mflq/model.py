"""Linear-quadratic mean-field model: coefficients, pointwise evaluation,
moments of particle ensembles, and the JSON document interface.

State dynamics (scalar Brownian noise, so the diffusion is an R^d vector):

    dX_t = [b0 + B x + Bbar E[x] + C a + Cbar E[a]] dt
         + [s0 + D x + Dbar E[x] + F a + Fbar E[a]] dB_t

Running and terminal costs are the full quadratic forms

    f = x'Q2 x + mx'Q2bar mx + a'R2 a + ma'R2bar ma + 2 x'M2 a
        + 2 mx'M2bar ma + q1.x + q1bar.mx + r1.a + r1bar.ma
    g = x'P2 x + mx'P2bar mx + p1.x + p1bar.mx

where mx, ma denote the state/control means. All model objects are
immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientSampleError, ModelDocumentError, OutOfDomainError, ShapeError
from .schedules import Schedule, as_schedule

SYMMETRY_TOL = 1e-12  # asymmetry below this is repaired, above it is a violation
COV_EIG_FLOOR = -1e-10


def _tr(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix in a stack."""
    return a.swapaxes(-1, -2)


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (a + _tr(a))


@dataclass(frozen=True)
class Dimensions:
    """State dimension d and control dimension m (noise dimension is 1)."""

    d: int
    m: int

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError("dimensions must satisfy d >= 1, m >= 1")


# (field name, shape key) for the two coefficient blocks; shape keys are
# resolved against Dimensions when constructing or parsing a model.
_DYNAMICS_FIELDS = (
    ("b0", "d"), ("B", "dd"), ("Bbar", "dd"), ("C", "dm"), ("Cbar", "dm"),
    ("sigma0", "d"), ("D", "dd"), ("Dbar", "dd"), ("F", "dm"), ("Fbar", "dm"),
)
_COST_SCHEDULE_FIELDS = (
    ("Q2", "dd"), ("Q2bar", "dd"), ("R2", "mm"), ("R2bar", "mm"),
    ("M2", "dm"), ("M2bar", "dm"), ("q1", "d"), ("q1bar", "d"),
    ("r1", "m"), ("r1bar", "m"),
)
_COST_CONSTANT_FIELDS = (("P2", "dd"), ("P2bar", "dd"), ("p1", "d"), ("p1bar", "d"))
_SYMMETRIC_COST = ("Q2", "Q2bar", "R2", "R2bar", "P2", "P2bar")


def _shape_of(key: str, dims: Dimensions) -> tuple:
    return {"d": (dims.d,), "m": (dims.m,), "dd": (dims.d, dims.d),
            "mm": (dims.m, dims.m), "dm": (dims.d, dims.m)}[key]


@dataclass(frozen=True)
class LqDynamics:
    b0: Schedule
    B: Schedule
    Bbar: Schedule
    C: Schedule
    Cbar: Schedule
    sigma0: Schedule
    D: Schedule
    Dbar: Schedule
    F: Schedule
    Fbar: Schedule

    @classmethod
    def build(cls, dims: Dimensions, **coeffs) -> "LqDynamics":
        known = {name for name, _ in _DYNAMICS_FIELDS}
        unknown = set(coeffs) - known
        if unknown:
            raise ValueError(f"unknown dynamics coefficients: {sorted(unknown)}")
        return cls(**{
            name: as_schedule(coeffs.get(name), _shape_of(key, dims))
            for name, key in _DYNAMICS_FIELDS
        })


@dataclass(frozen=True)
class LqCost:
    Q2: Schedule
    Q2bar: Schedule
    R2: Schedule
    R2bar: Schedule
    M2: Schedule
    M2bar: Schedule
    q1: Schedule
    q1bar: Schedule
    r1: Schedule
    r1bar: Schedule
    P2: np.ndarray
    P2bar: np.ndarray
    p1: np.ndarray
    p1bar: np.ndarray

    @classmethod
    def build(cls, dims: Dimensions, **coeffs) -> "LqCost":
        known = {name for name, _ in _COST_SCHEDULE_FIELDS + _COST_CONSTANT_FIELDS}
        unknown = set(coeffs) - known
        if unknown:
            raise ValueError(f"unknown cost coefficients: {sorted(unknown)}")
        kw = {}
        for name, key in _COST_SCHEDULE_FIELDS:
            sched = as_schedule(coeffs.get(name), _shape_of(key, dims))
            if name in _SYMMETRIC_COST and sched.max_asymmetry() <= SYMMETRY_TOL:
                sched = sched.map(sym)
            kw[name] = sched
        for name, key in _COST_CONSTANT_FIELDS:
            shape = _shape_of(key, dims)
            v = coeffs.get(name)
            arr = np.zeros(shape) if v is None else np.asarray(v, dtype=float)
            if arr.ndim == 0 and int(np.prod(shape)) == 1:
                arr = np.full(shape, float(arr))
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if name in _SYMMETRIC_COST and np.max(np.abs(arr - arr.T)) <= SYMMETRY_TOL:
                arr = sym(arr)
            arr = arr.copy()
            arr.setflags(write=False)
            kw[name] = arr
        return cls(**kw)


@dataclass(frozen=True)
class LqModel:
    dims: Dimensions
    horizon: float
    dynamics: LqDynamics
    cost: LqCost

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    def check_time(self, t: float) -> None:
        if not 0.0 <= t <= self.horizon:
            raise OutOfDomainError(f"t={t} outside [0, {self.horizon}]")

    def table(self, times) -> dict:
        """Every dynamics and running-cost schedule at ``times``: name ->
        values stacked on a leading time axis (see Schedule.table)."""
        return {name: getattr(block, name).table(times)
                for block, fields in ((self.dynamics, _DYNAMICS_FIELDS),
                                      (self.cost, _COST_SCHEDULE_FIELDS))
                for name, _ in fields}


def lq_model(d: int, m: int, horizon: float, **coeffs) -> LqModel:
    """Build a model from keyword coefficients; omitted ones are zero.

    Coefficient values may be scalars (1x1 only), arrays, or Schedules.
    """
    dims = Dimensions(d, m)
    dyn_names = {name for name, _ in _DYNAMICS_FIELDS}
    cost_names = {name for name, _ in _COST_SCHEDULE_FIELDS + _COST_CONSTANT_FIELDS}
    unknown = set(coeffs) - dyn_names - cost_names
    if unknown:
        raise ValueError(f"unknown coefficients: {sorted(unknown)}")
    dyn = LqDynamics.build(dims, **{k: v for k, v in coeffs.items() if k in dyn_names})
    cost = LqCost.build(dims, **{k: v for k, v in coeffs.items() if k in cost_names})
    return LqModel(dims=dims, horizon=float(horizon), dynamics=dyn, cost=cost)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple


def validate_model(model: LqModel) -> ValidationReport:
    """Check every shape/symmetry/span invariant; reports, never raises."""
    v = []
    dims, T = model.dims, model.horizon
    for block, block_fields in ((model.dynamics, _DYNAMICS_FIELDS),
                                (model.cost, _COST_SCHEDULE_FIELDS)):
        for name, key in block_fields:
            sched: Schedule = getattr(block, name)
            expected = _shape_of(key, dims)
            if tuple(sched.shape) != expected:
                v.append(f"{name} has shape {tuple(sched.shape)}, expected {expected}")
                continue
            if not sched.spans(T):
                v.append(f"schedule {name} does not span [0,{T}]")
            if sched.kind == "tabulated" and not np.all(np.diff(sched.times) > 0):
                v.append(f"schedule {name} has non-increasing knot times")
            if name in _SYMMETRIC_COST and sched.max_asymmetry() > SYMMETRY_TOL:
                v.append(f"{name} not symmetric")
    for name, key in _COST_CONSTANT_FIELDS:
        arr = getattr(model.cost, name)
        expected = _shape_of(key, dims)
        if arr.shape != expected:
            v.append(f"{name} has shape {arr.shape}, expected {expected}")
        elif name in _SYMMETRIC_COST and np.max(np.abs(arr - arr.T)) > SYMMETRY_TOL:
            v.append(f"{name} not symmetric")
    return ValidationReport(ok=not v, violations=tuple(v))


# ---------------------------------------------------------------------------
# pointwise evaluation


def _vec(x, n: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape != (n,):
        raise ShapeError(f"{name} has shape {arr.shape}, expected ({n},)")
    return arr


def drift(model: LqModel, t: float, x, a, mean_x, mean_a) -> np.ndarray:
    """b0 + B x + Bbar mean_x + C a + Cbar mean_a at time t."""
    model.check_time(t)
    d, m = model.dims.d, model.dims.m
    x, mean_x = _vec(x, d, "x"), _vec(mean_x, d, "mean_x")
    a, mean_a = _vec(a, m, "a"), _vec(mean_a, m, "mean_a")
    dyn = model.dynamics
    return (dyn.b0(t) + dyn.B(t) @ x + dyn.Bbar(t) @ mean_x
            + dyn.C(t) @ a + dyn.Cbar(t) @ mean_a)


def diffusion(model: LqModel, t: float, x, a, mean_x, mean_a) -> np.ndarray:
    """sigma0 + D x + Dbar mean_x + F a + Fbar mean_a at time t."""
    model.check_time(t)
    d, m = model.dims.d, model.dims.m
    x, mean_x = _vec(x, d, "x"), _vec(mean_x, d, "mean_x")
    a, mean_a = _vec(a, m, "a"), _vec(mean_a, m, "mean_a")
    dyn = model.dynamics
    return (dyn.sigma0(t) + dyn.D(t) @ x + dyn.Dbar(t) @ mean_x
            + dyn.F(t) @ a + dyn.Fbar(t) @ mean_a)


def running_cost(model: LqModel, t: float, x, a, mean_x, mean_a) -> float:
    model.check_time(t)
    d, m = model.dims.d, model.dims.m
    x, mean_x = _vec(x, d, "x"), _vec(mean_x, d, "mean_x")
    a, mean_a = _vec(a, m, "a"), _vec(mean_a, m, "mean_a")
    c = model.cost
    return float(
        x @ c.Q2(t) @ x + mean_x @ c.Q2bar(t) @ mean_x
        + a @ c.R2(t) @ a + mean_a @ c.R2bar(t) @ mean_a
        + 2.0 * x @ c.M2(t) @ a + 2.0 * mean_x @ c.M2bar(t) @ mean_a
        + c.q1(t) @ x + c.q1bar(t) @ mean_x
        + c.r1(t) @ a + c.r1bar(t) @ mean_a
    )


def terminal_cost(model: LqModel, x, mean_x) -> float:
    d = model.dims.d
    x, mean_x = _vec(x, d, "x"), _vec(mean_x, d, "mean_x")
    c = model.cost
    return float(x @ c.P2 @ x + mean_x @ c.P2bar @ mean_x
                 + c.p1 @ x + c.p1bar @ mean_x)


# ---------------------------------------------------------------------------
# measures through their first two moments


def clip_psd(cov: np.ndarray, floor: float) -> tuple[np.ndarray, float]:
    """Symmetrize and clip negative eigenvalues to zero.

    Returns the repaired matrix and the smallest eigenvalue found; the
    caller decides whether that eigenvalue is acceptable.
    """
    c = sym(cov)
    w, q = np.linalg.eigh(c)
    lo = float(w[0])
    if lo < 0.0:
        c = sym((q * np.maximum(w, 0.0)) @ q.T)
    return c, lo


@dataclass(frozen=True)
class MomentState:
    """Mean and covariance: the sufficient statistics of a law for every
    value/cost evaluation in the LQ scope."""

    mean: np.ndarray
    cov: np.ndarray

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float)).copy()
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        d = mean.shape[0]
        if mean.ndim != 1 or cov.shape != (d, d):
            raise ShapeError(f"mean/cov shapes {mean.shape}/{cov.shape} inconsistent")
        if np.max(np.abs(cov - cov.T)) > 1e-8:
            raise ValueError("covariance not symmetric")
        cov, lo = clip_psd(cov, COV_EIG_FLOOR)
        if lo < COV_EIG_FLOOR:
            raise ValueError(f"covariance has eigenvalue {lo} < {COV_EIG_FLOOR}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def dirac(cls, point) -> "MomentState":
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(point, np.zeros((point.size, point.size)))


@dataclass(frozen=True)
class ParticleEnsemble:
    """N state vectors approximating the marginal law empirically."""

    states: np.ndarray

    def __init__(self, states):
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if states.ndim != 2:
            raise ShapeError("states must be an (N, d) array")
        states = states.copy()
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[1]


def ensemble_moments(e: ParticleEnsemble) -> MomentState:
    """Arithmetic mean and unbiased (N-1) covariance of the ensemble."""
    if e.n < 2:
        raise InsufficientSampleError(f"need N >= 2 particles, got {e.n}")
    mean = e.states.mean(axis=0)
    centered = e.states - mean
    cov = sym(centered.T @ centered / (e.n - 1))
    return MomentState(mean, cov)


# ---------------------------------------------------------------------------
# affine feedback laws


def _table_row(table, i: int) -> Callable[[float], np.ndarray]:
    """Gain i of a law's table at one time."""
    return lambda t: table(np.array([t], dtype=float))[i][0]


@dataclass(frozen=True)
class AffineFeedback:
    """Control law a = K1(t)(x - mean_x) + K2(t) mean_x + k(t).

    ``table(times)`` defines the law: it returns the gains (K1, K2, k)
    stacked on a leading time axis, and the moment flow, the particle
    simulator and :meth:`gains` read gains only through it. ``k1``, ``k2``,
    ``k0`` are pointwise views of single table rows for callers that want
    one gain; replacing one of them does not change the law. Build laws
    with :meth:`constant`, :meth:`from_schedules` or from a gain table.
    """

    m: int
    d: int
    table: Callable[[np.ndarray], tuple]
    k1: Callable[[float], np.ndarray] | None = None
    k2: Callable[[float], np.ndarray] | None = None
    k0: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        for i, name in enumerate(("k1", "k2", "k0")):
            if getattr(self, name) is None:
                object.__setattr__(self, name, _table_row(self.table, i))

    @classmethod
    def constant(cls, k1, k2, k0) -> "AffineFeedback":
        k1 = np.atleast_2d(np.asarray(k1, dtype=float))
        k2 = np.atleast_2d(np.asarray(k2, dtype=float))
        k0 = np.atleast_1d(np.asarray(k0, dtype=float))
        m, d = k1.shape
        if k2.shape != (m, d) or k0.shape != (m,):
            raise ShapeError("inconsistent gain shapes")
        return cls.from_schedules(Schedule.constant(k1), Schedule.constant(k2),
                                  Schedule.constant(k0))

    @classmethod
    def from_schedules(cls, k1: Schedule, k2: Schedule, k0: Schedule) -> "AffineFeedback":
        m, d = k1.shape
        if tuple(k2.shape) != (m, d) or tuple(k0.shape) != (m,):
            raise ShapeError("inconsistent gain schedule shapes")
        return cls(m=m, d=d, table=lambda times: (k1.table(times), k2.table(times),
                                                  k0.table(times)))

    def gains(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(K1, K2, k) at t: the one-row table, so one evaluation."""
        K1, K2, k0 = self.table(np.array([t], dtype=float))
        return K1[0], K2[0], k0[0]

    def __call__(self, t: float, x, mean_x) -> np.ndarray:
        x = _vec(x, self.d, "x")
        mean_x = _vec(mean_x, self.d, "mean_x")
        g1, g2, g0 = self.gains(t)
        return g1 @ (x - mean_x) + g2 @ mean_x + g0

    def transformed(self, k1_scale: float = 1.0, k2_scale: float = 1.0,
                    k_scale: float = 1.0, k_shift=0.0) -> "AffineFeedback":
        """New law with scaled gains and a shifted offset."""
        shift = np.broadcast_to(np.asarray(k_shift, dtype=float), (self.m,))
        base = self.table

        def table(times):
            K1, K2, k0 = base(times)
            return k1_scale * K1, k2_scale * K2, k_scale * k0 + shift

        return AffineFeedback(m=self.m, d=self.d, table=table)


# ---------------------------------------------------------------------------
# JSON model documents


def _coefficient_from_json(name: str, raw, shape) -> Schedule:
    if raw is None:
        return Schedule.zeros(shape)
    if isinstance(raw, dict):
        if "knots" not in raw:
            raise ModelDocumentError(f"coefficient '{name}': expected a 'knots' key")
        try:
            times = [float(k[0]) for k in raw["knots"]]
            mats = [_as_shaped(name, k[1], shape) for k in raw["knots"]]
        except (TypeError, IndexError) as exc:
            raise ModelDocumentError(f"coefficient '{name}': malformed knots") from exc
        try:
            return Schedule.tabulated(times, np.stack(mats))
        except ValueError as exc:
            raise ModelDocumentError(f"coefficient '{name}': {exc}") from exc
    return Schedule.constant(_as_shaped(name, raw, shape))


def _as_shaped(name: str, raw, shape) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelDocumentError(f"coefficient '{name}': not numeric") from exc
    if arr.ndim == 0 and int(np.prod(shape)) == 1:
        arr = np.full(shape, float(arr))
    if arr.shape != tuple(shape) and arr.size == int(np.prod(shape)):
        arr = arr.reshape(shape)
    if arr.shape != tuple(shape):
        raise ModelDocumentError(
            f"coefficient '{name}' has shape {arr.shape}, expected {tuple(shape)}")
    return arr


def model_from_document(doc: dict) -> LqModel:
    """Parse the UTF-8 JSON model document layout (see README)."""
    for key in ("dims", "horizon"):
        if key not in doc:
            raise ModelDocumentError(f"missing required field '{key}'")
    dims_doc = doc["dims"]
    if not isinstance(dims_doc, dict) or "d" not in dims_doc or "m" not in dims_doc:
        raise ModelDocumentError("field 'dims' must contain 'd' and 'm'")
    try:
        dims = Dimensions(int(dims_doc["d"]), int(dims_doc["m"]))
    except (TypeError, ValueError) as exc:
        raise ModelDocumentError(f"field 'dims': {exc}") from exc
    try:
        horizon = float(doc["horizon"])
    except (TypeError, ValueError) as exc:
        raise ModelDocumentError("field 'horizon' must be a number") from exc
    if horizon <= 0:
        raise ModelDocumentError("field 'horizon' must be positive")
    dyn_doc = doc.get("dynamics") or {}
    cost_doc = doc.get("cost") or {}
    for block_name, block_doc, known in (
        ("dynamics", dyn_doc, {n for n, _ in _DYNAMICS_FIELDS}),
        ("cost", cost_doc, {n for n, _ in _COST_SCHEDULE_FIELDS + _COST_CONSTANT_FIELDS}),
    ):
        unknown = set(block_doc) - known
        if unknown:
            raise ModelDocumentError(f"unknown {block_name} coefficients: {sorted(unknown)}")
    dyn = LqDynamics(**{
        name: _coefficient_from_json(name, dyn_doc.get(name), _shape_of(key, dims))
        for name, key in _DYNAMICS_FIELDS
    })
    cost_kwargs = {
        name: _coefficient_from_json(name, cost_doc.get(name), _shape_of(key, dims))
        for name, key in _COST_SCHEDULE_FIELDS
    }
    cost_kwargs.update({
        name: _as_shaped(name, cost_doc[name], _shape_of(key, dims))
        for name, key in _COST_CONSTANT_FIELDS if name in cost_doc
    })
    cost = LqCost.build(dims, **cost_kwargs)
    return LqModel(dims=dims, horizon=horizon, dynamics=dyn, cost=cost)


def load_model(path) -> LqModel:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelDocumentError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return model_from_document(doc)


def _schedule_to_json(s: Schedule):
    if s.is_constant:
        return s.value.tolist()
    return {"knots": [[float(t), v.tolist()] for t, v in zip(s.times, s.values)]}


def model_to_document(model: LqModel) -> dict:
    dyn = {name: _schedule_to_json(getattr(model.dynamics, name))
           for name, _ in _DYNAMICS_FIELDS}
    cost = {name: _schedule_to_json(getattr(model.cost, name))
            for name, _ in _COST_SCHEDULE_FIELDS}
    cost.update({name: getattr(model.cost, name).tolist()
                 for name, _ in _COST_CONSTANT_FIELDS})
    return {
        "dims": {"d": model.dims.d, "m": model.dims.m},
        "horizon": model.horizon,
        "dynamics": dyn,
        "cost": cost,
    }
