"""Linear-quadratic mean-field model: coefficients, the state equation and
the costs, moments of particle ensembles, and the JSON document interface.

State dynamics (scalar Brownian noise, so the diffusion is an R^d vector):

    dX_t = [b0 + B x + Bbar E[x] + C a + Cbar E[a]] dt
         + [s0 + D x + Dbar E[x] + F a + Fbar E[a]] dB_t

Running and terminal costs are the full quadratic forms

    f = x'Q2 x + mx'Q2bar mx + a'R2 a + ma'R2bar ma + 2 x'M2 a
        + 2 mx'M2bar ma + q1.x + q1bar.mx + r1.a + r1bar.ma
    g = x'P2 x + mx'P2bar mx + p1.x + p1bar.mx

where mx, ma denote the state/control means. ``_row_terms`` and
``_terminal_rows`` are the one implementation of these formulas, called by
the simulator and the pointwise functions. Model objects are immutable.

``lq_model`` is the single builder: the presets and the JSON documents go
through it, and ``as_schedule`` is the one coercion of a raw coefficient.
Every LqModel is validated when it is constructed (see
``LqModel.__post_init__``), so an invalid model never reaches a solver.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientSampleError, ModelDocumentError, OutOfDomainError, ShapeError
from .schedules import Schedule, _not_a_number, _shaped, as_schedule

SYMMETRY_TOL = 1e-12  # asymmetry below this is repaired, above it is a violation
COV_EIG_FLOOR = -1e-10


def _tr(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix in a stack."""
    return a.swapaxes(-1, -2)


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (a + _tr(a))


def _write_csv(path, header, rows) -> None:
    """A header line, then one line per row with every value in round-trip
    decimal (the repr of a float)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@dataclass(frozen=True)
class Dimensions:
    """State dimension d and control dimension m (noise dimension is 1)."""

    d: int
    m: int

    def __post_init__(self):
        for name in ("d", "m"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"dimension '{name}' must be an integer >= 1, got {n!r}")


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
_COST_FIELDS = _COST_SCHEDULE_FIELDS + _COST_CONSTANT_FIELDS
_SYMMETRIC_COST = ("Q2", "Q2bar", "R2", "R2bar", "P2", "P2bar")


def _shape_of(key: str, dims: Dimensions) -> tuple:
    return {"d": (dims.d,), "m": (dims.m,), "dd": (dims.d, dims.d),
            "mm": (dims.m, dims.m), "dm": (dims.d, dims.m)}[key]


def _stored(coeff) -> np.ndarray:
    """The arrays a coefficient stores, stacked on a leading axis: one row
    for a constant, one per knot for a tabulated schedule."""
    if isinstance(coeff, Schedule):
        return coeff.value[None] if coeff.is_constant else coeff.values
    return np.asarray(coeff, dtype=float)[None]


def _asymmetry(mats: np.ndarray) -> float:
    """Largest entrywise |M - M'| over a stack of square matrices."""
    return float(np.max(np.abs(mats - _tr(mats))))


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


@dataclass(frozen=True)
class LqModel:
    """A model whose every construction, ``dataclasses.replace`` included,
    is validated; build one with :func:`lq_model`."""

    dims: Dimensions
    horizon: float
    dynamics: LqDynamics
    cost: LqCost

    def __post_init__(self):
        """Reject, with a ValueError naming the coefficient, a horizon that
        is not a finite positive number, a coefficient whose shape does not match
        ``dims``, a tabulated schedule that does not span exactly [0, T], a
        non-finite value, and a symmetric cost weight (Q2, Q2bar, R2, R2bar,
        P2, P2bar) asymmetric by more than SYMMETRY_TOL."""
        T = self.horizon
        if _not_a_number(T) or not (math.isfinite(T) and T > 0):
            raise ValueError(f"horizon must be finite and positive, got {T!r}")
        for block, fields in ((self.dynamics, _DYNAMICS_FIELDS),
                              (self.cost, _COST_FIELDS)):
            for name, key in fields:
                coeff = getattr(block, name)
                mats, shape = _stored(coeff), _shape_of(key, self.dims)
                if mats.shape[1:] != shape:
                    raise ValueError(f"coefficient '{name}' has shape "
                                     f"{mats.shape[1:]}, expected {shape}")
                if isinstance(coeff, Schedule) and not coeff.spans(T):
                    raise ValueError(
                        f"coefficient '{name}': knots on [{coeff.times[0]}, "
                        f"{coeff.times[-1]}] do not span exactly [0, {T}]")
                if not np.isfinite(mats).all():
                    raise ValueError(f"coefficient '{name}' has a non-finite value")
                if name in _SYMMETRIC_COST and (gap := _asymmetry(mats)) > SYMMETRY_TOL:
                    raise ValueError(f"coefficient '{name}' is not symmetric "
                                     f"(asymmetry {gap:.3e})")

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

    Each value goes through :func:`as_schedule` (None, a number, an array,
    a Schedule or ``{"knots": ...}``); P2, P2bar, p1, p1bar must be
    constant. A symmetric cost weight within SYMMETRY_TOL of symmetric is
    symmetrized. Raises ValueError naming the coefficient; LqModel lists
    the checks.
    """
    dims = Dimensions(d, m)
    unknown = set(coeffs) - {name for name, _ in _DYNAMICS_FIELDS + _COST_FIELDS}
    if unknown:
        raise ValueError(f"unknown coefficients: {sorted(unknown)}")
    built = {}
    for name, key in _DYNAMICS_FIELDS + _COST_FIELDS:
        try:
            sched = as_schedule(coeffs.get(name), _shape_of(key, dims))
        except ValueError as exc:
            raise ValueError(f"coefficient '{name}': {exc}") from exc
        if name in _SYMMETRIC_COST and _asymmetry(mats := _stored(sched)) <= SYMMETRY_TOL:
            sched = (Schedule.constant(sym(mats[0])) if sched.is_constant
                     else Schedule.tabulated(sched.times, sym(mats)))
        built[name] = sched
    for name, _ in _COST_CONSTANT_FIELDS:
        if not built[name].is_constant:
            raise ValueError(f"coefficient '{name}' must be constant in time")
        built[name] = built[name].value
    try:
        horizon = float(_shaped(horizon, ()))
    except ValueError as exc:
        raise ValueError(f"horizon must be a number: {exc}") from exc
    return LqModel(dims=dims, horizon=horizon,
                   dynamics=LqDynamics(**{n: built[n] for n, _ in _DYNAMICS_FIELDS}),
                   cost=LqCost(**{n: built[n] for n, _ in _COST_FIELDS}))


# ---------------------------------------------------------------------------
# the state equation and the costs, on rows of particles (pointwise: one row)


def _quad_rows(X: np.ndarray, M: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise x_i' M y_i."""
    return np.einsum("ij,jk,ik->i", X, M, Y)


def _row_terms(c: dict, r: int, X, A, mx, ma):
    """(drift, diffusion, running cost) of states X (N, d) under controls A
    (N, m) with means mx, ma, at row r of an LqModel.table. Row i of each
    result depends on row i of X and A alone."""
    b = (c["b0"][r] + X @ c["B"][r].T + c["Bbar"][r] @ mx
         + A @ c["C"][r].T + c["Cbar"][r] @ ma)
    s = (c["sigma0"][r] + X @ c["D"][r].T + c["Dbar"][r] @ mx
         + A @ c["F"][r].T + c["Fbar"][r] @ ma)
    f = (_quad_rows(X, c["Q2"][r], X) + mx @ c["Q2bar"][r] @ mx
         + _quad_rows(A, c["R2"][r], A) + ma @ c["R2bar"][r] @ ma
         + 2.0 * _quad_rows(X, c["M2"][r], A) + 2.0 * mx @ c["M2bar"][r] @ ma
         + X @ c["q1"][r] + c["q1bar"][r] @ mx
         + A @ c["r1"][r] + c["r1bar"][r] @ ma)
    return b, s, f


def _terminal_rows(cost: LqCost, X: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """Terminal cost of the states X (N, d) against the mean mx."""
    return (_quad_rows(X, cost.P2, X) + mx @ cost.P2bar @ mx
            + X @ cost.p1 + cost.p1bar @ mx)


def _vec(x, n: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape != (n,):
        raise ShapeError(f"{name} has shape {arr.shape}, expected ({n},)")
    return arr


def _pointwise(model: LqModel, t: float, x, a, mean_x, mean_a):
    """_row_terms for one state at time t: row 0 of model.table([t])."""
    model.check_time(t)
    d, m = model.dims.d, model.dims.m
    x, mean_x = _vec(x, d, "x"), _vec(mean_x, d, "mean_x")
    a, mean_a = _vec(a, m, "a"), _vec(mean_a, m, "mean_a")
    b, s, f = _row_terms(model.table([t]), 0, x[None], a[None], mean_x, mean_a)
    return b[0], s[0], float(f[0])


def drift(model: LqModel, t: float, x, a, mean_x, mean_a) -> np.ndarray:
    """b0 + B x + Bbar mean_x + C a + Cbar mean_a at time t."""
    return _pointwise(model, t, x, a, mean_x, mean_a)[0]


def diffusion(model: LqModel, t: float, x, a, mean_x, mean_a) -> np.ndarray:
    """sigma0 + D x + Dbar mean_x + F a + Fbar mean_a at time t."""
    return _pointwise(model, t, x, a, mean_x, mean_a)[1]


def running_cost(model: LqModel, t: float, x, a, mean_x, mean_a) -> float:
    """The running cost f at time t (see the module docstring)."""
    return _pointwise(model, t, x, a, mean_x, mean_a)[2]


def terminal_cost(model: LqModel, x, mean_x) -> float:
    """The terminal cost g (see the module docstring)."""
    x, mean_x = _vec(x, model.dims.d, "x"), _vec(mean_x, model.dims.d, "mean_x")
    return float(_terminal_rows(model.cost, x[None], mean_x)[0])


# ---------------------------------------------------------------------------
# measures through their first two moments


def clip_psd(cov: np.ndarray) -> tuple[np.ndarray, float]:
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
    value/cost evaluation in the LQ scope. Both must be finite numbers, not
    strings or booleans; the covariance symmetric, its eigenvalues above
    COV_EIG_FLOOR."""

    mean: np.ndarray
    cov: np.ndarray

    def __init__(self, mean, cov):
        if _not_a_number(mean) or _not_a_number(cov):
            raise ValueError("mean/cov not numeric: a string or a boolean")
        try:
            mean = np.atleast_1d(np.asarray(mean, dtype=float)).copy()
            cov = np.asarray(cov, dtype=float)
        except TypeError as exc:
            raise ValueError(f"mean/cov not numeric: {exc}") from exc
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        d = mean.shape[0]
        if mean.ndim != 1 or cov.shape != (d, d):
            raise ShapeError(f"mean/cov shapes {mean.shape}/{cov.shape} inconsistent")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean/cov has a non-finite value")
        if np.max(np.abs(cov - cov.T)) > 1e-8:
            raise ValueError("covariance not symmetric")
        cov, lo = clip_psd(cov)
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


def _sample_moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arithmetic mean and unbiased (N-1) covariance of the rows of X."""
    mean = X.mean(axis=0)
    centered = X - mean
    return mean, sym(centered.T @ centered / (X.shape[0] - 1))


def ensemble_moments(states) -> MomentState:
    """Arithmetic mean and unbiased (N-1) covariance of an (N, d) array of
    particle states."""
    X = np.asarray(states, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"states must be an (N, d) array, got shape {X.shape}")
    if X.shape[0] < 2:
        raise InsufficientSampleError(f"need N >= 2 particles, got {X.shape[0]}")
    return MomentState(*_sample_moments(X))


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
    with :meth:`constant` or from a gain table.
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
        k1, k2, k0 = (Schedule.constant(k) for k in (k1, k2, k0))
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


# ---------------------------------------------------------------------------
# JSON model documents


def model_from_document(doc) -> LqModel:
    """Parse the UTF-8 JSON model document layout (see README) and build it
    with :func:`lq_model`. Every error, of layout or of the model, is a
    ModelDocumentError naming the field."""
    if not isinstance(doc, dict):
        raise ModelDocumentError("a model document must be a JSON object")
    for key in ("dims", "horizon"):
        if key not in doc:
            raise ModelDocumentError(f"missing required field '{key}'")
    dims = doc["dims"]
    if not isinstance(dims, dict) or "d" not in dims or "m" not in dims:
        raise ModelDocumentError("field 'dims' must contain 'd' and 'm'")
    coeffs = {}
    for block, fields in (("dynamics", _DYNAMICS_FIELDS), ("cost", _COST_FIELDS)):
        raw = doc.get(block, {})
        if not isinstance(raw, dict):
            raise ModelDocumentError(f"field '{block}' must be an object")
        unknown = set(raw) - {name for name, _ in fields}
        if unknown:
            raise ModelDocumentError(f"unknown {block} coefficients: {sorted(unknown)}")
        coeffs.update(raw)
    try:
        return lq_model(dims["d"], dims["m"], doc["horizon"], **coeffs)
    except ValueError as exc:
        raise ModelDocumentError(str(exc)) from exc


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
