"""Linear-quadratic mean-field model: coefficients, the state equation and
the costs, moments of particle ensembles, and the JSON document interface.

State dynamics (scalar Brownian noise, so the diffusion is an R^d vector):

    dX_t = [b0 + B x + Bbar E[x] + C a + Cbar E[a]] dt
         + [s0 + D x + Dbar E[x] + F a + Fbar E[a]] dB_t

Running and terminal costs are the full quadratic forms

    f = x'Q2 x + mx'Q2bar mx + a'R2 a + ma'R2bar ma + 2 x'M2 a
        + 2 mx'M2bar ma + q1.x + q1bar.mx + r1.a + r1bar.ma
    g = x'P2 x + mx'P2bar mx + p1.x + p1bar.mx

where mx, ma denote the state/control means. ``_step_map`` and
``_terminal_rows``, the implementation of these formulas, act on the
columns x~ = [x; 1] of the particle simulator's (d+1, n) ensemble: under an
affine law the controls z = [x; a] are M x~, so H = [B C; D F; Q2 M2; M2' R2;
q1' r1'] times M gives the drift, the diffusion and the running cost's
quadratic form in x~, and its barred twin the terms of the means.
``_law_pairs`` writes them for an affine law's moments, and ``_flow`` the
generator of the flow of its moment pair ``_pair_of``. Models are immutable.

``lq_model`` is the single builder: the presets and the JSON documents go
through it, and ``as_schedule`` is the one coercion of a raw coefficient.
Every LqModel is validated when it is constructed (see
``LqModel.__post_init__``), so an invalid model never reaches a solver.

The coefficient set is declared once, in the registries ``_DYNAMICS_FIELDS``
and ``_COST_*_FIELDS`` (name, shape key): ``LqDynamics`` and ``LqCost`` are
built from them, and the validator, the builder, the documents and
``LqModel.table``, the one coefficient table every solver reads (its
docstring gives the layout), iterate over them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, make_dataclass
from typing import Callable

import numpy as np

from .errors import ModelDocumentError, OutOfDomainError, ShapeError
from .schedules import Schedule, _frozen, _not_a_number, _numeric, _shaped, as_schedule

SYMMETRY_TOL = 1e-12  # asymmetry below this is repaired, above it is a violation
COV_EIG_FLOOR = -1e-10
TABLE_BUDGET = 2 ** 15  # floats of LqModel.table per block of steps: bounds table memory
MIN_BLOCK_STEPS = 16


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


def check_count(name: str, n, least: int) -> None:
    """Raise a ValueError naming ``name`` unless ``n`` is an integer, not a
    bool, and at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")


@dataclass(frozen=True)
class Dimensions:
    """State dimension d and control dimension m (noise dimension is 1)."""

    d: int
    m: int

    def __post_init__(self):
        for name in ("d", "m"):
            check_count(f"dimension '{name}'", getattr(self, name), 1)


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
# (coefficient, barred term, block, shape key of a member): the (Lam~, Gam~) pairs of
# the augmented Riccati state, views of LqModel.table's blocks; a D axis is their first d + 1
_PAIRS = (("B", "Bbar", "J", "DD"), ("C", "Cbar", "J", "Dm"), ("D", "Dbar", "E", "DD"),
          ("F", "Fbar", "E", "Dm"), ("Q2", "Q2bar", "T", "DD"), ("M2", "M2bar", "T", "Dm"),
          ("R2", "R2bar", "T", "mm"))
_BLOCKS = (("J", "DN"), ("E", "DN"), ("T", "NN"))


def _shape_of(key: str, dims: Dimensions) -> tuple:
    """The shape a key spells, one size per letter: d, m, D = d + 1 or N = d + 1 + m."""
    sizes = {"d": dims.d, "m": dims.m, "D": dims.d + 1, "N": dims.d + 1 + dims.m}
    return tuple(sizes[k] for k in key)


def _asymmetry(mats: np.ndarray) -> float:
    """Largest entrywise |M - M'| over a stack of square matrices."""
    return float(np.max(np.abs(mats - _tr(mats))))


LqDynamics = make_dataclass(
    "LqDynamics", [(name, Schedule) for name, _ in _DYNAMICS_FIELDS], frozen=True)
LqCost = make_dataclass(
    "LqCost", [(name, Schedule) for name, _ in _COST_SCHEDULE_FIELDS]
    + [(name, np.ndarray) for name, _ in _COST_CONSTANT_FIELDS], frozen=True)
# make_dataclass takes no module= before Python 3.12; pickling finds a
# class by its module
LqDynamics.__module__ = LqCost.__module__ = __name__


@dataclass(frozen=True)
class LqModel:
    """A model whose every construction, ``dataclasses.replace`` included,
    is validated; build one with :func:`lq_model`."""

    dims: Dimensions
    horizon: float
    dynamics: LqDynamics
    cost: LqCost
    knot_groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Reject, with a ValueError naming the coefficient, a horizon not
        finite and positive, a schedule field that is not a Schedule or a
        constant field that is one, a shape other than ``dims`` gives, knots
        not spanning exactly [0, T], a non-finite value, and a symmetric cost
        weight asymmetric by more than SYMMETRY_TOL."""
        T = self.horizon
        if _not_a_number(T) or not (math.isfinite(T) and T > 0):
            raise ValueError(f"horizon must be finite and positive, got {T!r}")
        for block, fields in ((self.dynamics, _DYNAMICS_FIELDS),
                              (self.cost, _COST_FIELDS)):
            for name, key in fields:
                coeff = getattr(block, name)
                scheduled = (name, key) not in _COST_CONSTANT_FIELDS
                if isinstance(coeff, Schedule) != scheduled:
                    kind = "a Schedule" if scheduled else "constant, not a Schedule"
                    raise ValueError(f"coefficient '{name}' must be {kind}, "
                                     f"got {type(coeff).__name__}")
                mats = coeff.values if scheduled else np.asarray(coeff, dtype=float)[None]
                shape = _shape_of(key, self.dims)
                if mats.shape[1:] != shape:
                    raise ValueError(f"coefficient '{name}' has shape "
                                     f"{mats.shape[1:]}, expected {shape}")
                if scheduled and not coeff.spans(T):
                    raise ValueError(
                        f"coefficient '{name}': knots on [{coeff.times[0]}, "
                        f"{coeff.times[-1]}] do not span exactly [0, {T}]")
                if not np.isfinite(mats).all():
                    raise ValueError(f"coefficient '{name}' has a non-finite value")
                if name in _SYMMETRIC_COST and (gap := _asymmetry(mats)) > SYMMETRY_TOL:
                    raise ValueError(f"coefficient '{name}' is not symmetric "
                                     f"(asymmetry {gap:.3e})")
        object.__setattr__(self, "knot_groups", _knot_groups(self))

    def check_time(self, t: float) -> None:
        if not 0.0 <= t <= self.horizon:
            raise OutOfDomainError(f"t={t} outside [0, {self.horizon}]")

    def check_law(self, law: "MomentState") -> None:
        if law.d != self.dims.d:
            raise ShapeError(f"law has dimension {law.d}, the model has d={self.dims.d}")

    def check_gains(self, K: np.ndarray) -> None:
        if K.ndim != 4 or K.shape[0] != 2 or K.shape[-2:] != (self.dims.m, self.dims.d + 1):
            raise ShapeError(f"law has K1 gains of shape {K.shape[-2], K.shape[-1] - 1}, the "
                             f"model has m={self.dims.m}, d={self.dims.d}; table shape {K.shape}")

    def table(self, times) -> dict:
        """Every dynamics and running-cost coefficient at ``times``: name ->
        values stacked on a leading time axis, vectors as columns, the times
        under "t", and the (Lam~, Gam~) pairs of the augmented Riccati state
        (riccati module docstring) stacked on a leading axis in three blocks,
        "J": [B~ C~], "E": [D~ F~] and "T": [[Q~ M~], [M~' R~]], d + 1 rows or
        columns first. For each X of B, C, D, F, Q2, M2, R2, X + "p" ("Bp",
        ...) is the view of its pair in its block (_PAIRS): X and X+Xbar
        padded with zeros, the padding of the Gam~ member holding b0 in
        B~ = [[B+Bbar, b0], [0, 0]], sigma0 in D~, q/2 = (q1+q1bar)/2 in the
        last row and column of Q~ and r'/2 = (r1+r1bar)'/2 in the last row of M~.

        Each of ``knot_groups`` is interpolated once (Schedule.table) and its
        fields are views of that table, so a constant is a read-only
        broadcast and a knot time returns the stored knot values; outside a
        knot vector's span Schedule.table raises OutOfDomainError. Row j
        (c[name][j], c[block][:, j]) depends on times[j] alone.
        """
        times = np.asarray(times, dtype=float)
        c = {"t": times}
        for sched, layout in self.knot_groups:
            values = sched.table(times)
            for name, i0, i1, shape in layout:
                view = values[..., i0:i1].reshape(times.shape + shape)
                c[name] = view[..., None] if len(shape) == 1 else view
        for name, key in _BLOCKS:
            c[name] = np.zeros((2,) + times.shape + _shape_of(key, self.dims))
        d = self.dims.d
        for name, bar, block, key in _PAIRS:
            at = tuple(slice(d + 1) if k == "D" else slice(d + 1, None) for k in key)
            pair = c[name + "p"] = c[block][(...,) + at]
            member = (..., slice(c[name].shape[-2]), slice(c[name].shape[-1]))
            pair[0][member] = c[name]
            np.add(c[name], c[bar], out=pair[1][member])
        c["Bp"][1, ..., :d, d] = c["b0"][..., 0]
        c["Dp"][1, ..., :d, d] = c["sigma0"][..., 0]
        Q = c["Q2p"][1]
        Q[..., :d, d] = Q[..., d, :d] = 0.5 * (c["q1"] + c["q1bar"])[..., 0]
        c["M2p"][1, ..., d, :] = 0.5 * (c["r1"] + c["r1bar"])[..., 0]
        c["T"][..., d + 1:, :d + 1] = _tr(c["M2p"])
        return c

    @property
    def block_steps(self) -> int:
        """Steps per table block: the most whose table, two rows per step
        (a grid point and a midpoint), fits TABLE_BUDGET floats, and at least
        MIN_BLOCK_STEPS."""
        row = sum(i1 - i0 for _, layout in self.knot_groups for _, i0, i1, _ in layout)
        row += 2 * sum(math.prod(_shape_of(key, self.dims)) for _, key in _BLOCKS)
        return max(MIN_BLOCK_STEPS, TABLE_BUDGET // (2 * row))


def _knot_groups(model: LqModel) -> tuple:
    """The schedule fields of ``model`` grouped by knot vector, every
    constant in one group: per group one Schedule whose values hold its
    fields flattened side by side, and per field (name, first column, end
    column, shape)."""
    groups: dict = {}
    for block, fields in ((model.dynamics, _DYNAMICS_FIELDS),
                          (model.cost, _COST_SCHEDULE_FIELDS)):
        for name, _ in fields:
            sched = getattr(block, name)
            key = None if sched.is_constant else sched.times.tobytes()
            groups.setdefault(key, []).append((name, sched))
    out = []
    for members in groups.values():
        flat = [sched.values.reshape(sched.values.shape[0], -1) for _, sched in members]
        ends = np.cumsum([f.shape[1] for f in flat])
        layout = tuple((name, int(end) - f.shape[1], int(end), sched.shape)
                       for (name, sched), f, end in zip(members, flat, ends))
        out.append((Schedule(members[0][1].times, _frozen(np.concatenate(flat, axis=1))),
                    layout))
    return tuple(out)


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
        if name in _SYMMETRIC_COST and _asymmetry(sched.values) <= SYMMETRY_TOL:
            sched = Schedule(sched.times, _frozen(sym(sched.values)))
        built[name] = sched
    for name, _ in _COST_CONSTANT_FIELDS:
        if not built[name].is_constant:
            raise ValueError(f"coefficient '{name}' must be constant in time")
        built[name] = built[name].values[0]
    try:
        horizon = float(_shaped(horizon, ()))
    except ValueError as exc:
        raise ValueError(f"horizon must be a number: {exc}") from exc
    return LqModel(dims=dims, horizon=horizon,
                   dynamics=LqDynamics(**{n: built[n] for n, _ in _DYNAMICS_FIELDS}),
                   cost=LqCost(**{n: built[n] for n, _ in _COST_FIELDS}))


# ---------------------------------------------------------------------------
# the state equation and the costs, on the columns of a particle ensemble


def _row_factors(c: dict) -> np.ndarray:
    """H and its barred twin (module docstring) at the rows of an
    LqModel.table c: shape (2, rows, 3d+m+1, d+m)."""
    return np.stack([np.block([[c["B" + s], c["C" + s]], [c["D" + s], c["F" + s]],
                               [c["Q2" + s], c["M2" + s]], [_tr(c["M2" + s]), c["R2" + s]],
                               [_tr(c["q1" + s]), _tr(c["r1" + s])]]) for s in ("", "bar")])


def _step_map(c: dict, H: np.ndarray, r: int, K: np.ndarray, mhat: np.ndarray,
              dt: float) -> np.ndarray:
    """The step S (3d+1, d+1) of the law with gain pair row K at the state mean
    mhat, row r of a table c and its _row_factors H. A column x~ = [x; 1] has
    controls z = [x; a] = M x~, M = [[I, 0], [K1, abar - K1 mhat]], abar = K2
    mhat + k, and S x~ stacks dt b, sqrt(dt) s and dt Phi x~, x~'Phi x~ the running
    cost: Phi = M'(Q M), its last row plus the linear and the barred cost."""
    d = mhat.size
    K1, abar = K[0, :, :d], K[1, :, :d] @ mhat + K[1, :, d]
    M = np.eye(H.shape[-1], d + 1)
    M[d:, :d], M[d:, d] = K1, abar - K1 @ mhat
    zbar = np.concatenate([mhat, abar])
    Y, ybar = H[0, r] @ M, H[1, r] @ zbar
    Y[:2 * d, d] += np.append(c["b0"][r], c["sigma0"][r]) + ybar[:2 * d]
    Phi = M.T @ Y[2 * d:-1]
    Phi[d] += Y[-1]
    Phi[d, d] += zbar @ ybar[2 * d:-1] + ybar[-1]
    return np.vstack([dt * Y[:d], math.sqrt(dt) * Y[d:2 * d], dt * Phi])


def _law_pairs(c: dict, j, K: np.ndarray):
    """The pairs (B~ + C~K, D~ + F~K, Q~ + M~K + K'M~' + K'R K) of the affine
    law with gain pair K = ([K1, 0], [K2, k]) at row j (an int, a slice or
    Ellipsis) of a table c. Member 0 holds, zero-padded, the deviation's
    drift A = B + C K1, diffusion G = D + F K1 and cost W; member 1 the
    mean's on m~ = [mean; 1], with b0, sigma0, q/2 and r/2 in the padding."""
    MK = c["M2p"][:, j] @ K
    return (c["Bp"][:, j] + c["Cp"][:, j] @ K, c["Dp"][:, j] + c["Fp"][:, j] @ K,
            c["Q2p"][:, j] + MK + _tr(MK) + _tr(K) @ c["R2p"][:, j] @ K)


def _pair_of(ms: "MomentState") -> np.ndarray:
    """A law's moment pair S~ = (Cov padded with zeros, m~m~'), m~ = [mean; 1]:
    its value and lifted costs are contractions <P~, S~> = sum P~ * S~."""
    m, S = np.append(ms.mean, 1.0), np.zeros((2, ms.d + 1, ms.d + 1))
    S[0, :-1, :-1] = ms.cov
    np.multiply.outer(m, m, out=S[1])
    return S


def _flow(A: np.ndarray, G: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The generator L, y' = L y, of an affine law's flat moment state
    y = (S~, running cost) under its _law_pairs A~, G~, W~ (pair axes lead, the
    others lead L) in Kronecker form: vec(X S Y') = (X (x) Y) vec S row-major."""
    n = A.shape[-1]
    nn, eye, shape = n * n, np.eye(n), A.shape[:-2] + (n * n, n * n)
    AI = (A[..., :, None, :, None] * eye[:, None, :]
          + eye[:, None, :, None] * A[..., None, :, None, :]).reshape(shape)
    GG = (G[..., :, None, :, None] * G[..., None, :, None, :]).reshape(shape)
    L = np.zeros(A.shape[1:-2] + (2 * nn + 1,) * 2)
    L[..., :nn, :nn] = AI[0] + GG[0]
    L[..., :nn, nn:-1] = GG[1]
    L[..., nn:-1, nn:-1] = AI[1]
    L[..., -1, :-1] = np.moveaxis(W, 0, -3).reshape(L.shape[:-2] + (2 * nn,))
    return L


def _terminal_rows(cost: LqCost, X: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """Terminal cost of the columns of X (d, n) against the mean mx."""
    return (np.einsum("ij,ij->j", cost.P2 @ X, X) + cost.p1 @ X
            + (mx @ (cost.P2bar @ mx) + cost.p1bar @ mx))


def _finite(value, name: str) -> np.ndarray:
    """_numeric(value) if every entry is finite; a ValueError names ``name``."""
    try:
        arr = _numeric(value)
    except ValueError as exc:
        raise ValueError(f"{name} {exc}") from exc
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has a non-finite value")
    return arr


def _vec(x, n: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(_finite(x, name))
    if arr.shape != (n,):
        raise ShapeError(f"{name} has shape {arr.shape}, expected ({n},)")
    return arr


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
        mean, cov = np.atleast_1d(_finite(mean, "mean")), _finite(cov, "cov")
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        d = mean.shape[0]
        if mean.ndim != 1 or cov.shape != (d, d):
            raise ShapeError(f"mean/cov shapes {mean.shape}/{cov.shape} inconsistent")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
            if np.max(np.abs(cov - cov.T)) > 1e-8:
                raise ValueError("covariance not symmetric")
            cov, lo = clip_psd(cov)
        cov = _finite(cov, "cov")
        if lo < COV_EIG_FLOOR:
            raise ValueError(f"covariance has eigenvalue {lo} < {COV_EIG_FLOOR}")
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "cov", _frozen(cov))

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def dirac(cls, point) -> "MomentState":
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(point, np.zeros((point.size, point.size)))


def _sample_moments(X: np.ndarray, centred: np.ndarray | None = None):
    """Mean (pairwise over each row) and unbiased covariance of the columns
    of X (d, N); the centred columns go to ``centred`` when given."""
    mean = np.add.reduce(X, axis=1) / X.shape[1]  # X.mean(axis=1), bit for bit
    centred = np.subtract(X, mean[:, None], out=centred)
    return mean, sym(centred @ centred.T / (X.shape[1] - 1))


# ---------------------------------------------------------------------------
# affine feedback laws


@dataclass(frozen=True)
class AffineFeedback:
    """Control law a = K1(t)(x - mean_x) + K2(t) mean_x + k(t).

    ``table(times)`` defines the law: its gain pair K~ = ([K1, 0], [K2, k])
    at ``times``, shape (2, rows, m, d+1), laid out like LqModel.table's
    pairs, which the moment flow and the simulator read as it is; no result
    depends on member 0's last column. Only :meth:`gains`, the law's action
    and the pointwise views ``k1``, ``k2``, ``k0`` split it (replacing a view
    does not change the law). Build laws with :meth:`constant` or from a gain
    table; the flow and the simulator reject a K1 not m x d (check_gains).
    """

    table: Callable[[np.ndarray], np.ndarray]
    k1: Callable[[float], np.ndarray] | None = None
    k2: Callable[[float], np.ndarray] | None = None
    k0: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        for i, name in enumerate(("k1", "k2", "k0")):
            if getattr(self, name) is None:
                object.__setattr__(self, name, lambda t, i=i: self.gains(t)[i])

    @classmethod
    def constant(cls, k1, k2, k0) -> "AffineFeedback":
        k1 = np.atleast_2d(_finite(k1, "k1"))
        k2 = np.atleast_2d(_finite(k2, "k2"))
        k0 = np.atleast_1d(_finite(k0, "k0"))
        if k1.ndim != 2 or k2.shape != k1.shape or k0.shape != k1.shape[:1]:
            raise ShapeError(f"gains of shapes {k1.shape}, {k2.shape}, {k0.shape}, not m x d, "
                             "m x d and m")
        K = _frozen([np.column_stack([k1, np.zeros_like(k0)]), np.column_stack([k2, k0])])[:, None]
        return cls(table=lambda times: np.broadcast_to(K, (2,) + np.shape(times) + K.shape[2:]))

    def gains(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(K1, K2, k) at t: views of the one-row table, so one evaluation."""
        K = self.table(np.array([t], dtype=float))[:, 0]
        return K[0, :, :-1], K[1, :, :-1], K[1, :, -1]

    def __call__(self, t: float, x, mean_x) -> np.ndarray:
        g1, g2, g0 = self.gains(t)
        x = _vec(x, g1.shape[1], "x")
        mean_x = _vec(mean_x, g1.shape[1], "mean_x")
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


def _to_json(s):
    """A constant coefficient as its value, a tabulated one as its knots."""
    if not isinstance(s, Schedule):
        return s.tolist()
    if s.is_constant:
        return s.values[0].tolist()
    return {"knots": [[float(t), v.tolist()] for t, v in zip(s.times, s.values)]}


def model_to_document(model: LqModel) -> dict:
    doc = {"dims": {"d": model.dims.d, "m": model.dims.m}, "horizon": model.horizon}
    for block, fields in (("dynamics", _DYNAMICS_FIELDS), ("cost", _COST_FIELDS)):
        doc[block] = {name: _to_json(getattr(getattr(model, block), name))
                      for name, _ in fields}
    return doc
