"""Backward Riccati system for the LQ mean-field value function.

The quadratic value ansatz

    w(t, mu) = tr(Lam(t) Cov(mu)) + mean' Gam(t) mean + gam(t).mean + chi(t)

holds iff (Lam, Gam, gam, chi) solve a terminal-value ODE system: two
matrix Riccati equations coupled through the auxiliary matrices

    U = F' Lam F + R2
    V = (F+Fbar)' Lam (F+Fbar) + R2 + R2bar
    S = D' Lam F + Lam C + M2
    Z = (D+Dbar)' Lam (F+Fbar) + Gam (C+Cbar) + M2 + M2bar
    Y = (C+Cbar)' gam + r1 + r1bar + 2 (F+Fbar)' Lam sigma0

and two linear ODEs for the first-order coefficients:

    Lam' = -(Q2 + D'Lam D + Lam B + B'Lam - S U^{-1} S')
    Gam' = -(Q2+Q2bar + (D+Dbar)'Lam(D+Dbar) + Gam(B+Bbar)
             + (B+Bbar)'Gam - Z V^{-1} Z')
    gam' = -((B+Bbar)'gam - Z V^{-1} Y + q1 + q1bar
             + 2 (D+Dbar)'Lam sigma0 + 2 Gam b0)
    chi' = -(-1/4 Y'V^{-1}Y + gam.b0 + sigma0'Lam sigma0)

with terminal data Lam(T) = P2, Gam(T) = P2 + P2bar, gam(T) = p1 + p1bar,
chi(T) = 0.

The solver folds gam and chi into one matrix: with m~ = [mean; 1],
mean' Gam mean + gam.mean + chi = m~' Gam~ m~ for Gam~ = [[Gam, gam/2],
[gam'/2, chi]] (the augmented mean state of Yong, SIAM J. Control Optim.
51(4), 2013). The state is the pair P~ = (Lam~, Gam~) of (d+1) x (d+1)
matrices, Lam~ being Lam padded with zeros; its terminal value is
(P2 padded, [[P2+P2bar, p/2], [p'/2, 0]]), p = p1+p1bar. The right-hand
side is the minimum over the control of a quadratic form in (x, a), a Schur
complement: with the stacked coefficient blocks J~ = [B~ C~], E~ = [D~ F~]
and T~ = [[Q~ M~], [M~' R~]] of ``LqModel.table`` (its docstring gives them),

    N   = sym(E~' Lam~ E~ + T~ + 2 [P~ J~; 0]) = [[N_xx, (S~, Z~)], [., (U, V)]]
    P~' = -(N / (U, V)) = -(N_xx - (S~, Z~) W),   W = (U, V)^{-1} (S~, Z~)'

with N_xx = Q~ + D~' Lam~ D~ + P~ B~ + B~' P~, (S~, Z~) = D~' Lam~ F~ +
P~ C~ + M~ and (U, V) = F~' Lam~ F~ + R~, in which S~ = [S; 0], Z~ =
[Z; Y'/2], W = (U^{-1}S', V^{-1}[Z', Y/2]), the last column of Gam~' is
[gam'/2; chi'] and Lam~' keeps the zero padding.

Integration is classical fixed-step RK4 backward in time. U and V must stay
positive definite at every stage or the solve fails fast with a breakdown
error; one eigh of the (U, V) pair per stage serves the inversions, the
positivity floor and the condition cap (_solved_aux). The solution is the
flat RK4 grid, per grid time a row of the (d+1)^2 distinct entries of the
symmetric pair (Lam~, Gam~) plus one zero for Lam~'s padding (_layout), and
a row of its derivative; one cubic Hermite expression over the rows answers
queries at 4th order, and one index map expands a row to the full pair. The
coefficients are tabulated once per block of RK4 stages (the model's
``block_steps``), and the stepper, which also drives the moment flow,
addresses stages by table row. Tables, Hermite queries and
the stacked check evaluate each row on its own, so a row is bitwise the
same whichever other times share its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .errors import RiccatiBreakdownError
from .model import LqModel, _tr, _write_csv, check_count, sym
from .schedules import _bracket

POSITIVITY_FLOOR = 1e-10
CONDITION_LIMIT = 1e12
PSD_TOL = 1e-12


@dataclass(frozen=True)
class RiccatiState:
    """Value-function coefficients at a single time."""

    Lam: np.ndarray
    Gam: np.ndarray
    gam: np.ndarray
    chi: float


def terminal_state(model: LqModel) -> RiccatiState:
    c = model.cost
    return RiccatiState(Lam=c.P2.copy(), Gam=c.P2 + c.P2bar,
                        gam=c.p1 + c.p1bar, chi=0.0)


def _stages(times: np.ndarray, block: int, table):
    """Per block of ``block`` steps through ``times``, (k0, k1, table(stage times)): times[k0..k1]
    interleaved with their midpoints, step k's rows 2(k-k0)-2..2(k-k0)."""
    n = times.size - 1
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        stage = np.empty(2 * (k1 - k0) + 1)
        stage[0::2] = times[k0:k1 + 1]
        stage[1::2] = 0.5 * (times[k0:k1] + times[k0 + 1:k1 + 1])
        yield k0, k1, table(stage)


def _rk4_step(rhs, tab, mid, end, y, f, h: float):
    """The RK4 step of signed length h from y with derivative f, the later
    stages at table rows ``mid`` and ``end``: ints, or slices over a stack of
    steps with a stacked identity for y, which gives the step matrices."""
    a2 = rhs(tab, mid, y + 0.5 * h * f)
    a3 = rhs(tab, mid, y + 0.5 * h * a2)
    a4 = rhs(tab, end, y + h * a3)
    return y + h / 6.0 * (f + 2.0 * a2 + 2.0 * a3 + a4)


def _rk4(times: np.ndarray, h: float, y: np.ndarray, table, rhs, settle, block: int):
    """Classical fixed-step RK4 (_rk4_step) through ``times`` (in integration
    order, signed step ``h``): per block of _stages, ``table(stage_times)``
    tabulates what depends on time alone, a row on its own time, so no result
    depends on ``block``; ``rhs(tab, row, y)`` is the derivative at a row and
    ``settle(k, y)`` checks each new state. Yields (k, y, f) per grid index."""
    f = None
    for k0, k1, tab in _stages(times, block, table):
        if f is None:
            f = rhs(tab, 0, y)
            yield 0, y, f
        for k in range(k0 + 1, k1 + 1):
            j = 2 * (k - k0)
            y = settle(k, _rk4_step(rhs, tab, j - 1, j, y, f, h))
            f = rhs(tab, j, y)
            yield k, y, f


def _spectrum_error(w: np.ndarray, t: float, name: str):
    """The breakdown a spectrum w (ascending) signals at time t, or None."""
    if not np.isfinite(w).all():
        return RiccatiBreakdownError(f"{name} non-finite at t={t:.6g}", time=t)
    lo = float(w[0])
    if lo < POSITIVITY_FLOOR:
        return RiccatiBreakdownError(
            f"{name} loses positive definiteness at t={t:.6g} "
            f"(smallest eigenvalue {lo:.3e})", time=t, eigenvalue=lo)
    if float(w[-1]) / lo > CONDITION_LIMIT:
        return RiccatiBreakdownError(
            f"{name} ill-conditioned at t={t:.6g} (cond {float(w[-1]) / lo:.3e})",
            time=t, eigenvalue=lo)
    return None


def _solved_aux(c: dict, j, P: np.ndarray):
    """The pairs N and W = (U^{-1}S~', V^{-1}Z~') (module docstring), W from
    one eigh of (U, V), each stacked on a leading axis, at stage-table row j
    (an int), or at every row (j = Ellipsis) with P = (Lam~, Gam~) stacked to
    match. If U or V fails the positivity floor or the condition cap, raises
    RiccatiBreakdownError at the earliest failing time, for U before V
    there, as pointwise checks in time order would."""
    n, E = P.shape[-1], c["E"][:, j]
    N = _tr(E) @ P[:1] @ E + c["T"][:, j]  # Lam~ for both members of a pair
    N[..., :n, :] += 2.0 * (P @ c["J"][:, j])
    N = sym(N)
    w, q = np.linalg.eigh(N[..., n:, n:])
    lo = w[..., 0]  # one predicate for floor and cap, False at nan or inf
    if not np.minimum(lo - POSITIVITY_FLOOR, CONDITION_LIMIT * lo - w[..., -1]).min(
            initial=np.inf) >= 0.0:
        t = np.atleast_1d(c["t"][j])
        pairs = w.reshape(2, t.size, -1)
        for i in np.argsort(t, kind="stable"):
            for name, spectrum in zip("UV", pairs[:, i]):
                err = _spectrum_error(spectrum, float(t[i]), name)
                if err is not None:
                    raise err
    return N, q @ ((_tr(q) @ _tr(N[..., :n, n:])) / w[..., None])


def _unpack(y: np.ndarray, d: int):
    """(Lam, Gam, gam, chi) of flat augmented states (Lam~, Gam~); leading
    axes of ``y`` are kept. Lam, Gam and chi are views of ``y``; gam is the
    new array 2 Gam~[:d, d]."""
    P = y.reshape(y.shape[:-1] + (2, d + 1, d + 1))
    return P[..., 0, :d, :d], P[..., 1, :d, :d], 2.0 * P[..., 1, :d, d], P[..., 1, d, d]


@cache
def _layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(take, full) for d + 1 = n: ``take`` picks Lam's upper triangle, a zero
    of its padding and Gam~'s upper triangle (n^2 + 1 slots) from a flat pair
    (Lam~, Gam~); ``full`` maps each entry of the pair back to its slot."""
    zero = n * (n - 1) // 2  # the slot after Lam's upper triangle
    full = np.full((2, n, n), zero)
    i, j = np.triu_indices(n - 1)
    full[0, i, j] = full[0, j, i] = np.arange(zero)
    i, j = np.triu_indices(n)
    full[1, i, j] = full[1, j, i] = zero + 1 + np.arange(i.size)
    maps = np.unique(full, return_index=True)[1], full.ravel()
    for a in maps:
        a.setflags(write=False)
    return maps


def _pack(st: RiccatiState) -> np.ndarray:
    """The flat augmented state (Lam~, Gam~) of ``st``."""
    g = 0.5 * st.gam[:, None]
    return np.stack((np.pad(st.Lam, (0, 1)), np.block([[st.Gam, g], [g.T, st.chi]]))).ravel()


def _rhs(c: dict, j: int, y: np.ndarray) -> np.ndarray:
    """Forward-time derivative of the flat state (Lam~, Gam~) at stage-table
    row j: minus the Schur complement N / (U, V) of _solved_aux, exactly
    symmetric."""
    n = c["J"].shape[-2]
    N, W = _solved_aux(c, j, y.reshape(2, n, n))
    return sym(N[:, :n, n:] @ W - N[:, :n, :n]).ravel()


def default_step_count(horizon: float) -> int:
    return max(1000, math.ceil(horizon / 1e-3))


@dataclass(frozen=True)
class RiccatiSolution:
    """The backward solve as its flat RK4 grid: rows of ``y`` hold the
    distinct entries of the augmented states (Lam~, Gam~) at ``grid`` in the
    half layout of _layout, rows of ``dy`` those of their derivatives; both
    are frozen. _full expands rows to flat pairs as in _unpack. Lam, Gam,
    gam and chi are read-only full arrays, built on first access. Grid
    times return the stored row bitwise; elsewhere the cubic Hermite
    interpolant of the rows is used, symmetric as the rows are.
    """

    model: LqModel
    grid: np.ndarray
    step: float
    y: np.ndarray
    dy: np.ndarray

    def __post_init__(self):
        for a in (self.grid, self.y, self.dy):
            a.setflags(write=False)

    @cached_property
    def _views(self):
        full = self._full(self.y)
        full.setflags(write=False)
        views = _unpack(full, self.model.dims.d)
        views[2].setflags(write=False)
        return views

    Lam = property(lambda self: self._views[0])
    Gam = property(lambda self: self._views[1])
    gam = property(lambda self: self._views[2])
    chi = property(lambda self: self._views[3])

    @property
    def n_steps(self) -> int:
        return self.grid.size - 1

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def state(self, k: int) -> RiccatiState:
        return self._state(self._full(self.y[k]))

    def at(self, t: float) -> RiccatiState:
        return self._state(self._rows([t])[0])

    def _state(self, row: np.ndarray) -> RiccatiState:
        Lam, Gam, gam, chi = _unpack(row, self.model.dims.d)
        return RiccatiState(Lam=Lam, Gam=Gam, gam=gam, chi=float(chi))

    def _full(self, rows: np.ndarray) -> np.ndarray:
        """The flat pairs (Lam~, Gam~) of half rows, C-contiguous (a last-axis
        fancy index is not, and moves the gains' matmuls by an ulp)."""
        return np.take(rows, _layout(self.model.dims.d + 1)[1], axis=-1)

    def _rows(self, times) -> np.ndarray:
        """The flat pairs (Lam~, Gam~) at every time in ``times`` (_full)."""
        t = np.asarray(times, dtype=float)
        i, hit = _bracket(self.grid, t)
        s = ((t - self.grid[i]) / self.step)[..., None]
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        out = (h00 * self.y[i] + h01 * self.y[i + 1]
               + self.step * (h10 * self.dy[i] + h11 * self.dy[i + 1]))
        on_grid = hit >= 0
        out[on_grid] = self.y[hit[on_grid]]
        return self._full(out)


def solve_riccati(model: LqModel, n_steps: int | None = None) -> RiccatiSolution:
    """Integrate the terminal-value system backward with fixed-step RK4.

    Every coefficient is tabulated once per block of model.block_steps
    steps (no result depends on the block length); Lam and Gam stay exactly
    symmetric, as the right-hand side is and RK4 combines states entrywise;
    U and V are checked positive definite at every stage evaluation.
    Raises RiccatiBreakdownError carrying the failure time on positivity
    loss, ill-conditioning, or a non-finite state, with no numpy warning
    before it.
    """
    K = default_step_count(model.horizon) if n_steps is None else n_steps
    check_count("n_steps", K, 1)
    T = model.horizon
    n = model.dims.d + 1
    grid = np.linspace(0.0, T, K + 1)
    times = grid[::-1]
    take = _layout(n)[0]
    states = np.empty((K + 1, take.size))
    derivs = np.empty_like(states)

    def settle(k, y):
        if not np.isfinite(y).all():
            raise RiccatiBreakdownError(
                f"non-finite Riccati state at t={times[k]:.6g}", time=float(times[k]))
        return y

    with np.errstate(over="ignore", invalid="ignore"):  # settle and the U, V check raise
        for k, y, f in _rk4(times, -(T / K), _pack(terminal_state(model)),
                            model.table, _rhs, settle, model.block_steps):
            states[K - k], derivs[K - k] = y[take], f[take]
    return RiccatiSolution(model=model, grid=grid, step=T / K, y=states, dy=derivs)


def with_scaled_lambda(sol: RiccatiSolution, factor: float) -> RiccatiSolution:
    """Copy of the solution with Lam~ (and its stored derivative) scaled by a
    finite factor — a fault-injection hook for battery self-tests."""
    if not math.isfinite(factor):
        raise ValueError(f"Lambda scale factor must be finite, got {factor}")
    n = sol.model.dims.d + 1
    scale = np.ones(sol.y.shape[1])
    scale[_layout(n)[1][:n * n]] = factor  # every slot Lam~ reads
    return replace(sol, y=scale * sol.y, dy=scale * sol.dy)


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    first_violation: str | None = None


def check_standard_conditions(model: LqModel, margin: float) -> ConditionReport:
    """Check the sufficient-existence condition

        P2 >= 0, P2+P2bar >= 0, Q2(t) >= 0, Q2(t)+Q2bar(t) >= 0,
        R2(t) >= margin*I, R2(t)+R2bar(t) >= margin*I

    at every cost-schedule knot (plus t=0 and t=T). Informational only:
    the solver does not require it (the mean-variance example violates it
    and still solves).
    """
    if not margin > 0:
        raise ValueError("margin must be positive")
    c = model.cost
    for mats, name in ((c.P2, "P2"), (c.P2 + c.P2bar, "P2 + P2bar")):
        if np.linalg.eigvalsh(sym(mats))[0] < -PSD_TOL:
            return ConditionReport(False, f"{name} not positive semidefinite")
    times = {0.0, model.horizon}
    for sched in (c.Q2, c.Q2bar, c.R2, c.R2bar):
        times.update(float(t) for t in sched.knot_times())
    times = sorted(times)
    tab, d = model.table(times), model.dims.d
    # (matrices at every time, floor, violation), in the order they are checked
    conditions = ((tab["Q2"], 0.0, "Q2 not >= 0"),
                  (tab["Q2p"][1, :, :d, :d], 0.0, "Q2 + Q2bar not >= 0"),
                  (tab["R2"], margin, f"R2 not >= {margin}*I"),
                  (tab["R2p"][1], margin, f"R2 + R2bar not >= {margin}*I"))
    lows = [np.linalg.eigvalsh(sym(mats))[:, 0] for mats, _, _ in conditions]
    for i, t in enumerate(times):
        for (_, floor, violation), low in zip(conditions, lows):
            if low[i] < floor - PSD_TOL:
                return ConditionReport(False, f"{violation} at t={t:.6g}")
    return ConditionReport(True)


def solution_to_csv(sol: RiccatiSolution, path) -> None:
    """One row per grid point, full round-trip decimal precision."""
    d, rows = sol.model.dims.d, sol.grid.size
    _write_csv(path,
               ["t"] + [f"Lambda_{i}{j}" for i in range(d) for j in range(d)]
               + [f"Gamma_{i}{j}" for i in range(d) for j in range(d)]
               + [f"gamma_{i}" for i in range(d)] + ["chi"],
               np.column_stack((sol.grid, sol.Lam.reshape(rows, -1),
                                sol.Gam.reshape(rows, -1), sol.gam, sol.chi)))
