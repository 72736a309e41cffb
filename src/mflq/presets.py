"""Preset models and closed-form references.

Two classical mean-field LQ problems from finance:

* mean-variance portfolio selection — minimize (eta/2) Var(X_T) - E[X_T]
  for wealth dX = r X dt + a (rho dt + vol dB); admits fully explicit
  value coefficients and control;
* inter-bank systemic risk — log-reserves mean-revert to the market
  average at rate kappa, each bank controls its lending rate a against a
  quadratic incentive (q) and penalties (eta running, c terminal); the
  first-order coefficients vanish and the quadratic one solves a scalar
  Riccati equation.

The mean-variance integrals are exact sums over the pieces between the
merged knots of r, rho and vol, on each of which the three are linear and
vol > 0 (MeanVarianceParams._integrals). The systemic quadratic coefficient
is referenced by the exact solution of its constant-coefficient scalar Riccati
equation, in a form with no cancellation next to T, even for a terminal
penalty c of 4e8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import OutOfDomainError
from .model import LqModel, lq_model
from .riccati import RiccatiSolution, RiccatiState
from .schedules import Schedule, as_schedule


def _sharpe_piece(h, rho0, rho1, vol0, vol1) -> float:
    """int (rho/vol)^2 on one piece (MeanVarianceParams._integrals)."""
    y = (vol1 - vol0) / (vol1 + vol0)
    if abs(y) > 1.0 / 3.0:  # vol ratio outside [1/2, 2]: rho = alpha vol + beta
        alpha = (rho1 - rho0) / (vol1 - vol0)
        beta = rho0 - alpha * vol0
        return h * (alpha * alpha + beta * beta / (vol0 * vol1)
                    + 2.0 * alpha * beta * math.log(vol1 / vol0) / (vol1 - vol0))
    g0, g1, R, z = rho0 / vol0, rho1 / vol1, vol1 / vol0, (vol1 - vol0) / vol0
    chi = (1.0 - y) ** 3 * sum((j + 1) / (2 * j + 3) * y ** (2 * j) for j in range(18))
    return h * (g0 * g1 + (g1 - g0) ** 2 * R * R * chi + g0 * (g1 - g0) * R * z * chi)


def _check_params(params, positive, nonnegative=()) -> None:
    """Raise a ValueError naming the first parameter of ``params`` with a
    non-finite value, then the first of ``positive`` not > 0 and of
    ``nonnegative`` < 0; a schedule is checked at every knot."""
    values = {}
    for f in fields(params):
        value = getattr(params, f.name)
        values[f.name] = np.asarray(value.values if isinstance(value, Schedule) else value)
        if not np.isfinite(values[f.name]).all():
            raise ValueError(f"{f.name} has a non-finite value")
    for name in positive:
        if (values[name] <= 0).any():
            raise ValueError(f"{name} must be positive")
    for name in nonnegative:
        if (values[name] < 0).any():
            raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class MeanVarianceParams:
    """Interest rate r, excess return rho, volatility vol (scalars or 1x1
    schedules), risk aversion eta > 0, initial wealth x0, horizon T."""

    r: object = 0.0
    rho: object = 1.0
    vol: object = 1.0
    eta: float = 2.0
    x0: float = 1.0
    horizon: float = 1.0

    def __post_init__(self):
        for name in ("r", "rho", "vol"):
            object.__setattr__(self, name, as_schedule(getattr(self, name), (1, 1)))
        _check_params(self, positive=("eta", "horizon", "vol"))

    def _integrals(self, t: float, tail: bool = True):
        """(int r, int rho^2/vol^2) on [t, T] (on [0, t] if not ``tail``), t
        checked in [0, T]; exact sums over the pieces between the merged knots
        of r, rho and vol, linear on each. On a piece of length h, int r is
        h (r0 + r1)/2 and, with g = rho/vol, R = vol1/vol0, z = R - 1 and
        y = z/(2+z) at its ends,

            int g^2 = h [g0 g1 + (g1 - g0)^2 R^2 chi + g0 (g1 - g0) R z chi],
            chi = int_0^1 u^2/(1 + z u)^2 du = (1 - y)^3 sum_j (j+1) y^(2j)/(2j+3)

        to 18 terms for R in [1/2, 2]; farther from 1, with rho = alpha vol +
        beta, int g^2 = alpha^2 h + 2 alpha beta ln(R)/vol' + beta^2 h/(vol0 vol1).
        Both hold as vol > 0 at every knot, so on every piece. A constant
        schedule gives one piece with z = 0 and int g^2 = h g0^2.
        """
        if not 0.0 <= t <= self.horizon:
            raise OutOfDomainError(f"t={t} outside [0, {self.horizon}]")
        a, b = (t, self.horizon) if tail else (0.0, t)
        u = sorted({a, b} | {float(k) for s in (self.r, self.rho, self.vol)
                             for k in s.knot_times() if a < k < b})
        r, rho, vol = (s.table(u).reshape(-1) for s in (self.r, self.rho, self.vol))
        h = np.diff(u)
        int_s = sum(map(_sharpe_piece, h, rho[:-1], rho[1:], vol[:-1], vol[1:]))
        return float(h @ (r[:-1] + r[1:])) / 2.0, float(int_s)


def mean_variance_model(p: MeanVarianceParams) -> LqModel:
    """LQ coefficients of the mean-variance problem: B=r, C=rho, F=vol,
    P2=eta/2, P2bar=-eta/2, p1bar=-1, everything else zero."""
    return lq_model(
        d=1, m=1, horizon=p.horizon,
        B=p.r, C=p.rho, F=p.vol,
        P2=p.eta / 2.0, P2bar=-p.eta / 2.0, p1bar=np.array([-1.0]),
    )


def mean_variance_closed_form(p: MeanVarianceParams, t: float) -> RiccatiState:
    """Explicit value coefficients:

        Lam(t) = eta/2 * exp(int_t^T 2r - rho^2/vol^2)
        Gam(t) = 0
        gam(t) = -exp(int_t^T r)
        chi(t) = -(1/2 eta) [exp(int_t^T rho^2/vol^2) - 1]
    """
    int_r, int_s = p._integrals(t)
    lam = 0.5 * p.eta * math.exp(2.0 * int_r - int_s)
    gam = -math.exp(int_r)
    chi = -(math.expm1(int_s)) / (2.0 * p.eta)
    return RiccatiState(Lam=np.array([[lam]]), Gam=np.zeros((1, 1)),
                        gam=np.array([gam]), chi=chi)


def mean_variance_optimal_control(p: MeanVarianceParams, t: float,
                                  x: float, mean_x: float) -> float:
    """-(rho/vol^2)(x - mean) + (rho/(eta vol^2)) exp(int_t^T rho^2/vol^2 - r)."""
    int_r, int_s = p._integrals(t)
    rho, v2 = p.rho(t).item(), p.vol(t).item() ** 2
    expo = math.exp(int_s - int_r)
    return -(rho / v2) * (x - mean_x) + rho / (p.eta * v2) * expo


def mean_variance_mean_trajectory(p: MeanVarianceParams, t: float) -> float:
    """Mean of the optimally controlled wealth:

        E[X_t] = x0 exp(int_0^t r)
               + (1/eta) exp(int_t^T rho^2/vol^2 - r) (exp(int_0^t rho^2/vol^2) - 1)
    """
    (head_r, head_s), (int_r, int_s) = p._integrals(t, tail=False), p._integrals(t)
    tail = math.exp(int_s - int_r)
    return p.x0 * math.exp(head_r) + math.expm1(head_s) * tail / p.eta


@dataclass(frozen=True)
class SystemicParams:
    """Mean-reversion kappa >= 0, volatility sigma > 0, lending incentive
    q > 0, running penalty eta > 0, terminal penalty c >= 0; all finite."""

    kappa: float = 0.5
    sigma: float = 1.0
    q: float = 0.5
    eta: float = 1.0
    c: float = 0.0
    x0: float = 1.0
    horizon: float = 1.0

    def __post_init__(self):
        _check_params(self, positive=("sigma", "q", "eta", "horizon"),
                      nonnegative=("kappa", "c"))


def systemic_model(p: SystemicParams) -> LqModel:
    """LQ coefficients of the inter-bank model: B=-kappa, Bbar=kappa, C=1,
    sigma0=sigma, Q2=eta/2, Q2bar=-eta/2, R2=1/2, M2=q/2, M2bar=-q/2,
    P2=c/2, P2bar=-c/2, everything else zero."""
    return lq_model(
        d=1, m=1, horizon=p.horizon,
        B=-p.kappa, Bbar=p.kappa, C=1.0, sigma0=np.array([p.sigma]),
        Q2=p.eta / 2.0, Q2bar=-p.eta / 2.0, R2=0.5,
        M2=p.q / 2.0, M2bar=-p.q / 2.0,
        P2=p.c / 2.0, P2bar=-p.c / 2.0,
    )


def _systemic_root(p: SystemicParams) -> float:
    """sqrt((kappa+q)^2 + (eta - q^2)), summed without cancellation; > 0."""
    return math.sqrt(p.kappa ** 2 + 2.0 * p.kappa * p.q + p.eta)


def systemic_delta(p: SystemicParams) -> tuple[float, float]:
    """Roots delta_+/- = -(kappa+q) +- sqrt((kappa+q)^2 + (eta - q^2))."""
    root = _systemic_root(p)
    return -(p.kappa + p.q) + root, -(p.kappa + p.q) - root


def systemic_lambda_reference(p: SystemicParams, t):
    """Exact solution of Lam' = 2(kappa+q) Lam + 2 Lam^2 + (q^2 - eta)/2
    = 2(Lam - a)(Lam - b), Lam(T) = y = c/2, a, b = delta_+/2, delta_-/2:

        Lam(t) = (y(a-b) + b(y-a) e) / ((a-b) + (y-a) e),  e = 1 - exp(2(a-b)(t-T))

    with e by expm1, a - b the root itself (not a difference of the deltas),
    y exactly at t = T, and a clamp to the range between y and a that the
    exact solution never leaves (a rounding can step out of it next to T).
    ``t`` is a scalar or an array of times in [0, T]; the return matches
    its shape.
    """
    ts = np.asarray(t, dtype=float)
    if not ((ts >= 0.0) & (ts <= p.horizon)).all():
        raise OutOfDomainError(f"times outside [0, {p.horizon}]")
    a, b = (0.5 * delta for delta in systemic_delta(p))
    gap, y = _systemic_root(p), 0.5 * p.c
    e = -np.expm1(2.0 * gap * (ts - p.horizon))
    lam = np.where(e == 0.0, y, (y * gap + b * (y - a) * e) / (gap + (y - a) * e))
    lam = np.clip(lam, min(y, a), max(y, a))
    return float(lam) if lam.ndim == 0 else lam


def systemic_optimal_control(p: SystemicParams, sol: RiccatiSolution,
                             t: float, x: float, mean_x: float) -> float:
    """-(2 Lam(t) + q)(x - mean_x) with Lam from the engine solution."""
    lam = float(sol.at(t).Lam[0, 0])
    return -(2.0 * lam + p.q) * (x - mean_x)


# ---------------------------------------------------------------------------
# registry used by the CLI

_PRESETS = {"mean-variance": (MeanVarianceParams, mean_variance_model),
            "systemic-risk": (SystemicParams, systemic_model)}
PRESET_NAMES = tuple(_PRESETS)


def build_preset(name: str, overrides: dict | None = None):
    """Return (model, params) for a named preset with parameter overrides.

    Mean-variance accepts r, rho, vol, eta, x0, T; systemic-risk accepts
    kappa, sigma, q, eta, c, x0, T. Raises ValueError for an unknown
    preset or parameter name.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset '{name}' (choose from {PRESET_NAMES})")
    params_type, build = _PRESETS[name]
    accepted = [f.name for f in fields(params_type) if f.name != "horizon"] + ["T"]
    kw = dict(overrides or {})
    if unknown := [key for key in kw if key not in accepted]:
        raise ValueError(f"unknown parameter '{unknown[0]}' for preset '{name}' "
                         f"(accepted: {', '.join(accepted)})")
    if "T" in kw:
        kw["horizon"] = kw.pop("T")
    params = params_type(**kw)
    return build(params), params
