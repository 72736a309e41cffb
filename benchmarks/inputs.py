"""Seeded input generator for the benchmark workloads.

Everything a workload feeds to mflq is drawn here from ``--seed``, so the
same seed gives byte-identical inputs; ``digest`` fingerprints them.
Random models are "standard" in the sense of
``mflq.check_standard_conditions`` (Q2, P2 and their barred sums PSD,
R2 and R2 + R2bar >= 0.5 I), which guarantees the Riccati solve exists;
off-diagonal blocks are scaled by 1/sqrt(d) so the solution stays O(1)
as d grows and the d sweep varies only the arithmetic per step.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

# mflq functions are looked up on their modules at call time, so the
# traced mode's wrappers see every call made from here
import mflq
from mflq import MomentState, Schedule, presets

STANDARD_MARGIN = 0.25
RANDOM_DIMS = (2, 4, 8, 16)
SYSTEMIC_KAPPA = (0.25, 0.5, 1.0)
SYSTEMIC_Q = (0.2, 0.4, 0.6, 0.8)
# knots on multiples of T/4 land on grid points of every default solve
# grid, so coefficient kinks never fall inside an RK4 step
KNOT_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
# Weight of each knot's own draw against the model's base draw. With
# independent knots (1.0) the coefficients swing so fast that the Bellman
# check's centred differences at K=1000 reach 2e-4 on some models (their
# error falls 4x per halving of the step, i.e. it is truncation error).
KNOT_SPREAD = 0.25


def rng_for(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering (floats round-trip exactly)."""
    def plain(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, dict):
            return {k: plain(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [plain(v) for v in o]
        return o
    text = json.dumps(plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# random standard models


def random_coefficients(rng, d: int, m: int, horizon: float, tabulated: bool) -> dict:
    """Raw coefficients of a random standard model.

    Constant coefficients are arrays; tabulated ones are
    ``{"knots": [[t, array], ...]}`` spanning [0, horizon]. Each knot is a
    convex combination of one base draw and its own draw, so the standard
    conditions hold at every knot and, by linearity, between knots.
    """
    s = 1.0 / np.sqrt(d)

    def psd(n, scale=1.0):
        a = rng.standard_normal((n, n)) * scale
        return a @ a.T / n

    def draw():  # every time-dependent coefficient
        Q2 = psd(d)
        return dict(
            b0=rng.standard_normal(d) * 0.3, B=rng.standard_normal((d, d)) * 0.6 * s,
            Bbar=rng.standard_normal((d, d)) * 0.3 * s,
            C=rng.standard_normal((d, m)) * 0.6 * s,
            Cbar=rng.standard_normal((d, m)) * 0.3 * s,
            sigma0=rng.standard_normal(d) * 0.3,
            D=rng.standard_normal((d, d)) * 0.4 * s,
            Dbar=rng.standard_normal((d, d)) * 0.2 * s,
            F=rng.standard_normal((d, m)) * 0.4 * s,
            Fbar=rng.standard_normal((d, m)) * 0.2 * s,
            Q2=Q2, Q2bar=psd(d, 0.5) - 0.5 * Q2,
            R2=psd(m) + 0.5 * np.eye(m), R2bar=psd(m, 0.5),
            q1=rng.standard_normal(d) * 0.3, q1bar=rng.standard_normal(d) * 0.3,
            r1=rng.standard_normal(m) * 0.3, r1bar=rng.standard_normal(m) * 0.3,
        )

    base = draw()
    P2 = psd(d)
    coeffs = dict(P2=P2, P2bar=psd(d, 0.5) - 0.5 * P2,
                  p1=rng.standard_normal(d) * 0.3, p1bar=rng.standard_normal(d) * 0.3)
    if not tabulated:
        coeffs.update(base)
        return coeffs
    knots = [draw() for _ in KNOT_FRACTIONS]
    for key in base:
        coeffs[key] = {"knots": [
            [f * horizon, (1.0 - KNOT_SPREAD) * base[key] + KNOT_SPREAD * k[key]]
            for f, k in zip(KNOT_FRACTIONS, knots)]}
    return coeffs


def build_random(d: int, m: int, horizon: float, coeffs: dict):
    """lq_model from raw coefficients (tabulated ones become Schedules)."""
    kw = {}
    for key, raw in coeffs.items():
        if isinstance(raw, dict):
            times = [t for t, _ in raw["knots"]]
            kw[key] = Schedule.tabulated(times, np.stack([v for _, v in raw["knots"]]))
        else:
            kw[key] = raw
    return mflq.lq_model(d=d, m=m, horizon=horizon, **kw)


def random_state(rng, d: int) -> tuple[np.ndarray, np.ndarray]:
    a = rng.standard_normal((d, d))
    cov = a @ a.T / d * 0.5
    return rng.standard_normal(d) * 0.5, 0.5 * (cov + cov.T)


def checked_random_model(rng, d: int, m: int, horizon: float, tabulated: bool):
    """(raw coefficients, model); raises if the draw is not standard."""
    coeffs = random_coefficients(rng, d, m, horizon, tabulated)
    model = build_random(d, m, horizon, coeffs)
    report = mflq.check_standard_conditions(model, STANDARD_MARGIN)
    if not report.holds:
        raise RuntimeError(f"generated model not standard: {report.first_violation}")
    return coeffs, model


# ---------------------------------------------------------------------------
# workload inputs


def sweep_specs(seed: int) -> list[dict]:
    """About two dozen solve requests: systemic-risk over a kappa x q grid,
    mean-variance with T in {1, 3} (constant and tabulated r/rho/vol), and
    random standard models for each d in RANDOM_DIMS, constant and
    tabulated."""
    rng = rng_for(seed, "sweep")
    specs = []
    for kappa in SYSTEMIC_KAPPA:
        for q in SYSTEMIC_Q:
            specs.append({"kind": "systemic", "params": {
                "kappa": kappa * rng.uniform(0.9, 1.1),
                "q": q * rng.uniform(0.9, 1.1),
                "sigma": rng.uniform(0.5, 1.5), "x0": rng.uniform(-1.0, 1.0)}})
    for horizon in (1.0, 3.0):
        for tabulated in (False, True):
            params = {"eta": rng.uniform(1.0, 3.0), "x0": rng.uniform(0.5, 1.5),
                      "horizon": horizon}
            for name, lo, hi in (("r", 0.0, 0.05), ("rho", 0.5, 1.5),
                                 ("vol", 0.5, 1.5)):
                if tabulated:
                    params[name] = [[f * horizon, rng.uniform(lo, hi)]
                                    for f in KNOT_FRACTIONS]
                else:
                    params[name] = rng.uniform(lo, hi)
            specs.append({"kind": "mean-variance", "params": params})
    for d in RANDOM_DIMS:
        m = max(1, d // 2)
        for tabulated in (False, True):
            coeffs, _ = checked_random_model(rng, d, m, 1.0, tabulated)
            mean, cov = random_state(rng, d)
            specs.append({"kind": "random", "d": d, "m": m, "horizon": 1.0,
                          "tabulated": tabulated, "coeffs": coeffs,
                          "mean": mean, "cov": cov})
    return specs


def mean_variance_params(params: dict):
    kw = dict(params)
    for name in ("r", "rho", "vol"):
        if isinstance(kw[name], list):
            kw[name] = Schedule.tabulated([t for t, _ in kw[name]],
                                          [[[v]] for _, v in kw[name]])
    return presets.MeanVarianceParams(**kw)


def build_spec(spec: dict):
    """(model, initial MomentState, preset params or None) for one spec."""
    kind = spec["kind"]
    if kind == "systemic":
        model, params = presets.build_preset("systemic-risk", spec["params"])
        return model, MomentState.dirac([params.x0]), params
    if kind == "mean-variance":
        params = mean_variance_params(spec["params"])
        return (presets.mean_variance_model(params),
                MomentState.dirac([params.x0]), params)
    model = build_random(spec["d"], spec["m"], spec["horizon"], spec["coeffs"])
    return model, MomentState(spec["mean"], spec["cov"]), None


def verify_seed(seed: int) -> int:
    return int(rng_for(seed, "verify").integers(0, 2 ** 31))


def simulate_inputs(seed: int) -> dict:
    """A d=3, m=2 tabulated standard model as a JSON document, an initial
    Gaussian law and the simulation seed."""
    rng = rng_for(seed, "simulate")
    _, model = checked_random_model(rng, 3, 2, 1.0, tabulated=True)
    mean, cov = random_state(rng, 3)
    return {"document": mflq.model_to_document(model), "mean": mean, "cov": cov,
            "sim_seed": int(rng.integers(0, 2 ** 31))}
