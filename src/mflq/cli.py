"""Batch front-end: solve, evaluate, simulate, verify.

Subcommands
-----------
riccati    solve the backward system, dump the grid to CSV, print t=0 summary
value      evaluate the value function at (t, mean, cov)
simulate   particle Monte Carlo under the optimal feedback + consistency line
verify     full validation battery with a PASS/FAIL table

Models come from exactly one of ``--preset mean-variance|systemic-risk``
(with ``--param name=value`` overrides) and ``--config model.json``;
``value``, ``simulate`` and ``verify`` also take the law ``--mean``/``--cov``.
All numeric output is locale-independent; errors go to stderr; exit status
0 means success (for ``verify``: every check passed).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import presets, riccati
from .errors import MflqError, RiccatiBreakdownError
from .model import MomentState, check_count, load_model
from .moments import cost_from_moments, dpp_check
from .particles import (SimConfig, canonical_perturbations, optimality_gap,
                        result_to_csv, simulate)
from .value import bellman_residual, optimal_feedback
from .value import value as value_fn

BELLMAN_TOL = 1e-4
DPP_TOL = 1e-6
IDENTITY_TOL = 1e-6
MOMENT_GAP_MIN = 1e-9


def _parse_params(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ValueError(f"--param expects name=value, got '{item}'")
        name, raw = item.split("=", 1)
        out[name.strip()] = float(raw)
    return out


def _load(args):
    """Return (model, x0 vector or None) from --preset or --config."""
    if args.preset:
        model, params = presets.build_preset(args.preset, _parse_params(args.param))
        return model, np.full(model.dims.d, params.x0)
    if args.param:
        raise ValueError("--param only applies to presets")
    return load_model(args.config), None


def _initial_state(args, model, x0) -> MomentState:
    """The law of --mean (default: the preset's x0) and --cov (default: 0)."""
    d = model.dims.d
    mean = json.loads(args.mean) if args.mean else x0
    if mean is None:
        raise ValueError("--mean required for --config models")
    cov = json.loads(args.cov) if args.cov else np.zeros((d, d))
    ms = MomentState(mean, cov)  # validates shapes, symmetry and PSD
    model.check_law(ms)
    return ms


def cmd_riccati(args) -> int:
    model, _ = _load(args)
    sol = riccati.solve_riccati(model, args.steps)
    if args.out:
        riccati.solution_to_csv(sol, args.out)
    st = sol.state(0)
    print(f"Lambda(0) = {np.array2string(st.Lam, precision=12)}")
    print(f"Gamma(0)  = {np.array2string(st.Gam, precision=12)}")
    print(f"gamma(0)  = {np.array2string(st.gam, precision=12)}")
    print(f"chi(0)    = {st.chi:.12g}")
    return 0


def cmd_value(args) -> int:
    model, x0 = _load(args)
    ms = _initial_state(args, model, x0)
    t = model.horizon if args.t is None else args.t
    model.check_time(t)
    sol = riccati.solve_riccati(model, args.steps)
    print(f"{value_fn(sol, t, ms):.12g}")
    return 0


def cmd_simulate(args) -> int:
    check_count("n_particles", args.particles, 2)
    check_count("seed", args.seed, 0)
    check_count("thin", args.thin, 1)
    model, x0 = _load(args)
    ms0 = _initial_state(args, model, x0)
    sol = riccati.solve_riccati(model, args.steps)
    fb = optimal_feedback(model, sol)
    cfg = SimConfig(n_particles=args.particles, n_steps=sol.n_steps,
                    seed=args.seed, initial=ms0)
    res = simulate(model, fb, cfg)
    if args.out:
        result_to_csv(res, args.out, thin=args.thin)
    v = value_fn(sol, 0.0, ms0)
    oracle = cost_from_moments(model, fb, 0.0, ms0, cfg.n_steps)
    dev = abs(res.cost_mean - v)
    ok = dev <= 4.0 * res.cost_stderr
    print(f"cost_mean   = {res.cost_mean:.12g} +/- {res.cost_stderr:.6g}")
    print(f"value       = {v:.12g}")
    print(f"moment_cost = {oracle:.12g}")
    print(f"mc_vs_value: |{dev:.6g}| <= 4*stderr ({4.0 * res.cost_stderr:.6g}) "
          f"-> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _verify_battery(model, sol, ms0, seed, n_particles):
    """Run all checks; returns a list of (name, measured, tolerance, ok)."""
    rng = np.random.default_rng(seed)
    d = model.dims.d
    T = model.horizon
    checks = []

    def random_state():
        mean = rng.uniform(-3.0, 3.0, size=d)
        eigs = rng.uniform(0.0, 5.0, size=d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return MomentState(mean, (q * eigs) @ q.T)

    states = [random_state() for _ in range(100)]
    times = rng.uniform(2.0 * sol.step, T - 2.0 * sol.step, size=10)
    res_max = max(abs(bellman_residual(model, sol, t, ms))
                  for t in times for ms in states)
    checks.append(("bellman_residual_max", res_max, BELLMAN_TOL,
                   res_max <= BELLMAN_TOL))

    dpp_max = 0.0
    for _ in range(10):
        t1, t2 = np.sort(rng.uniform(0.0, T, size=2))
        if t2 - t1 < 1e-6:
            t2 = min(T, t1 + 0.1)
        ms = states[int(rng.integers(len(states)))]
        dpp_max = max(dpp_max, dpp_check(model, sol, t1, t2, ms, 2000))
    checks.append(("dpp_residual_max", dpp_max, DPP_TOL, dpp_max <= DPP_TOL))

    fb = optimal_feedback(model, sol)
    v0 = value_fn(sol, 0.0, ms0)
    oracle = cost_from_moments(model, fb, 0.0, ms0, sol.n_steps)
    ident = abs(v0 - oracle)
    checks.append(("verification_identity", ident, IDENTITY_TOL,
                   ident <= IDENTITY_TOL))

    perts = canonical_perturbations()
    margin = min(cost_from_moments(model, p.apply(fb), 0.0, ms0,
                                           sol.n_steps) - oracle
                 for p in perts)
    checks.append(("moment_gap_min", margin, MOMENT_GAP_MIN,
                   margin >= MOMENT_GAP_MIN))

    cfg = SimConfig(n_particles=n_particles, n_steps=sol.n_steps, seed=seed,
                    initial=ms0)
    report = optimality_gap(model, sol, cfg, perts)
    mc_dev = abs(report.optimal_cost - v0)
    lim = 4.0 * report.optimal_stderr
    checks.append(("mc_value_consistency", mc_dev, lim, mc_dev <= lim))
    worst = min(c.gap - 2.0 * c.gap_stderr for c in report.candidates)
    checks.append(("mc_gap_detected_min", worst, 0.0, worst > 0.0))
    checks.append(("no_candidate_beats_optimal",
                   float(report.any_beats_optimal), 0.0,
                   not report.any_beats_optimal))
    return checks


def cmd_verify(args) -> int:
    check_count("n_particles", args.particles, 2)
    check_count("seed", args.seed, 0)
    if args.steps is not None:  # the Bellman check needs t at least 2h inside (0, T)
        check_count("n_steps", args.steps, 4)
    model, x0 = _load(args)
    ms0 = _initial_state(args, model, x0)
    sol = riccati.solve_riccati(model, args.steps)
    if args.corrupt_lambda != 1.0:
        sol = riccati.with_scaled_lambda(sol, args.corrupt_lambda)
    checks = _verify_battery(model, sol, ms0, args.seed, args.particles)
    width = max(len(name) for name, *_ in checks)
    n_pass = 0
    for name, measured, tol, ok in checks:
        n_pass += ok
        print(f"{name:<{width}}  measured={measured: .6e}  "
              f"tolerance={tol:.6e}  {'PASS' if ok else 'FAIL'}")
    n_fail = len(checks) - n_pass
    print(f"RESULT pass={n_pass} fail={n_fail}")
    return 0 if n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mflq", allow_abbrev=False,
        description="LQ mean-field control: Riccati solve, value evaluation, "
                    "particle Monte Carlo, and verification battery.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--preset", choices=presets.PRESET_NAMES)
        source.add_argument("--config", help="path to a JSON model document")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="preset parameter override (repeatable)")
        p.add_argument("--steps", type=int,
                       help="time steps (default: solver default)")

    def with_law(p):
        common(p)
        p.add_argument("--mean", help="initial/query mean, JSON number or list")
        p.add_argument("--cov", help="initial/query covariance, JSON")

    p = sub.add_parser("riccati", allow_abbrev=False, help="solve and dump the backward system")
    common(p)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_riccati)

    p = sub.add_parser("value", allow_abbrev=False, help="evaluate the value function")
    with_law(p)
    p.add_argument("--t", type=float, help="query time (default: T)")
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("simulate", allow_abbrev=False, help="particle Monte Carlo run")
    with_law(p)
    p.add_argument("--particles", type=int, default=50000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--thin", type=int, default=1,
                   help="keep every k-th CSV row, k >= 1, and the last")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", allow_abbrev=False, help="run the validation battery")
    with_law(p)
    p.add_argument("--particles", type=int, default=50000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt-lambda", type=float, default=1.0,
                   help="fault-injection: scale the solved Lambda component "
                        "(battery self-test; 1.0 = off)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RiccatiBreakdownError as exc:
        print(f"riccati breakdown at t={exc.time:.6g}: {exc}", file=sys.stderr)
        return 3
    except (MflqError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
