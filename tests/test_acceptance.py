"""Acceptance battery.

One test per criterion; each prints an `ACCEPTANCE criterion=<n> PASS/FAIL`
line (run with ``pytest tests/test_acceptance.py -s`` to see them inline)
and asserts at the stated tolerance. Monte Carlo criteria use frozen seeds;
everything here is deterministic.
"""

import time

import numpy as np
import pytest
from scipy.integrate import simpson

import mflq
from mflq import (MeanVarianceParams, MomentState, SimConfig,
                  SystemicParams, bellman_residual, canonical_perturbations,
                  cost_from_moments, dpp_check, mean_variance_closed_form,
                  mean_variance_mean_trajectory, mean_variance_model,
                  mean_variance_optimal_control, optimal_feedback,
                  optimality_gap, propagate_moments, simulate, solve_riccati,
                  systemic_lambda_reference, systemic_model, value)
from mflq.cli import main as cli_main

from helpers import random_standard_model, variance_stderr

N_PARTICLES = 50_000
MC_SEEDS = (1, 2, 3)
CRN_SEED = 2


def report(criterion, ok, detail):
    print(f"ACCEPTANCE criterion={criterion} {'PASS' if ok else 'FAIL'}: {detail}")


# --- shared solves / simulations -------------------------------------------

@pytest.fixture(scope="module")
def mv_pinned():
    # criterion 1 parameter set
    p = MeanVarianceParams(r=0.05, rho=0.2, vol=0.3, eta=1.0, horizon=1.0)
    model = mean_variance_model(p)
    t0 = time.perf_counter()
    sol = solve_riccati(model, 1000)
    return p, model, sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mv_default():
    # preset defaults (r=0, rho=vol=1, eta=2, x0=1, T=1) = criterion 9 set
    p = MeanVarianceParams()
    model = mean_variance_model(p)
    return p, model, solve_riccati(model, 1000)


@pytest.fixture(scope="module")
def sy_default():
    # criterion 2 parameter set = preset defaults
    p = SystemicParams(kappa=0.5, q=0.5, eta=1.0, c=0.0, sigma=1.0, horizon=1.0)
    model = systemic_model(p)
    t0 = time.perf_counter()
    sol = solve_riccati(model, 1000)
    return p, model, sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mc_runs(mv_default, sy_default):
    """Criterion 7/9 simulations: both presets, 3 seeds, N=5e4, K=1000."""
    out = {}
    for name, pack in (("mean-variance", mv_default), ("systemic", sy_default)):
        model, sol = pack[1], pack[2]
        fb = optimal_feedback(model, sol)
        runs = []
        for seed in MC_SEEDS:
            cfg = SimConfig(n_particles=N_PARTICLES, n_steps=1000, seed=seed,
                            initial=MomentState.dirac([1.0]), store_every=250)
            t0 = time.perf_counter()
            res = simulate(model, fb, cfg)
            runs.append((res, time.perf_counter() - t0))
        traj = propagate_moments(model, fb, 0.0, MomentState.dirac([1.0]), 1000)
        out[name] = (model, sol, runs, traj)
    return out


# --- criteria ----------------------------------------------------------------

def test_criterion_01_mean_variance_riccati_agreement(mv_pinned):
    p, model, sol, solve_time = mv_pinned
    errs = {"Lam": 0.0, "gam": 0.0, "chi": 0.0}
    for k in range(sol.n_steps + 1):
        cf = mean_variance_closed_form(p, float(sol.grid[k]))
        errs["Lam"] = max(errs["Lam"], abs(sol.Lam[k, 0, 0] - cf.Lam[0, 0]))
        errs["gam"] = max(errs["gam"], abs(sol.gam[k, 0] - cf.gam[0]))
        errs["chi"] = max(errs["chi"], abs(sol.chi[k] - cf.chi))
    gam_abs = np.abs(sol.Gam).max()
    ok = (max(errs.values()) <= 1e-8 and gam_abs <= 1e-12 and solve_time < 1.0)
    report(1, ok, f"max errs {errs}, |Gamma|={gam_abs:.1e}, solve {solve_time:.2f}s")
    assert max(errs.values()) <= 1e-8
    assert gam_abs <= 1e-12
    assert solve_time < 1.0


def test_criterion_02_systemic_riccati_agreement(sy_default):
    p, model, sol, solve_time = sy_default
    lam_err = np.abs(sol.Lam[:, 0, 0] - systemic_lambda_reference(p, sol.grid)).max()
    gam_abs = np.abs(sol.Gam).max()
    g_abs = np.abs(sol.gam).max()
    chi_err = max(abs(sol.chi[k] - p.sigma ** 2 * simpson(sol.Lam[k:, 0, 0],
                                                          x=sol.grid[k:]))
                  for k in list(range(0, 1000, 10)) + [0])
    ok = (lam_err <= 1e-8 and gam_abs <= 1e-12 and g_abs <= 1e-12
          and chi_err <= 1e-8 and solve_time < 1.0)
    report(2, ok, f"Lam vs oracle {lam_err:.1e}, |Gamma| {gam_abs:.1e}, "
                  f"|gamma| {g_abs:.1e}, chi {chi_err:.1e}, solve {solve_time:.2f}s")
    assert lam_err <= 1e-8
    assert gam_abs <= 1e-12 and g_abs <= 1e-12
    assert chi_err <= 1e-8
    assert solve_time < 1.0


def test_criterion_03_no_mean_field_collapse():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        model = random_standard_model(rng, barred=False)
        sol = solve_riccati(model, 250)
        worst = max(worst, np.abs(sol.Lam - sol.Gam).max())
    ok = worst <= 1e-10
    report(3, ok, f"max |Lambda - Gamma| = {worst:.2e} over 10 models")
    assert worst <= 1e-10


def test_criterion_04_bellman_residual(mv_default, sy_default):
    rng = np.random.default_rng(17)
    worst = {}
    for name, pack in (("mean-variance", mv_default), ("systemic", sy_default)):
        model, sol = pack[1], pack[2]
        states = [MomentState(rng.uniform(-3, 3, size=1), [[rng.uniform(0, 5)]])
                  for _ in range(100)]
        times = rng.uniform(2 * sol.step, model.horizon - 2 * sol.step, size=10)
        worst[name] = max(abs(bellman_residual(model, sol, t, ms))
                          for t in times for ms in states)
    ok = max(worst.values()) <= 1e-4
    report(4, ok, f"max |residual|: {worst}")
    assert max(worst.values()) <= 1e-4


def test_criterion_05_verification_identity(mv_default, sy_default):
    details = []
    ok = True
    for name, pack in (("mean-variance", mv_default), ("systemic", sy_default)):
        model, sol = pack[1], pack[2]
        fb = optimal_feedback(model, sol)
        ms0 = MomentState.dirac([1.0])
        base = cost_from_moments(model, fb, 0.0, ms0, 1000)
        ident = abs(value(sol, 0.0, ms0) - base)
        margin = min(cost_from_moments(model, pert.apply(fb), 0.0, ms0, 1000) - base
                     for pert in canonical_perturbations())
        details.append(f"{name}: identity {ident:.2e}, min margin {margin:.2e}")
        ok = ok and ident <= 1e-6 and margin >= 1e-9
        assert ident <= 1e-6
        assert margin >= 1e-9
    report(5, ok, "; ".join(details))


def test_criterion_06_dpp_identity(mv_default, sy_default):
    rng = np.random.default_rng(23)
    details = []
    all_ok = True
    for name, pack in (("mean-variance", mv_default), ("systemic", sy_default)):
        model, sol = pack[1], pack[2]
        worst2000 = 0.0
        saturated_or_fourth_order = True
        for _ in range(10):
            t = rng.uniform(0.0, model.horizon - 0.1)
            theta = rng.uniform(t + 0.1, model.horizon)
            ms = MomentState(rng.uniform(-2, 2, size=1), [[rng.uniform(0, 3)]])
            r2000 = dpp_check(model, sol, t, theta, ms, 2000)
            r1000 = dpp_check(model, sol, t, theta, ms, 1000)
            worst2000 = max(worst2000, r2000)
            # 4th-order ratio, with a saturation guard: at these step counts
            # the residual sits at the double-precision floor, orders below
            # the tolerance, where a ratio measures roundoff noise
            if not (max(r1000, r2000) <= 1e-10 or r1000 / r2000 >= 12.0):
                saturated_or_fourth_order = False
        # the convergence order itself, asserted where it is measurable
        ms = MomentState([1.0], [[0.5]])
        r8 = dpp_check(model, sol, 0.2, 0.8, ms, 8)
        r16 = dpp_check(model, sol, 0.2, 0.8, ms, 16)
        order_ok = r8 / r16 >= 12.0
        ok = worst2000 <= 1e-6 and saturated_or_fourth_order and order_ok
        all_ok = all_ok and ok
        details.append(f"{name}: max residual(K=2000) {worst2000:.2e}, "
                       f"coarse ratio {r8 / r16:.1f}")
        assert worst2000 <= 1e-6
        assert saturated_or_fourth_order
        assert order_ok
    report(6, all_ok, "; ".join(details))


def test_criterion_07_monte_carlo_consistency(mc_runs):
    details = []
    all_ok = True
    for name, (model, sol, runs, traj) in mc_runs.items():
        v0 = value(sol, 0.0, MomentState.dirac([1.0]))
        for res, wall in runs:
            assert wall < 60.0
            dev = abs(res.cost_mean - v0)
            assert dev <= 4.0 * res.cost_stderr
            for k in (250, 500, 1000):
                sig = traj.covs[k, 0, 0]
                mean_dev = abs(res.mean_path[k, 0] - traj.means[k, 0])
                var_dev = abs(res.cov_path[k, 0, 0] - sig)
                assert mean_dev <= 4.0 * np.sqrt(sig / N_PARTICLES)
                # variance standard error from the empirical 4th moment:
                # the optimally controlled wealth is strongly non-Gaussian
                assert var_dev <= 4.0 * variance_stderr(res.ensembles[k])
                if name == "systemic":
                    drift_bound = 4.0 * np.sqrt(res.cov_path[k, 0, 0] / N_PARTICLES)
                    assert abs(res.mean_path[k, 0] - 1.0) <= drift_bound
        worst = max(abs(r.cost_mean - v0) / (4 * r.cost_stderr) for r, _ in runs)
        details.append(f"{name}: worst |cost-value|/(4 se) = {worst:.2f}")
        all_ok = all_ok and worst <= 1.0
    report(7, all_ok, "; ".join(details))


def test_criterion_08_optimality_gap_detection(mv_default, sy_default):
    from mflq import FeedbackPerturbation
    details = []
    all_ok = True
    for name, pack in (("mean-variance", mv_default), ("systemic", sy_default)):
        model, sol = pack[1], pack[2]
        cfg = SimConfig(n_particles=N_PARTICLES, n_steps=1000, seed=CRN_SEED,
                        initial=MomentState.dirac([1.0]))
        perts = [FeedbackPerturbation("unperturbed")] + canonical_perturbations()
        rep = optimality_gap(model, sol, cfg, perts)
        unperturbed = rep.candidates[0]
        assert unperturbed.gap == 0.0
        worst_t = min(c.gap / c.gap_stderr for c in rep.candidates[1:])
        assert worst_t > 2.0
        assert not rep.any_beats_optimal
        details.append(f"{name}: min gap/stderr = {worst_t:.1f}, unperturbed gap 0")
        all_ok = all_ok and worst_t > 2.0
    report(8, all_ok, "; ".join(details))


def test_criterion_09_mean_variance_trajectory(mv_default, mc_runs):
    p, model, sol = mv_default
    fb = optimal_feedback(model, sol)
    target = 1.0 + 0.5 * (np.e - 1.0)
    traj = propagate_moments(model, fb, 0.0, MomentState.dirac([1.0]), 1000)
    oracle_err = abs(traj.means[-1, 0] - target)

    _, _, runs, _ = mc_runs["mean-variance"]
    mc_ok = all(abs(res.mean_path[-1, 0] - target)
                <= 4.0 * np.sqrt(res.cov_path[-1, 0, 0] / N_PARTICLES)
                for res, _ in runs)

    rng = np.random.default_rng(31)
    fb_err = 0.0
    for _ in range(50):
        t = rng.uniform(0.0, 1.0)
        x, mx = rng.normal(size=2)
        fb_err = max(fb_err, abs(fb(t, [x], [mx])[0]
                                 - mean_variance_optimal_control(p, t, x, mx)))
    # the closed-form display itself, at the criterion's stated value
    assert abs(mean_variance_mean_trajectory(p, 1.0) - target) <= 1e-12
    ok = oracle_err <= 1e-6 and mc_ok and fb_err <= 1e-8
    report(9, ok, f"oracle mean err {oracle_err:.2e}, "
                  f"MC within 4 se: {mc_ok}, feedback err {fb_err:.2e}")
    assert oracle_err <= 1e-6
    assert mc_ok
    assert fb_err <= 1e-8


def test_criterion_10_fault_injection(capsys):
    # corrupted solution must fail the Bellman check with residual >= 1e-2
    model = systemic_model(SystemicParams())
    sol = mflq.with_scaled_lambda(solve_riccati(model, 1000), 1.01)
    rng = np.random.default_rng(17)
    residual = max(abs(bellman_residual(model, sol, t, MomentState(
        rng.uniform(-3, 3, size=1), [[rng.uniform(0, 5)]])))
        for t in rng.uniform(0.01, 0.99, size=10) for _ in range(10))
    code = cli_main(["verify", "--preset", "systemic-risk", "--particles",
                     "500", "--steps", "250", "--seed", "1",
                     "--corrupt-lambda", "1.01"])
    out = capsys.readouterr().out
    bellman_line = next(l for l in out.strip().split("\n")
                        if l.startswith("bellman_residual_max"))
    ok = residual >= 1e-2 and code != 0 and "FAIL" in bellman_line
    with capsys.disabled():
        report(10, ok, f"corrupted residual {residual:.2e}, verify exit {code}")
    assert residual >= 1e-2
    assert code != 0
    assert "FAIL" in bellman_line


def test_verify_battery_all_pass_on_presets(capsys):
    # cmd_verify companion examples: both preset batteries pass end to end
    code_sy = cli_main(["verify", "--preset", "systemic-risk", "--particles",
                        "5000", "--steps", "500", "--seed", "1"])
    out_sy = capsys.readouterr().out
    code_mv = cli_main(["verify", "--preset", "mean-variance", "--particles",
                        str(N_PARTICLES), "--steps", "1000", "--seed", "2"])
    out_mv = capsys.readouterr().out
    ok = code_sy == 0 and code_mv == 0
    with capsys.disabled():
        report("verify-examples", ok,
               f"systemic: {out_sy.strip().splitlines()[-1]}; "
               f"mean-variance: {out_mv.strip().splitlines()[-1]}")
    assert "RESULT pass=7 fail=0" in out_sy
    assert "RESULT pass=7 fail=0" in out_mv
    assert ok
