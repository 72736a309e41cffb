import dataclasses

import numpy as np
import pytest

import mflq
from mflq import (AffineFeedback, MeanVarianceParams, MomentState,
                  SystemicParams, bellman_residual,
                  control_objective, f_hat_affine, g_hat, g_inf, lq_model,
                  mean_variance_model, optimal_feedback, solve_riccati,
                  systemic_model, value)
from mflq.riccati import RiccatiState, auxiliary


# --- discrete-measure oracles (independent of the moment formulas) ----------

def f_hat_discrete(model, t, atoms, weights, controls):
    """Lifted running cost by direct summation over a discrete measure."""
    atoms = np.asarray(atoms, float)
    controls = np.asarray(controls, float)
    w = np.asarray(weights, float)
    c = model.cost
    mx = w @ atoms
    ma = w @ controls
    var_q = w @ [x @ c.Q2(t) @ x for x in atoms] - mx @ c.Q2(t) @ mx
    var_r = w @ [a @ c.R2(t) @ a for a in controls] - ma @ c.R2(t) @ ma
    cross = w @ [(x - mx) @ c.M2(t) @ a for x, a in zip(atoms, controls)]
    return (var_q + mx @ (c.Q2(t) + c.Q2bar(t)) @ mx
            + var_r + ma @ (c.R2(t) + c.R2bar(t)) @ ma
            + 2.0 * mx @ (c.M2(t) + c.M2bar(t)) @ ma + 2.0 * cross
            + (c.q1(t) + c.q1bar(t)) @ mx + (c.r1(t) + c.r1bar(t)) @ ma)


def objective_discrete(model, t, state, atoms, weights, controls):
    """Inner objective by direct summation over a discrete measure."""
    aux = auxiliary(model, t, state)
    atoms = np.asarray(atoms, float)
    controls = np.asarray(controls, float)
    w = np.asarray(weights, float)
    mx = w @ atoms
    ma = w @ controls
    var_u = w @ [a @ aux.U @ a for a in controls] - ma @ aux.U @ ma
    cross = w @ [(x - mx) @ aux.S @ a for x, a in zip(atoms, controls)]
    return (var_u + ma @ aux.V @ ma + 2.0 * cross
            + 2.0 * mx @ aux.Z @ ma + aux.Y @ ma)


def minimize_discrete(model, t, state, atoms, weights):
    """Exact minimum of the quadratic objective over per-atom controls,
    recovered from black-box evaluations (no optimality formula used)."""
    m = model.dims.m
    n = len(atoms) * m

    def G(vec):
        return objective_discrete(model, t, state, atoms, weights,
                                  vec.reshape(len(atoms), m))

    g0 = G(np.zeros(n))
    e = np.eye(n)
    b = np.array([(G(e[i]) - G(-e[i])) / 2.0 for i in range(n)])
    H = np.empty((n, n))
    for i in range(n):
        H[i, i] = G(e[i]) + G(-e[i]) - 2.0 * g0
        for j in range(i):
            H[i, j] = H[j, i] = G(e[i] + e[j]) - G(e[i]) - G(e[j]) + g0
    a_star = np.linalg.solve(H, -b)
    return g0 + b @ a_star + 0.5 * a_star @ H @ a_star


def population_moments(atoms, weights):
    atoms = np.asarray(atoms, float)
    w = np.asarray(weights, float)
    mx = w @ atoms
    dev = atoms - mx
    cov = (dev * w[:, None]).T @ dev
    return MomentState(mx, cov)


# --- value ------------------------------------------------------------------

def test_value_dirac_zero_cost():
    model = lq_model(d=2, m=1, horizon=1.0, R2=1.0, P2=np.eye(2))
    sol = solve_riccati(model, 100)
    for t in (0.0, 0.31, 1.0):
        for m in ([1.0, 2.0], [-0.5, 0.1]):
            ms = MomentState.dirac(m)
            assert value(sol, t, ms) == pytest.approx(np.dot(m, m), abs=1e-12)


def test_value_mean_variance_at_zero():
    p = MeanVarianceParams()  # defaults r=0, rho=vol=1, eta=2, T=1
    sol = solve_riccati(mean_variance_model(p), 1000)
    got = value(sol, 0.0, MomentState.dirac([1.0]))
    assert got == pytest.approx(-1.0 - 0.25 * (np.e - 1.0), abs=1e-8)


def test_value_terminal_identification():
    model = systemic_model(SystemicParams(c=0.7))
    sol = solve_riccati(model, 64)
    rng = np.random.default_rng(0)
    for _ in range(5):
        ms = MomentState(rng.normal(size=1), [[rng.uniform(0, 4)]])
        assert value(sol, 1.0, ms) == pytest.approx(g_hat(model, ms), abs=1e-14)


# --- g_hat -------------------------------------------------------------------

def test_g_hat():
    assert g_hat(lq_model(d=1, m=1, horizon=1.0), MomentState([3.0], [[2.0]])) == 0.0
    mv = mean_variance_model(MeanVarianceParams(eta=2.0))
    ms = MomentState([1.5], [[0.8]])
    assert g_hat(mv, ms) == pytest.approx(0.8 - 1.5)
    one = lq_model(d=1, m=1, horizon=1.0, P2=1.0)
    assert g_hat(one, MomentState([2.0], [[3.0]])) == pytest.approx(7.0)


# --- f_hat_affine --------------------------------------------------------------

def test_f_hat_zero_feedback():
    model = lq_model(d=2, m=1, horizon=1.0, Q2=np.eye(2) * 1.5,
                     Q2bar=np.eye(2) * -0.5)
    fb = AffineFeedback.constant(np.zeros((1, 2)), np.zeros((1, 2)), [0.0])
    ms = MomentState([1.0, -1.0], np.diag([0.5, 2.0]))
    expect = 1.5 * np.trace(ms.cov) + ms.mean @ np.eye(2) @ ms.mean
    assert f_hat_affine(model, 0.3, fb, ms) == pytest.approx(expect)


def test_f_hat_matches_two_point_measure():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 200)
    fb = optimal_feedback(model, sol)
    t = 0.4
    k1, k2, k0 = fb.gains(t)
    m, s = 0.7, 1.3
    atoms = [[m - s], [m + s]]
    weights = [0.5, 0.5]
    controls = [fb(t, x, [m]) for x in atoms]
    direct = f_hat_discrete(model, t, atoms, weights, controls)
    ms = population_moments(atoms, weights)
    assert f_hat_affine(model, t, fb, ms) == pytest.approx(direct, abs=1e-12)


def test_f_hat_dirac_collapse():
    rng = np.random.default_rng(1)
    model = lq_model(d=1, m=1, horizon=1.0, Q2=1.1, Q2bar=0.3, R2=0.9,
                     R2bar=0.2, M2=0.5, M2bar=-0.1, q1=np.array([0.7]),
                     r1=np.array([-0.3]), q1bar=np.array([0.2]),
                     r1bar=np.array([0.4]))
    for _ in range(5):
        k1, k2, k0, m = rng.normal(size=4)
        fb = AffineFeedback.constant([[k1]], [[k2]], [k0])
        ms = MomentState.dirac([m])
        a = k2 * m + k0
        assert f_hat_affine(model, 0.5, fb, ms) == pytest.approx(
            mflq.running_cost(model, 0.5, [m], [a], [m], [a]), abs=1e-12)


# --- inner objective and its minimum -------------------------------------------

def test_g_inf_zero_when_no_coupling():
    model = lq_model(d=1, m=1, horizon=1.0, R2=1.0)
    st = RiccatiState(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1), 0.0)
    assert g_inf(model, 0.5, st, MomentState([2.0], [[3.0]])) == 0.0


def test_g_inf_matches_discrete_minimization():
    # three-atom measure, unequal weights, both presets plus a cross-term model
    cases = [
        systemic_model(SystemicParams()),
        mean_variance_model(MeanVarianceParams(r=0.05, rho=0.2, vol=0.3, eta=1.0)),
        lq_model(d=1, m=1, horizon=1.0, B=0.4, C=0.8, D=0.3, F=0.5, M2=0.2,
                 Q2=1.0, R2=0.7, sigma0=np.array([0.6]),
                 r1=np.array([0.3]), P2=0.5),
    ]
    atoms = [[-1.0], [0.4], [2.2]]
    weights = [0.2, 0.3, 0.5]
    ms = population_moments(atoms, weights)
    for model in cases:
        sol = solve_riccati(model, 200)
        t = 0.37
        st = sol.at(t)
        direct_min = minimize_discrete(model, t, st, atoms, weights)
        assert g_inf(model, t, st, ms) == pytest.approx(direct_min, abs=1e-10)


def test_g_inf_lower_bounds_affine_objectives():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 200)
    t = 0.62
    st = sol.at(t)
    rng = np.random.default_rng(9)
    for _ in range(20):
        ms = MomentState(rng.normal(size=1), [[rng.uniform(0.1, 4.0)]])
        floor = g_inf(model, t, st, ms)
        fb = AffineFeedback.constant(rng.normal(size=(1, 1)),
                                     rng.normal(size=(1, 1)), rng.normal(size=1))
        assert control_objective(model, t, st, fb, ms) >= floor - 1e-9


def test_minimizer_attains_g_inf():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 200)
    fb = optimal_feedback(model, sol)
    t = 0.25
    st = sol.at(t)
    ms = MomentState([1.2], [[0.9]])
    assert control_objective(model, t, st, fb, ms) == pytest.approx(
        g_inf(model, t, st, ms), abs=1e-12)


# --- optimal feedback ------------------------------------------------------------

def test_optimal_feedback_mean_variance():
    p = MeanVarianceParams()
    sol = solve_riccati(mean_variance_model(p), 1000)
    fb = optimal_feedback(mean_variance_model(p), sol)
    for t in (0.0, 0.21, 0.7, 1.0):
        k1, k2, k0 = fb.gains(t)
        assert k1[0, 0] == pytest.approx(-1.0, abs=1e-10)
        assert k2[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert k0[0] == pytest.approx(0.5 * np.exp(1.0 - t), abs=1e-8)


def test_optimal_feedback_systemic():
    p = SystemicParams()
    model = systemic_model(p)
    sol = solve_riccati(model, 1000)
    fb = optimal_feedback(model, sol)
    for t in (0.0, 0.43, 1.0):
        k1, k2, k0 = fb.gains(t)
        lam = sol.at(t).Lam[0, 0]
        assert k1[0, 0] == pytest.approx(-(2 * lam + p.q), abs=1e-12)
        assert k2[0, 0] == pytest.approx(0.0, abs=1e-13)
        assert k0[0] == pytest.approx(0.0, abs=1e-13)


def test_optimal_feedback_zero_cost():
    model = lq_model(d=1, m=1, horizon=1.0, R2=1.0, P2=1.0)
    sol = solve_riccati(model, 50)
    fb = optimal_feedback(model, sol)
    k1, k2, k0 = fb.gains(0.5)
    assert k1[0, 0] == 0.0 and k2[0, 0] == 0.0 and k0[0] == 0.0


def test_apply_feedback():
    fb = AffineFeedback.constant([[2.0]], [[0.0]], [0.7])
    assert fb(0.1, [1.5], [1.5]) == pytest.approx([0.7])
    sys_fb = AffineFeedback.constant([[-(2 * 0.2 + 0.5)]], [[0.0]], [0.0])
    assert sys_fb(0.0, [1.5], [1.0]) == pytest.approx([-0.45])
    ident = AffineFeedback.constant(np.eye(2), np.eye(2), np.zeros(2))
    out = ident(0.0, [3.0, -1.0], [3.0, -1.0])
    assert out == pytest.approx([3.0, -1.0])


# --- Bellman residual ---------------------------------------------------------------

def test_bellman_residual_mean_variance():
    sol = solve_riccati(mean_variance_model(MeanVarianceParams()), 1000)
    model = mean_variance_model(MeanVarianceParams())
    r = bellman_residual(model, sol, 0.5, MomentState([1.0], [[0.3]]))
    assert abs(r) <= 1e-4


def test_bellman_residual_zero_cost_exact():
    model = lq_model(d=1, m=1, horizon=1.0, R2=1.0, P2=1.0)
    sol = solve_riccati(model, 100)
    r = bellman_residual(model, sol, 0.5, MomentState([2.0], [[1.0]]))
    assert abs(r) <= 1e-14


def test_bellman_residual_systemic_random_states():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 1000)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        ms = MomentState(rng.uniform(-3, 3, size=1), [[rng.uniform(0, 5)]])
        t = rng.uniform(2 * sol.step, 1.0 - 2 * sol.step)
        worst = max(worst, abs(bellman_residual(model, sol, t, ms)))
    assert worst <= 1e-4


def test_bellman_residual_detects_corruption():
    model = systemic_model(SystemicParams())
    sol = mflq.with_scaled_lambda(solve_riccati(model, 1000), 1.01)
    r = bellman_residual(model, sol, 0.5, MomentState([1.0], [[5.0]]))
    assert abs(r) >= 1e-2


def test_chi_shift_moves_value_not_feedback():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 300)
    shifted = dataclasses.replace(sol, chi=sol.chi + 2.5)
    ms = MomentState([0.4], [[1.1]])
    assert value(shifted, 0.3, ms) == pytest.approx(value(sol, 0.3, ms) + 2.5)
    f0, f1 = optimal_feedback(model, sol), optimal_feedback(model, shifted)
    for t in (0.1, 0.9):
        for a, b in zip(f0.gains(t), f1.gains(t)):
            assert np.array_equal(a, b)


def test_moment_sufficiency():
    # evaluating through an ensemble's moments is identical to evaluating
    # any other representation with the same (mean, cov)
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 200)
    ms = mflq.ensemble_moments(np.random.default_rng(2).normal(1.0, 0.7, (500, 1)))
    same = MomentState(ms.mean.copy(), ms.cov.copy())
    assert value(sol, 0.5, ms) == value(sol, 0.5, same)
    assert g_hat(model, ms) == g_hat(model, same)


def test_bellman_residual_domain():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 100)
    with pytest.raises(mflq.OutOfDomainError):
        bellman_residual(model, sol, 0.0, MomentState.dirac([0.0]))
