import dataclasses
import importlib

import numpy as np
import pytest

import mflq
from mflq import (AffineFeedback, MeanVarianceParams, MomentState,
                  SystemicParams, bellman_residual, g_hat, lq_model,
                  mean_variance_model, optimal_feedback, solve_riccati,
                  systemic_model, value)
from mflq.cli import BELLMAN_TOL, DPP_TOL, IDENTITY_TOL
from mflq.model import _flow, _law_pairs, _pair_of, _sample_moments, _tr
from mflq.moments import _moment_table, cost_from_moments, dpp_check
from mflq.riccati import RiccatiState, _layout, _solved_aux
from mflq.schedules import Schedule

from helpers import (aux_at, flow_without_mean_noise, pair_of, random_standard_model, row_at,
                     tabulated_model)


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
    U, V, S, Z, Y = aux_at(model, t, state)
    atoms = np.asarray(atoms, float)
    controls = np.asarray(controls, float)
    w = np.asarray(weights, float)
    mx = w @ atoms
    ma = w @ controls
    var_u = w @ [a @ U @ a for a in controls] - ma @ U @ ma
    cross = w @ [(x - mx) @ S @ a for x, a in zip(atoms, controls)]
    return var_u + ma @ V @ ma + 2.0 * cross + 2.0 * mx @ Z @ ma + Y @ ma


def affine_objective_discrete(model, t, state, fb, ms):
    """Inner objective of the affine law fb by direct summation over the
    two-atom measure mean +- sqrt(var), which has the moments of ms (d = 1)."""
    s = np.sqrt(ms.cov[0, 0])
    atoms = [ms.mean - s, ms.mean + s]
    controls = [fb(t, x, ms.mean) for x in atoms]
    return objective_discrete(model, t, state, atoms, [0.5, 0.5], controls)


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


def hamiltonian_at(model, t, state, ms, law=None):
    """The law Hamiltonian less its time derivatives, <P~, S~'> + <W~, S~>,
    at (t, state, ms) under the gain pair of ``law`` at t (its table's row):
    [vec P~, 1] L y with the generator L of _flow over _law_pairs on the
    one-row model table at t and y the flat state of S~ = _pair_of(ms); by
    default under the gains _solved_aux synthesises at (t, state)."""
    c, P = model.table([t]), pair_of(state)
    K = -_solved_aux(c, 0, P)[1] if law is None else law.table([t])[:, 0]
    L = _flow(*_law_pairs(c, 0, K))
    return float(np.append(P, 1.0) @ L @ np.append(_pair_of(ms), 0.0))


def objective_gap_at(model, t, state, ms, law=None):
    """H(K) - H(0): the part of the law Hamiltonian that the gains move,
    which is the inner objective of the discrete oracles above."""
    m, d = model.dims.m, model.dims.d
    zero = AffineFeedback.constant(np.zeros((m, d)), np.zeros((m, d)), np.zeros(m))
    return hamiltonian_at(model, t, state, ms, law) - hamiltonian_at(model, t, state, ms, zero)


def f_hat_at(model, t, fb, ms):
    """Lifted running cost <W~, S~> of the affine law fb at (t, ms): the
    last entry of L y, L the generator of the one-row moment table at t and
    y the flat state of the moment pair S~ = _pair_of(ms)."""
    return (_moment_table(model, fb, [t])[0] @ np.append(_pair_of(ms), 0.0))[-1]


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


@pytest.mark.parametrize("preset", ["systemic-risk", "mean-variance"])
def test_value_and_g_hat_at_a_huge_mean(preset):
    """Gam = 0 on both presets: at |mean| = 1e160, where m~m~' overflows, the
    value is still tr(Lam Cov) + gam.mean + chi, and g_hat its terminal row."""
    model, _ = mflq.build_preset(preset)
    sol = solve_riccati(model, 100)
    for mean in (1e160, -1e160):
        ms = MomentState([mean], [[0.5]])
        for t in (0.0, 0.5, 1.0):
            st = sol.at(t)
            want = 0.5 * st.Lam[0, 0] + st.gam[0] * mean + st.chi
            assert value(sol, t, ms) == pytest.approx(want, rel=1e-14, abs=1e-14)
        assert g_hat(model, ms) == value(sol, 1.0, ms)


def test_value_and_g_hat_that_overflow_raise():
    """With Gam != 0, mean'Gam mean overflows at |mean| = 1e160: a ValueError,
    never inf or nan."""
    model = random_standard_model(np.random.default_rng(0), d=2, m=1)
    sol = solve_riccati(model, 50)
    assert min(sol.Gam[0, 0, 0], sol.Gam[-1, 0, 0]) > 1e-3  # at t = 0 and T
    ms = MomentState([1e160, 0.0], np.zeros((2, 2)))
    for evaluate in (lambda: value(sol, 0.0, ms), lambda: g_hat(model, ms)):
        with pytest.raises(ValueError, match="non-finite"):
            evaluate()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mean", [1e160, -1e160])
def test_bellman_residual_that_overflows_raises(mean):
    """At |mean| = 1e160 m~m~' overflows and the Hamiltonian is not finite,
    though the value is: a ValueError naming the residual, never inf and no
    RuntimeWarning. Below the overflow the residual is the one at a small mean."""
    model, _ = mflq.build_preset("systemic-risk")
    sol = solve_riccati(model, 100)
    assert np.isfinite(value(sol, 0.5, MomentState([mean], [[0.5]])))
    with pytest.raises(ValueError, match="^the Bellman residual has a non-finite value$"):
        bellman_residual(model, sol, 0.5, MomentState([mean], [[0.5]]))
    small = bellman_residual(model, sol, 0.5, MomentState([3.0], [[0.5]]))
    assert bellman_residual(model, sol, 0.5, MomentState([mean * 1e-10], [[0.5]])) \
        == pytest.approx(small, rel=1e-6)


# --- lifted running cost of an affine law ----------------------------------------

def test_f_hat_zero_feedback():
    model = lq_model(d=2, m=1, horizon=1.0, Q2=np.eye(2) * 1.5,
                     Q2bar=np.eye(2) * -0.5)
    fb = AffineFeedback.constant(np.zeros((1, 2)), np.zeros((1, 2)), [0.0])
    ms = MomentState([1.0, -1.0], np.diag([0.5, 2.0]))
    expect = 1.5 * np.trace(ms.cov) + ms.mean @ np.eye(2) @ ms.mean
    assert f_hat_at(model, 0.3, fb, ms) == pytest.approx(expect)


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
    assert f_hat_at(model, t, fb, ms) == pytest.approx(direct, abs=1e-12)


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
        assert f_hat_at(model, 0.5, fb, ms) == pytest.approx(
            row_at(model, 0.5, m, a, m, a)[2], abs=1e-12)


# --- the law Hamiltonian and its minimum ----------------------------------------

def test_hamiltonian_zero_when_no_coupling():
    model = lq_model(d=1, m=1, horizon=1.0, R2=1.0)
    st = RiccatiState(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1), 0.0)
    assert hamiltonian_at(model, 0.5, st, MomentState([2.0], [[3.0]])) == 0.0


def test_hamiltonian_minimum_matches_discrete_minimization():
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
        law = optimal_feedback(model, sol)
        assert objective_gap_at(model, t, st, ms, law) == pytest.approx(direct_min, abs=1e-10)


def test_hamiltonian_is_least_at_the_synthesised_gains():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 200)
    t = 0.62
    st = sol.at(t)
    rng = np.random.default_rng(9)
    for _ in range(20):
        ms = MomentState(rng.normal(size=1), [[rng.uniform(0.1, 4.0)]])
        floor = hamiltonian_at(model, t, st, ms)
        law = AffineFeedback.constant(rng.normal(size=(1, 1)), rng.normal(size=(1, 1)),
                                      rng.normal(size=1))
        assert hamiltonian_at(model, t, st, ms, law) >= floor - 1e-9


def test_hamiltonian_of_the_minimizer_is_its_discrete_objective():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 200)
    fb = optimal_feedback(model, sol)
    t = 0.25
    st = sol.at(t)
    ms = MomentState([1.2], [[0.9]])
    assert affine_objective_discrete(model, t, st, fb, ms) == pytest.approx(
        objective_gap_at(model, t, st, ms, fb), abs=1e-12)


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


def test_bellman_residual_at_a_point_mass_at_minus_one():
    """At a point mass H sees the gains only through the mean control
    K2 m + k; at m = -1 a probe with ones on K2 and k leaves it unchanged,
    so H is flat along the probe, and the stationarity ratio read inf on
    systemic-risk and 0.5 on mean-variance for correct solves."""
    for model in (systemic_model(SystemicParams()), mean_variance_model(MeanVarianceParams())):
        sol = solve_riccati(model, 1000)
        for t in (0.3, 0.5):
            assert bellman_residual(model, sol, t, MomentState.dirac([-1.0])) <= BELLMAN_TOL


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
    y = sol.y.copy()
    y[:, _layout(2)[1][-1]] += 2.5  # the slot of chi, the last entry of a flat pair
    shifted = dataclasses.replace(sol, y=y)
    assert np.array_equal(shifted.chi, sol.chi + 2.5)
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
    ms = MomentState(*_sample_moments(np.random.default_rng(2).normal(1.0, 0.7, (1, 500))))
    same = MomentState(ms.mean.copy(), ms.cov.copy())
    assert value(sol, 0.5, ms) == value(sol, 0.5, same)
    assert g_hat(model, ms) == g_hat(model, same)


def test_bellman_residual_domain():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 100)
    for t in (0.0, 1.5 * sol.step, 1.0 - 1.5 * sol.step):  # the stencil reaches t +- 2h
        with pytest.raises(mflq.OutOfDomainError):
            bellman_residual(model, sol, t, MomentState.dirac([0.0]))
    for t in (2.0 * sol.step, 1.0 - 2.0 * sol.step):
        assert np.isfinite(bellman_residual(model, sol, t, MomentState.dirac([0.0])))


def _random_laws(rng, d, n):
    laws = []
    for _ in range(n):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        laws.append(MomentState(rng.uniform(-3.0, 3.0, d), (q * rng.uniform(0.0, 5.0, d)) @ q.T))
    return laws


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_bellman_residual_generic_d3_models(seed):
    """At K=1000 a two-point difference left residuals of 1e-4 to 6e-4 on
    these correct models, above the verify tolerance; the fourth-order
    stencil must pass them with the tolerance unchanged."""
    model = random_standard_model(np.random.default_rng(seed), 3, 2)
    sol = solve_riccati(model, 1000)
    rng = np.random.default_rng(1)
    times = rng.uniform(2.0 * sol.step, 1.0 - 2.0 * sol.step, 10)
    worst = max(abs(bellman_residual(model, sol, t, ms))
                for t in times for ms in _random_laws(rng, 3, 100))
    assert worst <= BELLMAN_TOL


def test_cross_cost_model_meets_every_tolerance():
    """A d=3, m=2 model with M2 and M2bar nonzero meets the value identity,
    the DPP split and the Bellman residual at the verify tolerances."""
    model = random_standard_model(np.random.default_rng(0), 3, 2, cross=0.2)
    assert model.cost.M2.values.any() and model.cost.M2bar.values.any()
    sol = solve_riccati(model, 1000)
    rng = np.random.default_rng(1)
    laws = _random_laws(rng, 3, 20)
    fb = optimal_feedback(model, sol)
    ident = abs(value(sol, 0.0, laws[0]) - cost_from_moments(model, fb, 0.0, laws[0], 1000))
    assert ident <= IDENTITY_TOL
    assert max(dpp_check(model, sol, t1, t2, ms, 2000)
               for t1, t2, ms in ((0.1, 0.6, laws[1]), (0.3, 0.9, laws[2]))) <= DPP_TOL
    times = rng.uniform(2.0 * sol.step, 1.0 - 2.0 * sol.step, 10)
    assert max(abs(bellman_residual(model, sol, t, ms))
               for t in times for ms in laws) <= BELLMAN_TOL


def test_bellman_residual_across_a_knot():
    """tabulated_model() has a knot at 0.5, where the solution's second
    derivative jumps. Within 2h of it the centered stencil straddled the
    jump and this state read 6.3e-4 at 0.5 +- 0.5h and +- 1.5h and 1.0e-2 at
    the knot; the one-sided stencil on the knot-free side must pass it at
    the unchanged tolerance."""
    model = tabulated_model()
    sol = solve_riccati(model, 1000)
    ms = MomentState([2.0, 1.0], [[2.0, 0.0], [0.0, 2.0]])
    for offset in (0.0, 0.5, -0.5, 1.5, -1.5):
        assert abs(bellman_residual(model, sol, 0.5 + offset * sol.step, ms)) <= BELLMAN_TOL


# --- mutants of the solve's factorization --------------------------------------
# Each edits, in place, copies of the coefficient blocks J~, E~, T~ that
# _solved_aux reads (LqModel.table); n = d + 1 rows or columns come first.

def _block(c, name):
    c[name] = c[name].copy()
    return c[name]


def _drop_m2bar(c, d):
    T = _block(c, "T")
    T[1, ..., :d, d + 1:] = c["M2"]
    T[1, ..., d + 1:, :d] = _tr(c["M2"])


def _drop_cbar(c, d):
    _block(c, "J")[1, ..., :d, d + 1:] = c["C"]


def _drop_r2bar(c, d):
    _block(c, "T")[1, ..., d + 1:, d + 1:] = c["R2"]


def _zero_r1_row(c, d):
    T = _block(c, "T")
    T[1, ..., d, d + 1:] = T[1, ..., d + 1:, d] = 0.0


def _single_drift(c, d):
    """N with P~J~ in place of 2 P~J~."""
    c["J"] = 0.5 * c["J"]


def _drop_m_transpose(c, d):
    """T~ without its M~' block."""
    _block(c, "T")[..., d + 1:, :d + 1] = 0.0


def _aux_mutant(edit):
    """_solved_aux reading a copy of its table that ``edit`` changed, or,
    with edit None, returning W = 0 (the solve is then the value of the
    uncontrolled law)."""

    def mutant(c, j, P):
        if edit is None:
            N, W = _solved_aux(c, j, P)
            return N, np.zeros_like(W)
        c = dict(c)
        edit(c, c["b0"].shape[1])
        return _solved_aux(c, j, P)

    return mutant


def _without_noise_gains(model):
    """The model with D = Dbar = F = Fbar = 0."""
    d, m = model.dims.d, model.dims.m
    zero_dd, zero_dm = Schedule.constant(np.zeros((d, d))), Schedule.constant(np.zeros((d, m)))
    return dataclasses.replace(model, dynamics=dataclasses.replace(
        model.dynamics, D=zero_dd, Dbar=zero_dd, F=zero_dm, Fbar=zero_dm))


# name -> (the private function of mflq.riccati and mflq.value it replaces,
# the mutant); the solve and the check each read the module's own binding
MUTANTS = {"M2bar-from-Z": ("_solved_aux", _aux_mutant(_drop_m2bar)),
           "Cbar-from-C": ("_solved_aux", _aux_mutant(_drop_cbar)),
           "R2bar-from-V": ("_solved_aux", _aux_mutant(_drop_r2bar)),
           "r1-row-of-M": ("_solved_aux", _aux_mutant(_zero_r1_row)),
           "W-zero": ("_solved_aux", _aux_mutant(None)),
           "single-drift-in-N": ("_solved_aux", _aux_mutant(_single_drift)),
           "T-without-M-transpose": ("_solved_aux", _aux_mutant(_drop_m_transpose)),
           "flow-without-mean-noise": ("_flow", flow_without_mean_noise)}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_bellman_residual_sees_solved_aux_mutants(monkeypatch, name):
    """A mutant of the solve's factorization moves the solution and the
    gains; the law Hamiltonian reads the model's own coefficient pairs, so
    the residual must fail it. Before the check read the law Hamiltonian it
    minimised through the same factorization, and every mutant here passed
    at <= 2e-9. The flow mutant leaves the solve as it is and drops the
    mean's noise from the moment flow that the law Hamiltonian reads."""
    attr, mutant = MUTANTS[name]
    model = random_standard_model(np.random.default_rng(3), 3, 2, cross=0.3)
    models = [model, _without_noise_gains(model)]
    if name in ("M2bar-from-Z", "W-zero", "single-drift-in-N", "flow-without-mean-noise"):
        models.append(systemic_model(SystemicParams()))
    rng = np.random.default_rng(1)
    laws = _random_laws(rng, 3, 3)
    value_module = importlib.import_module("mflq.value")
    for model in models:
        d = model.dims.d
        states = laws if d == 3 else [MomentState([1.0], [[0.5]]), MomentState([-2.0], [[3.0]])]
        clean = solve_riccati(model, 1000)
        assert max(bellman_residual(model, clean, t, ms)
                   for t in (0.3, 0.7) for ms in states) <= BELLMAN_TOL
        with monkeypatch.context() as patch:
            for module in (mflq.riccati, value_module):
                if hasattr(module, attr):
                    patch.setattr(module, attr, mutant)
            sol = solve_riccati(model, 1000)
            residual = min(bellman_residual(model, sol, t, ms)
                           for t in (0.3, 0.7) for ms in states)
        assert residual > BELLMAN_TOL, (name, d, residual)
