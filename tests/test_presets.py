import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mflq
from mflq import (MeanVarianceParams, SystemicParams, build_preset,
                  mean_variance_closed_form, mean_variance_mean_trajectory,
                  mean_variance_model, mean_variance_optimal_control,
                  optimal_feedback, solve_riccati, systemic_delta,
                  systemic_lambda_reference, systemic_model,
                  systemic_optimal_control)
from mflq.schedules import Schedule

from helpers import row_at


# --- model builders -----------------------------------------------------------

def test_builders_validate():
    mean_variance_model(MeanVarianceParams())  # construction validates
    systemic_model(SystemicParams())


def test_mean_variance_coefficients():
    p = MeanVarianceParams(r=0.05, rho=0.2, vol=0.3, eta=1.0)
    model = mean_variance_model(p)
    assert model.dynamics.B(0.3)[0, 0] == 0.05
    assert model.dynamics.C(0.3)[0, 0] == 0.2
    assert model.dynamics.F(0.3)[0, 0] == 0.3
    assert model.cost.P2[0, 0] == 0.5 and model.cost.P2bar[0, 0] == -0.5
    assert model.cost.p1bar[0] == -1.0
    ms = mflq.MomentState([1.5], [[2.0]])
    assert mflq.g_hat(model, ms) == pytest.approx(0.5 * 2.0 - 1.5)
    assert row_at(model, 0.1, 2.0, 3.0, 0.0, 0.0)[0] == pytest.approx([0.05 * 2 + 0.2 * 3])


def test_systemic_coefficients():
    p = SystemicParams(kappa=0.7, q=0.4, eta=1.2, c=0.3, sigma=0.9)
    model = systemic_model(p)
    b, s, _, _ = row_at(model, 0.2, 2.0, 0.5, 1.0, 0.0)
    assert b == pytest.approx([0.7 * (1.0 - 2.0) + 0.5])
    assert s == pytest.approx([0.9])
    assert row_at(model, 0.2, 1.0, 2.0, 0.0, 0.0)[2] \
        == pytest.approx(0.6 * 1 + 0.5 * 4 + 2 * 0.2 * 2)


def test_parameter_invariants_enforced():
    with pytest.raises(ValueError):
        MeanVarianceParams(vol=0.0)
    with pytest.raises(ValueError):
        MeanVarianceParams(eta=-1.0)
    with pytest.raises(ValueError):
        SystemicParams(q=0.0)
    with pytest.raises(ValueError):
        SystemicParams(c=-0.1)
    # (kappa+q)^2 + eta - q^2 = kappa^2 + 2 kappa q + eta > 0 is implied by
    # kappa >= 0, eta > 0, so real roots always exist within the invariants
    plus, minus = systemic_delta(SystemicParams(kappa=0.0, q=2.0, eta=0.1))
    assert plus > minus


# --- closed forms ----------------------------------------------------------------

def test_mean_variance_closed_form_terminal():
    p = MeanVarianceParams(eta=3.0)
    st = mean_variance_closed_form(p, p.horizon)
    assert st.Lam[0, 0] == pytest.approx(1.5)
    assert st.Gam[0, 0] == 0.0
    assert st.gam[0] == pytest.approx(-1.0)
    assert st.chi == 0.0


def test_mean_variance_closed_form_defaults_at_zero():
    st = mean_variance_closed_form(MeanVarianceParams(), 0.0)
    assert st.Lam[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-14)
    assert st.gam[0] == pytest.approx(-1.0)
    assert st.chi == pytest.approx(-0.25 * (np.e - 1.0), abs=1e-14)


def test_closed_form_matches_engine_grid_wide():
    p = MeanVarianceParams(r=0.05, rho=0.2, vol=0.3, eta=1.0)
    sol = solve_riccati(mean_variance_model(p), 1000)
    for k in range(0, 1001, 40):
        cf = mean_variance_closed_form(p, float(sol.grid[k]))
        st = sol.state(k)
        assert abs(st.Lam[0, 0] - cf.Lam[0, 0]) <= 1e-8
        assert abs(st.gam[0] - cf.gam[0]) <= 1e-8
        assert abs(st.chi - cf.chi) <= 1e-8


def _tabulated(times, values):
    return Schedule.tabulated(times, [[[v]] for v in values])


def test_closed_form_with_tabulated_rates():
    """A tabulated rate alone, then r, rho and vol each tabulated on its own
    knots at multiples of T/4, all on the solve's grid."""
    quarters = np.linspace(0.0, 1.0, 5)
    for p in (MeanVarianceParams(r=_tabulated([0.0, 1.0], [0.0, 0.1]), rho=0.5, vol=0.4, eta=1.0),
              MeanVarianceParams(r=_tabulated(quarters, [0.02, 0.1, -0.03, 0.05, 0.0]),
                                 rho=_tabulated([0.0, 0.5, 1.0], [0.5, -0.2, 0.3]),
                                 vol=_tabulated([0.0, 0.25, 0.75, 1.0], [0.4, 0.9, 0.25, 0.5]),
                                 eta=1.0)):
        sol = solve_riccati(mean_variance_model(p), 1000)
        for t in (0.0, 0.25, 0.33, 0.6, 0.8, 1.0):
            cf = mean_variance_closed_form(p, t)
            st = sol.at(t)
            assert abs(st.Lam[0, 0] - cf.Lam[0, 0]) <= 1e-8
            assert abs(st.gam[0] - cf.gam[0]) <= 1e-8
            assert abs(st.chi - cf.chi) <= 1e-8


def _random_knots(rng, horizon, values):
    n = rng.integers(2, 7)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, horizon, n - 2)), [horizon]])
    return _tabulated(times, values(n))


def _random_vols(rng, n):
    """vol at n knots: each ratio to the previous one is 10^U(-2, 2), or 1
    plus or minus 10^U(-12, -1)."""
    steps = [10.0 ** rng.uniform(-2.0, 2.0) if rng.random() < 0.5
             else 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -1.0)
             for _ in range(n - 1)]
    return 10.0 ** rng.uniform(-1.0, 1.0) * np.cumprod([1.0] + steps)


def test_integrals_match_quadrature_on_random_tabulated_schedules():
    """The per-piece closed forms against scipy's adaptive quadrature (split
    at every knot, the integrand interpolated by np.interp) on random
    piecewise-linear r, rho and vol with 2 to 6 knots each, at knots and
    between them, over [t, T] and [0, t]: within 1e-12 relative, int r
    relative to int |r|."""
    from scipy.integrate import quad

    rng = np.random.default_rng(2024)
    for _ in range(150):
        T = rng.uniform(0.5, 3.0)
        r = _random_knots(rng, T, lambda n: rng.uniform(-0.2, 0.3, n))
        rho = _random_knots(rng, T, lambda n: rng.uniform(-2.0, 2.0, n))
        vol = _random_knots(rng, T, lambda n: _random_vols(rng, n))
        p = MeanVarianceParams(r=r, rho=rho, vol=vol, horizon=T)
        knots = np.unique(np.concatenate([s.times for s in (r, rho, vol)]))
        at = lambda s, u: np.interp(u, s.times, s.values[:, 0, 0])
        sharpe_sq = lambda u: (at(rho, u) / at(vol, u)) ** 2
        for t in (*rng.choice(knots, 2), *rng.uniform(0.0, T, 2)):
            for tail in (True, False):
                a, b = (t, T) if tail else (0.0, t)
                pts = knots[(knots > a) & (knots < b)]

                def integral(f, epsabs=0.0):
                    return quad(f, a, b, points=pts, epsabs=epsabs, epsrel=1e-13,
                                limit=500)[0] if b > a else 0.0

                scale, ref_s = integral(lambda u: abs(at(r, u))), integral(sharpe_sq)
                ref_r = integral(lambda u: at(r, u), epsabs=1e-13 * scale)
                int_r, int_s = p._integrals(t, tail)
                assert abs(int_r - ref_r) <= 1e-12 * scale
                assert abs(int_s - ref_s) <= 1e-12 * ref_s


def test_constant_integrals_are_the_products():
    """Constant r, rho and vol: int r = r h and int rho^2/vol^2 =
    (rho/vol)^2 h over a length h, as the closed forms had them before
    the integrals were summed by piece, to 4e-16 relative."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        r, rho, vol, T = (rng.uniform(-0.5, 0.5), rng.uniform(-2.0, 2.0),
                          rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
        p = MeanVarianceParams(r=r, rho=rho, vol=vol, horizon=T)
        for t in (0.0, rng.uniform(0.0, T), T):
            for tail in (True, False):
                h = T - t if tail else t
                assert p._integrals(t, tail) == pytest.approx(
                    (r * h, (rho / vol) ** 2 * h), rel=4e-16, abs=0.0)


def test_mean_variance_optimal_control_values():
    p = MeanVarianceParams()
    assert mean_variance_optimal_control(p, 0.0, 1.0, 1.0) \
        == pytest.approx(0.5 * np.e)
    assert mean_variance_optimal_control(MeanVarianceParams(rho=1e-300), 0.3,
                                         2.0, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_mean_variance_control_engine_vs_formula():
    p = MeanVarianceParams()
    model = mean_variance_model(p)
    sol = solve_riccati(model, 1000)
    fb = optimal_feedback(model, sol)
    rng = np.random.default_rng(12)
    for _ in range(20):
        t = rng.uniform(0.0, 1.0)
        x, mx = rng.normal(size=2)
        got = fb(t, [x], [mx])[0]
        want = mean_variance_optimal_control(p, t, x, mx)
        assert abs(got - want) <= 1e-8


def test_mean_trajectory_values():
    p = MeanVarianceParams()
    assert mean_variance_mean_trajectory(p, 0.0) == pytest.approx(1.0)
    assert mean_variance_mean_trajectory(p, 1.0) \
        == pytest.approx(1.0 + 0.5 * (np.e - 1.0), abs=1e-12)


# --- systemic references -----------------------------------------------------------

def test_delta_values():
    plus, minus = systemic_delta(SystemicParams(kappa=0.5, q=0.5, eta=1.0))
    assert plus == pytest.approx(-1.0 + np.sqrt(1.75))
    assert minus == pytest.approx(-1.0 - np.sqrt(1.75))
    plus, minus = systemic_delta(SystemicParams(kappa=0.5, q=0.5, eta=0.25))
    assert (plus, minus) == pytest.approx((0.0, -2.0))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(0.1, 2.0), st.floats(0.05, 4.0))
def test_delta_vieta(kappa, q, eta):
    p = SystemicParams(kappa=kappa, q=q, eta=eta)
    plus, minus = systemic_delta(p)
    assert plus * minus == pytest.approx(q * q - eta, abs=1e-9)
    assert plus + minus == pytest.approx(-2.0 * (kappa + q), abs=1e-9)


def test_lambda_reference_terminal_and_fixed_point():
    p = SystemicParams(c=0.8)
    assert systemic_lambda_reference(p, p.horizon) == pytest.approx(0.4)
    p0 = SystemicParams(c=0.0, q=0.5, eta=0.25)  # eta = q^2: zero is stationary
    ts = np.linspace(0.0, 1.0, 7)
    assert np.abs(systemic_lambda_reference(p0, ts)).max() <= 1e-13


def test_lambda_reference_large_terminal_penalty_stays_bounded():
    """With Lam_- < 0 <= c/2 the backward solution decreases from c/2
    toward Lam_+ = delta_+/2 and never escapes, however large c is: the
    reference stays in [delta_+/2, c/2] at a few times, on a dense grid, on
    times approaching T geometrically and at one ulp below T."""
    p = SystemicParams(c=4e8)
    ts = np.array([0.0, 0.5, 0.9, 0.999, 1.0])
    lam = systemic_lambda_reference(p, ts)
    assert np.isfinite(lam).all()
    assert (lam >= 0.5 * systemic_delta(p)[0]).all() and (lam <= 0.5 * p.c).all()
    assert (np.diff(lam) > 0).all()
    # the second set lands one rounding above c/2 at T - ulp without the clamp
    for p in (p, SystemicParams(kappa=1.358868938238151, q=1.267059674133429,
                                eta=4.366766645868041, c=0.49677578958677776,
                                horizon=1.2311926018192427)):
        T = p.horizon
        ts = np.sort(np.concatenate([np.linspace(0.0, T, 2001),
                                     T * (1.0 - np.logspace(-16, -1, 61)),
                                     [np.nextafter(T, 0.0)]]))
        lam = systemic_lambda_reference(p, ts)
        assert 0.5 * systemic_delta(p)[0] < 0.5 * p.c
        assert (lam >= 0.5 * systemic_delta(p)[0]).all() and (lam <= 0.5 * p.c).all()
        assert (np.diff(lam) >= 0).all()


@pytest.mark.parametrize("c", [0.0, 0.8, 4e8] + list(np.random.default_rng(8).uniform(0.0, 5.0, 20)))
def test_lambda_reference_is_exactly_half_c_at_terminal_time(c):
    p = SystemicParams(kappa=0.3, q=0.7, eta=1.9, c=c, horizon=2.0)
    assert systemic_lambda_reference(p, 2.0) == 0.5 * c
    assert systemic_lambda_reference(p, np.array([0.0, 2.0]))[1] == 0.5 * c


def test_lambda_reference_solves_its_riccati_equation():
    """Centred differences of the closed form against the right-hand side
    2(kappa+q) Lam + 2 Lam^2 + (q^2 - eta)/2 at interior times, relative to
    the largest of its three terms: a transcription error in the formula
    fails this without any other solver."""
    rng = np.random.default_rng(21)
    h = 1e-5
    for _ in range(40):
        p = SystemicParams(kappa=rng.uniform(0.0, 3.0), q=rng.uniform(0.05, 2.0),
                           eta=rng.uniform(0.01, 4.0), c=rng.choice([0.0, rng.uniform(0.0, 5.0)]),
                           horizon=rng.choice([1.0, 3.0]))
        ts = rng.uniform(h, p.horizon - h, 5)
        lam = systemic_lambda_reference(p, ts)
        slope = (systemic_lambda_reference(p, ts + h)
                 - systemic_lambda_reference(p, ts - h)) / (2.0 * h)
        terms = np.stack([2.0 * (p.kappa + p.q) * lam, 2.0 * lam ** 2,
                          np.full_like(lam, 0.5 * (p.q ** 2 - p.eta))])
        assert (np.abs(slope - terms.sum(axis=0)) <= 1e-7 * np.abs(terms).max(axis=0)).all()


@pytest.mark.parametrize("c", [0.0, 0.8, 4e8])
def test_lambda_reference_with_a_double_root(c):
    """kappa = 0, eta = 1e-300: delta_+ and delta_- are equal in floating
    point, but not their difference, the root 1e-150. The result is finite,
    inside [delta_+/2, c/2], and the double-root limit
    Lam = a + (y - a) / (1 + 2 (y - a)(T - t)), a = -q/2, y = c/2."""
    p = SystemicParams(kappa=0.0, eta=1e-300, c=c)
    ts = np.linspace(0.0, 1.0, 11)
    lam = systemic_lambda_reference(p, ts)
    assert np.isfinite(lam).all()
    assert (lam >= 0.5 * systemic_delta(p)[0]).all() and (lam <= 0.5 * c).all()
    a, y = -0.5 * p.q, 0.5 * c
    assert lam == pytest.approx(a + (y - a) / (1.0 + 2.0 * (y - a) * (1.0 - ts)), rel=1e-12)


@pytest.mark.parametrize("params, name", [
    (lambda bad: SystemicParams(kappa=bad), "kappa"),
    (lambda bad: SystemicParams(sigma=bad), "sigma"),
    (lambda bad: SystemicParams(q=bad), "q"),
    (lambda bad: SystemicParams(eta=bad), "eta"),
    (lambda bad: SystemicParams(c=bad), "c"),
    (lambda bad: SystemicParams(x0=bad), "x0"),
    (lambda bad: SystemicParams(horizon=bad), "horizon"),
    (lambda bad: MeanVarianceParams(r=bad), "r"),
    (lambda bad: MeanVarianceParams(rho=bad), "rho"),
    (lambda bad: MeanVarianceParams(vol=bad), "vol"),
    (lambda bad: MeanVarianceParams(vol=Schedule.tabulated([0.0, 1.0], [[[1.0]], [[bad]]])), "vol"),
    (lambda bad: MeanVarianceParams(eta=bad), "eta"),
    (lambda bad: MeanVarianceParams(x0=bad), "x0"),
    (lambda bad: MeanVarianceParams(horizon=bad), "horizon"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_rejected(params, name, bad):
    with pytest.raises(ValueError, match=f"^{name} has a non-finite value$"):
        params(bad)


def test_lambda_reference_vs_engine():
    p = SystemicParams(kappa=0.5, q=0.5, eta=1.0, c=0.0, sigma=1.0)
    sol = solve_riccati(systemic_model(p), 1000)
    ref = systemic_lambda_reference(p, sol.grid)
    assert np.abs(sol.Lam[:, 0, 0] - ref).max() <= 1e-8


def test_systemic_control_engine_vs_formula():
    p = SystemicParams()
    model = systemic_model(p)
    sol = solve_riccati(model, 800)
    fb = optimal_feedback(model, sol)
    rng = np.random.default_rng(4)
    for _ in range(20):
        t = rng.uniform(0.0, 1.0)
        x, mx = rng.normal(size=2)
        want = systemic_optimal_control(p, sol, t, x, mx)
        got = fb(t, [x], [mx])[0]
        assert abs(got - want) <= 1e-10
    assert systemic_optimal_control(p, sol, 0.5, 1.3, 1.3) == 0.0


def test_systemic_chi_is_integrated_lambda():
    from scipy.integrate import simpson
    p = SystemicParams(sigma=1.4)
    sol = solve_riccati(systemic_model(p), 1000)
    for k in (0, 250, 777):
        ref = p.sigma ** 2 * simpson(sol.Lam[k:, 0, 0], x=sol.grid[k:])
        assert abs(sol.chi[k] - ref) <= 1e-8


# --- parameter sweep -----------------------------------------------------------

def test_sweep_mean_variance_solves():
    # 50 combinations within T <= 2, parameters <= 5; the Sharpe-ratio-like
    # quantity rho^2/vol^2 * T is kept moderate because U = vol^2 Lam decays
    # like exp(-int rho^2/vol^2) and underflows the positivity floor beyond
    # roughly 40 (see test_sweep_extreme_ratio_breaks_down)
    grid = itertools.product((0.0, 0.3, 1.0), (0.2, 0.8, 1.5), (0.7, 1.2),
                             (0.5, 5.0))
    count = 0
    for r, rho, vol, eta in grid:
        for T in (0.5, 2.0):
            p = MeanVarianceParams(r=r, rho=rho, vol=vol, eta=eta, horizon=T)
            model = mean_variance_model(p)
            sol = solve_riccati(model, 300)
            assert np.isfinite(sol.Lam).all()
            count += 1
            if count >= 50:
                return


def test_sweep_extreme_ratio_breaks_down():
    # rho^2/vol^2 * T = 200: Lam, hence U = vol^2 Lam, sinks below the
    # positivity floor; the solver must fail fast rather than regularize
    p = MeanVarianceParams(r=0.0, rho=3.0, vol=0.3, eta=1.0, horizon=2.0)
    with pytest.raises(mflq.RiccatiBreakdownError):
        solve_riccati(mean_variance_model(p), 300)


def test_sweep_systemic_solves():
    grid = itertools.product((0.0, 0.5, 2.0), (0.1, 0.5, 1.5), (0.5, 2.0),
                             (0.0, 1.0))
    count = 0
    for kappa, q, sigma, c in grid:
        for eta in (max(q * q, 0.2), 5.0):
            p = SystemicParams(kappa=kappa, q=q, eta=eta, c=c, sigma=sigma,
                               horizon=2.0)
            model = systemic_model(p)
            sol = solve_riccati(model, 300)
            assert np.isfinite(sol.Lam).all()
            count += 1
            if count >= 50:
                return


# --- registry -------------------------------------------------------------------

def test_build_preset():
    model, params = build_preset("mean-variance", {"eta": 5.0, "T": 2.0})
    assert params.eta == 5.0 and model.horizon == 2.0
    model, params = build_preset("systemic-risk", {"kappa": 1.0})
    assert params.kappa == 1.0
    with pytest.raises(ValueError):
        build_preset("unknown", {})
    with pytest.raises(ValueError, match="unknown parameter 'foo'.*kappa, sigma, q, eta, c, x0, T"):
        build_preset("systemic-risk", {"foo": 1.0})
