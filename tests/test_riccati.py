import warnings

import numpy as np
import pytest

import mflq
from mflq import (MeanVarianceParams, SystemicParams, check_standard_conditions,
                  lq_model, mean_variance_closed_form, mean_variance_model,
                  solve_riccati, systemic_lambda_reference, systemic_model)
from mflq.errors import RiccatiBreakdownError
from mflq.riccati import RiccatiState, _pack, _rhs, _unpack, terminal_state
from mflq.schedules import Schedule

from helpers import aux_at, random_standard_model


def state(lam, gam, gamma, chi=0.0):
    return RiccatiState(Lam=np.array([[float(lam)]]), Gam=np.array([[float(gam)]]),
                        gam=np.array([float(gamma)]), chi=float(chi))


def rhs_at(model, t, st):
    """(Lam', Gam', gam', chi') at (t, st), from _rhs on the one-row model
    table at t."""
    return _unpack(_rhs(model.table([t]), 0, _pack(st)), model.dims.d)


# --- auxiliary matrices -----------------------------------------------------

def test_auxiliary_mean_variance():
    p = MeanVarianceParams(r=0.03, rho=0.4, vol=0.5, eta=1.5)
    model = mean_variance_model(p)
    lam, g, c = 0.8, 0.3, -1.2
    U, V, S, Z, Y = aux_at(model, 0.4, state(lam, g, c))
    assert U[0, 0] == pytest.approx(0.25 * lam)
    assert V[0, 0] == pytest.approx(0.25 * lam)
    assert S[0, 0] == pytest.approx(lam * 0.4)
    assert Z[0, 0] == pytest.approx(g * 0.4)
    assert Y[0] == pytest.approx(0.4 * c)


def test_auxiliary_systemic():
    p = SystemicParams(kappa=0.5, q=0.5, eta=1.0)
    model = systemic_model(p)
    lam, g, c = 0.2, 0.7, 0.4
    U, V, S, Z, Y = aux_at(model, 0.1, state(lam, g, c))
    assert U[0, 0] == pytest.approx(0.5)
    assert V[0, 0] == pytest.approx(0.5)
    assert S[0, 0] == pytest.approx(lam + 0.25)
    assert Z[0, 0] == pytest.approx(g)
    assert Y[0] == pytest.approx(c)


def test_auxiliary_trivial():
    model = lq_model(d=2, m=2, horizon=1.0, R2=np.eye(2))
    U, V, S, Z, Y = aux_at(model, 0.5, RiccatiState(np.eye(2), np.eye(2), np.zeros(2), 0.0))
    assert np.allclose(U, np.eye(2))
    assert np.allclose(V, np.eye(2))
    assert np.allclose(S, 0.0)
    assert np.allclose(Z, 0.0)
    assert np.allclose(Y, 0.0)


# --- right-hand side reductions ---------------------------------------------

def test_rhs_mean_variance_reduction():
    r, rho, vol = 0.03, 0.4, 0.5
    model = mean_variance_model(MeanVarianceParams(r=r, rho=rho, vol=vol, eta=1.5))
    lam, g, c = 0.8, 0.3, -1.2
    dL, dG, dg, dc = rhs_at(model, 0.4, state(lam, g, c, 0.5))
    s2 = rho ** 2 / vol ** 2
    assert dL[0, 0] == pytest.approx((s2 - 2 * r) * lam)
    assert dG[0, 0] == pytest.approx(s2 * g * g / lam - 2 * r * g)
    assert dg[0] == pytest.approx(-r * c + c * s2 * g / lam)
    assert dc == pytest.approx(s2 * c * c / (4 * lam))


def test_rhs_systemic_reduction():
    kappa, q, eta, sigma = 0.5, 0.5, 1.0, 1.3
    model = systemic_model(SystemicParams(kappa=kappa, q=q, eta=eta, sigma=sigma))
    lam, g, c = 0.2, 0.7, 0.4
    dL, dG, dg, dc = rhs_at(model, 0.6, state(lam, g, c))
    assert dL[0, 0] == pytest.approx(2 * (kappa + q) * lam + 2 * lam ** 2
                                     + 0.5 * (q ** 2 - eta))
    assert dG[0, 0] == pytest.approx(2 * g * g)
    assert dg[0] == pytest.approx(2 * c * g)
    assert dc == pytest.approx(0.5 * c * c - sigma ** 2 * lam)


@pytest.mark.parametrize("d, m", [(1, 1), (1, 2), (3, 1), (3, 2)])
def test_rhs_is_the_written_system(d, m):
    """The augmented pair's right-hand side is the four equations of the
    riccati module docstring, evaluated here term by term from the model's
    schedules at random (t, Lam, Gam, gam, chi), with every barred term and
    M2, M2bar, b0, sigma0, q1, r1 nonzero."""
    rng = np.random.default_rng(10 * d + m)
    model = random_standard_model(rng, d, m, cross=0.3)
    dyn, cost = model.dynamics, model.cost
    for t in rng.uniform(0.0, 1.0, 3):
        a = rng.standard_normal((d, d))
        L, G = a @ a.T / d, (a + a.T) / 2.0
        g, chi = rng.standard_normal(d), float(rng.standard_normal())
        B, Bbar, C, Cbar, D, Dbar, F, Fbar = (getattr(dyn, n)(t) for n in (
            "B", "Bbar", "C", "Cbar", "D", "Dbar", "F", "Fbar"))
        b0, s0 = dyn.b0(t), dyn.sigma0(t)
        Q2, Q2bar, R2, R2bar, M2, M2bar, q1, q1bar, r1, r1bar = (getattr(cost, n)(t) for n in (
            "Q2", "Q2bar", "R2", "R2bar", "M2", "M2bar", "q1", "q1bar", "r1", "r1bar"))
        BB, CC, DD, FF = B + Bbar, C + Cbar, D + Dbar, F + Fbar
        U = F.T @ L @ F + R2
        V = FF.T @ L @ FF + R2 + R2bar
        S = D.T @ L @ F + L @ C + M2
        Z = DD.T @ L @ FF + G @ CC + M2 + M2bar
        Y = CC.T @ g + r1 + r1bar + 2.0 * FF.T @ L @ s0
        Vi = np.linalg.inv(V)
        want = (-(Q2 + D.T @ L @ D + L @ B + B.T @ L - S @ np.linalg.inv(U) @ S.T),
                -(Q2 + Q2bar + DD.T @ L @ DD + G @ BB + BB.T @ G - Z @ Vi @ Z.T),
                -(BB.T @ g - Z @ Vi @ Y + q1 + q1bar + 2.0 * DD.T @ L @ s0 + 2.0 * G @ b0),
                -(-0.25 * Y @ Vi @ Y + g @ b0 + s0 @ L @ s0))
        got = rhs_at(model, t, RiccatiState(Lam=L, Gam=G, gam=g, chi=chi))
        for x, y in zip(got, want):
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12 * np.abs(y).max())


def test_lambda_padding_stays_zero():
    """Lam~'s padding row and column are exactly zero in every stored state
    and derivative of a solve, expanded to flat pairs, and in the derivative
    _rhs takes at each of those states."""
    d = 3
    model = random_standard_model(np.random.default_rng(2), d, 2, cross=0.3)
    sol = solve_riccati(model, 100)
    rhs = [_rhs(model.table([t]), 0, y) for t, y in zip(sol.grid, sol._full(sol.y))]
    for rows in (sol._full(sol.y), sol._full(sol.dy), np.array(rhs)):
        lam = rows.reshape(-1, 2, d + 1, d + 1)[:, 0]
        assert not lam[:, d].any() and not lam[:, :, d].any()


def test_rhs_stationary_zero():
    model = lq_model(d=2, m=1, horizon=1.0, R2=1.0, P2=np.eye(2))
    st = terminal_state(model)
    dL, dG, dg, dc = rhs_at(model, 0.3, st)
    assert np.allclose(dL, 0.0) and np.allclose(dG, 0.0)
    assert np.allclose(dg, 0.0) and dc == 0.0


# --- solving -----------------------------------------------------------------

def test_solve_mean_variance_matches_closed_form():
    p = MeanVarianceParams(r=0.0, rho=1.0, vol=1.0, eta=2.0, horizon=1.0)
    sol = solve_riccati(mean_variance_model(p), 1000)
    assert sol.state(0).Lam[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)
    errs = []
    for k in range(0, 1001, 50):
        cf = mean_variance_closed_form(p, float(sol.grid[k]))
        st = sol.state(k)
        errs.append(max(abs(st.Lam[0, 0] - cf.Lam[0, 0]),
                        abs(st.gam[0] - cf.gam[0]), abs(st.chi - cf.chi)))
    assert max(errs) <= 1e-8
    assert np.abs(sol.Gam).max() <= 1e-12


def test_solve_zero_cost_stationary():
    model = lq_model(d=1, m=1, horizon=1.0, R2=1.0, P2=1.0)
    sol = solve_riccati(model, 100)
    assert np.allclose(sol.Lam, 1.0) and np.allclose(sol.Gam, 1.0)
    assert np.abs(sol.gam).max() == 0.0 and np.abs(sol.chi).max() == 0.0


def test_solve_systemic_first_order_vanishes():
    sol = solve_riccati(systemic_model(SystemicParams()), 800)
    assert np.abs(sol.Gam).max() <= 1e-12
    assert np.abs(sol.gam).max() <= 1e-12


def test_solve_systemic_lambda_against_ode_oracle():
    p = SystemicParams(kappa=0.5, q=0.5, eta=1.0, c=0.0, sigma=1.0)
    sol = solve_riccati(systemic_model(p), 1000)
    ref = systemic_lambda_reference(p, sol.grid)
    assert np.abs(sol.Lam[:, 0, 0] - ref).max() <= 1e-8


def test_terminal_data_exact():
    p2 = np.array([[2.0, 0.3], [0.3, 1.0]])
    p2b = np.array([[-1.0, 0.0], [0.0, 0.5]])
    model = lq_model(d=2, m=1, horizon=1.0, R2=1.0, P2=p2, P2bar=p2b,
                     p1=np.array([1.0, 2.0]), p1bar=np.array([0.5, -0.5]))
    sol = solve_riccati(model, 50)
    assert np.array_equal(sol.Lam[-1], p2)
    assert np.array_equal(sol.Gam[-1], p2 + p2b)
    assert np.array_equal(sol.gam[-1], np.array([1.5, 1.5]))
    assert sol.chi[-1] == 0.0


# --- interpolation ------------------------------------------------------------

def test_eval_exact_at_grid_points():
    sol = solve_riccati(systemic_model(SystemicParams()), 64)
    for k in (0, 13, 64):
        st = sol.at(float(sol.grid[k]))
        assert np.array_equal(st.Lam, sol.Lam[k])
        assert st.chi == sol.chi[k]


def test_eval_off_grid_matches_closed_form():
    p = MeanVarianceParams(r=0.0, rho=1.0, vol=1.0, eta=2.0)
    sol = solve_riccati(mean_variance_model(p), 1000)
    for t in (0.5 + 0.37e-3, 0.123456, 0.987654):
        cf = mean_variance_closed_form(p, t)
        st = sol.at(t)
        assert abs(st.Lam[0, 0] - cf.Lam[0, 0]) <= 1e-8
        assert abs(st.chi - cf.chi) <= 1e-8


def test_hermite_table_rows_equal_at_bitwise():
    sol = solve_riccati(random_standard_model(np.random.default_rng(11), d=3, m=2), 64)
    rng = np.random.default_rng(4)
    query = np.concatenate([sol.grid, rng.uniform(0.0, 1.0, 40),
                            0.5 * (sol.grid[1:] + sol.grid[:-1])])
    rng.shuffle(query)
    Lam, Gam, gam, chi = _unpack(sol._rows(query), 3)
    for k, t in enumerate(query):
        st = sol.at(float(t))
        assert Lam[k].tobytes() == st.Lam.tobytes()
        assert Gam[k].tobytes() == st.Gam.tobytes()
        assert gam[k].tobytes() == st.gam.tobytes()
        assert chi[k] == st.chi
    Lam, Gam, gam, chi = _unpack(sol._rows(sol.grid), 3)  # grid times return stored states
    for arr, stored in ((Lam, sol.Lam), (Gam, sol.Gam), (gam, sol.gam), (chi, sol.chi)):
        assert arr.tobytes() == np.ascontiguousarray(stored).tobytes()
    with pytest.raises(mflq.OutOfDomainError):
        sol._rows([0.5, -1e-9])


def test_eval_out_of_domain():
    sol = solve_riccati(systemic_model(SystemicParams()), 16)
    with pytest.raises(mflq.OutOfDomainError):
        sol.at(1.0001)


# --- invariants ---------------------------------------------------------------

def test_no_mean_field_collapse():
    # without barred coefficients the two quadratic coefficients coincide
    rng = np.random.default_rng(42)
    for _ in range(10):
        model = random_standard_model(rng, barred=False)
        assert check_standard_conditions(model, 0.25).holds
        sol = solve_riccati(model, 250)
        assert np.abs(sol.Lam - sol.Gam).max() <= 1e-10


def test_condition_implies_psd_solution():
    rng = np.random.default_rng(7)
    for _ in range(5):
        model = random_standard_model(rng, barred=True)
        sol = solve_riccati(model, 250)
        eigs_l = np.linalg.eigvalsh(sol.Lam).min()
        eigs_g = np.linalg.eigvalsh(sol.Gam).min()
        assert eigs_l >= -1e-10 and eigs_g >= -1e-10


def test_symmetry_along_solution():
    rng = np.random.default_rng(3)
    sol = solve_riccati(random_standard_model(rng), 200)
    asym = np.abs(sol.Lam - np.transpose(sol.Lam, (0, 2, 1))).max()
    assert asym <= 1e-10
    for t in rng.uniform(0, 1, 7):
        st = sol.at(float(t))
        assert np.abs(st.Lam - st.Lam.T).max() <= 1e-10
        assert np.abs(st.Gam - st.Gam.T).max() <= 1e-10


def test_ode_residual_via_finite_differences():
    rng = np.random.default_rng(5)
    model = random_standard_model(rng)
    K = 200
    sol = solve_riccati(model, K)
    dt = sol.step
    worst = 0.0
    for k in range(10, K - 10, 17):
        fd = (sol.Lam[k + 1] - sol.Lam[k - 1]) / (2 * dt)
        rhs = _rhs(model.table([sol.grid[k]]), 0, sol._full(sol.y[k]))
        np.testing.assert_array_equal(sol._full(sol.dy[k]), rhs)
        dL = _unpack(rhs, model.dims.d)[0]
        worst = max(worst, np.linalg.norm(fd - dL))
    assert worst <= 10.0 * dt ** 2


def test_rk4_convergence_order():
    p = MeanVarianceParams(r=0.0, rho=1.0, vol=1.0, eta=2.0)
    model = mean_variance_model(p)

    def err(K):
        sol = solve_riccati(model, K)
        return max(abs(sol.state(k).Lam[0, 0]
                       - mean_variance_closed_form(p, float(sol.grid[k])).Lam[0, 0])
                   for k in range(K + 1))

    assert err(20) / err(40) >= 12.0


# --- standard conditions -------------------------------------------------------

def test_standard_conditions_systemic_without_cross_term():
    p = SystemicParams(kappa=0.5, q=0.5, eta=1.0, c=0.0)
    base = systemic_model(p)
    model = lq_model(d=1, m=1, horizon=1.0, B=-p.kappa, Bbar=p.kappa, C=1.0,
                     sigma0=np.array([p.sigma]), Q2=p.eta / 2, Q2bar=-p.eta / 2,
                     R2=0.5, P2=0.0, P2bar=0.0)
    assert check_standard_conditions(model, 0.5).holds
    assert check_standard_conditions(model, 0.25).holds
    assert not check_standard_conditions(model, 0.6).holds
    # the true systemic preset carries M2 != 0 but the displayed checks still hold
    assert check_standard_conditions(base, 0.5).holds


def test_standard_conditions_mean_variance_violated():
    model = mean_variance_model(MeanVarianceParams())
    for margin in (1e-6, 0.1, 1.0):
        rep = check_standard_conditions(model, margin)
        assert not rep.holds
        assert "R2" in rep.first_violation


def test_standard_conditions_zero_model():
    rep = check_standard_conditions(lq_model(d=1, m=1, horizon=1.0), 1e-8)
    assert not rep.holds


@pytest.mark.parametrize("n_steps", [2.5, True, 0, -3])
def test_step_count_must_be_an_integer(n_steps):
    """A step count is an integer >= 1: 2.5 is not truncated to 2, and True
    is not one step."""
    with pytest.raises(ValueError, match="n_steps"):
        solve_riccati(systemic_model(SystemicParams()), n_steps)


def _knots(times, mats):
    return Schedule.tabulated(times, np.array(mats, dtype=float))


_I2, _I1 = np.eye(2), np.eye(1)
_STANDARD = dict(Q2=_I2, R2=_I1, P2=_I2)


@pytest.mark.parametrize("coeffs, report", [
    (dict(P2=np.diag([1.0, -0.1])), "P2 not positive semidefinite"),
    (dict(P2bar=-2.0 * _I2), "P2 + P2bar not positive semidefinite"),
    # violations at an interior knot only: the end points hold
    (dict(Q2=_knots([0.0, 0.4, 1.0], [_I2, np.diag([1.0, -0.5]), _I2])),
     "Q2 not >= 0 at t=0.4"),
    (dict(Q2bar=_knots([0.0, 0.7, 1.0], [0 * _I2, -2.0 * _I2, 0 * _I2])),
     "Q2 + Q2bar not >= 0 at t=0.7"),
    (dict(R2=0.3), "R2 not >= 0.5*I at t=0"),
    (dict(R2=_knots([0.0, 0.25, 1.0], [_I1, 0.2 * _I1, _I1])),
     "R2 not >= 0.5*I at t=0.25"),
    (dict(R2bar=_knots([0.0, 0.6, 1.0], [0 * _I1, -0.8 * _I1, 0 * _I1])),
     "R2 + R2bar not >= 0.5*I at t=0.6"),
    # the earliest time wins over the order of the conditions
    (dict(Q2=_knots([0.0, 0.6, 1.0], [_I2, -_I2, _I2]),
          R2=_knots([0.0, 0.3, 1.0], [_I1, 0.1 * _I1, _I1])),
     "R2 not >= 0.5*I at t=0.3"),
    # at one time Q2 is checked before Q2 + Q2bar, and R2 before R2 + R2bar
    (dict(Q2=_knots([0.0, 0.5, 1.0], [_I2, -_I2, _I2]), R2=0.1),
     "R2 not >= 0.5*I at t=0"),
    (dict(Q2=_knots([0.0, 0.5, 1.0], [_I2, -_I2, _I2]),
          Q2bar=_knots([0.0, 0.5, 1.0], [0 * _I2, -_I2, 0 * _I2])),
     "Q2 not >= 0 at t=0.5"),
    (dict(R2=_knots([0.0, 0.5, 1.0], [_I1, 0.1 * _I1, _I1]), R2bar=-0.9),
     "R2 + R2bar not >= 0.5*I at t=0"),
])
def test_standard_conditions_first_violation(coeffs, report):
    """The report names the first failing condition, scanning the check
    times in order and, at each, Q2, Q2 + Q2bar, R2, R2 + R2bar."""
    model = lq_model(d=2, m=1, horizon=1.0, **{**_STANDARD, **coeffs})
    rep = check_standard_conditions(model, 0.5)
    assert not rep.holds
    assert rep.first_violation == report
    assert check_standard_conditions(lq_model(d=2, m=1, horizon=1.0, **_STANDARD), 0.5).holds


# --- breakdown ------------------------------------------------------------------

def test_breakdown_on_blowup():
    # Lam' = 5 + Lam^2 backward from 0: finite-time escape near t ~ 0.3
    model = lq_model(d=1, m=1, horizon=1.0, C=1.0, R2=1.0, Q2=-5.0)
    with pytest.raises(RiccatiBreakdownError) as info:
        solve_riccati(model, 1000)
    assert info.value.time < 0.5


def test_breakdown_on_positivity_loss():
    # S = 0 so Lam(t) = 0.1 - (1 - t); U = Lam + 0.05 crosses zero at t = 0.85
    model = lq_model(d=1, m=1, horizon=1.0, F=1.0, R2=0.05, Q2=-1.0, P2=0.1)
    with pytest.raises(RiccatiBreakdownError) as info:
        solve_riccati(model, 1000)
    assert 0.8 <= info.value.time <= 0.87
    assert info.value.eigenvalue is not None


@pytest.mark.parametrize("model, steps, message, t", [
    (systemic_model(SystemicParams(sigma=1e200)), 50, "non-finite Riccati state", 0.98),
    (lq_model(d=1, m=1, horizon=1.0, B=400.0, C=1.0, D=1.0, F=1.0, R2=1.0, P2=1.0), 200,
     "U non-finite", 0.0025),
], ids=["state", "U"])
def test_overflowing_solve_raises_without_warnings(model, steps, message, t):
    """The solve steps with numpy's overflow and invalid-value warnings off:
    the breakdown, with its time, is all an overflowing solve reports."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RiccatiBreakdownError) as info:
            solve_riccati(model, steps)
    assert str(info.value) == f"{message} at t={t:g}" and info.value.time == pytest.approx(t)


def test_csv_dump(tmp_path):
    sol = solve_riccati(systemic_model(SystemicParams()), 8)
    path = tmp_path / "sol.csv"
    mflq.solution_to_csv(sol, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,Lambda_00,Gamma_00,gamma_0,chi"
    assert len(lines) == 10
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 1.0 and last[1] == 0.0  # terminal data, full precision
