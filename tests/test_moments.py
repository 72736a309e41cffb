import numpy as np
import pytest

from mflq import (AffineFeedback, MeanVarianceParams, MomentState,
                  SystemicParams, canonical_perturbations, cost_from_moments,
                  dpp_check, lq_model, mean_variance_mean_trajectory,
                  mean_variance_model, optimal_feedback,
                  propagate_moments, solve_riccati, systemic_model, value)
import mflq.moments
import mflq.model as model_module
from mflq.errors import CovarianceInstabilityError, OutOfDomainError
from mflq.model import LqModel, _pair_of, clip_psd
from mflq.moments import CLIP_FLOOR, INSTABILITY_FLOOR, _moment_table
from mflq.riccati import _rk4, _rk4_step

from helpers import flow_without_mean_noise, random_standard_model, rhs_gap_to_particles


def zero_fb(d=1, m=1):
    return AffineFeedback.constant(np.zeros((m, d)), np.zeros((m, d)), np.zeros(m))


def moment_rhs_at(model, fb, t, ms):
    """(m', Cov') at (t, ms), from the generator L of the one-row moment
    table at t applied to the flat state of S~ = _pair_of(ms), read from the
    rate of S~."""
    d = model.dims.d
    f = _moment_table(model, fb, [t])[0] @ np.append(_pair_of(ms), 0.0)
    dS = f[:-1].reshape(2, d + 1, d + 1)
    assert dS[1, d, d] == 0.0
    return dS[1, :d, d], dS[0, :d, :d]


# --- right-hand side ----------------------------------------------------------

def test_rhs_zero():
    model = lq_model(d=1, m=1, horizon=1.0)
    dm, dS = moment_rhs_at(model, zero_fb(), 0.5, MomentState([1.0], [[2.0]]))
    assert np.abs(dm).max() == 0.0 and np.abs(dS).max() == 0.0


def test_rhs_systemic_mean_frozen():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 500)
    fb = optimal_feedback(model, sol)
    for t, ms in ((0.1, MomentState([2.0], [[0.5]])),
                  (0.8, MomentState([-1.0], [[3.0]]))):
        dm, _ = moment_rhs_at(model, fb, t, ms)
        assert abs(dm[0]) <= 1e-12


def test_rhs_is_the_particle_state_equation_on_a_discrete_measure(monkeypatch):
    """The flow reads LqModel.table's pairs, whose padding (b0, sigma0, q/2,
    r/2) the solve reads too; the particle state equation reads the raw
    coefficients, so it checks the pairs independently of the solve, and
    the flow _flow that the Bellman residual reads too."""
    rng = np.random.default_rng(4)
    model = random_standard_model(rng, 3, 2, cross=0.3)
    c = model.table([0.0])
    for name in ("b0", "sigma0", "q1", "r1", "M2", "Bbar", "Cbar", "Dbar", "Fbar",
                 "Q2bar", "R2bar", "M2bar", "q1bar", "r1bar"):
        assert c[name].any(), name
    cases = []
    for t in (0.2, 0.65):
        fb = AffineFeedback.constant(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)),
                                     rng.standard_normal(2))
        cases.append((fb, t, rng.standard_normal((3, 6)) * 2.0, rng.dirichlet(np.ones(6))))
    assert max(rhs_gap_to_particles(model, *case) for case in cases) <= 1e-12
    with monkeypatch.context() as patch:
        patch.setattr(mflq.moments, "_flow", flow_without_mean_noise)
        assert min(rhs_gap_to_particles(model, *case) for case in cases) > 1e-3
    table = LqModel.table

    def without_b0(self, times):
        c = table(self, times)
        c["Bp"][1, ..., :-1, -1] = 0.0
        return c

    monkeypatch.setattr(LqModel, "table", without_b0)
    assert min(rhs_gap_to_particles(model, *case) for case in cases) > 1e-3


def test_the_constant_of_the_mean_stays_one(monkeypatch):
    """Every RK4 step matrix maps S1[d, d] by the unit row and S0's padding
    from the padding alone, so on the grid states S1[d, d] is 1.0 and the
    padding 0, all exactly; the trajectory's means and covariances are views
    of those states."""
    model = random_standard_model(np.random.default_rng(5), 3, 2, cross=0.3)
    fb = optimal_feedback(model, solve_riccati(model, 200))
    seen = []

    def recorded(*args):
        seen.append(_rk4_step(*args))
        return seen[-1]

    monkeypatch.setattr(mflq.moments, "_rk4_step", recorded)
    ms = MomentState([1.0, -2.0, 0.5], np.diag([0.5, 1.0, 2.0]))
    traj = propagate_moments(model, fb, 0.0, ms, 300)
    steps = np.concatenate(seen)
    assert steps.shape == (300, 33, 33)
    pad = np.zeros((2, 4, 4), dtype=bool)
    pad[0, 3] = pad[0, :, 3] = True
    pad = np.append(pad.ravel(), False)
    unit = 2 * 16 - 1  # S1[3, 3]
    assert (steps[:, unit] == np.eye(33)[unit]).all()
    assert not steps[:, pad][:, :, ~pad].any()
    states = traj.covs.base
    assert states.shape == (301, 33) and np.shares_memory(traj.means, states)
    S = states[:, :-1].reshape(-1, 2, 4, 4)
    assert (S[:, 1, 3, 3] == 1.0).all() and not states[:, pad].any()
    assert traj.means.tobytes() == S[:, 1, :3, 3].tobytes()
    assert traj.covs.tobytes() == S[:, 0, :3, :3].tobytes()


def stepped(model, fb, t0, ms, n_steps):
    """Per-step reference for propagate_moments: _rk4 on y' = L y with the
    generator L of _moment_table, each new state symmetrized and clipped
    (clip_psd), a clip below CLIP_FLOOR counted, and a non-finite state or a
    clip below INSTABILITY_FLOOR raised. Returns (states, clip count)."""
    d = model.dims.d
    grid = np.linspace(t0, model.horizon, n_steps + 1)
    clips = 0

    def settle(k, y):
        nonlocal clips
        if not np.isfinite(y).all():
            raise CovarianceInstabilityError("non-finite", time=float(grid[k]))
        S = y[:(d + 1) ** 2].reshape(d + 1, d + 1)[:d, :d]
        S[...], lo = clip_psd(S)
        if lo < INSTABILITY_FLOOR:
            raise CovarianceInstabilityError("unstable", time=float(grid[k]), eigenvalue=lo)
        clips += lo < CLIP_FLOOR
        return y

    states = [y.copy() for _, y, _ in _rk4(
        grid, grid[1] - grid[0], np.append(_pair_of(ms), 0.0),
        lambda times: _moment_table(model, fb, times), lambda L, j, y: L[j] @ y, settle,
        model.block_steps)]
    return np.array(states), clips


def trajectory_gap(traj, states) -> float:
    """Largest gap between the trajectory's means, covariances and running
    costs and those of flat states, each relative to its largest nonzero
    entry."""
    d = traj.means.shape[1]
    S = states[:, :-1].reshape(-1, 2, d + 1, d + 1)
    return max(np.abs(a - b).max() / (np.abs(b).max() or 1.0) for a, b in (
        (traj.means, S[:, 1, :d, d]), (traj.covs, S[:, 0, :d, :d]),
        (traj.running, states[:, -1])))


@pytest.mark.parametrize("name", ["systemic", "random-d3", "random-d3-cross"])
def test_step_matrices_are_the_stepper(name):
    """The step matrices give the per-step RK4 flow to rounding."""
    if name == "systemic":
        model, ms = systemic_model(SystemicParams()), MomentState([1.0], [[0.5]])
    else:
        model = random_standard_model(np.random.default_rng(3), 3, 2,
                                      cross=0.3 if name.endswith("cross") else 0.0)
        ms = MomentState([1.0, -2.0, 0.5], np.diag([0.5, 1.0, 2.0]))
    fb = optimal_feedback(model, solve_riccati(model, 1000))
    traj = propagate_moments(model, fb, 0.0, ms, 1000)
    states, clips = stepped(model, fb, 0.0, ms, 1000)
    assert traj.clip_count == clips == 0
    assert trajectory_gap(traj, states) <= 1e-13


def test_clip_and_restart_mid_block(monkeypatch):
    """Stiff steps (h 2(B+Bbar) = -2.7, h 2B = -2) push the variance below
    zero once the mean's noise Dbar turns on at t = 0.5, every step after:
    the flow projects each such state and restarts from it, so it clips
    where the per-step reference does (37 of 50 projections below
    CLIP_FLOOR), agrees with it to rounding, and does not depend on the
    block length. From a mean 10x larger, the clips reach beyond
    INSTABILITY_FLOOR, and both raise at the same step."""
    model = lq_model(d=1, m=1, horizon=1.0, B=-100.0, Bbar=-35.0, R2=1.0,
                     Dbar={"knots": [[0.0, 0.0], [0.5, 0.0], [0.6, 1.0], [1.0, 1.0]]})
    errors = []
    for run in (propagate_moments, stepped):
        with pytest.raises(CovarianceInstabilityError) as info:
            run(model, zero_fb(), 0.0, MomentState([1.0], [[0.0]]), 100)
        errors.append(info.value)
    assert errors[0].time == errors[1].time == pytest.approx(0.54)
    assert errors[0].eigenvalue == pytest.approx(errors[1].eigenvalue, rel=1e-12)
    ms = MomentState([0.1], [[0.0]])
    traj = propagate_moments(model, zero_fb(), 0.0, ms, 100)
    states, clips = stepped(model, zero_fb(), 0.0, ms, 100)
    assert traj.clip_count == clips == 37
    assert trajectory_gap(traj, states) <= 1e-13
    assert model.block_steps > 100
    monkeypatch.setattr(model_module, "TABLE_BUDGET", 0)
    again = propagate_moments(model, zero_fb(), 0.0, ms, 100)
    assert again.clip_count == 37
    for a, b in ((traj.means, again.means), (traj.covs, again.covs),
                 (traj.running, again.running)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_steps", [2.5, True, 0])
def test_propagate_step_count_must_be_an_integer(n_steps):
    model = lq_model(d=1, m=1, horizon=1.0, R2=1.0)
    with pytest.raises(ValueError, match="n_steps"):
        propagate_moments(model, zero_fb(), 0.0, MomentState([0.0], [[0.25]]), n_steps)


def test_rhs_pure_noise_variance_growth():
    model = lq_model(d=1, m=1, horizon=2.0, sigma0=np.array([0.7]), R2=1.0)
    traj = propagate_moments(model, zero_fb(), 0.0, MomentState([0.0], [[0.25]]), 100)
    expect = 0.25 + 0.49 * traj.grid
    assert np.abs(traj.covs[:, 0, 0] - expect).max() <= 1e-12
    assert np.abs(traj.means).max() == 0.0


# --- propagation ----------------------------------------------------------------

def test_flow_semigroup():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 400)
    fb = optimal_feedback(model, sol)
    ms0 = MomentState([1.0], [[0.4]])
    direct = propagate_moments(model, fb, 0.0, ms0, 800)
    first = propagate_moments(model, fb, 0.0, ms0, 320, t_end=0.4)
    second = propagate_moments(model, fb, 0.4, first.final_state, 480)
    assert second.means[-1] == pytest.approx(direct.means[-1], abs=1e-9)
    assert second.covs[-1] == pytest.approx(direct.covs[-1], abs=1e-9)
    total = first.final_running + second.final_running
    assert total == pytest.approx(direct.final_running, abs=1e-9)


def test_mean_variance_mean_trajectory():
    p = MeanVarianceParams()  # r=0, rho=vol=1, eta=2, x0=1
    model = mean_variance_model(p)
    sol = solve_riccati(model, 1000)
    fb = optimal_feedback(model, sol)
    traj = propagate_moments(model, fb, 0.0, MomentState.dirac([p.x0]), 1000)
    assert traj.means[-1, 0] == pytest.approx(1.0 + 0.5 * (np.e - 1.0), abs=1e-6)
    for k in (250, 500, 1000):
        t = float(traj.grid[k])
        assert traj.means[k, 0] == pytest.approx(
            mean_variance_mean_trajectory(p, t), abs=1e-6)


def test_constant_trajectory_zero_model():
    model = lq_model(d=1, m=1, horizon=1.0)
    traj = propagate_moments(model, zero_fb(), 0.0, MomentState([2.0], [[1.5]]), 50)
    assert np.all(traj.means == 2.0)
    assert np.abs(traj.covs - 1.5).max() == 0.0
    assert np.abs(traj.running).max() == 0.0


def test_running_nondecreasing_for_nonnegative_cost():
    model = lq_model(d=1, m=1, horizon=1.0, B=-0.3, C=1.0,
                     sigma0=np.array([0.5]), Q2=1.0, R2=1.0)
    fb = AffineFeedback.constant([[-0.4]], [[0.1]], [0.2])
    traj = propagate_moments(model, fb, 0.0, MomentState([1.0], [[0.3]]), 200)
    assert np.all(np.diff(traj.running) >= -1e-15)


def test_psd_along_trajectory_and_no_clips():
    for model, p in ((systemic_model(SystemicParams()), None),
                     (mean_variance_model(MeanVarianceParams()), None)):
        sol = solve_riccati(model, 500)
        fb = optimal_feedback(model, sol)
        traj = propagate_moments(model, fb, 0.0, MomentState.dirac([1.0]), 500)
        assert traj.clip_count == 0
        assert np.linalg.eigvalsh(traj.covs).min() >= -1e-9


def test_instability_error_on_stiff_coarse_grid():
    model = lq_model(d=2, m=1, horizon=1.0,
                     B=np.array([[0.0, 8.0], [-8.0, 0.0]]), R2=1.0)
    ms = MomentState([1.0, 0.0], np.diag([1.0, 0.0]))
    with pytest.raises(CovarianceInstabilityError):
        propagate_moments(model, zero_fb(d=2), 0.0, ms, 3)
    traj = propagate_moments(model, zero_fb(d=2), 0.0, ms, 200)
    assert traj.clip_count == 0


def test_non_finite_flow_raises():
    # the moment pair overflows to inf at the last of the 10 steps (a step
    # earlier for B >= 4e9, never for B <= 5e8): an RK4 step multiplies S~
    # by about (2 B h)^4 / 24
    model = lq_model(d=1, m=1, horizon=1.0, B=1.5e9, D=30.0, Q2=1.0, R2=1.0)
    ms = MomentState([1.0], [[1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CovarianceInstabilityError, match="non-finite") as info:
            propagate_moments(model, zero_fb(), 0.0, ms, 10)
        assert info.value.time == 1.0 and info.value.eigenvalue is None
        with pytest.raises(CovarianceInstabilityError):
            cost_from_moments(model, zero_fb(), 0.0, ms, 10)


# --- cost -------------------------------------------------------------------------

def test_cost_zero_model():
    model = lq_model(d=1, m=1, horizon=1.0)
    assert cost_from_moments(model, zero_fb(), 0.0, MomentState.dirac([1.0]), 10) == 0.0


def test_cost_matches_value_mean_variance():
    p = MeanVarianceParams()
    model = mean_variance_model(p)
    sol = solve_riccati(model, 1000)
    fb = optimal_feedback(model, sol)
    ms0 = MomentState.dirac([1.0])
    cost = cost_from_moments(model, fb, 0.0, ms0, 1000)
    assert cost == pytest.approx(value(sol, 0.0, ms0), abs=1e-6)
    assert cost == pytest.approx(-1.0 - 0.25 * (np.e - 1.0), abs=1e-6)


def test_no_perturbation_beats_optimal():
    for model in (systemic_model(SystemicParams()),
                  mean_variance_model(MeanVarianceParams())):
        sol = solve_riccati(model, 500)
        fb = optimal_feedback(model, sol)
        ms0 = MomentState.dirac([1.0])
        base = cost_from_moments(model, fb, 0.0, ms0, 500)
        assert base >= value(sol, 0.0, ms0) - 1e-6
        for pert in canonical_perturbations():
            cost = cost_from_moments(model, pert.apply(fb), 0.0, ms0, 500)
            assert cost - base >= 1e-9


# --- dynamic programming check ------------------------------------------------------

def test_dpp_theta_equal_t():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 200)
    assert dpp_check(model, sol, 0.3, 0.3, MomentState([1.0], [[1.0]]), 100) == 0.0


def test_dpp_ordering_error():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 100)
    with pytest.raises(OutOfDomainError):
        dpp_check(model, sol, 0.7, 0.3, MomentState.dirac([1.0]), 100)


def test_dpp_theta_equal_t_checks_its_inputs():
    """t = theta still checks the time, the step count and the law."""
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 100)
    with pytest.raises(OutOfDomainError):
        dpp_check(model, sol, 5.0, 5.0, MomentState.dirac([1.0]), 100)
    with pytest.raises(ValueError, match="n_steps"):
        dpp_check(model, sol, 0.3, 0.3, MomentState.dirac([1.0]), 0)


def test_dpp_theta_T_equals_cost_identity():
    p = MeanVarianceParams()
    model = mean_variance_model(p)
    sol = solve_riccati(model, 1000)
    ms0 = MomentState.dirac([1.0])
    r = dpp_check(model, sol, 0.0, 1.0, ms0, 1000)
    fb = optimal_feedback(model, sol)
    direct = abs(value(sol, 0.0, ms0) - cost_from_moments(model, fb, 0.0, ms0, 1000))
    assert r == pytest.approx(direct, abs=1e-12)
    assert r <= 1e-6


def test_dpp_interior_systemic():
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 2000)
    r = dpp_check(model, sol, 0.25, 0.75, MomentState([1.0], [[0.5]]), 2000)
    assert r <= 1e-6


def test_dpp_fourth_order_then_saturation():
    # pre-asymptotic regime shows clean 4th-order decay; at production step
    # counts the residual sits at the double-precision floor
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, 2000)
    ms = MomentState([1.0], [[0.5]])
    r = {k: dpp_check(model, sol, 0.25, 0.75, ms, k) for k in (4, 8, 16, 500, 1000, 2000)}
    assert r[4] / r[8] >= 12.0
    assert r[8] / r[16] >= 12.0
    assert max(r[500], r[1000], r[2000]) <= 1e-10
