"""Stage tables: batched gains, their breakdown checks, and the work the
solvers do per stage."""

import dataclasses
import importlib

import numpy as np
import pytest

from mflq import (AffineFeedback, FeedbackPerturbation, MeanVarianceParams,
                  MomentState, SimConfig, SystemicParams, bellman_residual, dpp_check,
                  lq_model, mean_variance_model, optimal_feedback, optimal_gains,
                  propagate_moments, simulate, solve_riccati, systemic_model,
                  with_scaled_lambda)
from mflq.errors import RiccatiBreakdownError
from mflq.schedules import Schedule

from helpers import tabulated_model


def stage_times(grid):
    out = np.empty(2 * grid.size - 1)
    out[0::2] = grid
    out[1::2] = 0.5 * (grid[1:] + grid[:-1])
    return out


@pytest.mark.parametrize("model", [systemic_model(SystemicParams()), tabulated_model()])
def test_gains_batch_invariant(model):
    sol = solve_riccati(model, 500)
    times = stage_times(np.linspace(0.0, 1.0, 2001))  # 4,001 stages
    batch = optimal_gains(model, sol, times)
    fb = optimal_feedback(model, sol)
    for k in np.random.default_rng(1).choice(times.size, 25, replace=False):
        alone = optimal_gains(model, sol, times[k:k + 1])
        t = float(times[k])
        pointwise = fb.gains(t)
        views = (fb.k1(t), fb.k2(t), fb.k0(t))
        for b, a, p, v in zip(batch, alone, pointwise, views):
            assert b[k].tobytes() == a[0].tobytes() == p.tobytes() == v.tobytes()


def test_transformed_table_is_scaled_base():
    model = tabulated_model()
    sol = solve_riccati(model, 200)
    fb = optimal_feedback(model, sol)
    law = FeedbackPerturbation("p", k1_scale=0.8, k2_scale=1.2, k_scale=0.9,
                               k_shift=0.5).apply(fb)
    times = stage_times(sol.grid[::10])
    K1, K2, k0 = fb.table(times)
    T1, T2, t0 = law.table(times)
    assert T1.tobytes() == (0.8 * K1).tobytes()
    assert T2.tobytes() == (1.2 * K2).tobytes()
    assert t0.tobytes() == (0.9 * k0 + 0.5).tobytes()
    for k in (0, 7, times.size - 1):
        for row, p in zip((T1[k], T2[k], t0[k]), law.gains(float(times[k]))):
            assert row.tobytes() == p.tobytes()


def test_breakdown_carries_earliest_queried_time():
    model = mean_variance_model(MeanVarianceParams())
    bad = optimal_feedback(model, with_scaled_lambda(solve_riccati(model, 200), -1.0))
    with pytest.raises(RiccatiBreakdownError) as info:
        bad.table(np.array([0.7, 0.3, 0.5]))
    assert info.value.time == 0.3 and "U loses positive definiteness" in str(info.value)
    with pytest.raises(RiccatiBreakdownError) as info:
        propagate_moments(model, bad, 0.25, MomentState.dirac([1.0]), 100)
    assert info.value.time == 0.25
    with pytest.raises(RiccatiBreakdownError) as info:
        bad.gains(0.4)
    assert info.value.time == 0.4


def knotted(before, after):
    """A schedule equal to ``before`` up to t = 0.4 and to ``after`` from 0.6 on."""
    return Schedule.tabulated([0.0, 0.4, 0.6, 1.0], [before, before, after, after])


# m, the failing coefficients (U = R2, V = R2 + R2bar as F = 0), message, eigenvalue
BREAKDOWNS = {
    "V only": (1, dict(R2=1.0, R2bar=knotted([[0.0]], [[-1.0]])),
               "V loses positive definiteness", 0.0),
    "condition cap": (2, dict(R2=knotted(np.eye(2), np.diag([1e4, 1e-9]))),
                      "U ill-conditioned", 1e-9),
    "U before V": (1, dict(R2=knotted([[1.0]], [[-1.0]])),
                   "U loses positive definiteness", -1.0),
}


@pytest.mark.parametrize("case", sorted(BREAKDOWNS))
def test_uv_breakdown_names_matrix_and_earliest_failing_time(case):
    """The solve and a gain batch report the same matrix and kind of
    failure; the batch reports its earliest failing time, which is neither
    its first entry nor its earliest time."""
    m, coeffs, message, eigenvalue = BREAKDOWNS[case]
    C = np.ones((1, m))
    model = lq_model(1, m, 1.0, C=C, P2=1.0, **coeffs)
    with pytest.raises(RiccatiBreakdownError) as info:
        solve_riccati(model, 50)
    assert message in str(info.value) and info.value.time == 1.0
    assert info.value.eigenvalue == pytest.approx(eigenvalue)
    healthy = solve_riccati(lq_model(1, m, 1.0, C=C, R2=np.eye(m), P2=1.0), 50)
    with pytest.raises(RiccatiBreakdownError) as info:
        optimal_gains(model, healthy, [0.2, 0.9, 0.65, 0.7, 0.1])
    assert message in str(info.value) and info.value.time == 0.65
    assert info.value.eigenvalue == pytest.approx(eigenvalue)


def test_one_eigh_per_stage(monkeypatch):
    """U and V are factorized together: one eigh per right-hand side of
    the solve (4K + 1) and one per gain batch."""
    model = tabulated_model()
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sol = solve_riccati(model, 25)
    assert len(calls) == 4 * 25 + 1
    calls.clear()
    optimal_gains(model, sol, stage_times(np.linspace(0.0, 1.0, 17)))
    assert calls == [(2, 33, 2, 2)]
    assert [a.shape for a in optimal_gains(model, sol, [])] == [(0, 2, 2), (0, 2, 2), (0, 2)]


def test_solvers_make_no_pointwise_calls(monkeypatch):
    """A per-stage fallback to pointwise schedule or gain evaluation shows
    up here as a count, independent of machine speed."""
    model = tabulated_model()
    counts = {"schedule": 0, "gain": 0}
    schedule_call = Schedule.__call__

    def counted_schedule(self, t):
        counts["schedule"] += 1
        return schedule_call(self, t)

    def counted_gain(fn):
        def gain(t):
            counts["gain"] += 1
            return fn(t)
        return gain

    gains = AffineFeedback.gains

    def counted_gains(self, t):
        counts["gain"] += 1
        return gains(self, t)

    monkeypatch.setattr(Schedule, "__call__", counted_schedule)
    monkeypatch.setattr(AffineFeedback, "gains", counted_gains)
    sol = solve_riccati(model, 100)
    law = optimal_feedback(model, sol)
    law = dataclasses.replace(law, k1=counted_gain(law.k1), k2=counted_gain(law.k2),
                              k0=counted_gain(law.k0))
    ms = MomentState([0.5, -0.2], np.eye(2))
    propagate_moments(model, law, 0.0, ms, 100)
    bellman_residual(model, sol, 0.37, ms)
    dpp_check(model, sol, 0.2, 0.7, ms, 50)
    simulate(model, law, SimConfig(n_particles=50, n_steps=100, seed=2,
                                   initial=MomentState.dirac([0.5, -0.2])))
    assert counts == {"schedule": 0, "gain": 0}
    law.gains(0.5)  # the counters do see pointwise use
    law.k1(0.5)
    assert counts == {"schedule": 0, "gain": 2}


def test_pointwise_gains_are_one_synthesis(monkeypatch):
    """gains(t) and the law's action at t each synthesise one table row."""
    value_module = importlib.import_module("mflq.value")
    model = tabulated_model()
    fb = optimal_feedback(model, solve_riccati(model, 100))
    queried = []
    synthesis = value_module.optimal_gains

    def counted(model, sol, times):
        queried.append(np.asarray(times).size)
        return synthesis(model, sol, times)

    monkeypatch.setattr(value_module, "optimal_gains", counted)
    fb.gains(0.3)
    fb(0.3, [0.1, 0.2], [0.0, 0.1])
    assert queried == [1, 1]
