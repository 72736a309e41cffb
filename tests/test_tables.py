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
from mflq import model as model_module
from mflq.errors import OutOfDomainError, RiccatiBreakdownError
from mflq.model import MIN_BLOCK_STEPS, _COST_SCHEDULE_FIELDS, _DYNAMICS_FIELDS, _PAIRS
from mflq.schedules import Schedule

from helpers import random_standard_model, tabulated_model


def stage_times(grid):
    out = np.empty(2 * grid.size - 1)
    out[0::2] = grid
    out[1::2] = 0.5 * (grid[1:] + grid[:-1])
    return out


@pytest.mark.parametrize("model", [systemic_model(SystemicParams()), tabulated_model()])
def test_gains_batch_invariant(model):
    """A row of the gain pair batch K~ is its one-row batch, and its split
    is the pointwise gains and views, all bitwise."""
    sol = solve_riccati(model, 500)
    times = stage_times(np.linspace(0.0, 1.0, 2001))  # 4,001 stages
    batch = optimal_gains(model, sol, times)
    fb = optimal_feedback(model, sol)
    d = model.dims.d
    for k in np.random.default_rng(1).choice(times.size, 25, replace=False):
        alone = optimal_gains(model, sol, times[k:k + 1])
        assert batch[:, k].tobytes() == alone[:, 0].tobytes()
        t = float(times[k])
        split = (batch[0, k, :, :d], batch[1, k, :, :d], batch[1, k, :, d])
        for b, p, v in zip(split, fb.gains(t), (fb.k1(t), fb.k2(t), fb.k0(t))):
            assert b.tobytes() == p.tobytes() == v.tobytes()


def test_transformed_table_is_scaled_base():
    model = tabulated_model()
    sol = solve_riccati(model, 200)
    fb = optimal_feedback(model, sol)
    law = FeedbackPerturbation("p", k1_scale=0.8, k2_scale=1.2, k_scale=0.9,
                               k_shift=0.5).apply(fb)
    times = stage_times(sol.grid[::10])
    K, T = fb.table(times), law.table(times)
    d = model.dims.d
    assert T[0].tobytes() == (0.8 * K[0]).tobytes()
    assert T[1, ..., :d].tobytes() == (1.2 * K[1, ..., :d]).tobytes()
    assert T[1, ..., d].tobytes() == (0.9 * K[1, ..., d] + 0.5).tobytes()
    for k in (0, 7, times.size - 1):
        split = (T[0, k, :, :d], T[1, k, :, :d], T[1, k, :, d])
        for row, p in zip(split, law.gains(float(times[k]))):
            assert row.tobytes() == p.tobytes()


def test_gain_pair_padding_reaches_no_result():
    """Member 0's last column of K~ multiplies nothing: a law with 7.5 there
    propagates and simulates bitwise as the zero-padded law, and the
    synthesised pair pads with zeros."""
    rng = np.random.default_rng(21)
    model = random_standard_model(rng, 3, 2)
    law = AffineFeedback.constant(0.3 * rng.standard_normal((2, 3)),
                                  0.3 * rng.standard_normal((2, 3)), rng.standard_normal(2))
    K = law.table([0.0]).copy()
    K[0, ..., -1] = 7.5
    padded = AffineFeedback(table=lambda times: np.broadcast_to(
        K, (2,) + np.shape(times) + K.shape[2:]))
    ms = MomentState([0.5, -0.2, 0.1], 0.3 * np.eye(3))
    cfg = SimConfig(n_particles=64, n_steps=40, seed=3, initial=ms)
    assert _law_results(model, padded, ms, cfg) == _law_results(model, law, ms, cfg)
    sol = solve_riccati(model, 100)
    assert not optimal_gains(model, sol, stage_times(sol.grid))[0, ..., -1].any()


def _law_results(model, fb, ms, cfg):
    """The bytes of fb's moment flow (as many steps as cfg) and simulation
    arrays from ms."""
    traj, res = propagate_moments(model, fb, 0.0, ms, cfg.n_steps), simulate(model, fb, cfg)
    return [a.tobytes() for a in (traj.means, traj.covs, traj.running, res.mean_path,
                                  res.cov_path, res.per_particle_cost)]


@pytest.mark.parametrize("layout", [np.asfortranarray,
                                    lambda K: np.swapaxes(np.swapaxes(K, -1, -2).copy(), -1, -2)],
                         ids=["fortran", "transposed"])
def test_gain_table_layout_reaches_no_result(layout):
    """A law's results depend on its gain values, not on how its table is
    laid out in memory: a Fortran-ordered or a transposed-strided copy of a
    constant law's table propagates and simulates bitwise as its C-ordered
    copy. Before the simulator made the table C-contiguous, both copies
    moved this law's per-particle costs by up to 8.7e-11 and its mean path
    by 4.4e-16; the moment flow was bitwise the same."""
    rng = np.random.default_rng(22)
    model = random_standard_model(rng, 3, 2)
    law = AffineFeedback.constant(0.5 * rng.standard_normal((2, 3)),
                                  0.5 * rng.standard_normal((2, 3)), rng.standard_normal(2))
    c_order = AffineFeedback(table=lambda times: np.ascontiguousarray(law.table(times)))
    other = AffineFeedback(table=lambda times: layout(law.table(times)))
    assert not other.table(np.zeros(4)).flags.c_contiguous
    ms = MomentState([0.5, -0.2, 0.1], 0.3 * np.eye(3))
    cfg = SimConfig(n_particles=2000, n_steps=50, seed=5, initial=ms)
    assert _law_results(model, other, ms, cfg) == _law_results(model, c_order, ms, cfg)


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
    assert optimal_gains(model, sol, []).shape == (2, 0, 2, 3)


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


def retabulated(model, knots_of):
    """``model`` with each schedule field named in ``knots_of`` tabulated on
    the knot vector given there: its constant value times 1, 0.5, 1.5, ...
    at the knots."""
    blocks = {"dynamics": {}, "cost": {}}
    for block, changes in blocks.items():
        for name, knots in knots_of.items():
            if hasattr(getattr(model, block), name):
                value = getattr(getattr(model, block), name).values[0]
                scale = (1.0, 0.5, 1.5, 0.8, 1.2)[:len(knots)]
                changes[name] = Schedule.tabulated(knots, [value * f for f in scale])
    return dataclasses.replace(model, **{block: dataclasses.replace(getattr(model, block), **changes)
                                         for block, changes in blocks.items()})


def table_models():
    """(name, model, number of knot groups): every field constant, every
    field on one shared knot vector, every field on one of two knot
    vectors, and constants mixed with two knot vectors."""
    base = random_standard_model(np.random.default_rng(6), 3, 2, cross=0.3)
    schedule_fields = [name for name, _ in _DYNAMICS_FIELDS + _COST_SCHEDULE_FIELDS]
    k1, k2 = [0.0, 0.5, 1.0], [0.0, 0.3, 0.7, 1.0]
    return [("constant", base, 1),
            ("shared", retabulated(base, dict.fromkeys(schedule_fields, k1)), 1),
            ("two", retabulated(base, {name: (k1, k2)[i % 2]
                                       for i, name in enumerate(schedule_fields)}), 2),
            ("mixed", retabulated(base, {"B": k1, "Q2": k1, "sigma0": k2, "R2bar": k2}), 3)]


@pytest.mark.parametrize("name, model, n_groups", table_models(),
                         ids=[name for name, *_ in table_models()])
def test_table_is_the_per_field_schedule_tables(monkeypatch, name, model, n_groups):
    """LqModel.table interpolates each knot group once and is bitwise the
    per-field Schedule.table plus the augmented (Lam~, Gam~) pairs of the
    Riccati state, at knots, between knots and at random times; outside
    [0, T] a knot group raises."""
    assert len(model.knot_groups) == n_groups
    times = np.concatenate([[0.0, 0.3, 0.5, 0.7, 1.0, 0.15, 0.4, 0.6, 0.85],
                            np.random.default_rng(2).uniform(0.0, 1.0, 20)])
    expected = {"t": times}
    for block, fields in ((model.dynamics, _DYNAMICS_FIELDS),
                          (model.cost, _COST_SCHEDULE_FIELDS)):
        for field, key in fields:
            values = getattr(block, field).table(times)
            expected[field] = values[..., None] if len(key) == 1 else values
    d = model.dims.d  # 3, with m = 2: only the d-row coefficients are padded
    for field, bar, _, _ in _PAIRS:
        rows, cols = expected[field].shape[-2:]
        pair = np.zeros((2, times.size, rows + (rows == d), cols + (rows == cols == d)))
        pair[0, :, :rows, :cols] = expected[field]
        pair[1, :, :rows, :cols] = expected[field] + expected[bar]
        expected[field + "p"] = pair
    B, D, Q, M = (expected[field + "p"][1] for field in ("B", "D", "Q2", "M2"))
    B[:, :d, d], D[:, :d, d] = expected["b0"][..., 0], expected["sigma0"][..., 0]
    Q[:, :d, d] = Q[:, d, :d] = 0.5 * (expected["q1"] + expected["q1bar"])[..., 0]
    M[:, d] = 0.5 * (expected["r1"] + expected["r1bar"])[..., 0]
    Bp, Cp, Dp, Fp, Qp, Mp, Rp = (expected[field + "p"] for field, *_ in _PAIRS)
    expected["J"] = np.concatenate((Bp, Cp), axis=-1)
    expected["E"] = np.concatenate((Dp, Fp), axis=-1)
    expected["T"] = np.block([[Qp, Mp], [Mp.swapaxes(-1, -2), Rp]])
    calls = []
    schedule_table = Schedule.table

    def counted(self, t):
        calls.append(self)
        return schedule_table(self, t)

    monkeypatch.setattr(Schedule, "table", counted)
    table = model.table(times)
    assert len(calls) == n_groups
    assert table.keys() == expected.keys()
    for key, values in expected.items():
        assert table[key].shape == values.shape and table[key].tobytes() == values.tobytes(), key
    for field, _, block, _ in _PAIRS:  # each pair is a view of its block
        assert np.shares_memory(table[field + "p"], table[block])
    if name != "constant":
        for outside in ([-0.1], [0.5, 1.1], [np.nan]):
            with pytest.raises(OutOfDomainError):
                model.table(outside)


def test_block_length_from_row_size():
    """A block is as many steps as fit TABLE_BUDGET floats, two table rows
    per step, and never fewer than 16."""
    rng = np.random.default_rng(0)
    assert systemic_model(SystemicParams()).block_steps == 264
    assert random_standard_model(rng, 3, 2).block_steps == 58
    assert random_standard_model(rng, 16, 8).block_steps == MIN_BLOCK_STEPS == 16


@pytest.mark.parametrize("d, m, K", [(1, 1, 1200), (3, 2, 200)])
def test_results_do_not_depend_on_block_length(monkeypatch, d, m, K):
    """The solve, the moment flow and the simulation are bitwise the same
    with the derived blocks and with forced 16-step blocks."""
    model = random_standard_model(np.random.default_rng(d), d, m, cross=0.2)
    ms = MomentState(np.linspace(-1.0, 1.0, d), 0.5 * np.eye(d))

    def run():
        sol = solve_riccati(model, K)
        fb = optimal_feedback(model, sol)
        flow = propagate_moments(model, fb, 0.05, ms, K)
        sim = simulate(model, fb, SimConfig(n_particles=40, n_steps=K, seed=5, initial=ms))
        return [sol.y, sol.dy, flow.means, flow.covs, flow.running, sim.mean_path,
                sim.cov_path, sim.running_mean, sim.per_particle_cost]

    derived = model.block_steps
    assert 2 * derived < K
    outputs = run()
    monkeypatch.setattr(model_module, "TABLE_BUDGET", 0)
    assert model.block_steps == MIN_BLOCK_STEPS < derived
    for a, b in zip(outputs, run()):
        assert a.tobytes() == b.tobytes()
