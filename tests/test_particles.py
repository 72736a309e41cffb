import dataclasses

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

import mflq
from mflq import (AffineFeedback, FeedbackPerturbation, MomentState, SimConfig,
                  SystemicParams, canonical_perturbations, lq_model, optimal_feedback,
                  optimality_gap, propagate_moments, simulate, solve_riccati,
                  systemic_model, value)
from mflq.errors import ShapeError, SimulationDivergedError
from mflq.model import _row_factors, _row_terms, _sample_moments
from mflq.particles import _keys, step_normals

from helpers import random_standard_model, row_at, tabulated_model

AT_ONE = MomentState.dirac([1.0])  # every particle starts at x = 1


def zero_fb():
    return AffineFeedback.constant([[0.0]], [[0.0]], [0.0])


def systemic_setup(n_steps=400):
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, n_steps)
    return model, sol, optimal_feedback(model, sol)


def test_results_are_read_only():
    """Solutions, moment flows and simulation results are frozen, so no
    caller can change what a later query or a shared result returns."""
    model, sol, fb = systemic_setup(40)
    traj = propagate_moments(model, fb, 0.0, AT_ONE, 20)
    res = simulate(model, fb, SimConfig(n_particles=8, n_steps=10, seed=1,
                                        initial=AT_ONE, store_every=5))
    before = sol.at(0.0).Lam.copy()
    for arr in (sol.Lam, sol.Gam, sol.gam, sol.chi, sol.y, sol.dy, sol.grid, traj.means, traj.covs, traj.running,
                res.mean_path, res.cov_path, res.per_particle_cost, res.ensembles[5],
                res.ensembles[10]):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 99.0
    assert np.array_equal(sol.at(0.0).Lam, before)


# --- noise stream contract ----------------------------------------------------

def test_noise_pure_function_of_seed_step_particle():
    gen = Philox(key=_keys(123)[0])
    a = step_normals(gen, 7, 100)
    c = step_normals(gen, 8, 100)
    b = step_normals(gen, 7, 40)
    assert np.array_equal(a[:40], b)  # particle index, not call order, decides
    assert not np.array_equal(a, c)
    gen.random_raw(3)  # a draw between calls moves nothing
    assert np.array_equal(step_normals(gen, 7, 100), a)
    assert not np.array_equal(step_normals(Philox(key=_keys(124)[0]), 7, 100), a)


@pytest.mark.parametrize("n", [1, 7, 5000])
def test_noise_is_the_per_step_generators_words(n):
    """Repositioning one generator gives bitwise the normals of a Philox built
    per step at counter step << 128."""
    key = _keys(31)[0]
    gen = Philox(key=key)
    for step in (0, 1, 7, 999, 2 ** 40):
        raw = Philox(key=key, counter=step << 128).random_raw(n)
        want = ndtri((raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54)
        assert step_normals(gen, step, n).tobytes() == want.tobytes()


def test_noise_is_standard_normal():
    gen = Philox(key=_keys(5)[0])
    draws = np.concatenate([step_normals(gen, k, 20000) for k in range(5)])
    n = draws.size
    assert abs(draws.mean()) <= 4.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) <= 4.0 * np.sqrt(2.0 / n)


@pytest.mark.parametrize("d, m", [(1, 1), (3, 2), (8, 4)])
def test_chunk_reproduces_full_ensemble_rows(d, m):
    """A worker holding particles [i0, i1), i0 a multiple of 4 and i1 - i0
    >= 2, draws its normals by moving the Philox counter i0 // 4 blocks of
    four words, and gets the full ensemble's columns from the row evaluator
    given the full ensemble's means: chunked execution is bitwise the
    single-lane one, whether the chunk is a view of the component-major
    ensemble or a copy. (A single column is a matrix-vector product, which
    BLAS may sum in another order.)"""
    n, step = 20_000, 5
    path_key, _ = _keys(17)
    rng = np.random.default_rng(d)
    c = random_standard_model(rng, d, m).table([0.4])
    H = _row_factors(c)
    Z = rng.standard_normal((d + m, n))
    zbar = Z.mean(axis=1)
    full = _row_terms(c, H, 0, Z, zbar)
    full_normals = step_normals(Philox(key=path_key), step, n)
    for i0, i1 in ((4 * 1237, 4 * 1237 + 3001), (0, 2), (8, 15), (4 * 4999, n)):
        raw = Philox(key=path_key, counter=(step << 128) + i0 // 4).random_raw(i1 - i0)
        normals = ndtri((raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54)
        assert normals.tobytes() == full_normals[i0:i1].tobytes()
        for chunk in (Z[:, i0:i1], Z[:, i0:i1].copy()):
            for f, part in zip(full, _row_terms(c, H, 0, chunk, zbar)):
                assert part.tobytes() == f[..., i0:i1].tobytes()


# --- simulate -------------------------------------------------------------------

def test_step_is_the_pointwise_state_equation():
    """Each of three simulate steps, at t = 0, 1/3 and 2/3, moves each
    particle by dt drift + sqrt(dt) diffusion xi, and the run charges dt
    running cost per step plus the terminal cost, from one particle's column
    of the table-row functions at the ensemble's means; the steps cross the
    knot of the tabulated schedules at 0.5."""
    model = tabulated_model()
    fb = AffineFeedback.constant([[0.3, -0.2], [0.1, 0.4]], [[0.5, 0.0], [-0.1, 0.2]],
                                 [0.2, -0.3])
    seed, n, K = 9, 6, 3
    initial = MomentState([0.4, -1.1], [[1.0, 0.3], [0.3, 0.5]])
    res = simulate(model, fb, SimConfig(n_particles=n, n_steps=K, seed=seed,
                                        initial=initial, store_every=1))
    dt = 1.0 / K
    cost = np.zeros(n)
    for k in range(K):
        t, X = res.times[k], res.ensembles[k]
        mx = X.mean(axis=0)
        A = np.array([fb(t, x, mx) for x in X])
        ma = A.mean(axis=0)
        xi = step_normals(Philox(key=_keys(seed)[0]), k, n)
        rows = [row_at(model, t, x, a, mx, ma) for x, a in zip(X, A)]
        X1 = np.array([x + dt * b + np.sqrt(dt) * s * z
                       for x, (b, s, _, _), z in zip(X, rows, xi)])
        np.testing.assert_allclose(res.ensembles[k + 1], X1, rtol=1e-12, atol=0.0)
        cost += [dt * f for _, _, f, _ in rows]
    XK = res.ensembles[K]
    cost += [row_at(model, 1.0, x, np.zeros(2), XK.mean(axis=0), np.zeros(2))[3] for x in XK]
    np.testing.assert_allclose(res.per_particle_cost, cost, rtol=1e-12, atol=0.0)


def test_times_are_the_solve_grid():
    """The simulation times are the Riccati grid, ending at T exactly
    (K = 49 at T = 1, where dt * arange(K + 1) ends below 1)."""
    model, sol, fb = systemic_setup(49)
    res = simulate(model, fb, SimConfig(n_particles=4, n_steps=49, seed=0, initial=AT_ONE))
    assert res.times.tobytes() == sol.grid.tobytes()
    assert res.times[-1] == 1.0


def test_means_are_pairwise_over_the_particle_axis():
    """Each recorded mean is numpy's pairwise mean of a component's
    contiguous particle row, and each recorded (mean, covariance) pair is
    _sample_moments of the stored ensemble, bit for bit."""
    d = 3
    model = random_standard_model(np.random.default_rng(4), d, 2)
    fb = AffineFeedback.constant(np.full((2, d), 0.2), np.full((2, d), -0.1), [0.3, 0.1])
    cfg = SimConfig(n_particles=5000, n_steps=6, seed=12, store_every=2,
                    initial=MomentState(np.arange(d) - 1.0, np.eye(d)))
    res = simulate(model, fb, cfg)
    assert sorted(res.ensembles) == [0, 2, 4, 6]
    for k, ens in res.ensembles.items():
        assert ens.shape == (5000, d)
        mean = np.ascontiguousarray(ens.T).mean(axis=1)
        assert res.mean_path[k].tobytes() == mean.tobytes()
        got_mean, got_cov = _sample_moments(np.ascontiguousarray(ens.T))
        assert got_mean.tobytes() == mean.tobytes()
        assert got_cov.tobytes() == res.cov_path[k].tobytes()


# --- the initial law ------------------------------------------------------------

def _initial_ensemble(d, initial, n=40, seed=21):
    model = random_standard_model(np.random.default_rng(d), d, 2)
    fb = AffineFeedback.constant(np.zeros((2, d)), np.zeros((2, d)), np.zeros(2))
    cfg = SimConfig(n_particles=n, n_steps=2, seed=seed, initial=initial,
                    store_every=1)
    return simulate(model, fb, cfg).ensembles[0]


@pytest.mark.parametrize("d", [1, 3])
def test_zero_covariance_starts_at_the_tiled_mean(d):
    """A point mass: every particle is the mean, byte for byte (a -0.0
    entry included), and no normal is drawn."""
    mean = np.array([-0.0, 1.5, -2.25][:d])
    X0 = _initial_ensemble(d, MomentState(mean, np.zeros((d, d))))
    assert X0.tobytes() == np.tile(mean, (40, 1)).tobytes()
    assert np.signbit(X0[:, 0]).all()


@pytest.mark.parametrize("d", [1, 3])
def test_nonzero_covariance_is_the_init_keyed_gaussian_draw(d):
    """Rows are mean + z root', with z the (N, d) standard normals of the
    init-keyed Philox stream and root the PSD square root of the
    covariance."""
    rng = np.random.default_rng(d + 10)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    ms = MomentState(rng.uniform(-2.0, 2.0, d), (q * rng.uniform(0.1, 2.0, d)) @ q.T)
    X0 = _initial_ensemble(d, ms, seed=33)
    w, v = np.linalg.eigh(ms.cov)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    z = np.random.Generator(Philox(key=_keys(33)[1])).standard_normal((40, d))
    assert X0.tobytes() == (ms.mean + z @ root.T).tobytes()


@pytest.mark.parametrize("d", [1, 3])
def test_initial_law_dimension_must_match(d):
    with pytest.raises(ShapeError):
        _initial_ensemble(d, MomentState.dirac(np.zeros(d + 1)))
    with pytest.raises(ShapeError):
        _initial_ensemble(d, MomentState(np.zeros(d + 1), np.eye(d + 1)))


def test_bitwise_reproducible():
    model, sol, fb = systemic_setup()
    cfg = SimConfig(n_particles=500, n_steps=100, seed=42, initial=AT_ONE)
    a = simulate(model, fb, cfg)
    b = simulate(model, fb, cfg)
    assert np.array_equal(a.per_particle_cost, b.per_particle_cost)
    assert np.array_equal(a.mean_path, b.mean_path)
    assert a.cost_mean == b.cost_mean


def test_zero_dynamics_zero_noise_degenerate():
    model = lq_model(d=1, m=1, horizon=1.0, R2=1.0, P2=2.0)
    fb = AffineFeedback.constant([[0.0]], [[0.0]], [0.3])
    cfg = SimConfig(n_particles=16, n_steps=50, seed=0,
                    initial=MomentState.dirac([0.5]))
    res = simulate(model, fb, cfg)
    assert np.all(res.ensembles[50] == 0.5)  # particles never move
    # cost: left-endpoint quadrature of the constant a'R2 a plus terminal
    expect = 1.0 * 0.3 ** 2 + 2.0 * 0.5 ** 2
    assert res.cost_mean == pytest.approx(expect, abs=1e-12)
    assert res.cost_stderr == 0.0


def test_gaussian_initial_moments():
    model, sol, fb = systemic_setup()
    cfg = SimConfig(n_particles=20000, n_steps=1, seed=3,
                    initial=MomentState([2.0], [[0.49]]))
    res = simulate(model, fb, cfg)
    assert abs(res.mean_path[0, 0] - 2.0) <= 4.0 * np.sqrt(0.49 / 20000)
    assert abs(res.cov_path[0, 0, 0] - 0.49) <= 4.0 * 0.49 * np.sqrt(2.0 / 20000)


def test_invalid_configs():
    model, sol, fb = systemic_setup(50)
    with pytest.raises(ValueError):
        simulate(model, fb, SimConfig(1, 10, 0, initial=AT_ONE))
    with pytest.raises(ValueError):
        simulate(model, fb, SimConfig(10, 0, 0, initial=AT_ONE))
    with pytest.raises(ValueError):
        simulate(model, fb, SimConfig(10, 10, 0))
    with pytest.raises(ValueError, match="ndarray"):
        simulate(model, fb, SimConfig(10, 10, 0, initial=np.ones(1)))
    with pytest.raises(ValueError, match="store_every"):
        simulate(model, fb, SimConfig(10, 10, 0, initial=AT_ONE, store_every=-1))
    # run sizes and the seed are integers: no float is truncated or rounded,
    # no bool counted, no negative seed reaches numpy
    for bad, name in (({"n_particles": 10.5}, "n_particles"), ({"n_particles": True}, "n_particles"),
                      ({"n_steps": 2.5}, "n_steps"), ({"n_steps": True}, "n_steps"),
                      ({"store_every": 2.5}, "store_every"), ({"store_every": True}, "store_every"),
                      ({"seed": -1}, "seed")):
        cfg = dataclasses.replace(SimConfig(10, 10, 0, initial=AT_ONE), **bad)
        with pytest.raises(ValueError, match=name):
            simulate(model, fb, cfg)


def test_divergence_reported_with_step():
    model = systemic_model(SystemicParams())
    runaway = AffineFeedback.constant([[1e12]], [[0.0]], [0.0])
    cfg = SimConfig(n_particles=8, n_steps=60, seed=0, initial=AT_ONE)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationDivergedError) as info:
            simulate(model, runaway, cfg)
    assert 0 <= info.value.step < 60


def test_stderr_sqrt_n_scaling():
    # doubling N scales the stderr by 1/sqrt(2) (within 20%)
    model, sol, fb = systemic_setup()
    cfg1 = SimConfig(n_particles=4000, n_steps=200, seed=11, initial=AT_ONE)
    cfg2 = SimConfig(n_particles=8000, n_steps=200, seed=11, initial=AT_ONE)
    r = simulate(model, fb, cfg1).cost_stderr / simulate(model, fb, cfg2).cost_stderr
    assert np.sqrt(2.0) * 0.8 <= r <= np.sqrt(2.0) * 1.2


def test_seed_independence_of_cost():
    model, sol, fb = systemic_setup()
    results = [simulate(model, fb, SimConfig(4000, 200, seed, initial=AT_ONE))
               for seed in (1, 2, 3, 4, 5)]
    for i in range(5):
        for j in range(i):
            dev = abs(results[i].cost_mean - results[j].cost_mean)
            se = np.hypot(results[i].cost_stderr, results[j].cost_stderr)
            assert dev <= 4.0 * se


def test_consistency_with_moment_oracle():
    from helpers import variance_stderr
    model, sol, fb = systemic_setup()
    n = 20000
    cfg = SimConfig(n_particles=n, n_steps=400, seed=8, initial=AT_ONE,
                    store_every=100)
    res = simulate(model, fb, cfg)
    traj = propagate_moments(model, fb, 0.0, AT_ONE, 400)
    for k in (100, 200, 400):
        sig = traj.covs[k, 0, 0]
        assert abs(res.mean_path[k, 0] - traj.means[k, 0]) <= 4 * np.sqrt(sig / n)
        assert abs(res.cov_path[k, 0, 0] - sig) \
            <= 4 * variance_stderr(res.ensembles[k])
    assert abs(res.cost_mean - value(sol, 0.0, AT_ONE)) \
        <= 4 * res.cost_stderr


# --- optimality gaps --------------------------------------------------------------

def test_zero_perturbation_gap_exactly_zero():
    model, sol, fb = systemic_setup()
    cfg = SimConfig(n_particles=300, n_steps=60, seed=5, initial=AT_ONE)
    rep = optimality_gap(model, sol, cfg, [FeedbackPerturbation("same")])
    assert rep.candidates[0].gap == 0.0
    assert rep.candidates[0].gap_stderr == 0.0
    assert not rep.any_beats_optimal


@pytest.mark.parametrize("field, value", [
    ("k_shift", "0.5"), ("k1_scale", True), ("k1_scale", np.nan), ("k1_scale", "0.8"),
    ("k_shift", [0.5, 1.0]), ("k2_scale", np.inf), ("k_scale", np.bool_(False)),
])
def test_perturbation_rejects_a_non_scalar_or_non_number(field, value):
    """A perturbation is checked when it is built, not on first use in a
    table (a string or a boolean once passed as a number, NaN failed as a
    covariance instability, a vector as a broadcast error)."""
    with pytest.raises(ValueError, match=field):
        FeedbackPerturbation("bad", **{field: value})


def test_k1_scaling_detected_on_systemic():
    model, sol, fb = systemic_setup()
    cfg = SimConfig(n_particles=20000, n_steps=400, seed=6, initial=AT_ONE)
    rep = optimality_gap(model, sol, cfg,
                         [FeedbackPerturbation("k1 x 1.2", k1_scale=1.2)])
    c = rep.candidates[0]
    assert c.gap > 2.0 * c.gap_stderr


def test_offset_shift_detected_on_mean_variance():
    p = mflq.MeanVarianceParams()
    model = mflq.mean_variance_model(p)
    sol = solve_riccati(model, 400)
    cfg = SimConfig(n_particles=20000, n_steps=400, seed=6, initial=AT_ONE)
    rep = optimality_gap(model, sol, cfg,
                         [FeedbackPerturbation("k + 0.5", k_shift=0.5)])
    c = rep.candidates[0]
    assert c.gap > 2.0 * c.gap_stderr


def test_canonical_set_has_ten_distinct_members():
    perts = canonical_perturbations()
    assert len(perts) == 10
    assert len({p.label for p in perts}) == 10
    model, sol, fb = systemic_setup(100)
    for p in perts:  # every member genuinely moves the law for the preset
        changed = p.apply(fb)
        assert any(abs(changed(t, [1.3], [0.2]) - fb(t, [1.3], [0.2])) > 1e-9
                   for t in (0.2, 0.8))


def test_result_csv_reproducible(tmp_path):
    model, sol, fb = systemic_setup(50)
    cfg = SimConfig(n_particles=200, n_steps=50, seed=9, initial=AT_ONE)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    mflq.result_to_csv(simulate(model, fb, cfg), p1)
    mflq.result_to_csv(simulate(model, fb, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().split("\n", 1)[0]
    assert header == "t,emp_mean_0,emp_cov_00,running_cost_mean"


def test_csv_thinning(tmp_path):
    model, sol, fb = systemic_setup(50)
    cfg = SimConfig(n_particles=50, n_steps=50, seed=9, initial=AT_ONE)
    path = tmp_path / "thin.csv"
    mflq.result_to_csv(simulate(model, fb, cfg), path, thin=10)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + 6  # header + rows {0,10,20,30,40,50}
