import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

import mflq
from mflq import (AffineFeedback, FeedbackPerturbation, MomentState, SimConfig,
                  SystemicParams, canonical_perturbations, diffusion, drift,
                  lq_model, optimal_feedback, optimality_gap, propagate_moments,
                  running_cost, simulate, solve_riccati, systemic_model,
                  terminal_cost, value)
from mflq.errors import ShapeError, SimulationDivergedError
from mflq.model import _row_terms
from mflq.particles import _keys, step_normals

from helpers import random_standard_model, tabulated_model

AT_ONE = MomentState.dirac([1.0])  # every particle starts at x = 1


def zero_fb():
    return AffineFeedback.constant([[0.0]], [[0.0]], [0.0])


def systemic_setup(n_steps=400):
    model = systemic_model(SystemicParams())
    sol = solve_riccati(model, n_steps)
    return model, sol, optimal_feedback(model, sol)


# --- noise stream contract ----------------------------------------------------

def test_noise_pure_function_of_seed_step_particle():
    key, _ = _keys(123)
    a = step_normals(key, 7, 100)
    b = step_normals(key, 7, 40)
    assert np.array_equal(a[:40], b)  # particle index, not call order, decides
    c = step_normals(key, 8, 100)
    assert not np.array_equal(a, c)
    key2, _ = _keys(124)
    assert not np.array_equal(step_normals(key2, 7, 100), a)


def test_noise_is_standard_normal():
    key, _ = _keys(5)
    draws = np.concatenate([step_normals(key, k, 20000) for k in range(5)])
    n = draws.size
    assert abs(draws.mean()) <= 4.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) <= 4.0 * np.sqrt(2.0 / n)


@pytest.mark.parametrize("d, m", [(1, 1), (3, 2), (8, 4)])
def test_chunk_reproduces_full_ensemble_rows(d, m):
    """A worker holding particles [i0, i1), i0 a multiple of 4, draws its
    normals by moving the Philox counter i0 // 4 blocks of four words, and
    gets the full ensemble's rows from the row evaluator given the full
    ensemble's means: chunked execution is bitwise the single-lane one."""
    n, step, i0, i1 = 20_000, 5, 4 * 1237, 4 * 1237 + 3001
    path_key, _ = _keys(17)
    raw = Philox(key=path_key, counter=(step << 128) + i0 // 4).random_raw(i1 - i0)
    normals = ndtri((raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54)
    assert normals.tobytes() == step_normals(path_key, step, n)[i0:i1].tobytes()

    rng = np.random.default_rng(d)
    c = random_standard_model(rng, d, m).table([0.4])
    X, A = rng.standard_normal((n, d)), rng.standard_normal((n, m))
    mx, ma = X.mean(axis=0), A.mean(axis=0)
    full = _row_terms(c, 0, X, A, mx, ma)
    chunk = _row_terms(c, 0, X[i0:i1], A[i0:i1], mx, ma)
    for f, part in zip(full, chunk):
        assert part.tobytes() == f[i0:i1].tobytes()


# --- simulate -------------------------------------------------------------------

def test_step_is_the_pointwise_state_equation():
    """One simulate step moves each particle by dt drift + sqrt(dt)
    diffusion xi, and charges dt running_cost + terminal_cost, with the
    public pointwise functions at the ensemble's means."""
    model = tabulated_model()
    fb = AffineFeedback.constant([[0.3, -0.2], [0.1, 0.4]], [[0.5, 0.0], [-0.1, 0.2]],
                                 [0.2, -0.3])
    t0, seed = 0.3, 9
    initial = MomentState([0.4, -1.1], [[1.0, 0.3], [0.3, 0.5]])
    res = simulate(model, fb, SimConfig(n_particles=6, n_steps=1, seed=seed, t0=t0,
                                        initial=initial, store_every=1))
    X0 = res.ensembles[0]
    dt = 1.0 - t0
    mx = X0.mean(axis=0)
    A = np.array([fb(t0, x, mx) for x in X0])
    ma = A.mean(axis=0)
    xi = step_normals(_keys(seed)[0], 0, 6)
    X1 = np.array([x + dt * drift(model, t0, x, a, mx, ma)
                   + np.sqrt(dt) * diffusion(model, t0, x, a, mx, ma) * z
                   for x, a, z in zip(X0, A, xi)])
    np.testing.assert_allclose(res.ensembles[1], X1, rtol=1e-12, atol=0.0)
    mx1 = X1.mean(axis=0)
    cost = [dt * running_cost(model, t0, x, a, mx, ma) + terminal_cost(model, x1, mx1)
            for x, a, x1 in zip(X0, A, X1)]
    np.testing.assert_allclose(res.per_particle_cost, cost, rtol=1e-12, atol=0.0)


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
        simulate(model, fb, SimConfig(10, 10, 0, t0=1.0, initial=AT_ONE))
    with pytest.raises(ValueError):
        simulate(model, fb, SimConfig(10, 10, 0))
    with pytest.raises(ValueError, match="ndarray"):
        simulate(model, fb, SimConfig(10, 10, 0, initial=np.ones(1)))
    with pytest.raises(ValueError, match="store_every"):
        simulate(model, fb, SimConfig(10, 10, 0, initial=AT_ONE, store_every=-1))


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
