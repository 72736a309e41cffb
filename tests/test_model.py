import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mflq
from mflq import MomentState, lq_model, model_from_document, model_to_document
from mflq.errors import ModelDocumentError, ShapeError
from mflq.model import _sample_moments
from mflq.schedules import Schedule

from helpers import row_at, tabulated_model


def zero_model(d=1, m=1, T=1.0):
    return lq_model(d=d, m=m, horizon=T)


# --- validation -----------------------------------------------------------

def test_asymmetric_cost_flagged():
    with pytest.raises(ValueError, match="'Q2' is not symmetric"):
        lq_model(d=2, m=1, horizon=1.0, Q2=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_near_symmetric_cost_repaired():
    q = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]])
    model = lq_model(d=2, m=1, horizon=1.0, Q2=q)
    got = model.cost.Q2(0.0)
    assert np.array_equal(got, got.T)


def test_partial_span_flagged():
    b = Schedule.tabulated([0.0, 0.5], np.zeros((2, 1, 1)))
    with pytest.raises(ValueError, match=r"'B': knots on \[0.0, 0.5\] do not span"):
        lq_model(d=1, m=1, horizon=1.0, B=b)


# (d, coefficient, value, message); every one is rejected when built
REJECTED = [
    (1, "B", Schedule.tabulated([0.0, 0.5], np.zeros((2, 1, 1))),
     r"'B': knots on \[0.0, 0.5\] do not span exactly \[0, 1.0\]"),
    (2, "P2", np.array([[0.0, 1e-9], [0.0, 0.0]]), "'P2' is not symmetric"),
    (2, "Q2bar", np.array([[1.0, 2.0], [0.0, 1.0]]), "'Q2bar' is not symmetric"),
    (2, "C", np.array([[np.nan], [0.0]]), "'C' has a non-finite value"),
    (2, "q1", np.array([0.0, np.inf]), "'q1' has a non-finite value"),
]


@pytest.mark.parametrize("d, name, value, message", REJECTED)
def test_invalid_model_rejected(d, name, value, message):
    with pytest.raises(ValueError, match=message):
        lq_model(d=d, m=1, horizon=1.0, **{name: value})
    base = lq_model(d=d, m=1, horizon=1.0)
    block = "dynamics" if hasattr(base.dynamics, name) else "cost"
    if isinstance(getattr(getattr(base, block), name), Schedule) \
            and not isinstance(value, Schedule):
        value = Schedule.constant(value)
    with pytest.raises(ValueError, match=message):  # dataclasses.replace validates too
        dataclasses.replace(base, **{block: dataclasses.replace(
            getattr(base, block), **{name: value})})


def test_raw_array_in_a_schedule_field_rejected():
    base = zero_model()
    with pytest.raises(ValueError, match="coefficient 'B' must be a Schedule, got ndarray"):
        dataclasses.replace(base, dynamics=dataclasses.replace(
            base.dynamics, B=np.eye(1)))


def test_schedule_in_a_constant_field_rejected():
    base = zero_model()
    with pytest.raises(ValueError, match="coefficient 'P2' must be constant, not a Schedule"):
        dataclasses.replace(base, cost=dataclasses.replace(
            base.cost, P2=Schedule.constant(np.eye(1))))


@pytest.mark.parametrize("horizon",
                         [0.0, -1.0, np.inf, np.nan, "1.5", True, np.bool_(True)])
def test_bad_horizon_rejected(horizon):
    with pytest.raises(ValueError, match="horizon"):
        lq_model(d=1, m=1, horizon=horizon)
    with pytest.raises(ValueError, match="horizon"):
        dataclasses.replace(zero_model(), horizon=horizon)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match=r"'B': shape \(1,\), expected \(1, 1\)"):
        lq_model(d=1, m=1, horizon=1.0, B=[0.05])
    base = zero_model(d=2)
    with pytest.raises(ValueError, match=r"'B' has shape \(1, 1\), expected \(2, 2\)"):
        dataclasses.replace(base, dynamics=dataclasses.replace(
            base.dynamics, B=Schedule.constant(np.zeros((1, 1)))))


@pytest.mark.parametrize("d, name, value", [
    (1, "B", "0.5"),
    (1, "C", True),
    (1, "B", [[True]]),
    (1, "B", np.array([[True]])),
    (1, "B", np.array([["0.5"]])),
    (2, "q1", [0.5, True]),
    (2, "q1", np.array([0.5, True], dtype=object)),
    (1, "B", {"knots": [["0", [[1.0]]], [1.0, [[1.0]]]]}),
    (1, "B", {"knots": [[0.0, [[1.0]]], [True, [[1.0]]]]}),
    (1, "B", {"knots": [[0.0, [[1.0]]], [1.0, [["1.0"]]]]}),
])
def test_string_or_bool_coefficient_rejected(d, name, value):
    with pytest.raises(ValueError, match=f"'{name}'.*not numeric"):
        lq_model(d=d, m=1, horizon=1.0, **{name: value})


# --- drift / diffusion / costs --------------------------------------------

def test_drift_zero_model():
    model = zero_model()
    assert row_at(model, 0.3, 1.0, 2.0, 3.0, 4.0)[0] == pytest.approx([0.0])


def test_drift_mean_variance_numbers():
    model = lq_model(d=1, m=1, horizon=1.0, B=0.1, C=0.5)
    b = row_at(model, 0.2, 2.0, 3.0, 0.0, 0.0)[0]
    assert b == pytest.approx([0.2 + 1.5])


def test_drift_systemic_numbers():
    p = mflq.SystemicParams(kappa=1.0)
    model = mflq.systemic_model(p)
    b = row_at(model, 0.5, 2.0, 0.5, 1.0, 0.0)[0]
    # kappa (mean - x) + a = -2 + 1 + 0.5
    assert b == pytest.approx([-0.5])


def test_diffusion_presets():
    mv = lq_model(d=1, m=1, horizon=1.0, F=0.3)
    assert row_at(mv, 0.1, 9.0, 2.0, 0.0, 0.0)[1] == pytest.approx([0.6])
    sy = mflq.systemic_model(mflq.SystemicParams(sigma=1.0))
    assert row_at(sy, 0.9, 5.0, 7.0, 1.0, 2.0)[1] == pytest.approx([1.0])
    assert row_at(zero_model(), 0.5, 1.0, 1.0, 1.0, 1.0)[1] == pytest.approx([0.0])


def test_running_cost_zero_and_systemic():
    assert row_at(zero_model(), 0.5, 1.0, 2.0, 3.0, 4.0)[2] == 0.0
    model = mflq.systemic_model(mflq.SystemicParams(eta=1.0, q=0.5))
    assert row_at(model, 0.1, 1.0, 2.0, 0.0, 0.0)[2] == pytest.approx(3.5)
    # the encoding matches 0.5 a^2 - q a (m - x) + eta/2 (m - x)^2 in
    # population average (the two differ pointwise by mean-only terms)
    xs, as_ = np.array([0.7, -0.9]), np.array([-1.3, 0.4])
    mb, ab = xs.mean(), as_.mean()
    direct = np.mean(0.5 * as_ ** 2 - 0.5 * as_ * (mb - xs) + 0.5 * (mb - xs) ** 2)
    encoded = np.mean([row_at(model, 0.1, x, a, mb, ab)[2] for x, a in zip(xs, as_)])
    assert encoded == pytest.approx(direct)


def test_running_cost_means_collapse():
    model = lq_model(d=1, m=1, horizon=1.0, Q2=2.0, Q2bar=3.0)
    x = 1.7
    assert row_at(model, 0.2, x, 0.5, x, 0.5)[2] == pytest.approx(5.0 * x * x)


def test_terminal_cost():
    assert row_at(zero_model(), 0.0, 2.0, 0.0, 1.0, 0.0)[3] == 0.0
    mv = mflq.mean_variance_model(mflq.MeanVarianceParams(eta=2.0))
    assert row_at(mv, 0.0, 2.0, 0.0, 1.0, 0.0)[3] == pytest.approx(4.0 - 1.0 - 1.0)
    one = lq_model(d=1, m=1, horizon=1.0, P2=1.0)
    assert row_at(one, 0.0, 3.0, 0.0, 0.0, 0.0)[3] == pytest.approx(9.0)


@pytest.mark.parametrize("entry", ["value", "g_hat", "bellman_residual",
                                   "propagate_moments", "cost_from_moments",
                                   "dpp_check", "dpp_check_theta_equal_t", "simulate"])
def test_law_of_the_wrong_dimension_is_a_shape_error(entry):
    """A d=2 law on the d=1 systemic preset raises ShapeError naming both
    dimensions at every entry point that takes a law (LqModel.check_law),
    not a numpy broadcasting error from inside the computation."""
    model = mflq.systemic_model(mflq.SystemicParams())
    sol = mflq.solve_riccati(model, 40)
    fb = mflq.optimal_feedback(model, sol)
    ms = MomentState([1.0, 2.0], np.eye(2))
    calls = {
        "value": lambda: mflq.value(sol, 0.5, ms),
        "g_hat": lambda: mflq.g_hat(model, ms),
        "bellman_residual": lambda: mflq.bellman_residual(model, sol, 0.5, ms),
        "propagate_moments": lambda: mflq.propagate_moments(model, fb, 0.0, ms, 10),
        "cost_from_moments": lambda: mflq.cost_from_moments(model, fb, 0.0, ms, 10),
        "dpp_check": lambda: mflq.dpp_check(model, sol, 0.2, 0.6, ms, 10),
        "dpp_check_theta_equal_t": lambda: mflq.dpp_check(model, sol, 0.4, 0.4, ms, 10),
        "simulate": lambda: mflq.simulate(model, fb, mflq.SimConfig(
            n_particles=10, n_steps=10, seed=0, initial=ms)),
    }
    with pytest.raises(ShapeError, match="law has dimension 2, the model has d=1"):
        calls[entry]()


@pytest.mark.parametrize("entry", ["propagate_moments", "cost_from_moments", "simulate"])
def test_law_gains_of_the_wrong_shape_are_a_shape_error(entry):
    """A feedback law with d=1 gains, started from a d=2 MomentState on a
    d=2 model, raises ShapeError where its gains meet the coefficients
    (LqModel.check_gains), not a trajectory, a cost or a numpy error."""
    model = lq_model(2, 1, 1.0, R2=1.0)
    fb = mflq.AffineFeedback.constant([[1.0]], [[0.0]], [0.0])
    ms = MomentState([1.0, 2.0], np.eye(2))
    calls = {
        "propagate_moments": lambda: mflq.propagate_moments(model, fb, 0.0, ms, 10),
        "cost_from_moments": lambda: mflq.cost_from_moments(model, fb, 0.0, ms, 10),
        "simulate": lambda: mflq.simulate(model, fb, mflq.SimConfig(
            n_particles=10, n_steps=10, seed=0, initial=ms)),
    }
    with pytest.raises(ShapeError, match=r"K1 gains of shape \(1, 1\), the model has m=1, d=2"):
        calls[entry]()


@pytest.mark.parametrize("entry", ["propagate_moments", "simulate"])
def test_gain_table_without_the_pair_axis_is_a_shape_error(entry):
    """A law table of [K1, k] rows with no leading pair axis is rejected, not
    broadcast as the gains of both the deviation and the mean."""
    model = lq_model(1, 1, 1.0, R2=1.0)
    fb = mflq.AffineFeedback(table=lambda times: np.ones((np.size(times), 1, 2)))
    ms = MomentState([1.0], [[0.5]])
    calls = {
        "propagate_moments": lambda: mflq.propagate_moments(model, fb, 0.0, ms, 10),
        "simulate": lambda: mflq.simulate(model, fb, mflq.SimConfig(
            n_particles=10, n_steps=10, seed=0, initial=ms)),
    }
    with pytest.raises(ShapeError, match=r"table shape \(\d+, 1, 2\)"):
        calls[entry]()


@pytest.mark.parametrize("x, mean_x", [("2", [True]), ([np.nan], [0.0]), ([0.0], [-np.inf])])
def test_feedback_rejects_non_numbers(x, mean_x):
    fb = mflq.AffineFeedback.constant([[1.0]], [[0.0]], [0.0])
    with pytest.raises(ValueError, match="not numeric|non-finite"):
        fb(0.5, x, mean_x)
    with pytest.raises(ValueError, match="not numeric|non-finite"):
        mflq.AffineFeedback.constant([x], [[0.0]], mean_x)


@pytest.mark.parametrize("k1, k2, k0", [
    (np.ones((1, 1, 1)), [[0.0]], [0.0]),  # K1 not a matrix
    ([[1.0, 2.0]], [[0.0]], [0.0]),
    ([[1.0]], [[0.0]], [0.0, 1.0]),
])
def test_constant_law_rejects_gains_that_are_not_m_x_d(k1, k2, k0):
    with pytest.raises(ShapeError, match="not m x d, m x d and m"):
        mflq.AffineFeedback.constant(k1, k2, k0)


def test_pointwise_functions_are_the_documented_formulas():
    """Drift, diffusion, running cost and terminal cost of one column of
    _row_terms and _terminal_rows at d=3, m=2 with every coefficient nonzero
    and non-symmetric where allowed, against the formulas of the model
    module's docstring written out term by term."""
    rng = np.random.default_rng(31)
    d, m = 3, 2

    def psd(k):
        g = rng.standard_normal((k, k))
        return g @ g.T

    k = {name: rng.standard_normal(shape) for name, shape in (
        ("b0", d), ("B", (d, d)), ("Bbar", (d, d)), ("C", (d, m)), ("Cbar", (d, m)),
        ("sigma0", d), ("D", (d, d)), ("Dbar", (d, d)), ("F", (d, m)), ("Fbar", (d, m)),
        ("M2", (d, m)), ("M2bar", (d, m)), ("q1", d), ("q1bar", d), ("r1", m),
        ("r1bar", m), ("p1", d), ("p1bar", d))}
    k.update(Q2=psd(d), Q2bar=psd(d), R2=psd(m), R2bar=psd(m), P2=psd(d), P2bar=psd(d))
    model = lq_model(d=d, m=m, horizon=1.0, **k)
    x, mx = rng.standard_normal(d), rng.standard_normal(d)
    a, ma = rng.standard_normal(m), rng.standard_normal(m)
    b = k["b0"] + k["B"] @ x + k["Bbar"] @ mx + k["C"] @ a + k["Cbar"] @ ma
    s = k["sigma0"] + k["D"] @ x + k["Dbar"] @ mx + k["F"] @ a + k["Fbar"] @ ma
    f = (x @ k["Q2"] @ x + mx @ k["Q2bar"] @ mx + a @ k["R2"] @ a + ma @ k["R2bar"] @ ma
         + 2 * x @ k["M2"] @ a + 2 * mx @ k["M2bar"] @ ma + k["q1"] @ x
         + k["q1bar"] @ mx + k["r1"] @ a + k["r1bar"] @ ma)
    g = x @ k["P2"] @ x + mx @ k["P2bar"] @ mx + k["p1"] @ x + k["p1bar"] @ mx
    got_b, got_s, got_f, got_g = row_at(model, 0.4, x, a, mx, ma)
    np.testing.assert_allclose(got_b, b, rtol=1e-12)
    np.testing.assert_allclose(got_s, s, rtol=1e-12)
    assert got_f == pytest.approx(f, rel=1e-12)
    assert got_g == pytest.approx(g, rel=1e-12)


# --- affinity / homogeneity properties -------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
       st.floats(-2, 2))
def test_drift_affine(x, a, mx, ma, s):
    model = lq_model(d=1, m=1, horizon=1.0, b0=np.array([0.7]), B=1.1, Bbar=-0.4,
                     C=0.3, Cbar=0.2)
    f0 = row_at(model, 0.5, 0.0, 0.0, 0.0, 0.0)[0]
    f1 = row_at(model, 0.5, x, a, mx, ma)[0]
    fs = row_at(model, 0.5, s * x, s * a, s * mx, s * ma)[0]
    assert fs - f0 == pytest.approx(s * (f1 - f0), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(0.1, 3))
def test_running_cost_quadratic_part_homogeneous(x, a, mx, ma, s):
    model = lq_model(d=1, m=1, horizon=1.0, Q2=1.5, Q2bar=-0.5, R2=2.0,
                     R2bar=0.3, M2=0.4, M2bar=-0.2,
                     q1=np.array([1.0]), r1bar=np.array([-2.0]))

    def quad(u):
        # even part minus constant isolates the degree-2 term exactly
        f = row_at(model, 0.5, u * x, u * a, u * mx, u * ma)[2]
        g = row_at(model, 0.5, -u * x, -u * a, -u * mx, -u * ma)[2]
        f0 = row_at(model, 0.5, 0.0, 0.0, 0.0, 0.0)[2]
        return 0.5 * (f + g) - f0

    assert quad(s) == pytest.approx(s * s * quad(1.0), abs=1e-9 * (1 + abs(quad(1.0))))


# --- ensembles --------------------------------------------------------------

def test_ensemble_moments_degenerate():
    mean, cov = _sample_moments(np.full((2, 5), 3.0))
    assert mean == pytest.approx([3.0, 3.0])
    assert cov == pytest.approx(np.zeros((2, 2)))


def test_ensemble_moments_two_points():
    mean, cov = _sample_moments(np.array([[0.0, 2.0]]))
    assert mean[0] == pytest.approx(1.0)
    assert cov[0, 0] == pytest.approx(2.0)


def test_ensemble_moments_lln():
    n = 10 ** 5
    draws = np.random.default_rng(7).standard_normal((1, n))
    mean, cov = _sample_moments(draws)
    assert abs(mean[0]) <= 4.0 / np.sqrt(n)
    assert abs(cov[0, 0] - 1.0) <= 4.0 * np.sqrt(2.0 / n)


def test_ensemble_union_bookkeeping():
    states = np.random.default_rng(11).standard_normal((40, 2))
    single = _sample_moments(np.ascontiguousarray(states.T))
    union = _sample_moments(np.ascontiguousarray(np.vstack([states, states]).T))
    n = 40
    assert union[0] == pytest.approx(single[0])
    assert union[1] == pytest.approx(single[1] * (2 * n - 2) / (2 * n - 1))


def test_moment_state_validation():
    with pytest.raises(ValueError):
        MomentState([0.0], [[-0.1]])
    with pytest.raises(ValueError):
        MomentState([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])
    ms = MomentState([0.0], [[-1e-12]])  # tiny negative eigenvalue is clipped
    assert ms.cov[0, 0] == 0.0


@pytest.mark.parametrize("mean, cov", [("2", 0.0), ([True], [[False]]), ([1.0], [["1"]]),
                                       (np.array([True]), 0.0), ([np.nan], [[1.0]]),
                                       ([1.0], [[np.inf]]), ([-np.inf], 0.0)])
def test_moment_state_rejects_non_numbers(mean, cov):
    with pytest.raises(ValueError, match="not numeric|non-finite"):
        MomentState(mean, cov)


# --- JSON documents ---------------------------------------------------------

def test_document_roundtrip():
    model = mflq.systemic_model(mflq.SystemicParams())
    doc = model_to_document(model)
    back = model_from_document(doc)
    t = 0.37
    for name in ("B", "Bbar", "C", "sigma0"):
        assert np.allclose(getattr(back.dynamics, name)(t),
                           getattr(model.dynamics, name)(t))
    assert np.allclose(back.cost.P2, model.cost.P2)


def test_model_pickle_round_trip():
    """A model with tabulated and constant coefficients survives pickling:
    its coefficient blocks are found by module and name."""
    model = tabulated_model()
    back = pickle.loads(pickle.dumps(model))
    assert type(back.dynamics) is mflq.LqDynamics and type(back.cost) is mflq.LqCost
    assert not back.dynamics.B.is_constant and back.dynamics.C.is_constant
    assert model_to_document(back) == model_to_document(model)


def test_document_defaults_and_knots():
    doc = {
        "dims": {"d": 1, "m": 1},
        "horizon": 2.0,
        "dynamics": {"B": {"knots": [[0.0, [[0.0]]], [2.0, [[2.0]]]]}},
        "cost": {"R2": [[1.0]]},
    }
    model = model_from_document(doc)
    assert model.dynamics.B(1.0)[0, 0] == pytest.approx(1.0)
    assert model.dynamics.C(0.5)[0, 0] == 0.0  # omitted -> zero
    assert model.cost.R2(1.7)[0, 0] == 1.0


def test_document_missing_horizon():
    with pytest.raises(ModelDocumentError, match="horizon"):
        model_from_document({"dims": {"d": 1, "m": 1}})


def test_document_bad_coefficient():
    doc = {"dims": {"d": 2, "m": 1}, "horizon": 1.0,
           "dynamics": {"B": [[1.0]]}}
    with pytest.raises(ModelDocumentError, match="'B'"):
        model_from_document(doc)


@pytest.mark.parametrize("field, raw", [
    ("B", [1.0, 0.0, 0.0, 1.0]),          # flat 2x2
    ("C", [[1.0, 2.0]]),                  # transposed 2x1
    ("B", {"knots": [[0.0, [1.0, 0.0, 0.0, 1.0]], [1.0, [[1.0, 0.0], [0.0, 1.0]]]]}),
])
def test_document_flat_or_transposed_array(field, raw):
    doc = {"dims": {"d": 2, "m": 1}, "horizon": 1.0, "dynamics": {field: raw}}
    with pytest.raises(ModelDocumentError, match=f"'{field}'"):
        model_from_document(doc)


@pytest.mark.parametrize("doc, field", [
    (None, "object"),
    ([], "object"),
    ({"dims": {"d": 1.5, "m": 1}, "horizon": 1.0}, "'d'"),
    ({"dims": {"d": 1, "m": True}, "horizon": 1.0}, "'m'"),
    ({"dims": {"d": 1, "m": 1}, "horizon": 1.0, "cost": [1.0]}, "'cost'"),
    ({"dims": {"d": 1, "m": 1}, "horizon": 1.0, "cost": {"B": 1.0}}, "cost.*'B'"),
    ({"dims": {"d": 1, "m": 1}, "horizon": float("inf")}, "horizon"),
    ({"dims": {"d": 1, "m": 1}, "horizon": 1.0,
      "cost": {"P2": {"knots": [[0.0, 1.0], [1.0, 1.0]]}}}, "'P2' must be constant"),
    ({"dims": {"d": 1, "m": 1}, "horizon": "1.5",
      "dynamics": {"B": "0.5", "C": True}}, "'B'.*not numeric"),
    ({"dims": {"d": 1, "m": 1}, "horizon": "1.5"}, "horizon.*not numeric"),
    ({"dims": {"d": 1, "m": 1}, "horizon": True}, "horizon.*not numeric"),
    ({"dims": {"d": 1, "m": 1}, "horizon": 1.0,
      "dynamics": {"C": True}}, "'C'.*not numeric"),
    ({"dims": {"d": 1, "m": 1}, "horizon": 1.0,
      "dynamics": {"B": [[True]]}}, "'B'.*not numeric"),
    ({"dims": {"d": 2, "m": 1}, "horizon": 1.0,
      "cost": {"q1": [0.5, True]}}, "'q1'.*not numeric"),
    ({"dims": {"d": 1, "m": 1}, "horizon": 1.0,
      "dynamics": {"B": {"knots": [["0", [[1.0]]], [1.0, [[1.0]]]]}}}, "'B'.*not numeric"),
])
def test_document_layout_errors(doc, field):
    with pytest.raises(ModelDocumentError, match=field):
        model_from_document(doc)
