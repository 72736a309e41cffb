import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mflq
from mflq import (MomentState, diffusion, drift, ensemble_moments, lq_model,
                  model_from_document, model_to_document, running_cost,
                  terminal_cost)
from mflq.errors import (InsufficientSampleError, ModelDocumentError,
                         OutOfDomainError, ShapeError)
from mflq.schedules import Schedule


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
    assert drift(model, 0.3, [1.0], [2.0], [3.0], [4.0]) == pytest.approx([0.0])


def test_drift_mean_variance_numbers():
    model = lq_model(d=1, m=1, horizon=1.0, B=0.1, C=0.5)
    out = drift(model, 0.2, [2.0], [3.0], [0.0], [0.0])
    assert out == pytest.approx([0.2 + 1.5])


def test_drift_systemic_numbers():
    p = mflq.SystemicParams(kappa=1.0)
    model = mflq.systemic_model(p)
    out = drift(model, 0.5, [2.0], [0.5], [1.0], [0.0])
    # kappa (mean - x) + a = -2 + 1 + 0.5
    assert out == pytest.approx([-0.5])


def test_diffusion_presets():
    mv = lq_model(d=1, m=1, horizon=1.0, F=0.3)
    assert diffusion(mv, 0.1, [9.0], [2.0], [0.0], [0.0]) == pytest.approx([0.6])
    sy = mflq.systemic_model(mflq.SystemicParams(sigma=1.0))
    assert diffusion(sy, 0.9, [5.0], [7.0], [1.0], [2.0]) == pytest.approx([1.0])
    assert diffusion(zero_model(), 0.5, [1.0], [1.0], [1.0], [1.0]) == pytest.approx([0.0])


def test_running_cost_zero_and_systemic():
    assert running_cost(zero_model(), 0.5, [1.0], [2.0], [3.0], [4.0]) == 0.0
    model = mflq.systemic_model(mflq.SystemicParams(eta=1.0, q=0.5))
    got = running_cost(model, 0.1, [1.0], [2.0], [0.0], [0.0])
    assert got == pytest.approx(3.5)
    # the encoding matches 0.5 a^2 - q a (m - x) + eta/2 (m - x)^2 in
    # population average (the two differ pointwise by mean-only terms)
    xs, as_ = np.array([0.7, -0.9]), np.array([-1.3, 0.4])
    mb, ab = xs.mean(), as_.mean()
    direct = np.mean(0.5 * as_ ** 2 - 0.5 * as_ * (mb - xs) + 0.5 * (mb - xs) ** 2)
    encoded = np.mean([running_cost(model, 0.1, [x], [a], [mb], [ab])
                       for x, a in zip(xs, as_)])
    assert encoded == pytest.approx(direct)


def test_running_cost_means_collapse():
    model = lq_model(d=1, m=1, horizon=1.0, Q2=2.0, Q2bar=3.0)
    x = 1.7
    assert running_cost(model, 0.2, [x], [0.5], [x], [0.5]) == pytest.approx(5.0 * x * x)


def test_terminal_cost():
    assert terminal_cost(zero_model(), [2.0], [1.0]) == 0.0
    mv = mflq.mean_variance_model(mflq.MeanVarianceParams(eta=2.0))
    assert terminal_cost(mv, [2.0], [1.0]) == pytest.approx(4.0 - 1.0 - 1.0)
    one = lq_model(d=1, m=1, horizon=1.0, P2=1.0)
    assert terminal_cost(one, [3.0], [0.0]) == pytest.approx(9.0)


def test_time_domain_and_shape_errors():
    model = zero_model()
    with pytest.raises(OutOfDomainError):
        drift(model, 1.5, [0.0], [0.0], [0.0], [0.0])
    with pytest.raises(ShapeError):
        drift(model, 0.5, [0.0, 1.0], [0.0], [0.0], [0.0])
    with pytest.raises(ShapeError):
        running_cost(model, 0.5, [0.0], [0.0, 1.0], [0.0], [0.0])


# --- affinity / homogeneity properties -------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
       st.floats(-2, 2))
def test_drift_affine(x, a, mx, ma, s):
    model = lq_model(d=1, m=1, horizon=1.0, b0=np.array([0.7]), B=1.1, Bbar=-0.4,
                     C=0.3, Cbar=0.2)
    f0 = drift(model, 0.5, [0.0], [0.0], [0.0], [0.0])
    f1 = drift(model, 0.5, [x], [a], [mx], [ma])
    fs = drift(model, 0.5, [s * x], [s * a], [s * mx], [s * ma])
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
        f = running_cost(model, 0.5, [u * x], [u * a], [u * mx], [u * ma])
        g = running_cost(model, 0.5, [-u * x], [-u * a], [-u * mx], [-u * ma])
        f0 = running_cost(model, 0.5, [0.0], [0.0], [0.0], [0.0])
        return 0.5 * (f + g) - f0

    assert quad(s) == pytest.approx(s * s * quad(1.0), abs=1e-9 * (1 + abs(quad(1.0))))


# --- ensembles --------------------------------------------------------------

def test_ensemble_moments_degenerate():
    ms = ensemble_moments(np.full((5, 2), 3.0))
    assert ms.mean == pytest.approx([3.0, 3.0])
    assert ms.cov == pytest.approx(np.zeros((2, 2)))


def test_ensemble_moments_two_points():
    ms = ensemble_moments([[0.0], [2.0]])
    assert ms.mean[0] == pytest.approx(1.0)
    assert ms.cov[0, 0] == pytest.approx(2.0)


def test_ensemble_moments_requires_two():
    with pytest.raises(InsufficientSampleError):
        ensemble_moments([[1.0]])
    with pytest.raises(ShapeError):
        ensemble_moments([1.0, 2.0, 3.0])


def test_ensemble_moments_lln():
    n = 10 ** 5
    draws = np.random.default_rng(7).standard_normal((n, 1))
    ms = ensemble_moments(draws)
    assert abs(ms.mean[0]) <= 4.0 / np.sqrt(n)
    assert abs(ms.cov[0, 0] - 1.0) <= 4.0 * np.sqrt(2.0 / n)


def test_ensemble_union_bookkeeping():
    states = np.random.default_rng(11).standard_normal((40, 2))
    single = ensemble_moments(states)
    union = ensemble_moments(np.vstack([states, states]))
    n = 40
    assert union.mean == pytest.approx(single.mean)
    assert union.cov == pytest.approx(single.cov * (2 * n - 2) / (2 * n - 1))


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
