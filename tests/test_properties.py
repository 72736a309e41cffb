"""Property tests over random standard models with d, m <= 3 (d <= 4 for
the solution's storage): the model document boundary, the half layout of a
Riccati solution, the Schur form of its right-hand side, and identities of
the solved value function."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mflq import (LqModel, MomentState, check_standard_conditions,
                  cost_from_moments, dpp_check, model_from_document,
                  model_to_document, optimal_feedback, solve_riccati, value)
from mflq.errors import ModelDocumentError, RiccatiBreakdownError
from mflq.riccati import PSD_TOL, _layout, _rhs, with_scaled_lambda
from mflq.value import optimal_gains

from helpers import random_standard_model, reference_aux, reference_rhs, tabulated_model

K = 200  # RK4 steps: the identities below hold to round-off or O(K^-4)

seeds = st.integers(0, 2 ** 32 - 1)
sizes = st.integers(1, 3)

# any JSON value, kept small
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
# what a dimension may be replaced with: never large enough to allocate much
small_dims = st.none() | st.booleans() | st.integers(-1, 3) | st.floats(-1, 4) | st.text(max_size=2)


def paths(node, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from paths(child, prefix + (key,))


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, data):
    """One random edit: replace, delete or add a node, reshape an array, or
    replace the dimensions. Nodes under "dims" change only through small
    values, and added keys are too short to be "dims"."""
    kind = data.draw(st.sampled_from(("replace", "delete", "add", "reshape", "dims")))
    if kind == "dims":
        if isinstance(doc, dict):
            doc["dims"] = data.draw(
                st.dictionaries(st.sampled_from(("d", "m")), small_dims) | small_dims)
        return doc
    path = data.draw(st.sampled_from([p for p in paths(doc) if p[:1] != ("dims",)]))
    node = get(doc, path)
    if kind == "replace":
        if not path:
            return data.draw(json_values)
        get(doc, path[:-1])[path[-1]] = data.draw(json_values)
    elif kind == "delete" and path:
        del get(doc, path[:-1])[path[-1]]
    elif kind == "add" and isinstance(node, dict):
        node[data.draw(st.text(max_size=3))] = data.draw(json_values)
    elif kind == "reshape" and path and isinstance(node, list):
        arr = np.asarray(node, dtype=object)  # ragged lists stay one-dimensional
        get(doc, path[:-1])[path[-1]] = (arr.T if arr.ndim == 2 else arr.ravel()).tolist()
    return doc


@settings(max_examples=150, deadline=None)
@given(seeds, sizes, sizes, st.booleans(), st.integers(1, 3), st.data())
def test_fuzzed_documents_build_or_raise_document_error(seed, d, m, barred, edits, data):
    doc = model_to_document(random_standard_model(np.random.default_rng(seed), d, m, barred))
    for _ in range(edits):
        doc = mutate(doc, data)
    try:
        assert isinstance(model_from_document(doc), LqModel)
    except ModelDocumentError:
        pass


@settings(max_examples=60, deadline=None)
@given(seeds, sizes, sizes, st.booleans(), st.data())
def test_string_or_bool_leaf_is_a_document_error(seed, d, m, barred, data):
    """Replace one number of a valid document (dims, horizon, a knot time or
    a coefficient entry) with a string or a boolean."""
    doc = model_to_document(random_standard_model(np.random.default_rng(seed), d, m, barred))
    B = doc["dynamics"]["B"]
    doc["dynamics"]["B"] = {"knots": [[0.0, B], [doc["horizon"], B]]}
    numbers = [p for p in paths(doc) if type(get(doc, p)) in (int, float)]
    path = data.draw(st.sampled_from(numbers))
    get(doc, path[:-1])[path[-1]] = data.draw(
        st.booleans() | st.text(max_size=3) | st.floats().map(repr))
    with pytest.raises(ModelDocumentError):
        model_from_document(doc)


@settings(max_examples=8, deadline=None)
@given(seeds, sizes, sizes)
def test_gamma_equals_lambda_without_mean_field_terms(seed, d, m):
    model = random_standard_model(np.random.default_rng(seed), d, m, barred=False)
    sol = solve_riccati(model, K)
    assert np.array_equal(sol.Lam, sol.Gam)


@settings(max_examples=8, deadline=None)
@given(seeds, sizes, sizes, st.booleans())
def test_value_equals_cost_of_optimal_law(seed, d, m, barred):
    rng = np.random.default_rng(seed)
    model = random_standard_model(rng, d, m, barred)
    a = rng.standard_normal((d, d))
    ms = MomentState(rng.standard_normal(d), a @ a.T / d)
    sol = solve_riccati(model, K)
    v = value(sol, 0.0, ms)
    cost = cost_from_moments(model, optimal_feedback(model, sol), 0.0, ms, K)
    assert abs(v - cost) <= 1e-7 * max(1.0, abs(v))


@settings(max_examples=30, deadline=None)
@given(seeds, sizes, sizes, st.booleans())
def test_lambda_gamma_psd_under_standard_conditions(seed, d, m, barred):
    """Yong, "LQ optimal control problems for mean-field SDEs" (SICON 2013):
    under the standard conditions Lam and Gam are PSD on [0, T]."""
    model = random_standard_model(np.random.default_rng(seed), d, m, barred)
    if check_standard_conditions(model, 0.25).holds:
        sol = solve_riccati(model, K)
        assert np.linalg.eigvalsh(sol.Lam).min() >= -PSD_TOL
        assert np.linalg.eigvalsh(sol.Gam).min() >= -PSD_TOL


@settings(max_examples=30, deadline=None)
@given(seeds, sizes, sizes, st.booleans())
def test_dpp_split(seed, d, m, barred):
    """The split value(t) = running cost on [t, theta] + value(theta) under
    the optimal law. The residual is the O(K^-4) error of the solve, which
    scales with the value (2.6e-6 at a value of 28.5 falls to 2.3e-7 at
    twice K), so the bound is relative."""
    rng = np.random.default_rng(seed)
    model = random_standard_model(rng, d, m, barred)
    t, theta = np.sort(rng.uniform(0.0, model.horizon, size=2))
    a = rng.standard_normal((d, d))
    ms = MomentState(rng.standard_normal(d), a @ a.T / d)
    sol = solve_riccati(model, K)
    assert dpp_check(model, sol, t, theta, ms, K) <= 1e-6 * max(1.0, abs(value(sol, t, ms)))


@settings(max_examples=15, deadline=None)
@given(seeds, st.integers(1, 4), sizes, st.sampled_from([0.0, 0.3]))
def test_half_layout_expands_to_the_symmetric_pair(seed, d, m, cross):
    """A solution stores at most (d+1)^2 + 1 entries per row; its expanded
    rows are C-contiguous, exactly symmetric with an exactly zero Lam~
    padding, the stored rows at grid times, and the same bits through
    state, at and the full arrays; with_scaled_lambda scales Lam alone."""
    rng = np.random.default_rng(seed)
    sol = solve_riccati(tabulated_model(rng, d, m, cross), 40)
    n = d + 1
    assert sol.y.shape[1] == sol.dy.shape[1] <= n * n + 1
    times = np.concatenate([sol.grid, rng.uniform(0.0, sol.horizon, 20)])
    rows = sol._rows(times)
    assert rows.flags.c_contiguous
    P = rows.reshape(-1, 2, n, n)
    assert np.array_equal(P, np.swapaxes(P, -1, -2))
    assert not P[:, 0, d].any() and not P[:, 0, :, d].any()
    assert rows[:sol.grid.size, _layout(n)[0]].tobytes() == sol.y.tobytes()
    for k in rng.integers(0, sol.grid.size, 5):
        full = [sol.Lam[k], sol.Gam[k], sol.gam[k], sol.chi[k]]
        for st_ in (sol.state(k), sol.at(float(sol.grid[k]))):
            assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in
                       zip((st_.Lam, st_.Gam, st_.gam, st_.chi), full))
    for arr in (sol.Lam, sol.Gam, sol.gam, sol.chi):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0
    scaled = with_scaled_lambda(sol, 1.01)
    assert scaled.Lam.tobytes() == (1.01 * sol.Lam).tobytes()
    for name in ("Gam", "gam", "chi"):
        assert getattr(scaled, name).tobytes() == getattr(sol, name).tobytes()


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@settings(max_examples=20, deadline=None)
@given(seeds, sizes, sizes, st.booleans(), st.booleans(), st.sampled_from([0.0, 0.3]))
def test_schur_form_is_the_pair_expression(seed, d, m, barred, tabulated, cross):
    """The right-hand side -(N / (U, V)) and the gains -W of the Schur form
    agree with the term-by-term pair expression to 1e-13 relative, at grid
    states and on the stage tables, with barred terms, M2 and tabulated B
    and Q2 on and off."""
    rng = np.random.default_rng(seed)
    model = (tabulated_model(rng, d, m, cross) if tabulated
             else random_standard_model(rng, d, m, barred=barred, cross=cross))
    try:
        sol = solve_riccati(model, K)
    except RiccatiBreakdownError:  # an M2 can break the positivity of U or V
        assume(False)
    ks = np.array([0, 37, 100, 163, K])
    c = model.table(sol.grid[ks])
    for j, k in enumerate(ks):
        y = sol._full(sol.y[k])
        assert _relative_gap(_rhs(c, j, y), reference_rhs(c, j, y)) <= 1e-13
    times = np.sort(rng.uniform(0.0, 1.0, 9))
    rows = sol._rows(times).reshape(times.size, 2, d + 1, d + 1)
    want = -reference_aux(model.table(times), ..., np.moveaxis(rows, 1, 0))[1]
    assert _relative_gap(optimal_gains(model, sol, times), want) <= 1e-13
