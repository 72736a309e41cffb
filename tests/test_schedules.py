import numpy as np
import pytest
from hypothesis import given, strategies as st

from mflq.errors import OutOfDomainError
from mflq.schedules import Schedule, as_schedule


def test_constant_eval_anywhere():
    s = Schedule.constant([[2.0]])
    assert s(0.37)[0, 0] == 2.0
    assert s(123.0)[0, 0] == 2.0


def test_tabulated_midpoint():
    s = Schedule.tabulated([0.0, 1.0], [[[0.0]], [[2.0]]])
    assert s(0.5)[0, 0] == pytest.approx(1.0)


def test_tabulated_exact_at_knots():
    times = [0.0, 0.3, 1.0]
    mats = np.array([[[1.0, 2.0]], [[-1.0, 0.5]], [[4.0, 4.0]]])
    s = Schedule.tabulated(times, mats)
    for t, m in zip(times, mats):
        assert np.array_equal(s(t), m)


def test_out_of_domain():
    s = Schedule.tabulated([0.0, 1.0], [[[0.0]], [[2.0]]])
    with pytest.raises(OutOfDomainError):
        s(1.5)
    with pytest.raises(OutOfDomainError):
        s(-0.01)


def test_knots_must_increase():
    with pytest.raises(ValueError):
        Schedule.tabulated([0.0, 0.0, 1.0], np.zeros((3, 1, 1)))


def test_spans():
    assert Schedule.constant([[1.0]]).spans(7.0)
    assert Schedule.tabulated([0.0, 2.0], np.zeros((2, 1, 1))).spans(2.0)
    assert not Schedule.tabulated([0.0, 0.5], np.zeros((2, 1, 1))).spans(1.0)


@given(st.floats(0.0, 1.0), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_piecewise_linear_between_knots(u, a, b, c):
    # two intervals; on each, eval must be the straight line through the knots
    s = Schedule.tabulated([0.0, 0.4, 1.0], [[[a]], [[b]], [[c]]])
    t = 0.4 * u
    expected = a + (b - a) * (t / 0.4)
    assert s(t)[0, 0] == pytest.approx(expected, abs=1e-12)
    t2 = 0.4 + 0.6 * u
    expected2 = b + (c - b) * ((t2 - 0.4) / 0.6)
    assert s(t2)[0, 0] == pytest.approx(expected2, abs=1e-12)


def test_as_schedule_coercions():
    assert as_schedule(None, (2, 2))(0.0).shape == (2, 2)
    assert as_schedule(3.0, (1, 1))(1.0)[0, 0] == 3.0
    with pytest.raises(ValueError):
        as_schedule(3.0, (2, 2))  # scalar not allowed for true matrices
    with pytest.raises(ValueError):
        as_schedule(np.eye(3), (2, 2))


def test_stored_arrays_are_frozen():
    s = Schedule.constant([[1.0]])
    with pytest.raises(ValueError):
        s(0.0)[0, 0] = 9.0


# --- batched evaluation -------------------------------------------------------

def interp_reference(times, values, t):
    """Pointwise linear interpolation, one time at a time."""
    i = int(np.searchsorted(times, t, side="right")) - 1
    if i >= times.size - 1:
        return values[-1]
    if t == times[i]:
        return values[i]
    w = (t - times[i]) / (times[i + 1] - times[i])
    return (1.0 - w) * values[i] + w * values[i + 1]


@st.composite
def knot_tables(draw):
    n = draw(st.integers(2, 6))
    times = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n,
                                 unique=True)))
    shape = draw(st.sampled_from([(1, 1), (2, 3), (3,)]))
    values = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n * int(np.prod(shape)),
                                    max_size=n * int(np.prod(shape))))).reshape((n, *shape))
    u = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    return np.array(times), values, u


@given(knot_tables())
def test_table_rows_equal_pointwise_bitwise(case):
    times, values, u = case
    s = Schedule.tabulated(times, values)
    interior = [min(times[-1], times[0] + f * (times[-1] - times[0])) for f in u]
    query = np.array([*times, times[0], times[-1], *interior])
    table = s.table(query)
    assert table.shape == (query.size, *values.shape[1:])
    for row, t in zip(table, query):
        assert row.tobytes() == interp_reference(times, values, t).tobytes()
        assert row.tobytes() == s(t).tobytes()
    for row, v in zip(table, values):  # knots return the stored arrays
        assert row.tobytes() == v.tobytes()


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5))
def test_constant_table_rows_are_the_value(query):
    s = Schedule.constant([[1.5, -2.0], [0.25, 3.0]])
    table = s.table(query)
    assert table.shape == (len(query), 2, 2)
    for row, t in zip(table, query):
        assert row.tobytes() == s(t).tobytes()


@given(knot_tables(), st.floats(1e-9, 5.0))
def test_table_out_of_domain(case, gap):
    times, values, _ = case
    s = Schedule.tabulated(times, values)
    for t in (times[0] - gap, times[-1] + gap, float("nan")):
        with pytest.raises(OutOfDomainError):
            s.table([times[0], t])


# --- representation -----------------------------------------------------------

def test_a_schedule_is_one_stack():
    """A constant stores one row and no times; a tabulated schedule one row
    per knot; both report the shape of one value."""
    v = np.arange(6.0).reshape(2, 3)
    const = Schedule.constant(v)
    assert const.values.shape == (1,) + v.shape and const.times is None
    assert const.shape == (2, 3) and const.is_constant
    assert np.array_equal(const.values[0], v)
    tab = Schedule.tabulated([0.0, 0.5, 1.0], np.stack((v, 2 * v, 3 * v)))
    assert tab.values.shape == (3, 2, 3) and tab.times.shape == (3,)
    assert tab.shape == (2, 3) and not tab.is_constant
    assert as_schedule(1.5, (1, 1)).shape == (1, 1)
