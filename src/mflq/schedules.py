"""Time-dependent coefficient schedules.

A schedule represents one deterministic model coefficient on the horizon
as one stack: ``values`` holds its arrays on a leading axis, one row for a
constant (``times`` is None) and one row per knot for a table of
(time, array) knots evaluated by linear interpolation. Knot evaluation is
exact; the stored arrays are frozen so schedules can be shared between
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Schedule:
    """Matrix- or vector-valued function of time: the arrays ``values``
    stacked on a leading axis, at the knot ``times``, or one row and
    ``times`` None for a constant.

    Use :meth:`constant` or :meth:`tabulated` to construct.
    """

    times: np.ndarray | None
    values: np.ndarray

    @classmethod
    def constant(cls, value) -> "Schedule":
        return cls(None, _frozen(value)[None])

    @classmethod
    def tabulated(cls, times, values) -> "Schedule":
        t = _frozen(times)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("tabulated schedule needs at least two knots")
        if not np.all(np.diff(t) > 0):
            raise ValueError("knot times must be strictly increasing")
        v = _frozen(values)
        if v.shape[0] != t.size:
            raise ValueError("one matrix per knot required")
        return cls(t, v)

    @property
    def shape(self) -> tuple:
        return self.values.shape[1:]

    @property
    def is_constant(self) -> bool:
        return self.times is None

    def knot_times(self) -> np.ndarray:
        return np.empty(0) if self.times is None else self.times

    def spans(self, horizon: float) -> bool:
        """True when the schedule is defined on all of [0, horizon]."""
        return self.times is None or (self.times[0] == 0.0 and self.times[-1] == horizon)

    def __call__(self, t: float) -> np.ndarray:
        return self.table(np.array([t], dtype=float))[0]

    def table(self, times) -> np.ndarray:
        """Values at every time in ``times``, stacked on a leading axis.

        A constant schedule returns a read-only broadcast of its value. A
        tabulated one interpolates each time on its own, so a row does not
        depend on which other times are in the batch; knot times return the
        stored knot arrays.
        """
        t = np.asarray(times, dtype=float)
        knots, values = self.times, self.values
        if knots is None:
            v = values[0]
            return np.broadcast_to(v, t.shape + v.shape)
        i, hit = _bracket(knots, t, "schedule domain ")
        w = ((t - knots[i]) / (knots[i + 1] - knots[i])).reshape(
            t.shape + (1,) * (values.ndim - 1))
        out = (1.0 - w) * values[i] + w * values[i + 1]
        on_knot = hit >= 0
        out[on_knot] = values[hit[on_knot]]
        return out


def _bracket(knots: np.ndarray, t: np.ndarray, domain: str = ""):
    """For each of the times ``t``, the index i of the interval [knots[i],
    knots[i+1]] that holds it and the index of the knot equal to it, or -1;
    OutOfDomainError, naming ``domain``, outside [knots[0], knots[-1]]."""
    outside = ~((t >= knots[0]) & (t <= knots[-1]))
    if outside.any():
        raise OutOfDomainError(
            f"t={t[outside][0]} outside {domain}[{knots[0]}, {knots[-1]}]")
    i = np.minimum(np.searchsorted(knots, t, side="right") - 1, knots.size - 2)
    return i, np.where(t == knots[-1], knots.size - 1, np.where(t == knots[i], i, -1))


def _not_a_number(value) -> bool:
    """Whether a string or a boolean, NumPy's included, is anywhere in
    ``value``; NumPy would convert either to float without a word."""
    if isinstance(value, np.ndarray):
        if value.dtype != object:
            return value.dtype.kind in "bSU"
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return any(_not_a_number(v) for v in value)
    return isinstance(value, (str, bytes, bool, np.bool_))


def _numeric(value) -> np.ndarray:
    """``value`` as a float array; ValueError for a string, a boolean or a non-number."""
    if _not_a_number(value):
        raise ValueError("not numeric: a string or a boolean")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"not numeric: {exc}") from exc


def _shaped(value, shape: tuple) -> np.ndarray:
    """``value`` as a float array (_numeric) of exactly ``shape``; a number
    fills a one-element shape."""
    arr = _numeric(value)
    if arr.ndim == 0 and math.prod(shape) == 1:
        arr = np.full(shape, float(arr))
    if arr.shape != shape:
        raise ValueError(f"shape {arr.shape}, expected {shape}")
    return arr


def as_schedule(value, shape) -> Schedule:
    """Coerce ``value`` to a Schedule of ``shape``; raises ValueError.

    ``value`` is None (the zero schedule), a number, an array, a Schedule,
    or the document form ``{"knots": [[t, array], ...]}``. A constant and
    every knot array must have exactly ``shape``, except that a number
    fills a one-element shape. No string or boolean is taken as a number.
    """
    shape = tuple(shape)
    if value is None:
        return Schedule.constant(np.zeros(shape))
    if isinstance(value, Schedule):
        if value.shape != shape:
            raise ValueError(f"schedule shape {value.shape}, expected {shape}")
        return value
    if isinstance(value, dict):
        if "knots" not in value:
            raise ValueError("expected a 'knots' key")
        try:
            knots = [(_shaped(t, ()), _shaped(v, shape)) for t, v in value["knots"]]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed knots: {exc}") from exc
        return Schedule.tabulated([t for t, _ in knots],
                                  np.reshape([v for _, v in knots], (-1,) + shape))
    return Schedule.constant(_shaped(value, shape))
