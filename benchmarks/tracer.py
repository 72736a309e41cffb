"""In-memory span tracer for the mflq benchmark (stdlib only).

A span is (id, parent, name, start, end); ids are indices into parallel
arrays, parent -1 marks a root. Wrappers are installed on module
attributes, so every module that bound a function by ``from .x import f``
gets the traced version too. Hot numeric helpers are wrapped with a bare
call counter instead of a span, so their time stays in the caller's self
time and the trace does not grow by millions of spans.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from array import array
from collections import Counter

perf_counter = time.perf_counter


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(parent, start, end) -> list[float]:
    """Per span: its duration minus the union of its direct children's
    intervals (children clipped to the parent's interval)."""
    children: dict[int, list] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(
                (max(start[i], start[p]), min(end[i], end[p])))
    out = []
    for i in range(len(start)):
        kids = [(s, e) for s, e in children.get(i, ()) if e > s]
        out.append(end[i] - start[i] - union_length(kids))
    return out


class Tracer:
    """Records spans and call counts; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.stats: Counter = Counter()   # filled by result hooks
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, on_return=None):
        """Wrap ``fn`` so each call records a span under ``name``."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        parent, names, start, end = self.parent, self.name, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if on_return is not None:
                repl = on_return(out, args, kwargs)
                if repl is not None:
                    return repl
            return out

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -----------------------------------------------------

    def install(self, package: str, count_only=(), methods=(), hooks=None):
        """Wrap every public function defined in ``package``'s modules at
        every module attribute bound to it, plus the given class methods.

        count_only: qualified names ("module.func") wrapped with a counter.
        methods: (class, attribute, qualified name, count_only) tuples.
        hooks: qualified name -> on_return(out, args, kwargs) callback for
        spans; a non-None return value replaces the call's result.
        """
        hooks = hooks or {}
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == package or n.startswith(package + "."))]
        wrapped = {}
        for mod in mods:
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                qual = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
                wrapped[id(fn)] = (self.counter(qual, fn) if qual in count_only
                                   else self.span(qual, fn, hooks.get(qual)))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for cls, attr, qual, only_count in methods:
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self.counter(qual, fn) if only_count
                    else self.span(qual, fn, hooks.get(qual)))

    def wrap_law(self, law, qual: str = "value.gain"):
        """Copy of an AffineFeedback whose gain callables are spans; the
        distinct query times of each law are tallied for the reuse ratio."""
        seen: set = set()
        stats = self.stats

        def note(_out, args, _kwargs):
            if args[0] not in seen:
                seen.add(args[0])
                stats["value.gain_distinct_t"] += 1

        return dataclasses.replace(
            law, k1=self.span(qual, law.k1, note), k2=self.span(qual, law.k2, note),
            k0=self.span(qual, law.k0, note))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


class Profile:
    """Aggregates over a tracer's spans.

    ``layer_of`` maps a span name to its layer. A span's *layer time* is
    its duration minus the intervals of the outermost descendants that
    belong to another layer, i.e. the time its own layer spent under it.
    """

    def __init__(self, tracer: Tracer, layer_of):
        self.parent = tracer.parent
        self.start, self.end = tracer.start, tracer.end
        self.names = [tracer.names[n] for n in tracer.name]
        self.layers = [layer_of(n) for n in self.names]
        self.self_time = self_times(self.parent, self.start, self.end)
        acc = list(self.self_time)
        for i in range(len(acc) - 1, -1, -1):   # children follow parents
            p = self.parent[i]
            if p >= 0 and self.layers[p] == self.layers[i]:
                acc[p] += acc[i]
        self.layer_time = acc
        self.by_name: dict[str, list[int]] = {}
        for i, nm in enumerate(self.names):
            self.by_name.setdefault(nm, []).append(i)

    def layer_self(self, layer: str) -> float:
        """Sum of the self times of every span of ``layer``."""
        return sum(s for lay, s in zip(self.layers, self.self_time) if lay == layer)

    def total(self, names, layer_only: bool = False) -> float:
        """Summed duration (or layer time) of the spans named in ``names``
        that have no ancestor named in ``names``, so nesting is not
        counted twice."""
        names = set(names)
        out = 0.0
        for i in (i for nm in names for i in self.by_name.get(nm, ())):
            q = self.parent[i]
            while q >= 0 and self.names[q] not in names:
                q = self.parent[q]
            if q < 0:
                out += self.layer_time[i] if layer_only else self.end[i] - self.start[i]
        return out

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))
