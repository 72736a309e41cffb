"""Self-test of the benchmark's span arithmetic and binding-site wrapping.

    python3 -m pytest benchmarks/test_tracer.py
"""

import sys
import types

from tracer import Profile, Tracer, self_times, union_length


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert union_length([(2.0, 3.0), (0.0, 5.0)]) == 5.0


def test_self_time_is_duration_minus_union_of_children():
    # 0: [0, 10]; children 1: [1, 4], 2: [3, 6] (overlapping), 3: [8, 9];
    # 4: [2, 3] is a grandchild and must not be subtracted from span 0.
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 9.0, 3.0]
    assert self_times(parent, start, end) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_profile_layer_time_and_outermost_totals():
    tr = Tracer()
    tr.names = ["a.outer", "a.inner", "b.leaf"]
    for p, n, s, e in [(-1, 0, 0.0, 10.0), (0, 1, 1.0, 5.0), (1, 2, 2.0, 4.0),
                       (0, 2, 6.0, 7.0), (-1, 1, 20.0, 21.0)]:
        tr.parent.append(p)
        tr.name.append(n)
        tr.start.append(s)
        tr.end.append(e)
    prof = Profile(tr, lambda name: name.split(".")[0])
    assert prof.layer_self("a") == 8.0
    assert prof.layer_self("b") == 3.0
    # a.outer minus its two b.leaf descendants, inner a.* time included
    assert prof.total({"a.outer"}, layer_only=True) == 7.0
    # nested a.inner is not counted twice under a.outer
    assert prof.total({"a.outer", "a.inner"}) == 11.0
    assert prof.total({"a.inner"}) == 5.0
    assert prof.calls("b.leaf") == 2


def test_install_wraps_every_binding_site_and_uninstall_restores():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1
    work.__module__ = "fakepkg.core"

    def helper():
        return 0
    helper.__module__ = "fakepkg.core"

    core.work, core.helper = work, helper
    user.work_alias = work                    # from .core import work as ...
    user.call = lambda x: user.work_alias(x)
    pkg.work = work
    sys.modules.update({"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user})
    try:
        tr = Tracer()
        tr.install("fakepkg", count_only={"core.helper"})
        assert user.call(1) == 2 and pkg.work(1) == 2 and core.work(1) == 2
        core.helper()
        assert [tr.names[n] for n in tr.name] == ["core.work"] * 3
        assert tr.counts["core.helper"] == 1
        tr.uninstall()
        assert core.work is work and user.work_alias is work and pkg.work is work
    finally:
        for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
            del sys.modules[name]
