"""The per-metric verdict, the digest line and the base checkout of
tools/bench_ab.py."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _path)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


@pytest.mark.parametrize("pairs, direction, bound, expected", [
    ([(10.0, 8.0)] * 10, "lower", 0.25, "gain"),
    # 9 of 10 wins is enough, 8 is not
    ([(10.0, 8.0)] * 9 + [(10.0, 10.5)], "lower", 0.25, "gain"),
    ([(10.0, 8.0)] * 8 + [(10.0, 10.5)] * 2, "lower", 0.25, "within bound"),
    # every pair won, but the median gap (1.1) is inside the base spread (2)
    ([(10.0 + i % 3, 9.9) for i in range(10)], "lower", 0.25, "within bound"),
    # base spread wider than the bound
    ([(10.0 + 5 * (i % 3), 16.0) for i in range(10)], "lower", 0.25, "unresolved"),
    # ... unless every change run beats every base run
    ([(10.0 + 5 * (i % 3), 9.9) for i in range(10)], "lower", 0.25, "within bound"),
    ([(10.0, 13.0)] * 10, "lower", 0.25, "worse"),
    ([(10.0, 12.0)] * 10, "lower", 0.25, "within bound"),
    ([(1.0, 1.0)] * 10, "higher", 0.01, "within bound"),
    ([(1.0, 0.9)] * 10, "higher", 0.01, "worse"),
    ([(0.9, 1.0)] * 10, "higher", 0.01, "gain"),
])
def test_verdict(pairs, direction, bound, expected):
    assert bench_ab.verdict(pairs, direction, bound) == expected


@pytest.mark.parametrize("base, change, expected", [
    ({"a"}, {"a"}, "output_digest identical"),
    ({"a"}, {"b"}, "output_digest differs"),
    ({"a", "b"}, {"a", "b"}, "output_digest differs; base runs gave 2 digests; "
                             "change runs gave 2 digests"),
    ({"a"}, {"a", "b"}, "output_digest differs; change runs gave 2 digests"),
])
def test_digest_line(base, change, expected):
    assert bench_ab.digest_line({"base": base, "change": change}) == expected


def test_unknown_base_revision_exits_with_gits_message():
    """An unknown --base exits non-zero with git's message, not a traceback,
    before any benchmark runs."""
    proc = subprocess.run([sys.executable, str(_path), "--workload", "sweep", "--seed", "11",
                           "--base", "no-such-revision", "--pairs", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stderr.startswith("git archive no-such-revision failed: ")
    assert "fatal:" in proc.stderr and "Traceback" not in proc.stderr


def test_failed_run_prints_the_completed_pairs_then_exits(monkeypatch, capsys):
    """A run that fails in the third pair: the summary and the digest lines
    cover the two completed pairs, then the exit carries the run's stderr."""
    calls = []

    def bench(checkout, args, seconds):
        calls.append(checkout)
        if len(calls) == 5:
            raise bench_ab.RunFailed(f"run.py in {checkout} exited 1:\nboom\n")
        return {"wall_s": 2.0, "setup_s": 0.5, "peak_rss_mb": 60.0, "ok_ratio": 1.0}, "d1"

    monkeypatch.setattr(bench_ab, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench_ab, "bench", bench)
    with pytest.raises(SystemExit) as info:
        bench_ab.main(["--workload", "sweep", "--seed", "11", "--base", "HEAD", "--pairs", "4"])
    assert info.value.code.endswith("exited 1:\nboom\n")
    out = capsys.readouterr().out
    assert "sweep seed 11, 2 pairs, base HEAD" in out
    for name in ("wall_s", "setup_s", "peak_rss_mb", "ok_ratio"):
        assert re.search(rf"^{name} .* change better in 0/2  within bound$", out, re.M)
    assert out.endswith("output_digest base: d1\noutput_digest change: d1\n"
                        "output_digest identical\n")


def test_trace_summarises_every_per_layer_metric_without_a_verdict(monkeypatch, capsys):
    """--trace runs both sides traced and reports, per per-layer metric of
    BENCHMARK.json, medians, quartiles, the median ratio and the wins, and
    no verdict."""
    spec = json.loads((_path.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = []

    def bench(checkout, args, seconds):
        traced.append(args.trace)
        value = 2.0 if checkout == bench_ab.ROOT else 4.0
        return {m["name"]: 0.0 if m["name"] == "moments.clip_count" else value
                for m in spec["per_layer"]}, "d1"

    monkeypatch.setattr(bench_ab, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench_ab, "bench", bench)
    assert bench_ab.main(["--workload", "sweep", "--seed", "11", "--base", "HEAD",
                          "--pairs", "3", "--trace"]) == 0
    assert traced == [True] * 6
    out = capsys.readouterr().out
    assert re.findall(r"^pair \d \((\w+) first\)$", out, re.M) == ["base", "change", "base"]
    for m in spec["per_layer"]:
        line = re.search(rf"^{re.escape(m['name'])} +base (.*)$", out, re.M).group(1)
        if m["name"] == "moments.clip_count":
            want = "0 [0, 0]  change 0 [0, 0]  median ratio n/a  change better in 0/3"
        else:
            wins = 3 if m["better"] == "lower" else 0
            want = f"4 [4, 4]  change 2 [2, 2]  median ratio 0.500  change better in {wins}/3"
        assert line == want
