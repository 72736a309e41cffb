"""Alternating benchmark pairs: a base revision against the working tree.

    python3 tools/bench_ab.py --workload simulate --seed 11 --base HEAD~1 [--pairs 10] [--trace]

The base revision is extracted with ``git archive`` into a temporary
directory. Each pair runs ``benchmarks/run.py --trace 0`` once there and
once in the working tree, alternating which side runs first, with the same
workload, seed and run length (``run_seconds`` of BENCHMARK.json).
Prints each pair's end-to-end metrics; then per metric each side's median
and quartiles, the median ratio change/base, the number of pairs the
change won (ties count for neither) and a verdict against the metric's
``bound`` in BENCHMARK.json; the output digests of both sides, and one
line saying whether they are identical. With ``--trace`` both sides run
with ``--trace 1`` and the summary covers BENCHMARK.json's ``per_layer``
metrics, with no verdict, as they have no bound. If a run fails, prints
that summary for the pairs completed before it, then exits non-zero with
the failing run's stderr. The verdicts, in the order they are tested:

- gain: the change won at least nine tenths of the pairs and its median is
  better than the base median by more than the base quartile spread;
- unresolved: the base quartile spread, relative to the base median, is
  wider than the bound, and not every change run beats every base run;
- worse: the change median is worse than the base median by more than the
  bound, relative to the base median;
- within bound: otherwise.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract(rev: str, dest: str) -> None:
    """Write the tree of ``rev`` into ``dest``; exit with git's message if
    git cannot archive it."""
    proc = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                          capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"git archive {rev} failed: {proc.stderr.decode(errors='replace').strip()}")
    # the "data" filter (Python >= 3.11.4) refuses links and paths outside dest
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as fh:
        fh.extractall(dest, **safe)


class RunFailed(Exception):
    """A benchmark run exited non-zero or printed no result line."""


def bench(checkout: str, args, seconds: float) -> tuple[dict, str]:
    """(end-to-end metric values, output digest) of one benchmark run;
    raises RunFailed with its exit code and stderr if it fails."""
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(int(args.trace))],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RunFailed(f"run.py in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, record["output_digest"]


def quartiles(values: list) -> list:
    return (statistics.quantiles(values, n=4, method="inclusive")
            if len(values) > 1 else values * 3)


def summary(values: list) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(pairs: list, direction: str, bound: float) -> str:
    """The verdict (module docstring) on (base, change) value pairs of a
    metric whose better ``direction`` is "lower" or "higher"."""
    sign = 1.0 if direction == "lower" else -1.0  # sign * (base - change) > 0: change better
    base = [b for b, _ in pairs]
    q1, median, q3 = quartiles(base)
    gap = sign * (median - statistics.median([c for _, c in pairs]))
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    if 10 * wins >= 9 * len(pairs) and gap > q3 - q1:
        return "gain"
    scale = abs(median) or 1.0
    if (q3 - q1) / scale > bound and not all(sign * (b - c) > 0 for b in base for _, c in pairs):
        return "unresolved"
    return "worse" if -gap / scale > bound else "within bound"


def digest_line(digests: dict) -> str:
    """Whether the "base" and "change" sets of output digests are one and
    the same digest, naming a side whose own runs gave more than one."""
    mixed = [side for side in ("base", "change") if len(digests[side]) > 1]
    same = not mixed and digests["base"] == digests["change"]
    line = f"output_digest {'identical' if same else 'differs'}"
    return line + "".join(f"; {side} runs gave {len(digests[side])} digests" for side in mixed)


def report(args, runs: dict, digests: dict, better: dict, bounds: dict | None) -> None:
    """The per-metric summary and the digest lines of the completed pairs;
    a verdict per metric only if ``bounds`` are given."""
    print(f"\n{args.workload} seed {args.seed}, {len(runs['base'])} pairs, base {args.base}; "
          "each side: median [first quartile, third quartile]")
    width = max(12, *map(len, better))
    for name, direction in better.items():
        pairs = [(b[name], c[name]) for b, c in zip(runs["base"], runs["change"])]
        ratios = [c / b for b, c in pairs if b]
        wins = sum(c < b if direction == "lower" else c > b for b, c in pairs)
        median = f"{statistics.median(ratios):.3f}" if ratios else "n/a"
        tail = "" if bounds is None else f"  {verdict(pairs, direction, bounds[name])}"
        print(f"{name:{width}s} base {summary([b for b, _ in pairs])}  "
              f"change {summary([c for _, c in pairs])}  median ratio {median}  "
              f"change better in {wins}/{len(pairs)}{tail}")
    for side in ("base", "change"):
        print(f"output_digest {side}: {', '.join(sorted(digests[side]))}")
    print(digest_line(digests))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--trace", action="store_true",
                    help="run traced and summarise the per-layer metrics, with no verdict")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = None if args.trace else {m["name"]: m["bound"] for m in metrics}

    runs = {"base": [], "change": []}
    digests = {"base": set(), "change": set()}
    failure = None
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        extract(args.base, tmp)
        checkouts = {"base": tmp, "change": ROOT}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            try:
                pair = [bench(checkouts[side], args, spec["run_seconds"]) for side in order]
            except RunFailed as exc:
                failure = str(exc)
                break
            for side, (values, digest) in zip(order, pair):
                runs[side].append(values)
                digests[side].add(digest)
            line = f"pair {i + 1} ({order[0]} first)"
            if not args.trace:  # the per-layer list is too long for one line
                line += ": " + "  ".join(
                    f"{name} {runs['base'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}"
                    for name in better)
            print(line, flush=True)

    if runs["base"]:
        report(args, runs, digests, better, bounds)
    if failure is not None:
        sys.exit(failure)
    return 0


if __name__ == "__main__":
    sys.exit(main())
