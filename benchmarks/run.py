"""Benchmark entry point for mflq.

    python3 benchmarks/run.py --workload {sweep,verify,simulate} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each run is fresh processes only: a few
set-up probes, then one worker (benchmarks/worker.py) that sets up, runs
timed passes of the workload and checks every pass. With ``--trace 0``
the last stdout line carries the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics:

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

The full record (provenance, digests, every count) is written to
``.bench_out/``. This file uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 3        # extra fresh processes timed for setup_s
RUN_LIMIT_S = 170.0     # whole run, set-up probes included


def fail(msg: str) -> int:
    print(f"benchmark error: {msg}", file=sys.stderr)
    return 2


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args, extra, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(versions: dict) -> dict:
    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "mflq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(git("status", "--porcelain")) if in_repo else None,
        "src_sha256": src.hexdigest(),
        **versions, "nproc": nproc(), "cpu_model": cpu,
        "blas_threads": worker_env()["OPENBLAS_NUM_THREADS"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="mflq benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "mflq", "__init__.py")):
        return fail("src/mflq not found; run from a checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    os.makedirs(OUT, exist_ok=True)

    try:
        probes = [run_worker(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = run_worker(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    setups = probes + [res["setup_s"]]
    values = {
        "wall_s": res["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        **res.get("layers", {}),
    }
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    versions = res.pop("versions")
    record = {**res, "setup_samples_s": setups, "metrics": metrics,
              "provenance": provenance(versions)}
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"provenance": record["provenance"],
                      "input_digest": res["input_digest"],
                      "output_digest": res["output_digest"], "record": path}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
