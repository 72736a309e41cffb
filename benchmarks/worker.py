"""One benchmark process: set-up, timed passes, correctness gate.

``run.py`` starts this script in a fresh interpreter; it can also be run
alone from the repository root:

    PYTHONPATH=src:benchmarks python3 benchmarks/worker.py \\
        --workload verify --seed 1 --seconds 30 --trace 0 --out .bench_out

A *pass* is one execution of the workload's user-facing calls. Passes
repeat (closed loop, one client) while the next one is expected to fit in
``--seconds``; at least one always runs. Each pass is checked right after
it, outside the timed region. The last stdout line is a JSON object.
"""

import time

T0 = time.perf_counter()  # set-up is timed from before mflq is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mflq  # noqa: E402
from mflq import cli, presets, riccati, schedules  # noqa: E402

import inputs  # noqa: E402
from tracer import Profile, Tracer  # noqa: E402

# the package attribute ``mflq.value`` is the value function, not the module
value_mod = importlib.import_module("mflq.value")

PRESET_TOL = 1e-8
BELLMAN_TOL = 1e-4
BELLMAN_FRACTIONS = (0.125, 0.375, 0.875)   # away from every knot
VERIFY_PARTICLES = 5000
VERIFY_CHECKS = 7
SIM_PARTICLES = 20000
SIM_STEPS = 1000


class Sweep:
    """build model -> solve_riccati -> gains at t=0 -> value at t=0, for
    each generated model. One operation is one model."""

    def __init__(self, seed: int, workdir: str):
        self.specs = inputs.sweep_specs(seed)
        for i, spec in enumerate(self.specs):  # set-up builds each model once;
            model = inputs.build_spec(spec)[0]  # every pass builds it again
            if spec["kind"] == "random":
                _write_document(mflq.model_to_document(model),
                                os.path.join(workdir, f"model-{i:02d}.json"))
        self.input_digest = inputs.digest(self.specs)
        self.first_pass = None

    def run_once(self):
        out = []
        for spec in self.specs:
            try:
                model, ms0, params = inputs.build_spec(spec)
                sol = riccati.solve_riccati(model)
                gains = value_mod.optimal_feedback(model, sol).gains(0.0)
                v = value_mod.value(sol, 0.0, ms0)
                out.append((model, sol, ms0, params, gains, v))
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                out.append(exc)
        return out

    def check(self, results) -> int:
        failed = 0
        fingerprints = []
        for spec, res in zip(self.specs, results):
            if isinstance(res, Exception):
                print(f"sweep {spec['kind']}: {res!r}", file=sys.stderr)
                failed += 1
                fingerprints.append(None)
                continue
            model, sol, ms0, params, gains, v = res
            lam0 = sol.state(0).Lam
            fp = b"".join(np.ascontiguousarray(a).tobytes()
                          for a in (lam0, *gains, np.array(v)))
            fingerprints.append(fp)
            problem = _sweep_problem(spec, model, sol, ms0, params, gains, v)
            if problem:
                print(f"sweep {spec['kind']}: {problem}", file=sys.stderr)
                failed += 1
        if self.first_pass is None:
            self.first_pass = fingerprints
        else:
            drift = sum(a != b for a, b in zip(fingerprints, self.first_pass))
            if drift:
                print(f"sweep: {drift} results differ from the first pass",
                      file=sys.stderr)
            failed = max(failed, drift)
        return failed

    @property
    def attempts_per_pass(self) -> int:
        return len(self.specs)

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for fp in self.first_pass or ():
            h.update(fp or b"error")
        return h.hexdigest()


def _sweep_problem(spec, model, sol, ms0, params, gains, v):
    if not all(np.isfinite(a).all() for a in (*gains, np.array(v))):
        return "non-finite gains or value"
    lam0 = float(sol.state(0).Lam[0, 0])
    if spec["kind"] == "systemic":
        ref = float(presets.systemic_lambda_reference(params, 0.0))
    elif spec["kind"] == "mean-variance":
        ref = float(presets.mean_variance_closed_form(params, 0.0).Lam[0, 0])
    else:
        worst = max(abs(value_mod.bellman_residual(model, sol, f * model.horizon, ms0))
                    for f in BELLMAN_FRACTIONS)
        return None if worst <= BELLMAN_TOL else f"Bellman residual {worst:.3e}"
    err = abs(lam0 - ref)
    return None if err <= PRESET_TOL else f"Lambda(0) off by {err:.3e}"


class Verify:
    """In-process ``mflq verify --preset systemic-risk``. One operation is
    one check line of the battery."""

    attempts_per_pass = VERIFY_CHECKS

    def __init__(self, seed: int, workdir: str):
        self.seed = inputs.verify_seed(seed)
        presets.build_preset("systemic-risk")
        self.argv = ["verify", "--preset", "systemic-risk", "--seed", str(self.seed),
                     "--particles", str(VERIFY_PARTICLES)]
        self.input_digest = inputs.digest(self.argv)
        self.stdout_digests = []

    def run_once(self):
        return _run_cli(self.argv)

    def check(self, result) -> int:
        code, out, err = result
        self.stdout_digests.append(hashlib.sha256(out.encode()).hexdigest())
        lines = out.splitlines()
        n_pass = sum(line.endswith("  PASS") for line in lines)
        failed = VERIFY_CHECKS - min(n_pass, VERIFY_CHECKS)
        ok = (code == 0 and lines
              and lines[-1] == f"RESULT pass={VERIFY_CHECKS} fail=0")
        if not ok:
            print(f"verify exit {code}:\n{out}{err}", file=sys.stderr)
            failed = max(failed, 1)
        return failed

    def output_digest(self) -> str:
        return self.stdout_digests[0] if self.stdout_digests else ""


class Simulate:
    """In-process ``mflq simulate --config`` on a generated d=3, m=2
    tabulated model. One operation is the command."""

    attempts_per_pass = 1

    def __init__(self, seed: int, workdir: str):
        inp = inputs.simulate_inputs(seed)
        self.config = os.path.join(workdir, "model.json")
        self.csv = os.path.join(workdir, "ensemble.csv")
        _write_document(inp["document"], self.config)
        d = inp["document"]["dims"]["d"]
        self.header = (["t"] + [f"emp_mean_{i}" for i in range(d)]
                       + [f"emp_cov_{i}{j}" for i in range(d) for j in range(d)]
                       + ["running_cost_mean"])
        self.argv = ["simulate", "--config", self.config,
                     "--mean", json.dumps(inp["mean"].tolist()),
                     "--cov", json.dumps(inp["cov"].tolist()),
                     "--particles", str(SIM_PARTICLES), "--steps", str(SIM_STEPS),
                     "--seed", str(inp["sim_seed"]), "--out", self.csv]
        self.input_digest = inputs.digest(inp)
        self.csv_digests = []

    def run_once(self):
        if os.path.exists(self.csv):
            os.remove(self.csv)
        return _run_cli(self.argv)

    def check(self, result) -> int:
        code, out, err = result
        problem = None
        if code != 0:
            problem = f"exit {code}"
        elif "-> PASS" not in out:
            problem = "no PASS line"
        elif not os.path.exists(self.csv):
            problem = "no CSV written"
        else:
            with open(self.csv, "rb") as fh:
                raw = fh.read()
            self.csv_digests.append(hashlib.sha256(raw).hexdigest())
            rows = list(csv.reader(io.StringIO(raw.decode())))
            if rows[0] != self.header:
                problem = f"CSV header {rows[0]}"
            elif len(rows) - 1 != SIM_STEPS + 1:
                problem = f"CSV has {len(rows) - 1} rows, expected {SIM_STEPS + 1}"
        if problem:
            print(f"simulate: {problem}\n{out}{err}", file=sys.stderr)
            return 1
        return 0

    def output_digest(self) -> str:
        return self.csv_digests[0] if self.csv_digests else ""


WORKLOADS = {"sweep": Sweep, "verify": Verify, "simulate": Simulate}


def _write_document(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _run_cli(argv):
    """mflq.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - counted as a failure
        code = f"exception {exc!r}"
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# traced mode

# Numeric helpers called 10^5-10^6 times per pass get a call counter, not a
# span: their time stays in the caller and the trace stays small.
COUNT_ONLY = {"model.sym", "model.clip_psd", "riccati.checked_eigh",
              "riccati.spd_solve"}
# Work each seed-state verify pass must record; a mismatch means a binding
# site was missed (or the program changed how much of it it does).
VERIFY_EXPECTED = {"riccati.solve_riccati": 1, "moments.propagate_moments": 21,
                   "value.bellman_residual": 1000, "particles.simulate": 11,
                   "particles.step_normals": 11000}
MODEL_BUILD = {"model.lq_model", "presets.build_preset",
               "presets.mean_variance_model", "presets.systemic_model"}
MODEL_LOAD = {"model.load_model", "model.validate_model"}


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return "model" if layer == "presets" else layer


def install_tracer(tracer: Tracer) -> None:
    stats = tracer.stats

    def solved(sol, _a, _k):
        stats["riccati.steps"] += sol.n_steps

    def propagated(traj, _a, _k):
        stats["moments.steps"] += traj.grid.size - 1
        stats["moments.clip_count"] += traj.clip_count

    def simulated(_res, args, kwargs):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        stats["particles.particle_steps"] += cfg.n_particles * cfg.n_steps

    tracer.install(
        "mflq", count_only=COUNT_ONLY,
        methods=[(schedules.Schedule, "__call__", "schedules.call", True),
                 (riccati.RiccatiSolution, "at", "riccati.at", False)],
        hooks={"riccati.solve_riccati": solved,
               "moments.propagate_moments": propagated,
               "particles.simulate": simulated,
               "value.optimal_feedback": lambda law, _a, _k: tracer.wrap_law(law)})


def layer_metrics(p: Profile, tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per pass (see benchmarks/README.md)."""
    st, cnt = tracer.stats, tracer.counts

    def per(x):
        return x / passes

    def ratio(num, den):
        return num / den if den else 0.0

    solve_s = per(p.total({"riccati.solve_riccati"}, layer_only=True))
    prop_s = per(p.total({"moments.propagate_moments"}, layer_only=True))
    sim_s = per(p.total({"particles.simulate"}, layer_only=True))
    gain_calls = p.calls("value.gain")
    return {
        "cli.self_s": per(p.layer_self("cli")),
        "cli.csv_write_s": per(p.total({"particles.result_to_csv"})),
        "model.build_s": per(p.total(MODEL_BUILD)),
        "model.load_s": per(p.total(MODEL_LOAD)),
        "model.self_s": per(p.layer_self("model")),
        "schedules.calls": per(cnt["schedules.call"]),
        "riccati.solve_s": solve_s,
        "riccati.solves": per(p.calls("riccati.solve_riccati")),
        "riccati.steps": per(st["riccati.steps"]),
        "riccati.us_per_step": 1e6 * ratio(solve_s, per(st["riccati.steps"])),
        "riccati.at_s": per(p.total({"riccati.at"})),
        "riccati.at_calls": per(p.calls("riccati.at")),
        "riccati.self_s": per(p.layer_self("riccati")),
        "value.gain_s": per(p.total({"value.gain"}, layer_only=True)),
        "value.gain_calls": per(gain_calls),
        "value.gain_distinct_t": per(st["value.gain_distinct_t"]),
        "value.gain_reuse": 1.0 - ratio(st["value.gain_distinct_t"], gain_calls),
        "value.bellman_s": per(p.total({"value.bellman_residual"}, layer_only=True)),
        "value.bellman_calls": per(p.calls("value.bellman_residual")),
        "value.self_s": per(p.layer_self("value")),
        "moments.propagate_s": prop_s,
        "moments.propagate_calls": per(p.calls("moments.propagate_moments")),
        "moments.steps": per(st["moments.steps"]),
        "moments.us_per_step": 1e6 * ratio(prop_s, per(st["moments.steps"])),
        "moments.clip_count": per(st["moments.clip_count"]),
        "moments.self_s": per(p.layer_self("moments")),
        "particles.simulate_s": sim_s,
        "particles.simulate_calls": per(p.calls("particles.simulate")),
        "particles.particle_steps": per(st["particles.particle_steps"]),
        "particles.ns_per_particle_step":
            1e9 * ratio(sim_s, per(st["particles.particle_steps"])),
        "particles.normals_s": per(p.total({"particles.step_normals"})),
        "particles.normals_calls": per(p.calls("particles.step_normals")),
        "particles.gap_s": per(p.total({"particles.optimality_gap"})),
        "particles.self_s": per(p.layer_self("particles")),
    }


def wrapper_costs(n: int = 200_000) -> tuple[float, float]:
    """Seconds added per span and per counted call, measured on a no-op."""
    def noop():
        return None

    probe = Tracer()
    costs = []
    for fn in (noop, probe.span("probe", noop), probe.counter("probe", noop)):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        costs.append((time.perf_counter() - t) / n)
    return max(costs[1] - costs[0], 0.0), max(costs[2] - costs[0], 0.0)


def save_spans(tracer: Tracer, path: str) -> None:
    np.savez_compressed(
        path, names=np.array(tracer.names), name=np.frombuffer(tracer.name, np.int64),
        parent=np.frombuffer(tracer.parent, np.int64),
        start=np.frombuffer(tracer.start), end=np.frombuffer(tracer.end))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for inputs, spans")
    ap.add_argument("--setup-only", action="store_true",
                    help="print the set-up time and exit")
    args = ap.parse_args(argv)
    # generated model documents and the simulate CSV stay here for reruns
    workdir = os.path.join(args.out, f"inputs-{args.workload}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(json.dumps(measure(wl, args, setup_s)))
    return 0


def measure(wl, args, setup_s: float) -> dict:
    tracer = Tracer() if args.trace else None
    walls, cpus = [], []
    attempted = failed = 0
    while True:
        if tracer:
            install_tracer(tracer)
        c0, t0 = time.process_time(), time.perf_counter()
        result = wl.run_once()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if tracer:
            tracer.uninstall()
        attempted += wl.attempts_per_pass
        failed += wl.check(result)
        del result
        if sum(walls) + statistics.median(walls) > args.seconds:
            break
    passes = len(walls)
    out = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "pass_walls_s": walls,
        "attempted": attempted, "failed": failed,
        "setup_s": setup_s, "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "input_digest": wl.input_digest, "output_digest": wl.output_digest(),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "mflq": mflq.__version__},
    }
    if tracer:
        profile = Profile(tracer, layer_of)
        layers = layer_metrics(profile, tracer, passes)
        span_cost, count_cost = wrapper_costs()
        n_spans = len(profile.names)
        n_counted = sum(tracer.counts.values())
        layers["proc.cpu_s"] = out["cpu_s"]
        layers["trace.overhead_s"] = (n_spans * span_cost + n_counted * count_cost) / passes
        layers["trace.spans"] = n_spans / passes
        out["layers"] = layers
        out["span_calls"] = {n: len(ix) for n, ix in profile.by_name.items()}
        out["span_incl_s"] = {n: profile.total({n}) / passes for n in out["span_calls"]}
        out["call_counts"] = dict(tracer.counts)
        if args.workload == "verify":
            want = {k: n * passes for k, n in VERIFY_EXPECTED.items()}
            got = {k: out["span_calls"].get(k, 0) for k in VERIFY_EXPECTED}
            if got != want:
                raise SystemExit(f"traced verify over {passes} pass(es) recorded "
                                 f"{got}, expected {want}: a binding site was "
                                 "missed or the battery's work changed")
        out["spans_file"] = os.path.join(
            args.out, f"spans-{args.workload}-seed{args.seed}.npz")
        save_spans(tracer, out["spans_file"])
    return out


if __name__ == "__main__":
    sys.exit(main())
