import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mflq import cli, model_to_document
from mflq.cli import main

from helpers import random_standard_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- riccati ---------------------------------------------------------------

def test_riccati_smoke(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    code, stdout, _ = run(capsys, "riccati", "--preset", "mean-variance",
                          "--steps", "200", "--out", str(out))
    assert code == 0
    assert "Lambda(0)" in stdout and "chi(0)" in stdout
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 202  # header + K+1 rows


def test_riccati_indefinite_systemic_probe(capsys):
    # eta < q^2: the scalar oracle converges to a finite fixed point here,
    # so the engine must succeed as well
    from mflq import SystemicParams, systemic_lambda_reference
    ref0 = systemic_lambda_reference(
        SystemicParams(kappa=0.5, q=1.0, eta=0.1, c=0.0), 0.0)
    assert np.isfinite(ref0)
    code, stdout, _ = run(capsys, "riccati", "--preset", "systemic-risk",
                          "--param", "q=1.0", "--param", "eta=0.1",
                          "--param", "c=0.0", "--steps", "400")
    assert code == 0


def test_riccati_missing_horizon(tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"dims": {"d": 1, "m": 1}}))
    code, _, stderr = run(capsys, "riccati", "--config", str(cfg))
    assert code == 2
    assert "horizon" in stderr


@pytest.mark.parametrize("text", ['{"dims": {"d": 1, "m": 1}, "horizon": Infinity}',
                                  "null"])
def test_riccati_invalid_document_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "model.json"
    cfg.write_text(text)
    code, _, stderr = run(capsys, "riccati", "--config", str(cfg))
    assert code == 2
    assert stderr.startswith("error:")


def test_unknown_preset_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["riccati", "--preset", "nonsense"])


@pytest.mark.parametrize("argv", [
    ("value", "--preset", "systemic-risk", "--config", "model.json"),
    ("riccati", "--preset", "systemic-risk", "--mean", "[1,2,3]"),
    ("simulate", "--mean", "1.0"),
])
def test_conflicting_or_ignored_options_exit_2(tmp_path, monkeypatch, capsys, argv):
    """--preset and --config exclude each other and one is required;
    riccati takes no initial law. Each is a usage error, not a silent run."""
    doc = {"dims": {"d": 2, "m": 1}, "horizon": 1.0, "cost": {"R2": [[1.0]]}}
    (tmp_path / "model.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_config_model_accepted(tmp_path, capsys):
    doc = {"dims": {"d": 1, "m": 1}, "horizon": 1.0,
           "dynamics": {"B": [[0.1]], "C": [[1.0]], "F": [[0.5]]},
           "cost": {"R2": [[1.0]], "P2": [[1.0]]}}
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "riccati", "--config", str(cfg), "--steps", "100")
    assert code == 0


# --- value ------------------------------------------------------------------

def test_value_mean_variance_defaults(capsys):
    code, stdout, _ = run(capsys, "value", "--preset", "mean-variance",
                          "--t", "0.0", "--mean", "1.0", "--cov", "0.0")
    assert code == 0
    got = float(stdout.strip())
    assert got == pytest.approx(-1.0 - 0.25 * (np.e - 1.0), abs=1e-8)
    assert len(stdout.strip().replace("-", "").replace(".", "")) >= 12


def test_value_terminal_prints_g_hat(capsys):
    code, stdout, _ = run(capsys, "value", "--preset", "mean-variance",
                          "--steps", "100", "--t", "1.0",
                          "--mean", "2.0", "--cov", "3.0")
    assert code == 0
    # g_hat = (eta/2) cov - mean with eta = 2
    assert float(stdout.strip()) == pytest.approx(3.0 - 2.0, abs=1e-12)


def test_value_rejects_indefinite_cov(capsys):
    code, _, stderr = run(capsys, "value", "--preset", "mean-variance",
                          "--t", "0.0", "--mean", "1.0", "--cov", "-0.1")
    assert code == 2
    assert "eigenvalue" in stderr or "covariance" in stderr


@pytest.mark.parametrize("law", [("--mean", "[1, 2]", "--cov", "[[1, 0], [0, 1]]"),
                                 ("--cov", "[[1, 2], [3, 4]]"),
                                 ("--mean", "{}"),
                                 ("--mean", '"2"'),
                                 ("--mean", "[true]", "--cov", "[[false]]"),
                                 ("--mean", "NaN"),
                                 ("--param", "x0=nan"),
                                 ("--cov", "Infinity")])
def test_value_rejects_malformed_law(capsys, law):
    code, _, stderr = run(capsys, "value", "--preset", "mean-variance", *law)
    assert code == 2
    assert stderr.startswith("error:")


@pytest.mark.parametrize("preset, param", [("systemic-risk", "kappa=nan"),
                                           ("mean-variance", "eta=inf"),
                                           ("mean-variance", "rho=-inf")])
def test_non_finite_preset_parameter_exits_2(capsys, preset, param):
    """A non-finite --param is rejected by the preset's parameters, with a
    message that names it and without a numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, stderr = run(capsys, "riccati", "--preset", preset, "--param", param)
    assert code == 2
    name = param.split("=")[0]
    assert stderr == f"error: {name} has a non-finite value\n"


@pytest.mark.parametrize("preset, mean, want", [("systemic-risk", "1e160", None),
                                                ("systemic-risk", "-1e160", None),
                                                ("mean-variance", "1e160", "-1e+160\n")])
def test_value_at_a_huge_mean_is_finite(capsys, preset, mean, want):
    """Gam = 0 on both presets, so the value is finite at any finite mean:
    m~m~' overflows past |mean| 1.3e154, but only against zero coefficients.
    On systemic-risk gam = 0 too, and the value is chi(0) at every mean."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(capsys, "value", "--preset", preset, "--t", "0",
                                   f"--mean={mean}")
        if want is None:
            want = run(capsys, "value", "--preset", preset, "--t", "0", "--mean", "1")[1]
    assert (code, stdout, stderr) == (0, want, "")


@pytest.mark.parametrize("preset, param", [("systemic-risk", "c=6"), ("mean-variance", "eta=6")])
def test_value_that_overflows_exits_2(capsys, preset, param):
    """tr(Lam(T) Cov) = 3 * 8e307 overflows: an error, not an inf or nan on stdout."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(capsys, "value", "--preset", preset, "--param", param,
                                   "--steps", "10", "--cov", "8e307")
    assert (code, stdout) == (2, "")
    assert stderr == "error: the value has a non-finite value\n"


def test_verify_moment_overflow_exits_2_without_warnings(capsys):
    """At x0 = 1e160 the initial moment pair m~m~' overflows and the moment
    flow's first step is not finite: exit 2 with the flow's error line and
    no numpy warning before it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, stderr = run(capsys, "verify", "--preset", "systemic-risk", "--param",
                              "x0=1e160", "--particles", "16", "--steps", "50")
    assert (code, stderr) == (2, "error: non-finite moment state at t=0.02\n")


# case -> (model document or None for the preset, argv, breakdown message,
# its time): a state that overflows (sigma = 1e200) and a U that does first (B = 400)
_OVERFLOWING_SOLVES = {
    "state": (None, ["--preset", "systemic-risk", "--param", "sigma=1e200", "--steps", "50"],
              "non-finite Riccati state at t=0.98", 0.98),
    "U": ({"dims": {"d": 1, "m": 1}, "horizon": 1.0,
           "dynamics": {"B": 400.0, "C": 1.0, "D": 1.0, "F": 1.0},
           "cost": {"R2": 1.0, "P2": 1.0}},
          ["--steps", "200"], "U non-finite at t=0.0025", 0.0025),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING_SOLVES))
def test_riccati_overflow_exits_3_without_warnings(tmp_path, capsys, case):
    """An overflowing solve ends in its breakdown, exit 3, with that one
    line on stderr and no numpy warning before it."""
    doc, argv, message, t = _OVERFLOWING_SOLVES[case]
    if doc is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["--config", str(path), *argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(capsys, "riccati", *argv)
    assert (code, stdout) == (3, "")
    assert stderr == f"riccati breakdown at t={t:g}: {message}\n"


def test_value_rejects_unknown_param(capsys):
    code, _, stderr = run(capsys, "value", "--preset", "systemic-risk", "--param", "foo=1")
    assert code == 2
    assert stderr.startswith("error: unknown parameter 'foo'") and "kappa" in stderr


# --- start-up -----------------------------------------------------------------

_LAZY_SCIPY = """
import json, sys
import mflq
from mflq import cli
lazy = lambda: [m for m in ("scipy.special", "scipy.integrate") if m in sys.modules]
loaded = [lazy()]
for argv in (["riccati", "--preset", "systemic-risk", "--steps", "20"],
             ["value", "--preset", "mean-variance", "--steps", "20"]):
    cli.main(argv)
    loaded.append(lazy())
knots = lambda *vs: mflq.Schedule.tabulated([0.0, 0.5, 1.0], [[[v]] for v in vs])
p = mflq.MeanVarianceParams(r=knots(0.0, 0.1, 0.05), rho=knots(0.5, 0.2, 0.4),
                            vol=knots(0.4, 0.3, 0.9))
mflq.mean_variance_closed_form(p, 0.3)
mflq.mean_variance_optimal_control(p, 0.3, 1.0, 0.5)
mflq.mean_variance_mean_trajectory(p, 0.3)
loaded.append(lazy())
cli.main(["simulate", "--preset", "systemic-risk", "--steps", "20", "--particles", "8"])
print(json.dumps(loaded + [lazy()]))
"""


def test_only_simulations_import_scipy_special():
    """`import mflq`, `riccati`, `value` and the mean-variance closed forms
    on tabulated r, rho and vol load neither scipy.special (ndtri, about
    0.3 s of start-up) nor scipy.integrate; a simulation's first draw
    imports scipy.special. Run in a fresh interpreter, as sys.modules here
    already holds what other tests imported."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *solves, after_simulate = json.loads(proc.stdout.splitlines()[-1])
    assert solves == [[], [], [], []]
    assert after_simulate == ["scipy.special"]


# --- simulate ----------------------------------------------------------------

def test_simulate_reproducible_csv(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("simulate", "--preset", "systemic-risk", "--particles", "400",
            "--steps", "80", "--seed", "7")
    code1, out1, _ = run(capsys, *args, "--out", str(a))
    code2, out2, _ = run(capsys, *args, "--out", str(b))
    assert code1 == 0 and code2 == 0
    assert a.read_bytes() == b.read_bytes()
    assert out1 == out2
    assert "cost_mean" in out1 and "moment_cost" in out1 and "PASS" in out1


def test_simulate_insufficient_particles(capsys):
    code, _, stderr = run(capsys, "simulate", "--preset", "systemic-risk",
                          "--particles", "1", "--steps", "10")
    assert code == 2
    assert "n_particles" in stderr


@pytest.mark.parametrize("thin", ["0", "-3"])
def test_simulate_rejects_thin_below_one(tmp_path, capsys, monkeypatch, thin):
    """--thin is checked before any work: the solve is never reached."""
    def solve_riccati(*_args):
        raise AssertionError("the solve ran before --thin was checked")

    monkeypatch.setattr(cli.riccati, "solve_riccati", solve_riccati)
    code, _, stderr = run(capsys, "simulate", "--preset", "systemic-risk",
                          "--particles", "20", "--steps", "10", "--thin", thin,
                          "--out", str(tmp_path / "f.csv"))
    assert code == 2
    assert stderr.startswith("error:") and "thin" in stderr


@pytest.mark.parametrize("argv,name", [
    pytest.param(("simulate", "--particles", "1", "--steps", "10"), "n_particles",
                 id="simulate"),
    pytest.param(("verify", "--particles", "1", "--steps", "10"), "n_particles",
                 id="verify"),
    pytest.param(("simulate", "--particles", "100", "--seed", "-1"), "seed", id="simulate-seed"),
    pytest.param(("verify", "--particles", "100", "--seed", "-1"), "seed", id="verify-seed"),
    pytest.param(("verify", "--steps", "3"), "n_steps", id="verify-steps-3"),
    pytest.param(("verify", "--steps", "1"), "n_steps", id="verify-steps-1"),
    pytest.param(("value", "--mean", "[1, 2]", "--cov", "[[1, 0], [0, 1]]"),
                 "law has dimension 2, the model has d=1", id="value-law-dimension"),
    pytest.param(("value", "--t", "2"), "t=2.0 outside [0, 1.0]", id="value-t-outside"),
])
def test_particles_checked_before_any_work(capsys, monkeypatch, argv, name):
    """--particles below 2, a negative --seed, for verify --steps below 4
    (the Bellman check needs two grid steps on each side of a time inside
    (0, T)), a law whose dimension is not the model's and a value --t
    outside [0, T] are rejected before the solve runs."""
    def solve_riccati(*_args):
        raise AssertionError(f"the solve ran before {name} was checked")

    monkeypatch.setattr(cli.riccati, "solve_riccati", solve_riccati)
    code, _, stderr = run(capsys, argv[0], "--preset", "systemic-risk", *argv[1:])
    assert code == 2
    assert stderr.startswith("error:") and name in stderr


@pytest.mark.parametrize("argv", [
    ("simulate", "--preset", "systemic-risk", "--particle", "5"),
    ("value", "--preset", "systemic-risk", "--ste", "100"),
    ("riccati", "--pre", "systemic-risk"),
])
def test_abbreviated_flags_rejected(capsys, argv):
    """A prefix of a flag is not the flag: each is a usage error."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_simulate_steps_default_to_the_solver_default(tmp_path, capsys):
    """Without --steps the simulation runs on the solve's grid: T=2 takes
    default_step_count(2) = 2000 steps, so the CSV has 2001 data rows."""
    out = tmp_path / "f.csv"
    code, _, _ = run(capsys, "simulate", "--preset", "mean-variance", "--param", "T=2",
                     "--particles", "50", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 2001


# --- verify -------------------------------------------------------------------

def test_verify_systemic_passes(capsys):
    code, stdout, _ = run(capsys, "verify", "--preset", "systemic-risk",
                          "--particles", "2000", "--steps", "250", "--seed", "1")
    assert "RESULT pass=7 fail=0" in stdout.strip().split("\n")[-1]
    assert code == 0


def test_verify_bellman_passes_generic_d3_model(tmp_path, capsys):
    """A correct d=3, m=2 model failed only the Bellman check at K=1000
    while the residual was a two-point difference; only that line is
    asserted, the Monte Carlo checks are not meaningful at 500 particles."""
    cfg = tmp_path / "model.json"
    model = random_standard_model(np.random.default_rng(4), 3, 2)
    cfg.write_text(json.dumps(model_to_document(model)))
    _, stdout, _ = run(capsys, "verify", "--config", str(cfg), "--mean", "[0.5, -0.2, 0.1]",
                       "--particles", "500")
    bellman = next(l for l in stdout.splitlines() if l.startswith("bellman_residual_max"))
    assert bellman.endswith("PASS")


def test_verify_corrupted_lambda_fails_bellman(capsys):
    code, stdout, _ = run(capsys, "verify", "--preset", "systemic-risk",
                          "--particles", "500", "--steps", "250", "--seed", "1",
                          "--corrupt-lambda", "1.01")
    assert code == 1
    lines = stdout.strip().split("\n")
    bellman = next(l for l in lines if l.startswith("bellman_residual_max"))
    assert "FAIL" in bellman
    assert "RESULT" in lines[-1] and "fail=0" not in lines[-1]


@pytest.mark.parametrize("factor", ["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_corrupt_lambda(capsys, factor):
    """A non-finite Lambda scale is an invalid input, not a breakdown of the
    solve: exit 2 with the factor named, and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(capsys, "verify", "--preset", "systemic-risk",
                                   "--particles", "1000", "--steps", "200", "--seed", "1",
                                   f"--corrupt-lambda={factor}")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and f"got {factor}" in stderr


# --- README -------------------------------------------------------------------

def test_readme_commands_parse():
    """Every `mflq ...` command in README's sh blocks, continuation lines
    joined, parses with the CLI's own parser (nothing is run), so renaming
    a flag or a subcommand cannot leave README stale."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["mflq"]:
                commands.append(words[1:])
    assert {argv[0] for argv in commands} == {"riccati", "value", "simulate", "verify"}
    for argv in commands:
        assert cli.build_parser().parse_args(argv).func.__name__ == f"cmd_{argv[0]}"
