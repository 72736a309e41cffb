import json

import numpy as np
import pytest

from mflq.cli import main


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


def test_value_rejects_unknown_param(capsys):
    code, _, stderr = run(capsys, "value", "--preset", "systemic-risk", "--param", "foo=1")
    assert code == 2
    assert stderr.startswith("error: unknown parameter 'foo'") and "kappa" in stderr


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


# --- verify -------------------------------------------------------------------

def test_verify_systemic_passes(capsys):
    code, stdout, _ = run(capsys, "verify", "--preset", "systemic-risk",
                          "--particles", "2000", "--steps", "250", "--seed", "1")
    assert "RESULT pass=7 fail=0" in stdout.strip().split("\n")[-1]
    assert code == 0


def test_verify_corrupted_lambda_fails_bellman(capsys):
    code, stdout, _ = run(capsys, "verify", "--preset", "systemic-risk",
                          "--particles", "500", "--steps", "250", "--seed", "1",
                          "--corrupt-lambda", "1.01")
    assert code == 1
    lines = stdout.strip().split("\n")
    bellman = next(l for l in lines if l.startswith("bellman_residual_max"))
    assert "FAIL" in bellman
    assert "RESULT" in lines[-1] and "fail=0" not in lines[-1]
