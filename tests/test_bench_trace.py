"""The traced benchmark's binding sites see one ``verify`` pass's work: a
small run records the span counts ``benchmarks/worker.py`` pins in
``VERIFY_EXPECTED``, which a traced ``verify`` benchmark run enforces."""

from collections import Counter
from pathlib import Path

from mflq import cli

BENCH = str(Path(__file__).resolve().parents[1] / "benchmarks")


def test_traced_verify_records_the_pinned_calls(monkeypatch, capsys):
    monkeypatch.syspath_prepend(BENCH)
    import worker
    from tracer import Tracer

    tracer = Tracer()
    worker.install_tracer(tracer)
    try:
        cli.main(["verify", "--preset", "systemic-risk", "--seed", "3", "--particles", "16"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = Counter(tracer.names[i] for i in tracer.name)
    assert {name: spans[name] for name in worker.VERIFY_EXPECTED} == worker.VERIFY_EXPECTED
