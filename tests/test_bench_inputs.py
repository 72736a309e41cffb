"""Every model the benchmark generates passes the model document boundary,
so a stricter boundary fails here rather than as failed benchmark
operations."""

import importlib.util
from pathlib import Path

import pytest

from mflq import model_from_document, model_to_document

_spec = importlib.util.spec_from_file_location(
    "bench_inputs", Path(__file__).resolve().parents[1] / "benchmarks" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)


@pytest.mark.parametrize("seed", [11, 12])
def test_benchmark_models_round_trip(seed):
    docs = [model_to_document(inputs.build_spec(spec)[0])
            for spec in inputs.sweep_specs(seed)]
    docs.append(inputs.simulate_inputs(seed)["document"])
    for doc in docs:
        assert model_to_document(model_from_document(doc)) == doc
