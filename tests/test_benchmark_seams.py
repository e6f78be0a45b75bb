"""The benchmark's trace seams: every name perfbench/tracing.py wraps must
resolve, or the traced run reports its metrics as unmeasured."""

import importlib.util
from pathlib import Path

import velometer.estimator

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    optimize = velometer.estimator.Estimator.optimize
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == {}
        assert velometer.estimator.Estimator.optimize is not optimize
    finally:
        tracer.uninstall()
    assert velometer.estimator.Estimator.optimize is optimize
