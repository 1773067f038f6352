"""The benchmark's tracer still finds every layer boundary it wraps.

`bench/tracer.py` wraps the package's functions from outside and skips a
target that no longer exists, so a refactor that renames or moves a wrapped
method would silently empty a per-layer row of the benchmark. This test
loads the tracer as it is and fails instead.
"""

import importlib.util
import os

import selverify.experiments as experiments

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(BENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_every_layer_it_reports():
    tracer_module = load_tracer()
    run_rep = experiments.run_rep
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer)
        assert tracer.unwrapped == []
        # the stream and score-law methods are wrapped only where a class
        # defines them, so each reported span must have found one
        spans = {span for _, span, _ in tracer_module.TIME_METRICS + tracer_module.LATENCY_METRICS}
        assert spans <= set(tracer.names)
    finally:
        tracer.unpatch()
    assert experiments.run_rep is run_rep
