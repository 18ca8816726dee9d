"""The benchmark's tracer (``benchmarks/tracing.py``) wraps module bindings of
the package by name; a refactor that drops one silently loses its spans."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "tracing.py")


def test_every_wrapped_binding_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing._bindings()[1] == []
