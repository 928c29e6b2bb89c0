"""Every target the benchmark tracer wraps still exists in the library.

A target that is gone is only reported as missing, and the per-layer
metrics built on it silently drop out of benchmark runs.
"""

from purbbench.tracing import Tracer


def test_every_trace_target_resolves():
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
