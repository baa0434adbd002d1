"""The names the traced benchmark (perfbench/) patches must keep resolving.

perfbench's own smoke test sits outside the tier-1 test paths; this test
makes a deleted or renamed traced name fail tier-1 too. Entering
``Tracer.installed`` looks up every traced module global and class method
and restores them on exit.
"""

import importlib.util
from pathlib import Path

import uracs.harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = uracs.harness.decode_siso
    with tracing.Tracer().installed(uracs):
        assert uracs.harness.decode_siso is not before
    assert uracs.harness.decode_siso is before
    # the benchmark's workload catches this name on the package itself
    assert uracs.ResourceRefusalError is uracs.errors.ResourceRefusalError
