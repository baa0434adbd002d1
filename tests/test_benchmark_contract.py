"""The names the traced benchmark (perfbench/) patches must keep resolving.

perfbench's own smoke test sits outside the tier-1 test paths; this test
makes a deleted or renamed traced name fail tier-1 too. Entering
``Tracer.installed`` looks up every traced module global and class method
and restores them on exit. Tiny traced trials then check that the spans
that carry information still get it from the calls they wrap.
"""

import collections
import importlib.util
from pathlib import Path

import pytest

import uracs.harness
from uracs.harness import genie_tree_trial, parse_config, run_mimo_trial, run_siso_trial
from uracs.tree import ParityProfile

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PROFILE = {"m": [3, 2, 2], "l": [0, 2, 2]}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(tracing, run):
    """run()'s result and its spans' info records, by span name."""
    tracer = tracing.Tracer()
    with tracer.installed(uracs):
        out = run()
    spans = collections.defaultdict(list)
    for name, _, _, _, _, info in tracer.spans:
        spans[name].append(info)
    return out, spans


def test_tracer_installs_on_the_package(tracing):
    before = uracs.harness.decode_siso
    with tracing.Tracer().installed(uracs):
        assert uracs.harness.decode_siso is not before
    assert uracs.harness.decode_siso is before
    # the benchmark's workload catches this name on the package itself
    assert uracs.ResourceRefusalError is uracs.errors.ResourceRefusalError


def test_traced_trials_record_their_spans(tracing):
    siso = parse_config({"scenario": "siso", "profile": PROFILE, "K": 2,
                         "ebn0_db": 10.0, "n": 12})
    r, spans = traced(tracing, lambda: run_siso_trial(siso, 2, 10.0, 0))
    solves = sum(len(o.per_slot) for o in r.outcomes.values())
    assert len(spans["ccs.prune"]) == len(spans["nnls"]) == len(spans["ccs.top_k"])
    assert 0 < len(spans["nnls"]) <= solves
    assert all(0 < p["kept"] <= p["of"] for p in spans["ccs.prune"])
    assert any(p["kept"] < p["of"] for p in spans["ccs.prune"])
    assert all(s["iterations"] >= 1 for s in spans["nnls"])
    # one tracker per decode, advanced once per later slot
    assert len(spans["tree.start"]) == 2
    assert len(spans["tree.advance"]) == 2 * (len(PROFILE["m"]) - 1)
    assert all(isinstance(s["live"], int) for s in spans["tree.advance"])

    mimo = parse_config({"scenario": "mimo", "profile": PROFILE, "K": 2, "M": 32,
                         "ebn0_db": 6.0, "n": 8})
    _, spans = traced(tracing, lambda: run_mimo_trial(mimo, 2, 32, 0))
    assert spans["mimo.activity_detect"]
    assert sum(s["updates"] for s in spans["mimo.activity_detect"]) > 0
    assert len(spans["tree.advance"]) == 2 * (len(PROFILE["m"]) - 1)

    profile = ParityProfile(m=(6, 4, 2), l=(0, 3, 4))
    (live, _), spans = traced(tracing, lambda: genie_tree_trial(profile, 4, 0, 0))
    assert [s["live"] for s in spans["tree.start"] + spans["tree.advance"]] == live
    # one admissible set per stage 2..L
    assert len(spans["tree.admissible"]) == profile.L - 1
