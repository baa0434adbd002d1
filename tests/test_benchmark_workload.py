"""The decoder calls the benchmark's workload (perfbench/workload.py) makes
must keep working.

Its ``decode_timer`` reads each decode's ``mode`` keyword, and its
forced-full re-runs set ``force_full_patterns`` by keyword on the enhanced
decodes. Both wrap ``harness.decode_siso``/``decode_mimo``, so a change to
the decoders' call signature shows here as a failed trial, an unrecorded
mode or a forced-full run that differs from the original decode. Its genie
trials run ``genie_tree_trial`` and the path tracker.
"""

import importlib.util
from pathlib import Path

import pytest

import uracs
import uracs.harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PROFILE = {"m": [3, 2, 2], "l": [0, 2, 2]}
JOBS = {
    "siso": {"scenario": "siso", "profile": PROFILE, "K": 2, "ebn0_db": 10.0, "n": 12},
    "mimo": {"scenario": "mimo", "profile": PROFILE, "K": 2, "M": 32, "ebn0_db": 6.0,
             "n": 8},
}


@pytest.fixture(scope="module")
def workload():
    spec = importlib.util.spec_from_file_location("perfbench_workload",
                                                  PERFBENCH / "workload.py")
    module = importlib.util.module_from_spec(spec)
    # the workload imports perfbench's tracing module by its bare name
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", JOBS)
def test_workload_times_and_rechecks_the_decoders(workload, kind):
    bench = workload.Bench({"kind": kind, "config": JOBS[kind],
                            "equivalence_trials": 2}, uracs)
    with workload.wrapped(uracs.harness, workload.DECODERS, bench.decode_timer):
        records = [bench.trial(t, bench.call) for t in range(2)]
    checked = bench.equivalence(records)
    assert len(checked) == 2
    for rec in records + checked:
        assert "error" not in rec, rec["error"]
        assert rec["problems"] == []
    for rec in records:
        assert [mode for mode, _ in rec["decode_ms"]] == ["original", "enhanced"]


def test_workload_runs_the_genie_trials(workload):
    # the tree-genie workload's trial path: perfect lists into the path tracker
    config = {"scenario": "predict", "profile": {"m": [6, 4, 2], "l": [0, 3, 4]}, "K": 4}
    bench = workload.Bench({"kind": "genie", "config": config,
                            "equivalence_trials": 0}, uracs)
    records = [bench.trial(t, bench.call) for t in range(3)]
    assert bench.equivalence(records) == []
    for rec in records:
        assert "error" not in rec, rec["error"]
        assert rec["problems"] == []
        assert rec["live"][0] == 4
