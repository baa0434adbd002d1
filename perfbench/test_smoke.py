"""Smoke test of the decode benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workload  # noqa: E402

# config overrides that keep every workload kind to a fraction of a second
TINY = {
    "siso-desk": {"profile": {"m": [4, 3, 2], "l": [0, 2, 3]}, "n": 16,
                  "K": [2, 3]},
    "siso-wide": {"profile": {"m": [5, 3, 2], "l": [0, 2, 3]}, "n": 24,
                  "K": [3]},
    "mimo-desk": {"profile": {"m": [3, 2, 1], "l": [0, 2, 3]}, "n": 8,
                  "M": [8], "K": [2]},
    "tree-genie": {"profile": {"m": [6, 4, 2], "l": [0, 3, 4]}, "K": [4]},
}


def tiny_job(name: str, seed: int, trace: int, tmp_path: Path) -> dict:
    job = run.make_job(name, seed, seconds=0.05, trace=trace)
    job["config"].update(TINY[name])
    job["quality_trials"] = 4
    job["equivalence_trials"] = min(job["equivalence_trials"], 1)
    job["spans_path"] = str(tmp_path / f"{name}-spans.jsonl")
    return job


def in_process(job: dict) -> dict:
    bench = workload.Bench(job, workload.import_uracs())
    bench.warm_up()
    return bench.run()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    job = tiny_job(name, 3, trace, tmp_path)
    res = run.run_job(job, setup_samples=2)
    assert res["correct"] and res["failed"] == 0, res["problems"]
    line = run.summary_line(res, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    spec = run.load_benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {k: unit for k, (unit, _) in spec.items()}
    report = "\n".join(run.report(res, trace, job["kind"]))
    for metric, (unit, _) in run.metric_units(trace, job["kind"]).items():
        assert any(row.split()[:1] == [metric] and unit in row.split()
                   for row in report.splitlines()), metric
    env = res["environment"]
    for key in ("python", "numpy", "blas", "nproc", "load_avg_start",
                "load_avg_end", "git_commit", "seed"):
        assert key in env
    assert env["blas"]["threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert Path(job["spans_path"]).stat().st_size > 0


def test_seed_changes_the_inputs(tmp_path):
    first = in_process(tiny_job("siso-desk", 1, 0, tmp_path))
    again = in_process(tiny_job("siso-desk", 1, 0, tmp_path))
    other = in_process(tiny_job("siso-desk", 2, 0, tmp_path))
    assert first["trials_digest"] == again["trials_digest"]
    assert first["trials_digest"] != other["trials_digest"]


def test_planted_wrong_decode_output_raises_error_rate(tmp_path, monkeypatch):
    uracs = workload.import_uracs()
    real = uracs.harness.decode_siso

    def duplicating(*args, **kwargs):
        res = real(*args, **kwargs)
        res.messages = res.messages + res.messages[:1] if res.messages else [0, 0]
        return res

    monkeypatch.setattr(uracs.harness, "decode_siso", duplicating)
    res = in_process(tiny_job("siso-desk", 1, 0, tmp_path))
    assert not res["correct"]
    assert res["failed"] == res["attempted"]
    assert res["metrics"]["error_rate"] == 1.0
    assert any("duplicate" in p for p in res["problems"])


def test_command_line_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tree-genie",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == list(run.load_benchmark_spec()["end_to_end"])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "siso-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name, (unit, better) in run.load_benchmark_spec()["end_to_end"].items():
        assert run.END_TO_END[name] == (unit, better), name


def test_reference_calibrates_by_the_samples_around_a_trial():
    ref = workload.Reference()
    ref.times = [1.0, 1.1, 3.0, 3.1, 5.0, 5.1]
    ref.ms = [10.0, 10.0, 20.0, 20.0, 40.0, 40.0]
    assert ref.ms_at(2.0) == 15.0  # the two samples before, the two after
    assert ref.ms_at(4.0) == 30.0
    assert ref.ms_at(0.5) == 15.0  # the first four
    assert ref.ms_at(6.0) == 30.0  # the last four
    # a trial timed while the kernel ran at half its nominal time took twice
    # as long at the nominal speed
    assert ref.scale(workload.NOMINAL_REF_MS / 2) == 2.0
