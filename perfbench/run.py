"""Seeded decode benchmark for the uracs simulator.

    python3 perfbench/run.py --workload siso-desk --seed 1 --seconds 20 --trace 0

Builds the workload's experiment config from ``--seed``, measures set-up
time over several fresh workload processes, then lets one workload process
run paired trials back to back for ``--seconds`` (closed loop: one caller,
one process, ``workers=1``, BLAS pinned to one thread). Prints a report,
then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. The full result, with its
environment block, goes to ``perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_SCRIPT = HERE / "workload.py"

# Set-up is timed in this many fresh workload processes (the measuring one
# included); setup_s is the median of their set-up times, each calibrated by
# the reference kernel the process runs right after it (workload.py).
SETUP_SAMPLES = 5
# Every run must end within this many seconds, set-up and checks included.
RUN_BUDGET_S = 170.0
# Pin the BLAS pool of the workload process to one thread.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

SISO_DESK_PROFILE = {"m": [8, 7, 5, 4], "l": [0, 1, 3, 4]}
MIMO_DESK_PROFILE = {"m": [5, 4, 2, 1], "l": [0, 1, 3, 4]}
SISO_WIDE_PROFILE = {"m": [10, 8, 7, 5], "l": [0, 2, 3, 5]}

# Why each workload is here: BENCHMARK.json and README.md.
# kind: which harness entry point runs a trial. quality_trials: the first
# trials of every run, always completed, over which PUPE and the output
# digest are taken, so that both are fixed for a given seed.
# equivalence_trials: trials re-run after the timed window with forced-full
# enhanced decoding, which must return the original decoder's messages.
WORKLOADS = {
    "siso-desk": {
        "kind": "siso",
        "config": {"scenario": "siso", "profile": SISO_DESK_PROFILE,
                   "K": [2, 4, 8], "ebn0_db": [16.0], "n": 64},
        "quality_trials": 30, "equivalence_trials": 3,
    },
    "mimo-desk": {
        "kind": "mimo",
        "config": {"scenario": "mimo", "profile": MIMO_DESK_PROFILE,
                   "K": [2, 3, 4], "M": [64], "ebn0_db": 0.0, "n": 16},
        "quality_trials": 60, "equivalence_trials": 3,
    },
    "siso-wide": {
        "kind": "siso",
        "config": {"scenario": "siso", "profile": SISO_WIDE_PROFILE,
                   "K": [4], "ebn0_db": [14.0], "n": 128},
        "quality_trials": 6, "equivalence_trials": 2,
    },
    "tree-genie": {
        "kind": "genie",
        "config": {"scenario": "predict", "profile": "siso-default",
                   "K": [100]},
        "quality_trials": 200, "equivalence_trials": 0,
    },
}

# Every metric a --trace 0 run reports: name -> (unit, better).
# BENCHMARK.json gates those that exist, and are never 0, on every workload.
END_TO_END = {
    "trials_per_s": ("1/s", "higher"),
    "trial_ms.p50": ("ms", "lower"),
    "trial_ms.p90": ("ms", "lower"),
    "trials_per_s_cal": ("1/s", "higher"),
    "trial_ms_cal.p50": ("ms", "lower"),
    "reference_ms.p50": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "setup_wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("1", "lower"),
}
DECODE_ONLY = {
    "decode_ms.original.p50": ("ms", "lower"),
    "decode_ms.original.p90": ("ms", "lower"),
    "decode_ms.enhanced.p50": ("ms", "lower"),
    "decode_ms.enhanced.p90": ("ms", "lower"),
    "pupe.original": ("1", "lower"),
    "pupe.enhanced": ("1", "lower"),
}


def make_job(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Everything the workload process needs; the simulator sees only
    ``config``, whose master seed is the benchmark seed."""
    spec = WORKLOADS[workload]
    config = dict(spec["config"], master_seed=int(seed), workers=1)
    return {
        "workload": workload, "kind": spec["kind"], "seed": int(seed),
        "config": config, "seconds": float(seconds), "trace": int(trace),
        "quality_trials": spec["quality_trials"],
        "equivalence_trials": spec["equivalence_trials"],
        "spans_path": str(RESULTS / f"{workload}-seed{seed}-spans.jsonl"),
    }


class WorkloadProcess:
    """One workload process; ``setup_s`` runs from spawn to its ready line."""

    def __init__(self, job: dict, setup_only: bool, deadline: float):
        self.deadline = deadline
        env = dict(os.environ, **BLAS_PIN)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKLOAD_SCRIPT),
             json.dumps(dict(job, setup_only=setup_only))],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env, cwd=str(ROOT))
        # a set-up that outlives the run budget is killed, which ends readline
        watchdog = threading.Timer(max(0.0, deadline - t0), self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            watchdog.cancel()
            if line.strip() != "ready":
                self.fail(f"workload process did not get ready: {line!r}")
        except BaseException:
            watchdog.cancel()
            self.kill()
            raise

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def fail(self, why: str):
        self.kill()
        err = self.proc.stderr.read()
        raise RuntimeError(f"{why}\n{err}")

    def result(self) -> dict:
        """The process's result line, once it has exited; a set-up probe's
        holds only its ``setup_scale``."""
        try:
            out, err = self.proc.communicate(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.fail("workload process ran past the run budget")
        if self.proc.returncode != 0:
            raise RuntimeError(f"workload process exited with "
                               f"{self.proc.returncode}\n{err}")
        lines = out.strip().splitlines()
        if not lines:
            raise RuntimeError(f"workload process printed no result\n{err}")
        return json.loads(lines[-1])


def run_job(job: dict, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Measure set-up in fresh processes, then run the job in one more."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    load_start = os.getloadavg()
    setups, scaled = [], []
    for i in range(setup_samples):
        proc = WorkloadProcess(job, setup_only=i < setup_samples - 1,
                               deadline=deadline)
        res = proc.result()
        setups.append(proc.setup_s)
        scaled.append(proc.setup_s * res["setup_scale"])
    res["environment"].update({
        "load_avg_start": list(load_start), "load_avg_end": list(os.getloadavg()),
        "git_commit": git_commit(), "seed": job["seed"],
        "workload": job["workload"], "platform": platform.platform(),
        "setup_samples_s": setups, "setup_samples_scaled_s": scaled,
    })
    if not job["trace"]:
        res["metrics"]["setup_s"] = statistics.median(scaled)
        res["metrics"]["setup_wall_s"] = statistics.median(setups)
    return res


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metric_units(trace: int, kind: str) -> dict:
    """Name -> (unit, better) of every metric a run reports."""
    if trace:
        return dict(load_benchmark_spec()["per_layer"])
    if kind == "genie":
        return dict(END_TO_END)
    return {**END_TO_END, **DECODE_ONLY}


def load_benchmark_spec() -> dict:
    """BENCHMARK.json's metric lists as name -> (unit, better)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def summary_line(res: dict, trace: int) -> dict:
    """The last stdout line: exactly the metrics BENCHMARK.json lists."""
    names = load_benchmark_spec()["per_layer" if trace else "end_to_end"]
    return {
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, (unit, _) in names.items()},
    }


def report(res: dict, trace: int, kind: str) -> list[str]:
    env = res["environment"]
    lines = [f"workload {env['workload']}  seed {env['seed']}  "
             f"trace {trace}  trials {res['trials']}  "
             f"attempted {res['attempted']}  failed {res['failed']}",
             "environment " + json.dumps(env, sort_keys=True)]
    for name, (unit, better) in metric_units(trace, kind).items():
        lines.append(f"  {name:<48} {res['metrics'][name]:>14.6g} "
                     f"{unit:<6} ({better} is better)")
    lines.extend(f"  check failed: {p}" for p in res["problems"])
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "uracs").is_dir():
        print(f"uracs sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    job = make_job(args.workload, args.seed, args.seconds, args.trace)
    try:
        res = run_job(job)
    except (RuntimeError, ValueError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    print("\n".join(report(res, args.trace, job["kind"])))
    print(json.dumps(summary_line(res, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
