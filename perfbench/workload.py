"""Workload process of the decode benchmark; run.py starts it.

Takes one job as a JSON argument. Set-up (imports, config parse and one
warm-up trial that is not timed) ends with a ``ready`` line; a set-up probe
exits there. Otherwise trials run back to back through the public harness
entry points (``run_siso_trial``, ``run_mimo_trial``, ``genie_tree_trial``)
until the job's seconds are up and its quality trials are done. Every
trial's outputs are checked, a few trials are re-run with forced-full
enhanced decoding, and one JSON result line is printed.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent

# The timed window stops starting trials after this many seconds even if its
# quality trials are not all done, so that a run ends within its budget.
HARD_STOP_S = 110.0
# decode entry points, as the harness looks them up
DECODERS = ("decode_siso", "decode_mimo")
# The speed of a shared host's CPU drifts by up to a third within seconds.
# The timed window therefore runs a fixed reference kernel twice, between
# trials, whenever REF_EVERY_S seconds have passed since it last did, and the
# calibrated metrics scale each trial's CPU time by NOMINAL_REF_MS over the
# median of the REF_WINDOW reference samples nearest to it: the two before it
# and the two after it, for a trial longer than REF_EVERY_S. NOMINAL_REF_MS is
# the kernel's median CPU time on the machine the bounds were set on
# (perfbench/README.md).
REF_EVERY_S = 0.25
REF_WINDOW = 4
NOMINAL_REF_MS = 23.0


def import_uracs():
    """The uracs package from this checkout's src/, never an installed one."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import uracs.harness
    if src not in Path(uracs.harness.__file__).resolve().parents:
        raise ImportError(f"uracs imported from {uracs.harness.__file__}, "
                          f"not from {src}")
    return uracs


@contextlib.contextmanager
def wrapped(module, names, wrap):
    """Replace ``module.<name>`` by ``wrap(original)`` for each name while open."""
    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(tracing.patched(module, name, wrap))
        yield


class Reference:
    """A fixed kernel, independent of uracs and of the seed, whose CPU time
    tells how fast the machine runs at the moment it is sampled: an active
    set grown on a fixed 128 x 1024 matrix, that is least-squares solves on
    4, 8, ..., 96 of its columns in a fixed random order, each followed by a
    residual product with the whole matrix. Of the kernels tried, its time
    followed that of every workload's trials most closely
    (perfbench/README.md)."""

    def __init__(self):
        rng = np.random.default_rng(20211201)
        self.A = rng.standard_normal((128, 1024))
        self.y = rng.standard_normal(128)
        self.order = rng.permutation(1024)
        self.times: list[float] = []  # perf_counter at the end of a sample
        self.ms: list[float] = []  # CPU ms of each sample

    def kernel(self) -> float:
        acc = 0.0
        for k in range(4, 97, 4):
            cols = self.A[:, self.order[:k]]
            z = np.linalg.lstsq(cols, self.y, rcond=None)[0]
            acc += float((self.A.T @ (self.y - cols @ z)).max())
        return acc

    @staticmethod
    def scale(ms: float) -> float:
        """Turns a time taken while the kernel took ``ms`` into one at the
        kernel's nominal speed."""
        return NOMINAL_REF_MS / ms

    def sample(self) -> None:
        c0 = time.process_time()
        self.kernel()
        self.ms.append((time.process_time() - c0) * 1e3)
        self.times.append(time.perf_counter())

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()
            self.sample()

    def ms_at(self, when: float) -> float:
        """Median CPU ms of the REF_WINDOW samples nearest to ``when``."""
        i = bisect.bisect(self.times, when)
        lo = max(0, min(i - REF_WINDOW // 2, len(self.ms) - REF_WINDOW))
        return statistics.median(self.ms[lo: lo + REF_WINDOW])


def percentiles(values, qs=(50, 90)) -> list[float]:
    if not values:
        return [0.0 for _ in qs]
    return [float(x) for x in np.percentile(values, qs)]


class Bench:
    def __init__(self, job: dict, uracs):
        self.job = job
        self.uracs = uracs
        self.harness = uracs.harness
        self.kind = job["kind"]
        self.cfg = self.harness.parse_config(job["config"])
        self.decodes: list[tuple[str, float]] = []
        self.reference = Reference()

    # -- trials ------------------------------------------------------------

    def K_of(self, t: int) -> int:
        return self.cfg.K[t % len(self.cfg.K)]

    def call(self, t: int):
        """Trial ``t`` through its harness entry point."""
        h, cfg, K = self.harness, self.cfg, self.K_of(t)
        if self.kind == "siso":
            return h.run_siso_trial(cfg, K, cfg.ebn0_db[0], t)
        if self.kind == "mimo":
            return h.run_mimo_trial(cfg, K, cfg.M[0], t)
        return h.genie_tree_trial(cfg.profile, K, cfg.master_seed, t)

    def decode_timer(self, fn):
        """One timer around each call into decode_siso/decode_mimo."""
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.decodes.append((kwargs["mode"], (time.perf_counter() - t0) * 1e3))
            return out
        return timed

    def trial(self, t: int, entry) -> dict:
        self.decodes = []
        rec = {"t": t, "K": self.K_of(t)}
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = entry(t)
        except self.uracs.ResourceRefusalError as e:
            rec["error"] = f"refused by the memory budget: {e}"
        except Exception as e:  # a failed trial is counted; the run goes on
            rec["error"] = f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        rec["cpu_ms"] = (time.process_time() - c0) * 1e3
        rec["ms"] = (t1 - t0) * 1e3
        rec["mid"] = (t0 + t1) / 2
        if "error" in rec:
            return rec
        rec["decode_ms"] = self.decodes
        if self.kind == "genie":
            live, patterns = out
            rec["live"], rec["patterns"] = list(live), list(patterns)
        else:
            rec["sent"] = out.sent
            rec["outcomes"] = {
                mode: {"decoded": oc.decoded, "pupe": oc.pupe,
                       "per_slot": list(oc.per_slot),
                       "work_units": int(oc.work_units)}
                for mode, oc in out.outcomes.items()}
        rec["problems"] = self.check(rec)
        return rec

    def check(self, rec: dict) -> list[str]:
        """Output checks on one trial; every problem fails the trial."""
        K, problems = rec["K"], []
        if self.kind == "genie":
            live = rec["live"]
            if live[0] != K:
                problems.append(f"stage 1 has {live[0]} live paths, not K={K}")
            if min(live[1:], default=K) < K:
                problems.append(f"a later stage has fewer than K={K} live "
                                f"paths: {live}")
            return problems
        list_size = self.cfg.list_size or K
        B = self.cfg.profile.B
        for mode, oc in rec["outcomes"].items():
            msgs = oc["decoded"]
            if len(msgs) > list_size:
                problems.append(f"{mode}: {len(msgs)} messages exceed list "
                                f"size {list_size}")
            if len(set(msgs)) != len(msgs):
                problems.append(f"{mode}: duplicate messages {msgs}")
            if any(not 0 <= m < 1 << B for m in msgs):
                problems.append(f"{mode}: a message does not fit in {B} bits")
        return problems

    def forced_full(self, fn):
        def forcing(*args, **kwargs):
            if kwargs["mode"] == "enhanced":
                kwargs["force_full_patterns"] = True
            return fn(*args, **kwargs)
        return forcing

    def equivalence(self, records: list[dict]) -> list[dict]:
        """Re-run the first timed trials with forced-full enhanced decoding:
        both modes must return the original messages of the timed run."""
        checked = []
        todo = [r for r in records if "error" not in r]
        for rec in todo[: self.job["equivalence_trials"]]:
            with wrapped(self.harness, DECODERS, self.forced_full):
                redo = self.trial(rec["t"], self.call)
            if "error" not in redo:
                want = rec["outcomes"]["original"]["decoded"]
                for mode, oc in redo["outcomes"].items():
                    if oc["decoded"] != want:
                        redo["problems"].append(
                            f"forced-full trial {rec['t']}: {mode} returned "
                            f"{oc['decoded']}, original returned {want}")
            checked.append(redo)
        return checked

    # -- runs --------------------------------------------------------------

    def warm_up(self) -> None:
        with wrapped(self.harness, DECODERS, self.decode_timer):
            self.call(0)

    def timed_loop(self, step) -> None:
        """``step(t)`` for t = 1, 2, ... until the job's seconds are up and
        its quality trials are done, or HARD_STOP_S is up."""
        t, start = 1, time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S or (
                    t > self.job["quality_trials"]
                    and elapsed >= self.job["seconds"]):
                return
            step(t)
            t += 1

    def run(self) -> dict:
        job = self.job
        records, traced = [], []
        with wrapped(self.harness, DECODERS, self.decode_timer):
            if job["trace"]:
                # each trial runs untraced and traced back to back, in
                # alternating order, so that machine speed drifts and the
                # second run's warmer caches cancel out of the overhead
                tracer = tracing.Tracer()
                traced_call = tracer.span("trial", self.call)

                def run_traced(t):
                    tracer.trial = t
                    with tracer.installed(self.uracs):
                        traced.append(self.trial(t, traced_call))

                def step(t):
                    if t % 2:
                        run_traced(t)
                    records.append(self.trial(t, self.call))
                    if not t % 2:
                        run_traced(t)

                self.timed_loop(step)
                Path(job["spans_path"]).parent.mkdir(exist_ok=True)
                tracer.write_spans(job["spans_path"])
            else:
                def step(t):
                    self.reference.sample_if_due()
                    records.append(self.trial(t, self.call))

                self.timed_loop(step)
                self.reference.sample()
        checked = self.equivalence(records)

        attempted = records + checked + traced
        problems = [f"trial {r['t']}: {r['error']}" for r in attempted
                    if "error" in r]
        problems += [f"trial {r['t']}: {p}" for r in attempted
                     for p in r.get("problems", ())]
        failed = sum(1 for r in attempted if "error" in r or r["problems"])
        if job["trace"]:
            metrics = self.layer_metrics(tracer, records, traced)
        else:
            metrics = self.end_to_end(records)
        metrics["error_rate"] = failed / len(attempted)
        return {
            "correct": failed == 0, "attempted": len(attempted),
            "failed": failed, "trials": len(records),
            "metrics": metrics, "problems": problems[:20],
            "trials_digest": self.digest(records),
            "trial_ms": [r["ms"] for r in records],
            "trial_cpu_ms": [r["cpu_ms"] for r in records],
            "reference_ms": self.reference.ms,
            "environment": environment(),
        }

    # -- metrics -----------------------------------------------------------

    def quality(self, records: list[dict]) -> list[dict]:
        return [r for r in records[: self.job["quality_trials"]]
                if "error" not in r]

    def digest(self, records: list[dict]) -> str:
        """Hash of the quality trials' inputs and outputs; fixed by the seed."""
        keys = ("t", "K", "live", "patterns", "sent", "outcomes")
        body = [{k: r[k] for k in keys if k in r} for r in self.quality(records)]
        return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()

    def end_to_end(self, records: list[dict]) -> dict:
        trial_ms = [r["ms"] for r in records]
        p50, p90 = percentiles(trial_ms)
        ref = self.reference
        cal_ms = [r["cpu_ms"] * ref.scale(ref.ms_at(r["mid"]))
                  for r in records]
        metrics = {
            "trials_per_s": 1e3 * len(records) / sum(trial_ms),
            "trial_ms.p50": p50, "trial_ms.p90": p90,
            "trials_per_s_cal": 1e3 * len(records) / sum(cal_ms),
            "trial_ms_cal.p50": statistics.median(cal_ms),
            "reference_ms.p50": statistics.median(ref.ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if self.kind != "genie":
            quality = self.quality(records)
            for mode in ("original", "enhanced"):
                ms = [d for r in records for m, d in r.get("decode_ms", ())
                      if m == mode]
                p50, p90 = percentiles(ms)
                metrics[f"decode_ms.{mode}.p50"] = p50
                metrics[f"decode_ms.{mode}.p90"] = p90
                metrics[f"pupe.{mode}"] = (
                    sum(r["outcomes"][mode]["pupe"] for r in quality)
                    / max(len(quality), 1))
        return metrics

    def layer_metrics(self, tracer, untraced: list[dict],
                      traced: list[dict]) -> dict:
        ok = [r for r in traced if "error" not in r]
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics.update(self.predictors(ok))
        work = {mode: sum(r["outcomes"][mode]["work_units"] for r in ok)
                if self.kind != "genie" else 0
                for mode in ("original", "enhanced")}
        wall = {mode: sum(d for r in untraced for m, d in r.get("decode_ms", ())
                          if m == mode)
                for mode in ("original", "enhanced")}
        for mode in ("original", "enhanced"):
            metrics[f"harness.work_units.{mode}"] = work[mode] / max(len(ok), 1)
        metrics["harness.work_ratio"] = tracing.ratio(work["enhanced"],
                                                      work["original"])
        metrics["harness.wall_ratio"] = tracing.ratio(wall["enhanced"],
                                                      wall["original"])
        # same trials untraced and traced, so the difference is the tracer's
        untraced_ms = sum(r["ms"] for r in untraced)
        traced_ms = sum(r["ms"] for r in traced)
        metrics["trace.overhead_pct"] = 100 * (traced_ms / untraced_ms - 1)
        metrics["trace.trials"] = len(traced)
        return metrics

    def predictors(self, records: list[dict]) -> dict:
        """Measured admissible patterns and kept-column fractions over the
        closed-form predictions, summed over every slot from 2 on."""
        predictors = self.uracs.predictors
        prof = self.cfg.profile
        sums = [0.0, 0.0, 0.0, 0.0]  # patterns, predicted, kept frac, R
        for rec in records:
            K = rec["K"]
            for ell in range(2, prof.L + 1):
                m, l = prof.m[ell - 1], prof.l[ell - 1]
                if self.kind == "genie":
                    patterns = rec["patterns"][ell - 2]
                else:
                    # each admissible pattern keeps 2^m columns
                    kept = rec["outcomes"]["enhanced"]["per_slot"][ell - 1]
                    patterns = kept / 2 ** m
                sums[0] += patterns
                sums[1] += predictors.expected_admissible_patterns(K, prof, ell)
                sums[2] += patterns / 2 ** l
                sums[3] += predictors.expected_column_reduction_ratio(
                    K, prof, ell)
        return {
            "predictors.patterns_measured_over_predicted":
                tracing.ratio(sums[0], sums[1]),
            "predictors.cols_kept_over_R": tracing.ratio(sums[2], sums[3]),
        }


def blas_info() -> dict:
    """BLAS build and the thread count its pool reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")},
            "threads_reported": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads_reported"] = fn()
                    return info
    except OSError:
        pass
    return info


def environment() -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "load": "closed loop: one caller, one process, trials back to back, "
                "workers=1",
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    uracs = import_uracs()
    bench = Bench(job, uracs)
    bench.warm_up()
    print("ready", flush=True)
    # the machine's speed right after set-up, which calibrates setup_s
    for _ in range(REF_WINDOW):
        bench.reference.sample()
    setup_scale = bench.reference.scale(statistics.median(bench.reference.ms))
    if job["setup_only"]:
        print(json.dumps({"setup_scale": setup_scale}))
        return 0
    print(json.dumps(dict(bench.run(), setup_scale=setup_scale)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
