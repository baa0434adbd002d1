"""Spans and counts recorded around calls into the simulator's modules.

Nothing under ``src/`` is edited: each traced name is replaced where its
caller looks it up (a module global such as ``uracs.ccs.nnls_solve``, or a
class attribute such as ``PathTracker.advance``) for as long as the
``Tracer.installed`` context is open. Spans stay in memory until
``write_spans``; the hottest calls (``CovarianceState.coordinate_step``,
``drift``, ``refresh_inverse``) are counted rather than spanned.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import time


@contextlib.contextmanager
def patched(owner, attr: str, wrap):
    """``owner.<attr>`` replaced by ``wrap(original)`` while open."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        # [name, trial, parent span index or -1, start, end, info dict]
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.trial = -1
        self._stack: list[int] = []

    def span(self, name, fn, info=None):
        """``fn`` wrapped to record one span per call; ``info(args, kwargs,
        result)`` adds measured attributes to the span."""
        def traced(*args, **kwargs):
            rec = [name, self.trial, self._stack[-1] if self._stack else -1,
                   time.perf_counter(), 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out
        return traced

    def counted(self, name, fn):
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counting

    @contextlib.contextmanager
    def installed(self, uracs):
        """Wrap every traced name of the ``uracs`` package while open."""
        harness, ccs, mimo, tree = uracs.harness, uracs.ccs, uracs.mimo, uracs.tree

        def matrix_bytes(a, kw, A):
            rows, cols = A.columns.shape
            return {"bytes": rows * cols * A.columns.itemsize}

        def live_paths(a, kw, r):
            tracker = a[0]
            return {"live": tracker.live_path_count(),
                    "capped": tracker.diagnostics.capped_roots}

        spans = [
            (harness, "build_sensing_matrix", "ccs.matrix_build", matrix_bytes),
            (harness, "build_complex_sensing_matrix", "ccs.matrix_build",
             matrix_bytes),
            (harness, "user_signals", "ccs.user_signals", None),
            (harness, "gmac_transmit", "channel.transmit", None),
            (harness, "mimo_block_transmit", "channel.transmit", None),
            (harness, "TreeCodebook", "tree.codebook", None),
            (harness, "encode_messages", "tree.encode", None),
            (harness, "decode_siso", "harness.decode",
             lambda a, kw, r: {"mode": kw["mode"]}),
            (harness, "decode_mimo", "harness.decode",
             lambda a, kw, r: {"mode": kw["mode"]}),
            (ccs, "nnls_solve", "nnls",
             lambda a, kw, r: {"iterations": r.iterations,
                               "converged": bool(r.converged)}),
            (ccs, "prune_columns", "ccs.prune",
             lambda a, kw, r: {"kept": r.cols, "of": a[0].cols}),
            (ccs, "top_k_support", "ccs.top_k", None),
            (mimo, "activity_detect", "mimo.activity_detect",
             lambda a, kw, r: {"updates": r[1].updates,
                               "skipped": r[1].skipped}),
            (mimo, "sample_covariance", "mimo.sample_cov", None),
            (tree.PathTracker, "start", "tree.start", live_paths),
            (tree.PathTracker, "admissible", "tree.admissible", None),
            (tree.PathTracker, "advance", "tree.advance", live_paths),
            (tree.PathTracker, "finalize", "tree.finalize", None),
        ]
        counts = [
            (mimo.CovarianceState, "coordinate_step", "mimo.coordinate_steps"),
            (mimo.CovarianceState, "drift", "mimo.drift_checks"),
            (mimo.CovarianceState, "refresh_inverse", "mimo.refreshes"),
        ]
        with contextlib.ExitStack() as stack:
            for owner, attr, name, info in spans:
                stack.enter_context(patched(
                    owner, attr, functools.partial(self.span, name, info=info)))
            for owner, attr, name in counts:
                stack.enter_context(patched(
                    owner, attr, functools.partial(self.counted, name)))
            yield self

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, trial, parent, start, end, info in self.spans:
                fh.write(json.dumps({"name": name, "trial": trial,
                                     "parent": parent, "start": start,
                                     "end": end, "info": info}) + "\n")


# span name -> layer; a layer's busy time is the summed duration of its spans
LAYERS = {
    "nnls": "nnls",
    "mimo.activity_detect": "mimo", "mimo.sample_cov": "mimo",
    "tree.codebook": "tree", "tree.encode": "tree", "tree.start": "tree",
    "tree.admissible": "tree", "tree.advance": "tree", "tree.finalize": "tree",
    "ccs.matrix_build": "ccs", "ccs.prune": "ccs", "ccs.top_k": "ccs",
    "ccs.user_signals": "ccs",
    "channel.transmit": "channel",
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, trials: int) -> dict:
    """Per-layer metrics from the recorded spans and counts.

    Busy times (ms) and counts are means per traced trial; shares are
    percentages of decode or trial time. A layer that does not run on a
    workload reports 0.
    """
    ms = collections.Counter()        # span name -> summed duration
    calls = collections.Counter()     # span name -> number of spans
    info = collections.defaultdict(list)
    child_ms = collections.Counter()  # span index -> summed child duration
    layer_ms = collections.Counter()
    decode_layer_ms = collections.Counter()
    decode_spans: list[tuple[int, float, str]] = []
    # trackers run one at a time, each from its start() on: (peak live, capped)
    trackers: list[tuple[int, int]] = []
    for i, (name, _, parent, start, end, extra) in enumerate(tracer.spans):
        d = (end - start) * 1e3
        ms[name] += d
        calls[name] += 1
        layer_ms[LAYERS.get(name)] += d
        if parent >= 0:
            child_ms[parent] += d
            if tracer.spans[parent][0] == "harness.decode":
                decode_layer_ms[LAYERS[name]] += d
        if extra is None:  # no info, or the call raised
            continue
        info[name].append(extra)
        if name == "harness.decode":
            decode_spans.append((i, d, extra["mode"]))
        elif name == "tree.start":
            trackers.append((extra["live"], extra["capped"]))
        elif name == "tree.advance":
            peak, _ = trackers[-1]
            trackers[-1] = (max(peak, extra["live"]), extra["capped"])
    decode_ms, decode_self = collections.Counter(), collections.Counter()
    for i, d, mode in decode_spans:
        decode_ms[mode] += d
        decode_self[mode] += d - child_ms[i]

    n = max(trials, 1)
    nnls_iters = sum(x["iterations"] for x in info["nnls"])
    cd_updates = sum(x["updates"] for x in info["mimo.activity_detect"])
    pruned = info["ccs.prune"]
    decode_total = sum(decode_ms.values())
    trial_total = ms["trial"]
    out = {
        "nnls.calls": calls["nnls"] / n,
        "nnls.busy_ms": ms["nnls"] / n,
        "nnls.iterations": nnls_iters / n,
        "nnls.ms_per_iteration": ratio(ms["nnls"], nnls_iters),
        "nnls.unconverged": sum(not x["converged"] for x in info["nnls"]) / n,
        "mimo.activity_detect.busy_ms": ms["mimo.activity_detect"] / n,
        "mimo.coordinate_steps": tracer.counts["mimo.coordinate_steps"] / n,
        "mimo.cd_updates": cd_updates / n,
        "mimo.cd_skipped":
            sum(x["skipped"] for x in info["mimo.activity_detect"]) / n,
        "mimo.drift_checks": tracer.counts["mimo.drift_checks"] / n,
        "mimo.refreshes": tracer.counts["mimo.refreshes"] / n,
        "mimo.drift_checks_per_update":
            ratio(tracer.counts["mimo.drift_checks"], cd_updates),
        "mimo.sample_cov.busy_ms": ms["mimo.sample_cov"] / n,
        "tree.codebook.busy_ms": ms["tree.codebook"] / n,
        "tree.encode.busy_ms": ms["tree.encode"] / n,
        "tree.admissible.calls": calls["tree.admissible"] / n,
        "tree.admissible.busy_ms": ms["tree.admissible"] / n,
        "tree.advance.calls": calls["tree.advance"] / n,
        "tree.advance.busy_ms": ms["tree.advance"] / n,
        "tree.finalize.busy_ms": ms["tree.finalize"] / n,
        "tree.live_paths": ratio(sum(p for p, _ in trackers), len(trackers)),
        "tree.capped_roots": sum(c for _, c in trackers) / n,
        "ccs.matrix_build.busy_ms": ms["ccs.matrix_build"] / n,
        "ccs.matrix_build.bytes":
            sum(x["bytes"] for x in info["ccs.matrix_build"]) / n,
        "ccs.prune.busy_ms": ms["ccs.prune"] / n,
        "ccs.cols_kept_frac": ratio(sum(x["kept"] for x in pruned),
                                    sum(x["of"] for x in pruned)),
        "ccs.top_k.busy_ms": ms["ccs.top_k"] / n,
        "ccs.user_signals.busy_ms": ms["ccs.user_signals"] / n,
        "channel.transmit.busy_ms": ms["channel.transmit"] / n,
        "harness.decode.self_ms.original": decode_self["original"] / n,
        "harness.decode.self_ms.enhanced": decode_self["enhanced"] / n,
    }
    for layer in ("nnls", "mimo", "tree", "ccs"):
        out[f"decode_share.{layer}"] = 100 * ratio(decode_layer_ms[layer],
                                                   decode_total)
    out["decode_share.self"] = 100 * ratio(sum(decode_self.values()),
                                           decode_total)
    for layer in ("nnls", "mimo", "tree", "ccs", "channel"):
        out[f"trial_share.{layer}"] = 100 * ratio(layer_ms[layer], trial_total)
    out["trial_share.decode_self"] = 100 * ratio(sum(decode_self.values()),
                                                 trial_total)
    return out
