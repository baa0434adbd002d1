"""Experiment orchestration: config parsing, seeded trials, CSV emission.

Seeding: every random object in trial ``t`` comes from a stream keyed by
(master_seed, t, purpose), so original/enhanced comparisons within a trial
are paired and results do not depend on execution order.

Timing: by default the per-decode cost columns come from a deterministic
work model (NNLS iterations x rows x cols for the scalar channel, visited
coordinates x n^2 for MIMO, reported as work/1e6 "ms"), which keeps CSV
output byte-reproducible. Set timing="wall" to report measured wall time.
Both modes of a trial share one memo of slot solves; a mode that reuses a
solve is charged its recorded iterations, work units and wall time, so each
mode's cost is what it would be alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import ccs, channel, mimo, tree
from .bits import random_bits, rows_to_ints, stream_bits
from .ccs import build_complex_sensing_matrix, build_sensing_matrix, decode_siso, user_signals
from .channel import (EBN0_DB_LIMIT, ebn0_to_amplitude, ebn0_to_power,
                      gmac_transmit, mimo_block_transmit)
from .errors import ConfigError, ResourceRefusalError
from .mimo import decode_mimo
from .predictors import predict_table
from .tree import (DEFAULT_MIMO_PROFILE, DEFAULT_PATH_CAP, DEFAULT_SISO_PROFILE,
                   ParityProfile, PathTracker, TreeCodebook, encode_messages,
                   fragment_values)

# purpose tags for per-trial substreams
MESSAGES, CODEBOOK, MATRIX, NOISE, FADING = range(5)
# MIMO noise power; the symbol power follows from Eb/N0, so N0 sets no SNR
N0 = 1.0
DEFAULT_MEMORY_BUDGET = 256 << 20  # bytes

NAMED_PROFILES = {
    "siso-default": DEFAULT_SISO_PROFILE,
    "mimo-96": DEFAULT_MIMO_PROFILE,
}


def derive_seed(master_seed: int, trial: int, purpose: int) -> int:
    """Stable 64-bit seed for one (trial, purpose) substream."""
    ss = np.random.SeedSequence([int(master_seed), int(trial), int(purpose)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def pupe(sent: list[int], decoded: list[int], K: int) -> float:
    """Per-user probability of error: fraction of sent messages missing from
    the decoded list, which is truncated to its first K entries."""
    if K <= 0:
        raise ValueError("K must be positive")
    if len(sent) != K:
        raise ValueError("sent must hold exactly K messages")
    got = set(decoded[:K])
    return sum(1 for w in sent if w not in got) / K


# ----------------------------------------------------------------------------
# configuration


def _int(x) -> int:
    """A JSON integer; booleans and values int() would truncate are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or x % 1:
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _float(x) -> float:
    """A finite JSON number; NaN and the infinities are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {x!r}")
    return float(x)


def _str(x) -> str:
    """A JSON string; other values are refused rather than converted."""
    if not isinstance(x, str):
        raise ValueError(f"expected a string, got {x!r}")
    return x


def _ebn0_db(x, what: str = "Eb/N0") -> float:
    """A finite Eb/N0 in dB within +-EBN0_DB_LIMIT."""
    x = _float(x)
    if abs(x) > EBN0_DB_LIMIT:
        raise ValueError(f"{what} must be within +-{EBN0_DB_LIMIT:g} dB, got {x!r}")
    return x


def _at_least(lo: int):
    """An integer parser refusing values below ``lo``."""
    def parse_bounded(x):
        x = _int(x)
        if x < lo:
            raise ValueError(f"must be at least {lo}, got {x!r}")
        return x
    return parse_bounded


def _one_of(*choices):
    """A parser accepting only the named strings."""
    def parse_choice(x):
        if x not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {x!r}")
        return x
    return parse_choice


def _listed(parse):
    """A parser of one value or a non-empty list of values, giving a tuple."""
    def parse_list(v):
        values = tuple(map(parse, v if isinstance(v, (list, tuple)) else [v]))
        if not values:
            raise ValueError("need at least one value")
        return values
    return parse_list


def _parse_profile(value) -> ParityProfile:
    if isinstance(value, str):
        if value not in NAMED_PROFILES:
            raise ValueError(f"unknown name {value!r}; known: {sorted(NAMED_PROFILES)}")
        return NAMED_PROFILES[value]
    if not isinstance(value, dict) or set(value) != {"m", "l"}:
        raise ValueError("expected a name or an object with keys m, l")
    return ParityProfile(m=tuple(map(_int, value["m"])), l=tuple(map(_int, value["l"])))


_SEARCH_KEYS = {"target_pupe", "lo_db", "hi_db", "resolution_db"}


def _parse_search(value) -> dict:
    if not isinstance(value, dict) or set(value) != _SEARCH_KEYS:
        raise ValueError(f"expected keys {sorted(_SEARCH_KEYS)}")
    search = {k: _ebn0_db(v, k) if k in ("lo_db", "hi_db") else _float(v)
              for k, v in value.items()}
    if not 0.0 < search["target_pupe"] < 1.0:
        raise ValueError("target_pupe must be in (0, 1)")
    if not search["lo_db"] < search["hi_db"]:
        raise ValueError("need lo_db < hi_db")
    if not search["resolution_db"] > 0:
        raise ValueError("resolution_db must be positive")
    return search


_ALL, _CHANNELS = ("siso", "mimo", "predict"), ("siso", "mimo")
_POSITIVE_INT = _at_least(1)


def _key(parse, default=MISSING, scenarios=_ALL, required=False):
    """The field of one config key, holding the key's whole rule: ``parse``
    checks and converts its value, ``scenarios`` accept it, and with
    ``required`` none of them runs without it."""
    return field(default=default, metadata={"parse": parse, "scenarios": scenarios,
                                            "required": required})


@dataclass(frozen=True)
class ExperimentConfig:
    """One field per config key, made by ``_key``. Of the keys a scenario
    requires, the first one missing in field order is reported."""

    scenario: str = _key(_one_of(*_ALL), required=True)
    profile: ParityProfile = _key(_parse_profile, required=True)
    K: tuple[int, ...] = _key(_listed(_POSITIVE_INT), required=True)
    trials: int = _key(_POSITIVE_INT, 1)
    master_seed: int = _key(_at_least(0), 0)
    workers: int = _key(_POSITIVE_INT, 1)
    out: str | None = _key(_str, None)
    n: int = _key(_POSITIVE_INT, 0, _CHANNELS, required=True)
    M: tuple[int, ...] = _key(_listed(_POSITIVE_INT), (), ("mimo",), required=True)
    ebn0_db: tuple[float, ...] = _key(_listed(_ebn0_db), (), _CHANNELS, required=True)
    mode: str = _key(_one_of("original", "enhanced", "both"), "both", _CHANNELS)
    timing: str = _key(_one_of("model", "wall"), "model", _CHANNELS)
    list_size: int | None = _key(_POSITIVE_INT, None, _CHANNELS)
    path_cap: int = _key(_POSITIVE_INT, DEFAULT_PATH_CAP, _CHANNELS)
    memory_budget: int = _key(_POSITIVE_INT, DEFAULT_MEMORY_BUDGET, _CHANNELS)
    ebn0_search: dict | None = _key(_parse_search, None, ("siso",))
    variant: str = _key(_one_of("full", "one_step", "both"), "both", ("predict",))

    @property
    def modes(self) -> tuple[str, ...]:
        return ("original", "enhanced") if self.mode == "both" else (self.mode,)


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a configuration mapping; unknown keys are rejected. Each
    key's own rule is its ``ExperimentConfig`` field; only rules spanning
    keys are here."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    rules = {f.name: f.metadata for f in fields(ExperimentConfig)}

    def parse(key: str, value):
        try:
            return rules[key]["parse"](value)
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"{key}: {e}") from None

    scenario = parse("scenario", data.get("scenario"))
    accepted = [key for key, rule in rules.items() if scenario in rule["scenarios"]]
    unknown = [k for k in data if k not in accepted]
    if unknown:
        raise ConfigError(f"unknown keys for scenario {scenario}: {sorted(unknown)}")
    # a siso ebn0_search replaces ebn0_db
    for key in accepted:
        if (rules[key]["required"] and key not in data
                and not (key == "ebn0_db" and "ebn0_search" in data)):
            raise ConfigError(f"{key}: required")
    cfg = ExperimentConfig(**{key: parse(key, value) for key, value in data.items()})
    # an ebn0_search picks its own Eb/N0 points and its CSV has no cost column
    for key in ("ebn0_db", "timing"):
        if key in data and cfg.ebn0_search is not None:
            raise ConfigError(f"{key}: not used with ebn0_search")
    if scenario == "mimo" and len(cfg.ebn0_db) != 1:
        raise ConfigError("ebn0_db: mimo scenario takes a single value")
    return cfg


def load_config(path: str, **overrides) -> ExperimentConfig:
    """Parse a JSON config file; ``overrides`` replace its keys before parsing."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except ValueError as e:  # not UTF-8, not JSON, or an integer too long to read
        raise ConfigError(f"config is not valid UTF-8 JSON: {e}")
    if isinstance(data, dict):
        data.update(overrides)
    return parse_config(data)


# ----------------------------------------------------------------------------
# trials


@dataclass
class ModeOutcome:
    decoded: list[int]
    pupe: float
    per_slot: list[int]     # |S_l|: columns the slot solver searched
    work_units: int
    wall_ms: float


@dataclass
class TrialResult:
    sent: list[int]
    outcomes: dict[str, ModeOutcome] = field(default_factory=dict)


def _trial_source(profile: ParityProfile, master_seed: int, trial: int):
    """The trial's codebook and the stream its messages are drawn from."""
    return (TreeCodebook(profile, derive_seed(master_seed, trial, CODEBOOK)),
            np.random.default_rng((master_seed, trial, MESSAGES)))


# a sent message as a Python int, with its list slot and the object-array
# copies rows_to_ints makes of a row wider than 63 bits
_SENT_INT_BYTES = 192


def _draw_messages(cfg: ExperimentConfig, K: int, trial: int):
    """The trial's codebook, sent messages (as integers) and coded fragments."""
    codebook, rng = _trial_source(cfg.profile, cfg.master_seed, trial)
    W = random_bits(rng, (K, cfg.profile.B))
    return codebook, [int(x) for x in rows_to_ints(W)], encode_messages(W, codebook)


def _decode_modes(decode, modes, cfg: ExperimentConfig, sent: list[int],
                  observations, matrices, codebook, *args) -> TrialResult:
    """decode(observations, matrices, codebook, list_size, *args, mode=mode,
    ...) for each mode, with list_size = cfg.list_size or K, sharing one
    memo, so each distinct slot problem is solved once per trial."""
    result = TrialResult(sent=sent)
    list_size = cfg.list_size or len(sent)
    memo: dict = {}
    for mode in modes:
        dec = decode(observations, matrices, codebook, list_size, *args, mode=mode,
                     path_cap=cfg.path_cap, memo=memo)
        d = dec.diagnostics
        result.outcomes[mode] = ModeOutcome(
            decoded=dec.messages, pupe=pupe(sent, dec.messages, len(sent)),
            per_slot=d.cols, work_units=d.work_units, wall_ms=d.wall_ms)
    return result


def _check_trial_memory(cfg: ExperimentConfig, K: int, M: int = 0) -> None:
    """Refuse a trial, before it allocates anything, whose working set exceeds
    the budget: the one memory check. ``M`` is a MIMO trial's antenna count,
    0 for a scalar trial. The plan adds up, for the widest section, the
    figures the layers state: ``tree.message_bytes`` (the codebook, its
    cached layout and its build, the K messages and their encoding), the
    sent messages' ints, ``ccs.matrix_bytes``, one slot, and one complex
    ufunc buffer of np.getbufsize() elements for numpy's casts in mixed-type
    calls. A scalar slot is ``ccs.slot_bytes`` (user signals and a solve
    with ``nnls.workspace_bytes``); a MIMO slot is ``mimo.decoder_bytes``
    (the L covariances and a solve) plus the larger of
    ``channel.mimo_block_bytes`` and ``mimo.covariance_bytes``, since a
    block is sent before its covariance is taken. A matrix build comes
    before any slot and holds less beside its matrix (its column norms'
    products), so a slot covers it. A figure sums the arrays its layer can
    hold at once, so the plan bounds a trial's traced peak, and overstates
    it where sets that never coexist are summed (a MIMO block's transmission
    and the slot solve). The path search is not counted, nor the first
    trial's imports (about 0.75 MB). The default budget, 256 MiB, takes
    ``siso-default`` (v = 15) up to n = 483 at every K <= 100."""
    prof, n, v = cfg.profile, cfg.n, max(cfg.profile.v)
    if M:
        dtype, widths = np.complex128, prof.v
        slot = (max(channel.mimo_block_bytes(n, K, M), mimo.covariance_bytes(n, M))
                + mimo.decoder_bytes(n, v, prof.L))
    else:
        dtype, widths = np.float64, set(prof.v)
        slot = ccs.slot_bytes(K, n, v)
    need = (tree.message_bytes(prof, K) + _SENT_INT_BYTES * K
            + ccs.matrix_bytes(n, widths, dtype) + slot
            + np.getbufsize() * np.dtype(np.complex128).itemsize)
    if need > cfg.memory_budget:
        raise ResourceRefusalError(f"sensing matrices and trial arrays need {need} "
                                   f"bytes, budget is {cfg.memory_budget}")


def run_siso_trial(cfg: ExperimentConfig, K: int, ebn0_db: float,
                   trial: int) -> TrialResult:
    """One scalar-channel trial; decodes every mode in cfg.modes on the same
    messages, matrices, and noise."""
    prof = cfg.profile
    _check_trial_memory(cfg, K)
    codebook, sent, frags = _draw_messages(cfg, K, trial)
    mat_seed = derive_seed(cfg.master_seed, trial, MATRIX)
    # one matrix per distinct fragment width, shared by the slots of that width
    by_width = {v: build_sensing_matrix(cfg.n, v, mat_seed) for v in set(prof.v)}
    matrices = [by_width[v] for v in prof.v]

    d = ebn0_to_amplitude(ebn0_db, prof.B, prof.L)
    noise_seed = derive_seed(cfg.master_seed, trial, NOISE)
    y = [gmac_transmit(user_signals(frags[ell - 1], matrices[ell - 1]), d,
                       noise_seed, stream=ell) for ell in range(1, prof.L + 1)]

    return _decode_modes(decode_siso, cfg.modes, cfg, sent, y, matrices, codebook)


def run_mimo_trial(cfg: ExperimentConfig, K: int, M: int,
                   trial: int) -> TrialResult:
    """One MIMO trial; always decodes both modes so the runtime ratio is paired."""
    prof = cfg.profile
    _check_trial_memory(cfg, K, M)
    codebook, sent, frags = _draw_messages(cfg, K, trial)
    P = ebn0_to_power(cfg.ebn0_db[0], prof.B, prof.L, cfg.n, N0)
    radius = float(np.sqrt(cfg.n * P))
    mat_seed = derive_seed(cfg.master_seed, trial, MATRIX)
    matrices = [build_complex_sensing_matrix(cfg.n, prof.v[ell - 1], radius, (mat_seed, ell))
                for ell in range(1, prof.L + 1)]

    fading_seed = derive_seed(cfg.master_seed, trial, FADING)
    noise_seed = derive_seed(cfg.master_seed, trial, NOISE)
    # the decoder sees a block only through its sample covariance, so each
    # block is dropped once its covariance exists (looked up on its module,
    # so that a patched sample_covariance sees every call)
    covs = [mimo.sample_covariance(mimo_block_transmit(
                rows_to_ints(frags[ell - 1]), matrices[ell - 1].columns, M, N0,
                fading_seed, noise_seed, block=ell))
            for ell in range(1, prof.L + 1)]

    return _decode_modes(decode_mimo, ("original", "enhanced"), cfg, sent, covs,
                         matrices, codebook, N0)


def _map_trials(fn, cfg: ExperimentConfig, *args) -> list[TrialResult]:
    """Run fn(cfg, *args, trial) for every trial; merge results by index.

    The pool has at most one process per trial and per CPU, whatever
    ``workers`` asks for: a forking pool starts all its processes at once.
    """
    workers = min(cfg.workers, cfg.trials, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(cfg, *args, t) for t in range(cfg.trials)]
    # imported here: only a pool pays for concurrent.futures.process
    from concurrent.futures import ProcessPoolExecutor
    out: list = [None] * cfg.trials
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, cfg, *args, t): t for t in range(cfg.trials)}
        for fut, t in futures.items():
            out[t] = fut.result()
    return out


# ----------------------------------------------------------------------------
# genie-aided outer-code statistics


def genie_tree_trial(profile: ParityProfile, K: int, master_seed: int, trial: int):
    """Tree search on perfect lists with distinct per-section fragments.

    Returns (live path count per stage, admissible pattern count per stage
    2..L). Messages are redrawn, up to 100 times, until all K fragments
    differ in every section, matching the analytical model's assumptions.
    Each draw is ``random_bits(rng, (K, B))``, read in pairs from the trial's
    fresh PCG64 stream by ``stream_bits``: a draw takes ceil(K * B / 4) uint32
    words from a fresh word, so a pair is ceil(K * B / 4) whole outputs and
    leaves no half word cached; a pair's first passing draw is taken.
    Fragments may have at most 53 bits (see ``tree.fragment_values``).
    """
    codebook, rng = _trial_source(profile, master_seed, trial)
    n, outputs = K * profile.B, -(-K * profile.B // 4)
    for _ in range(50):
        pair = stream_bits(rng.bit_generator.random_raw(outputs)).reshape(2, -1)[:, :n]
        # one column of K fragment indices per section, for each draw
        frags = fragment_values(pair.reshape(2 * K, profile.B), codebook).reshape(2, K, profile.L)
        # every section's fragments are distinct iff no two neighbours in
        # its sorted column of fragment values are equal
        values = np.sort(frags, axis=1)
        distinct = (values[:, 1:] != values[:, :-1]).all(axis=(1, 2))
        if distinct.any():
            frags = frags[distinct.argmax()]
            break
    else:
        raise RuntimeError("could not draw distinct fragments; sections too small")
    # the tracker takes int64 fragment indices: cast every section at once
    sections = frags.T.astype(np.int64, order="C")
    tracker = PathTracker(codebook)
    tracker.start(sections[0])
    patterns = []
    for ell in range(2, profile.L + 1):
        patterns.append(int(tracker.admissible().size))
        tracker.advance(sections[ell - 1])
    return tracker.diagnostics.live_paths, patterns


def genie_path_stats(profile: ParityProfile, K: int, trials: int,
                     master_seed: int = 0) -> dict:
    """Monte Carlo means/standard errors of wrong-path and pattern counts."""
    wrong = np.zeros((trials, profile.L))
    pats = np.zeros((trials, profile.L - 1))
    for t in range(trials):
        live, patterns = genie_tree_trial(profile, K, master_seed, t)
        wrong[t] = (np.asarray(live, dtype=float) - K) / K
        pats[t] = patterns
    return {
        "wrong_mean": wrong.mean(axis=0),
        "wrong_se": wrong.std(axis=0, ddof=1) / np.sqrt(trials),
        "patterns_mean": pats.mean(axis=0),
        "patterns_se": pats.std(axis=0, ddof=1) / np.sqrt(trials),
    }


# ----------------------------------------------------------------------------
# scenario runners


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _costs(cfg: ExperimentConfig, results: list[TrialResult], mode: str) -> list:
    """Per-trial decode cost of ``mode``: wall ms, or work-model units."""
    return [r.outcomes[mode].wall_ms if cfg.timing == "wall"
            else r.outcomes[mode].work_units for r in results]


def _grid(cfg: ExperimentConfig, trial_fn, xs, last_column) -> list[list]:
    """One row per (K, x, mode): mean PUPE and per-slot sizes over the
    trials, then ``last_column(results, mode)``."""
    rows = []
    for K in cfg.K:
        for x in xs:
            results = _map_trials(trial_fn, cfg, K, x)
            for mode in cfg.modes:
                outs = [r.outcomes[mode] for r in results]
                sizes = np.mean([o.per_slot for o in outs], axis=0)
                rows.append([K, x, mode, cfg.trials,
                             float(np.mean([o.pupe for o in outs])),
                             *[float(s) for s in sizes], last_column(results, mode)])
    return rows


def run_siso(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    if cfg.ebn0_search is not None:
        return _run_siso_search(cfg)
    header = (["K", "ebn0_db", "mode", "trials", "pupe"]
              + [f"mean_cols_slot_{ell}" for ell in range(1, cfg.profile.L + 1)]
              + ["mean_decode_ms"])
    scale = 1.0 if cfg.timing == "wall" else 1e6  # work units per model "ms"

    def mean_cost_ms(results, mode):
        return float(np.mean(_costs(cfg, results, mode))) / scale
    return header, _grid(cfg, run_siso_trial, cfg.ebn0_db, mean_cost_ms)


def _run_siso_search(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Bisection for the lowest Eb/N0 reaching the target PUPE (mean over trials)."""
    search = cfg.ebn0_search
    target = search["target_pupe"]
    header = ["K", "mode", "target_pupe", "required_ebn0_db", "trials"]
    rows = []
    for K in cfg.K:
        cache: dict[float, list[TrialResult]] = {}

        def mean_pupe(ebn0: float, mode: str) -> float:
            if ebn0 not in cache:
                cache[ebn0] = _map_trials(run_siso_trial, cfg, K, ebn0)
            return float(np.mean([r.outcomes[mode].pupe for r in cache[ebn0]]))

        for mode in cfg.modes:
            lo, hi = search["lo_db"], search["hi_db"]
            if mean_pupe(lo, mode) <= target:
                required = lo
            elif mean_pupe(hi, mode) > target:
                required = float("nan")  # not attainable within [lo, hi]
            else:
                while hi - lo > search["resolution_db"]:
                    mid = 0.5 * (lo + hi)
                    if mid in (lo, hi):  # lo and hi are adjacent floats
                        break
                    if mean_pupe(mid, mode) <= target:
                        hi = mid
                    else:
                        lo = mid
                required = hi
            rows.append([K, mode, target, required, cfg.trials])
    return header, rows


def run_mimo(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    header = (["K", "M", "mode", "trials", "pupe"]
              + [f"mean_S_{ell}" for ell in range(1, cfg.profile.L + 1)]
              + ["runtime_ratio"])

    def ratio(results, mode):
        tot_o = sum(_costs(cfg, results, "original"))
        return sum(_costs(cfg, results, "enhanced")) / tot_o if tot_o else float("nan")
    return header, _grid(cfg, run_mimo_trial, cfg.M, ratio)


def run_predict(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    header = ["K", "slot", "variant", "E_L", "P", "P_patterns", "R"]
    variants = (cfg.variant,) if cfg.variant != "both" else ("full", "one_step")
    rows = []
    for K in cfg.K:
        for variant in variants:
            rows.extend([rec[h] for h in header]
                        for rec in predict_table(K, cfg.profile, variant))
    return header, rows


RUNNERS = {"siso": run_siso, "mimo": run_mimo, "predict": run_predict}


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be written, before any trial runs."""
    parent = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
        raise ConfigError(f"out: cannot write {path!r}")


def run_experiment(cfg: ExperimentConfig) -> str:
    """Run the configured scenario; returns (and optionally writes) CSV text.
    An unwritable ``out`` is a ConfigError raised before the run."""
    if cfg.out:
        _check_writable(cfg.out)
    header, rows = RUNNERS[cfg.scenario](cfg)
    text = csv_text(header, rows)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
