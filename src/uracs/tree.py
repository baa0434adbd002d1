"""Outer tree code over GF(2).

A B-bit message is split into L sections; section ``l`` (1-based) carries
``m[l]`` information bits followed by ``l[l]`` parity bits, where the parity
is a random GF(2) linear function of all earlier information sections. The
list decoder walks the per-slot fragment lists and keeps every
parity-consistent partial path. ``interleaved_decode`` runs the same search
slot by slot, between the inner decodes of each slot, and hands every slot
solver the set of column indices whose parity the live paths admit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bits import rows_to_ints

DEFAULT_PATH_CAP = 1 << 16


@dataclass(frozen=True)
class ParityProfile:
    """Per-section information/parity bit lengths (m, l)."""

    m: tuple[int, ...]
    l: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(x) for x in self.m))
        object.__setattr__(self, "l", tuple(int(x) for x in self.l))
        if len(self.m) != len(self.l):
            raise ValueError("m and l must have equal length")
        if len(self.m) == 0:
            raise ValueError("profile needs at least one section")
        if any(x < 0 for x in self.m) or any(x < 0 for x in self.l):
            raise ValueError("section lengths must be nonnegative")
        if self.l[0] != 0:
            raise ValueError("the first section carries no parity (l[0] must be 0)")
        if any(m + l <= 0 for m, l in zip(self.m, self.l)):
            raise ValueError("every section must have m + l > 0")

    @property
    def B(self) -> int:
        return sum(self.m)

    @property
    def L(self) -> int:
        return len(self.m)

    @property
    def v(self) -> tuple[int, ...]:
        """Coded fragment lengths m + l per section."""
        return tuple(m + l for m, l in zip(self.m, self.l))

    def prefix_bits(self, stage: int) -> int:
        """Number of information bits in sections 1..stage-1."""
        return sum(self.m[: stage - 1])


# 75 information bits over 11 sections of 15 coded bits each; parity grows
# toward the tail so late sections can absorb the accumulated path list
DEFAULT_SISO_PROFILE = ParityProfile(
    m=(15, 9, 7, 7, 7, 7, 7, 7, 7, 2, 0),
    l=(0, 6, 8, 8, 8, 8, 8, 8, 8, 13, 15),
)

# 96 information bits over 32 sections of 12 coded bits each
DEFAULT_MIMO_PROFILE = ParityProfile(
    m=(12,) + (3,) * 28 + (0, 0, 0),
    l=(0,) + (9,) * 28 + (12, 12, 12),
)


class TreeCodebook:
    """Seeded GF(2) generator matrices G[j][l] (m_j x l_l) for j < l.

    Equal (profile, seed) pairs reproduce identical parity on both sides of
    the link. Each matrix comes from an independent PRNG stream keyed by
    (seed, j, l).

    All of them live in one read-only B x sum(l) float64 0/1 matrix ``G``
    that maps a message's info bits to the parity bits of every section: the
    column block of section l holds G[1][l], ..., G[l-1][l] stacked by rows,
    with zeros below. Every entry of a product with it sums at most B ones,
    so the float64 (BLAS) products are exact and their parity mod 2 is the
    GF(2) parity.
    """

    def __init__(self, profile: ParityProfile, seed: int):
        self.profile = profile
        self.seed = int(seed)
        # row offsets of each section's info bits, column offsets of its parity
        self._rows = np.cumsum((0,) + profile.m)
        self._cols = np.cumsum((0,) + profile.l)
        self.G = np.zeros((profile.B, self._cols[-1]))
        for ell in range(2, profile.L + 1):
            for j in range(1, ell):
                self.generator(j, ell)[...] = np.random.default_rng((self.seed, j, ell)).integers(
                    0, 2, size=(profile.m[j - 1], profile.l[ell - 1]), dtype=np.uint8)
        self.G.flags.writeable = False

    def generator(self, j: int, ell: int) -> np.ndarray:
        """G[j][ell], as a read-only view of ``G``."""
        return self.G[self._rows[j - 1]:self._rows[j], self._cols[ell - 1]:self._cols[ell]]

    def parity_rows(self, prefixes: np.ndarray, ell: int) -> np.ndarray:
        """Parity bits of section ``ell`` for a batch of info prefixes (rows)."""
        if not 2 <= ell <= self.profile.L:
            raise ValueError(f"stage {ell} out of range [2, {self.profile.L}]")
        prefixes = np.atleast_2d(prefixes)
        want = self._rows[ell - 1]
        if prefixes.shape[1] != want:
            raise ValueError(f"prefix has {prefixes.shape[1]} bits, stage {ell} needs {want}")
        return _mod2(prefixes @ self.G[:want, self._cols[ell - 1]:self._cols[ell]])


def _mod2(product: np.ndarray) -> np.ndarray:
    """Bits mod 2 of an exact float64 product of 0/1 arrays. Its entries are
    integers, and the integer cast is several times faster than float ``%``."""
    return (product.astype(np.int64) & 1).astype(np.uint8)


def encode_messages(W: np.ndarray, codebook: TreeCodebook) -> list[np.ndarray]:
    """Encode a batch of messages (rows of W); returns L arrays of shape (K, v_l)."""
    W = np.atleast_2d(np.asarray(W, dtype=np.uint8))
    prof = codebook.profile
    if W.shape[1] != prof.B:
        raise ValueError(f"messages have {W.shape[1]} bits, profile needs B={prof.B}")
    parity = _mod2(W @ codebook.G)
    rows, cols = codebook._rows, codebook._cols
    return [np.concatenate((W[:, rows[i]:rows[i + 1]], parity[:, cols[i]:cols[i + 1]]), axis=1)
            for i in range(prof.L)]


@dataclass
class DecodeDiagnostics:
    """Per-stage bookkeeping of the path search, plus the per-slot effort
    of a slot-interleaved decode (empty for ``tree_decode``)."""

    live_paths: list[int] = field(default_factory=list)
    capped_roots: int = 0
    cols: list[int] = field(default_factory=list)        # |S_l|, 0 once every path died
    iterations: list[int] = field(default_factory=list)  # inner-solver iterations or sweeps
    # deterministic work model of the slot solver, summed over slots
    work_units: int = 0
    wall_ms: float = 0.0


@dataclass
class DecodeResult:
    messages: list[int]          # radix-2 message values, in root order
    failures: int
    diagnostics: DecodeDiagnostics


class PathTracker:
    """Stage-by-stage path search shared by the batch and the slot-interleaved decoders.

    Paths from all roots advance jointly; per-root books are settled in
    :meth:`finalize`. A root whose live path count exceeds ``path_cap`` is
    abandoned and counted as failed.
    """

    def __init__(self, codebook: TreeCodebook, path_cap: int = DEFAULT_PATH_CAP):
        self.codebook = codebook
        self.path_cap = int(path_cap)
        self.stage = 0
        self.root_count = 0
        self._info = np.zeros((0, 0), dtype=np.uint8)
        self._roots = np.zeros(0, dtype=np.int64)
        # parity integer each live path expects in the next stage's fragment
        self._next = np.zeros(0, dtype=np.int64)
        self._failed: set[int] = set()
        self.diagnostics = DecodeDiagnostics()

    def _enter(self, stage: int, info: np.ndarray, roots: np.ndarray) -> None:
        self.stage = stage
        self._info = info
        self._roots = roots
        self.diagnostics.live_paths.append(int(roots.shape[0]))
        if stage < self.codebook.profile.L:
            self._next = rows_to_ints(self.codebook.parity_rows(info, stage + 1))

    def start(self, root_fragments: np.ndarray) -> None:
        roots = np.atleast_2d(np.asarray(root_fragments, dtype=np.uint8))
        m1 = self.codebook.profile.m[0]
        if roots.shape[0] and roots.shape[1] != m1:
            raise ValueError(f"root fragments must be {m1} bits wide")
        self.root_count = roots.shape[0]
        self._enter(1, roots.reshape(self.root_count, m1),
                    np.arange(self.root_count, dtype=np.int64))

    def live_path_count(self) -> int:
        return self._roots.shape[0]

    def admissible(self) -> np.ndarray:
        """Admissible parity patterns for the next stage, as sorted integers."""
        if self.stage >= self.codebook.profile.L:
            raise ValueError("already at the final stage")
        return np.unique(self._next)

    def advance(self, fragments: np.ndarray) -> None:
        """Extend every live path into the next list, pruning inconsistent branches."""
        ell = self.stage + 1
        prof = self.codebook.profile
        if ell > prof.L:
            raise ValueError("already at the final stage")
        m = prof.m[ell - 1]
        fragments = np.asarray(fragments, dtype=np.uint8).reshape(-1, prof.v[ell - 1])
        # each path continues into the list rows that carry its parity, in row
        # order: one contiguous run of the stably sorted list parities
        parities = rows_to_ints(fragments[:, m:])
        order = np.argsort(parities, kind="stable")
        parities = parities[order]
        lo = np.searchsorted(parities, self._next, side="left")
        counts = np.searchsorted(parities, self._next, side="right") - lo
        rep = np.repeat(np.arange(self._next.shape[0]), counts)
        run_start = np.cumsum(counts) - counts
        frag_rows = order[np.repeat(lo - run_start, counts) + np.arange(rep.shape[0])]
        new_info = np.hstack([self._info[rep], fragments[frag_rows, :m]])
        new_roots = self._roots[rep]
        # worst-case branching is exponential; abandon roots that blow up
        per_root = np.bincount(new_roots, minlength=self.root_count)
        over = np.flatnonzero(per_root > self.path_cap)
        if over.size:
            newly = set(int(r) for r in over) - self._failed
            self._failed.update(newly)
            self.diagnostics.capped_roots += len(newly)
            keep = ~np.isin(new_roots, over)
            new_info = new_info[keep]
            new_roots = new_roots[keep]
        self._enter(ell, new_info, new_roots)

    def finalize(self) -> DecodeResult:
        """Settle per-root books: one surviving message per root, else a failure."""
        if self.stage != self.codebook.profile.L:
            raise ValueError("finalize called before the final stage")
        messages: list[int] = []
        seen: set[int] = set()
        successes = 0
        by_root: dict[int, set[int]] = {}
        for root, msg in zip(self._roots, rows_to_ints(self._info)):
            by_root.setdefault(int(root), set()).add(int(msg))
        for root in range(self.root_count):
            survivors = by_root.get(root)
            # identical-message survivors are unambiguous, count them once
            if survivors is not None and len(survivors) == 1 and root not in self._failed:
                successes += 1
                msg = next(iter(survivors))
                if msg not in seen:
                    seen.add(msg)
                    messages.append(msg)
        return DecodeResult(
            messages=messages,
            failures=self.root_count - successes,
            diagnostics=self.diagnostics,
        )


def tree_decode(lists: list[np.ndarray], codebook: TreeCodebook,
                path_cap: int = DEFAULT_PATH_CAP) -> DecodeResult:
    """List-decode the outer code over L per-slot fragment lists (2-D bit
    arrays): follow every parity-consistent path.

    A root yields a message iff exactly one message survives to the last
    stage; roots with no survivors, distinct survivors, or a capped search
    count as failures.
    """
    prof = codebook.profile
    if len(lists) != prof.L:
        raise ValueError(f"{len(lists)} lists for an L={prof.L} profile")
    for ell, (arr, v) in enumerate(zip(lists, prof.v), start=1):
        if arr.ndim != 2 or arr.shape[1] != v:
            raise ValueError(f"list {ell} fragments must be {v} bits wide")
    tracker = PathTracker(codebook, path_cap=path_cap)
    tracker.start(lists[0])
    for fragments in lists[1:]:
        tracker.advance(fragments)
    return tracker.finalize()


@dataclass(frozen=True)
class AdmissibleIndexSet:
    """Sorted, distinct global fragment indices a slot solver may select."""

    indices: np.ndarray

    @classmethod
    def full(cls, v: int) -> "AdmissibleIndexSet":
        return cls(np.arange(1 << v, dtype=np.int64))

    @classmethod
    def from_patterns(cls, patterns: np.ndarray, m: int, l: int) -> "AdmissibleIndexSet":
        """All indices whose low-order l bits lie in ``patterns``: w*2^l + p."""
        patterns = np.asarray(patterns, dtype=np.int64)
        w = np.arange(1 << m, dtype=np.int64) << l
        return cls(np.sort((w[:, None] + patterns[None, :]).ravel()))

    @property
    def size(self) -> int:
        return int(self.indices.size)


def interleaved_decode(observations: list, matrices: list, codebook: TreeCodebook,
                       mode: str, force_full_patterns: bool, path_cap: int,
                       solve_slot, memo: dict | None = None) -> DecodeResult:
    """Recover messages slot by slot, advancing the tree search after each slot.

    ``solve_slot(observation, matrix, S)`` recovers one slot's fragment list
    from the matrix columns indexed by S and returns (fragment bit rows,
    solver iterations, work units). mode="original" hands every slot the full
    index set; mode="enhanced" restricts slots 2..L to the indices whose
    parity bits the live paths admit. ``force_full_patterns`` keeps the
    enhanced plumbing but substitutes the full set, which must reproduce
    original-mode output exactly. Once every path has died the set is empty
    and the remaining slots are not solved.

    ``memo`` maps (slot, S) to a solved slot: (bits, iterations, work units,
    solve ms). Decodes of the same observations with the same solver may
    share one, so each distinct slot problem is solved once. A reused solve
    is charged in full: its iterations and work units, and its recorded
    solve time on top of ``wall_ms``, so every decode still reports what it
    would cost alone. Forced-full decodes neither read nor write the memo.
    """
    prof = codebook.profile
    if mode not in ("original", "enhanced"):
        raise ValueError("mode must be 'original' or 'enhanced'")
    if len(observations) != prof.L or len(matrices) != prof.L:
        raise ValueError(f"need exactly L={prof.L} observations and matrices")
    for ell, (A, v) in enumerate(zip(matrices, prof.v), start=1):
        if A.v != v:
            raise ValueError(f"slot {ell} matrix fragment width mismatch")
    if force_full_patterns:
        memo = None
    t0 = time.perf_counter()
    reused_ms = 0.0
    tracker = PathTracker(codebook, path_cap=path_cap)
    diag = tracker.diagnostics
    for ell in range(1, prof.L + 1):
        m, l = prof.m[ell - 1], prof.l[ell - 1]
        if ell == 1 or mode == "original" or force_full_patterns:
            S = AdmissibleIndexSet.full(m + l)
        else:
            S = AdmissibleIndexSet.from_patterns(tracker.admissible(), m, l)
        bits, iterations, work = np.zeros((0, m + l), dtype=np.uint8), 0, 0
        if S.size:
            key = (ell, S.indices.tobytes())
            if memo is not None and key in memo:
                bits, iterations, work, solve_ms = memo[key]
                reused_ms += solve_ms
            else:
                t_solve = time.perf_counter()
                bits, iterations, work = solve_slot(observations[ell - 1],
                                                    matrices[ell - 1], S)
                if memo is not None:
                    memo[key] = (bits, iterations, work,
                                 (time.perf_counter() - t_solve) * 1e3)
        if ell == 1:
            tracker.start(bits)
        else:
            tracker.advance(bits)
        diag.cols.append(S.size)
        diag.iterations.append(iterations)
        diag.work_units += work
    result = tracker.finalize()
    diag.wall_ms = (time.perf_counter() - t0) * 1e3 + reused_ms
    return result
