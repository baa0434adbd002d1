"""Outer tree code over GF(2).

A B-bit message is split into L sections; section ``l`` (1-based) carries
``m[l]`` information bits followed by ``l[l]`` parity bits, where the parity
is a random GF(2) linear function of all earlier information sections. The
list decoder walks the per-slot fragment lists and keeps every
parity-consistent partial path. ``interleaved_decode`` runs the same search
slot by slot, between the inner decodes of each slot, and hands every slot
solver the set of column indices whose parity the live paths admit.

Inside the decoder a fragment is its int64 column index, info bits high and
parity bits low; only this module splits one into info (``>> l``) and parity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bits import ints_to_rows, rows_to_ints

DEFAULT_PATH_CAP = 1 << 16
# widest fragment (m + l coded bits) whose column index fits an int64
MAX_FRAGMENT_BITS = 63


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
        if max(self.v) > MAX_FRAGMENT_BITS:
            raise ValueError(f"sections may have at most {MAX_FRAGMENT_BITS} coded bits "
                             f"(m + l), got {max(self.v)}")

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
    the link. Each matrix comes from an independent PCG64 stream seeded by
    ``SeedSequence`` with the entropy words of the tuple (seed, j, l): the
    seed's 32-bit chunks, low chunk first, then j, then l. Its m_j * l_l
    bits, row by row, are bit 7 of the first m_j * l_l bytes of the stream's
    64-bit outputs read little-endian. That is the top bit of each byte,
    which is what ``default_rng((seed, j, l)).integers(0, 2, (m_j, l_l),
    np.uint8)`` returns, without building a Generator per block.

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
        # SeedSequence's rule; the chunks below would not be its words
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        # row offsets of each section's info bits, column offsets of its parity
        self._rows = np.cumsum((0,) + profile.m)
        self._cols = np.cumsum((0,) + profile.l)
        self.G = np.zeros((profile.B, self._cols[-1]))
        # entropy words of (seed, j, ell); only the last two change per block
        words = np.array([self.seed >> s & 0xFFFFFFFF
                          for s in range(0, max(self.seed.bit_length(), 1), 32)] + [0, 0],
                         dtype=np.uint32)
        for ell in range(2, profile.L + 1):
            for j in range(1, ell):
                bits = profile.m[j - 1] * profile.l[ell - 1]
                if not bits:
                    continue
                words[-2:] = j, ell
                raw = np.random.PCG64(np.random.SeedSequence(words)).random_raw(-(-bits // 8))
                stream = raw.astype("<u8", copy=False).view(np.uint8)[:bits] >> 7
                self.generator(j, ell)[...] = stream.reshape(profile.m[j - 1], profile.l[ell - 1])
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

    @cached_property
    def _fragment_weights(self) -> np.ndarray:
        """(B + sum(l)) x L powers of two that map a message's info bits,
        then its parity bits, to the radix-2 value of each section's fragment."""
        prof = self.profile
        if max(prof.v) > 53:
            raise ValueError("fragment values need fragments of at most 53 bits")
        m, l = np.array(prof.m), np.array(prof.l)
        section = np.concatenate([np.repeat(np.arange(prof.L), m), np.repeat(np.arange(prof.L), l)])
        # bit b weighs 2 ** (the bits after it in its fragment) = 2 ** (ends[b]
        # - 1 - b); an info bit's fragment goes on with its l parity bits
        ends = np.concatenate([np.repeat(self._rows[1:] + l, m),
                               np.repeat(prof.B + self._cols[1:], l)])
        bit = np.arange(section.size)
        weights = np.zeros((section.size, prof.L))
        weights[bit, section] = 2.0 ** (ends - 1 - bit)
        return weights


def _mod2(product: np.ndarray) -> np.ndarray:
    """Bits mod 2 of an exact float64 product of 0/1 arrays. Its entries are
    integers, and the integer cast is several times faster than float ``%``."""
    bits = product.astype(np.int64)
    bits &= 1
    return bits.astype(np.uint8)


def message_bytes(profile: ParityProfile, K: int) -> int:
    """Bytes of a codebook's float64 G and of K messages: their bits, fragments
    and parity (uint8), and beside them while they are encoded their bits as
    float64, the parity product and its int64 copy."""
    B, parity = profile.B, sum(profile.l)
    return 8 * B * parity + K * (9 * B + sum(profile.v) + 17 * parity)


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


def fragment_values(W: np.ndarray, codebook: TreeCodebook) -> np.ndarray:
    """Radix-2 values of the fragments ``encode_messages`` builds from the
    messages W, as a (K, L) float64 array, without building them. Every
    product entry is a sum of distinct powers of two below 2^53, so the
    values are exact; fragments wider than 53 bits raise ValueError."""
    W = np.atleast_2d(np.asarray(W, dtype=np.uint8))
    return np.hstack([W, _mod2(W @ codebook.G)]) @ codebook._fragment_weights


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
    :meth:`finalize`. A root whose live path count would exceed ``path_cap``
    loses its paths in that stage and is counted once in ``capped_roots``.
    """

    def __init__(self, codebook: TreeCodebook, path_cap: int = DEFAULT_PATH_CAP):
        self.codebook = codebook
        self.path_cap = int(path_cap)
        # a dead root has 0 paths, which a negative cap would count again
        if self.path_cap < 0:
            raise ValueError(f"path_cap must be non-negative, got {self.path_cap}")
        self.stage = 0
        self.root_count = 0
        self._info = np.zeros((0, 0), dtype=np.uint8)
        self._roots = np.zeros(0, dtype=np.int64)
        # parity integer each live path expects in the next stage's fragment
        self._next = np.zeros(0, dtype=np.int64)
        self.diagnostics = DecodeDiagnostics()

    def _enter(self, stage: int, info: np.ndarray, roots: np.ndarray) -> None:
        self.stage = stage
        self._info = info
        self._roots = roots
        self.diagnostics.live_paths.append(int(roots.shape[0]))
        if stage < self.codebook.profile.L:
            self._next = rows_to_ints(self.codebook.parity_rows(info, stage + 1))

    def start(self, roots: np.ndarray) -> None:
        """Open one root per section-1 fragment index."""
        roots = np.asarray(roots, dtype=np.int64)
        self.root_count = roots.size
        self._enter(1, ints_to_rows(roots, self.codebook.profile.m[0]),
                    np.arange(self.root_count, dtype=np.int64))

    def live_path_count(self) -> int:
        return self._roots.shape[0]

    def admissible(self) -> np.ndarray:
        """Admissible parity patterns for the next stage, as sorted integers."""
        if self.stage >= self.codebook.profile.L:
            raise ValueError("already at the final stage")
        patterns = np.sort(self._next)
        first = np.ones(patterns.size, dtype=bool)
        np.not_equal(patterns[1:], patterns[:-1], out=first[1:])
        return patterns[first]

    def advance(self, fragments: np.ndarray) -> None:
        """Extend every live path into the next index list, pruning inconsistent branches."""
        ell = self.stage + 1
        prof = self.codebook.profile
        if ell > prof.L:
            raise ValueError("already at the final stage")
        m, l = prof.m[ell - 1], prof.l[ell - 1]
        fragments = np.asarray(fragments, dtype=np.int64)
        # each path continues into the list entries that carry its parity, in
        # list order: one contiguous run of the stably sorted list parities
        parities = fragments & ((1 << l) - 1)
        order = np.argsort(parities, kind="stable")
        parities = parities[order]
        lo = np.searchsorted(parities, self._next, side="left")
        counts = np.searchsorted(parities, self._next, side="right") - lo
        # worst-case branching is exponential; drop the paths of roots that
        # blow up before building them, so a capped root has none from here on
        over = np.bincount(self._roots, weights=counts, minlength=self.root_count) > self.path_cap
        if over.any():
            self.diagnostics.capped_roots += int(np.count_nonzero(over))
            counts[over[self._roots]] = 0
        rep = np.repeat(np.arange(self._next.shape[0]), counts)
        run_start = np.cumsum(counts) - counts
        taken = fragments[order[np.repeat(lo - run_start, counts) + np.arange(rep.shape[0])]]
        self._enter(ell, np.hstack([self._info[rep], ints_to_rows(taken >> l, m)]),
                    self._roots[rep])

    def finalize(self) -> DecodeResult:
        """Settle per-root books: one surviving message per root, else a failure."""
        if self.stage != self.codebook.profile.L:
            raise ValueError("finalize called before the final stage")
        # live paths stay in root order, so the dict keeps roots in order
        by_root: dict[int, set[int]] = {}
        for root, msg in zip(self._roots.tolist(), rows_to_ints(self._info).tolist()):
            by_root.setdefault(root, set()).add(msg)
        # identical-message survivors are unambiguous, count them once
        decoded = [next(iter(msgs)) for msgs in by_root.values() if len(msgs) == 1]
        return DecodeResult(
            messages=list(dict.fromkeys(decoded)),
            failures=self.root_count - len(decoded),
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
    tracker.start(rows_to_ints(lists[0]))
    for fragments in lists[1:]:
        tracker.advance(rows_to_ints(fragments))
    return tracker.finalize()


def admissible_columns(patterns: np.ndarray, m: int, l: int) -> np.ndarray:
    """Sorted column indices w * 2^l + p of a section with m info and l
    parity bits whose parity p lies in ``patterns``. The patterns must be
    sorted, distinct and below 2^l: then each row w * 2^l + patterns lies
    within [w * 2^l, (w + 1) * 2^l), so the row-major sum is ascending."""
    w = np.arange(1 << m, dtype=np.int64) << l
    return (w[:, None] + np.asarray(patterns, dtype=np.int64)).ravel()


def interleaved_decode(observations: list, matrices: list, codebook: TreeCodebook,
                       mode: str, force_full_patterns: bool, path_cap: int,
                       solve_slot, memo: dict | None = None) -> DecodeResult:
    """Recover messages slot by slot, advancing the tree search after each slot.

    ``solve_slot(observation, matrix, S)`` picks one slot's column indices
    from the columns in S, a sorted int64 index array, and returns (indices,
    solver iterations, work units). mode="original" hands every slot the full
    set; mode="enhanced" restricts slots 2..L to the indices whose parity the
    live paths admit. ``force_full_patterns`` keeps the enhanced plumbing but
    admits every parity, which must reproduce original-mode output exactly.
    Once every path has died the set is empty and the remaining slots are not
    solved.

    ``memo`` maps a slot whose set is full to its solve: (indices, iterations,
    work units, solve ms). Decodes of the same observations with the same
    solver may share one, so each full slot is solved once; a pruned set is
    solved once per decode anyway. A reused solve is charged in full: its
    iterations and work units, and its recorded solve time on top of
    ``wall_ms``, so every decode still reports what it would cost alone.
    Forced-full decodes neither read nor write the memo.
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
        if ell == 1 or mode == "original":
            S = np.arange(1 << (m + l), dtype=np.int64)
        else:
            S = admissible_columns(np.arange(1 << l) if force_full_patterns
                                   else tracker.admissible(), m, l)
        found, iterations, work = np.zeros(0, np.int64), 0, 0
        shared = memo is not None and S.size == 1 << (m + l)
        if shared and ell in memo:
            found, iterations, work, solve_ms = memo[ell]
            reused_ms += solve_ms
        elif S.size:
            t_solve = time.perf_counter()
            found, iterations, work = solve_slot(observations[ell - 1],
                                                 matrices[ell - 1], S)
            if shared:
                memo[ell] = (found, iterations, work, (time.perf_counter() - t_solve) * 1e3)
        if ell == 1:
            tracker.start(found)
        else:
            tracker.advance(found)
        diag.cols.append(S.size)
        diag.iterations.append(iterations)
        diag.work_units += work
    result = tracker.finalize()
    diag.wall_ms = (time.perf_counter() - t0) * 1e3 + reused_ms
    return result
