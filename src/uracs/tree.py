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
from functools import cached_property, lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bits import ints_to_rows, rows_to_ints, stream_bits

DEFAULT_PATH_CAP = 1 << 16
# widest fragment (m + l coded bits) whose column index fits an int64
MAX_FRAGMENT_BITS = 63
# the path search counts a stage's parity values in a table of all 2^l of
# them when that table has at most this many slots per path or list entry
# it serves; a wider stage sorts and searches instead
_TABLE_SLOTS_PER_ITEM = 4


def _table_fits(l: int, items: int) -> bool:
    return 1 << l <= _TABLE_SLOTS_PER_ITEM * items


@dataclass(frozen=True)
class ParityProfile:
    """Per-section information/parity bit lengths (m, l). Refused: a section
    over 63 coded bits, the width of an int64 column index, and B >= 2^24,
    where float32 parity products stop being exact (``TreeCodebook``)."""

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
        if self.B >= 1 << 24:
            raise ValueError(f"messages may have fewer than 2^24 information bits, where "
                             f"float32 parity products are exact, got B={self.B}")

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


# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of 4 uint32
# words, its hash and mix constants and its 16-bit xorshift. Array products
# wrap mod 2^32 without a warning; constants are 0-d arrays so that numpy
# converts no Python int per call.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = (np.array(c, np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))
_MASK32 = (1 << 32) - 1


@lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, calls: int) -> tuple:
    """Read-only columns (xor, mul) for a pass of ``calls`` hash calls, whatever it
    hashes: call t xors with init * mult^t and multiplies by init * mult^(t + 1), mod 2^32."""
    c = np.array([init * pow(mult, t, 1 << 32) & _MASK32 for t in range(calls + 1)], np.uint32)
    c.flags.writeable = False
    return c[:-1, None], c[1:, None]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` by the calls of one row each."""
    value = (value ^ xor) * mul
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    out ^= out >> _XSHIFT
    return out


def _seed_sequence_states(seed: int, block_words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for every
    column of ``block_words``, as one C-contiguous row of 4 uint64 words per
    column. The entropy is the seed's 32-bit chunks, low first, then the
    column's words."""
    chunks = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words = len(chunks) + block_words.shape[0]
    # entropy shorter than the pool is padded with zeros
    entropy = np.zeros((max(words, 4), block_words.shape[1]), np.uint32)
    entropy[:len(chunks)] = np.array(chunks, np.uint32)[:, None]
    entropy[len(chunks):words] = block_words
    # mix_entropy's calls in numpy's order: 4 hash the pool, 3 per pool word
    # mix it into the other three, 4 per further entropy word mix it into all
    xor, mul = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy))
    pool = _hashmix(entropy[:4], xor[:4], mul[:4])
    for src in range(4):
        dst, t = np.arange(4) != src, 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[t:t + 3], mul[t:t + 3]))
    for i in range(4, words):
        pool = _mix(pool, _hashmix(entropy[i], xor[4 * i:4 * i + 4], mul[4 * i:4 * i + 4]))
    # generate_state's 8 calls on the pool cycled to 8 words, paired little-endian
    state = _hashmix(np.concatenate((pool, pool)), *_hash_constants(_INIT_B, _MULT_B, 8))
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)


def _blocks(profile: ParityProfile) -> list[tuple[int, int, int, int]]:
    """(j, ell, bits, outputs) of each generator block G[j][ell] with bits,
    ell first: its bits come from ceil(bits / 8) PCG64 outputs."""
    return [(j, ell, bits, -(-bits // 8))
            for ell in range(2, profile.L + 1) for j in range(1, ell)
            if (bits := profile.m[j - 1] * profile.l[ell - 1])]


class _Words(ISeedSequence):
    """A block's SeedSequence words. PCG64 reads their buffer: one contiguous row."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class _Layout:
    """What a profile's codebook build needs and its seed does not change."""

    def __init__(self, profile: ParityProfile):
        # row offsets of each section's info bits, column offsets of its parity
        self.rows = np.cumsum((0,) + profile.m)
        self.cols = np.cumsum((0,) + profile.l)
        self.shape = (profile.B, int(self.cols[-1]))
        self.widest = max(profile.v)
        # product entries, counts of at most B ones, cast exactly to it (uint8 below 256)
        self.counts_dtype = np.min_scalar_type(profile.B)
        j, ell, bits, outputs = np.array(_blocks(profile), dtype=np.int64).reshape(-1, 4).T
        # the blocks' own entropy words, after the seed's, and output counts
        self.words = np.stack([j, ell]).astype(np.uint32)
        self.counts = tuple(outputs.tolist())
        first = np.cumsum(outputs) - outputs
        # bit t of a block is bit t of its outputs' ``stream_bits``, and sits
        # in row t // l_ell, column t % l_ell of it
        t = np.arange(bits.sum()) - np.repeat(np.cumsum(bits) - bits, bits)
        self.keep = np.zeros(8 * int(outputs.sum()), dtype=bool)
        self.keep[8 * np.repeat(first, bits) + t] = True
        width = np.repeat(np.array(profile.l)[ell - 1], bits)
        self.dest = ((np.repeat(self.rows[j - 1], bits) + t // width) * self.shape[1]
                     + np.repeat(self.cols[ell - 1], bits) + t % width)
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    def outputs(self, seed: int) -> np.ndarray:
        """Every block's PCG64 outputs under ``seed``, block after block."""
        return np.concatenate([np.zeros(0, np.uint64)] + [
            np.random.PCG64(_Words(words)).random_raw(count)
            for words, count in zip(_seed_sequence_states(seed, self.words), self.counts)])

    @cached_property
    def fragment_weights(self) -> np.ndarray:
        """(B + sum(l)) x L powers of two that map a message's info bits,
        then its parity bits, to the radix-2 value of each section's fragment:
        float32, exact, while every fragment has at most 24 bits, else float64."""
        if self.widest > 53:
            raise ValueError("fragment values need fragments of at most 53 bits")
        B, rows, cols = self.shape[0], self.rows, self.cols
        weights = np.zeros((B + self.shape[1], rows.size - 1),
                           np.float32 if self.widest <= 24 else np.float64)
        for s in range(rows.size - 1):
            bits = np.r_[rows[s]:rows[s + 1], B + cols[s]:B + cols[s + 1]]
            weights[bits, s] = 2.0 ** np.arange(bits.size - 1, -1, -1)
        weights.flags.writeable = False
        return weights


@lru_cache(maxsize=16)
def _layout(profile: ParityProfile) -> _Layout:
    return _Layout(profile)


class TreeCodebook:
    """Seeded GF(2) generator matrices G[j][l] (m_j x l_l) for j < l.

    Equal (profile, seed) pairs reproduce identical parity on both sides of
    the link; a negative seed is refused, as SeedSequence refuses one. Each
    matrix comes from an independent PCG64 stream seeded by
    ``SeedSequence`` with the entropy words of the tuple (seed, j, l): the
    seed's 32-bit chunks, low chunk first, then j, then l. Its m_j * l_l
    bits, row by row, are the first m_j * l_l ``bits.stream_bits`` of the
    stream's outputs, which is what ``default_rng((seed, j, l)).integers(0,
    2, (m_j, l_l), np.uint8)`` returns. The build computes SeedSequence's
    four words for all blocks at once in uint32 arrays, and numpy's PCG64
    draws each block.

    All of them live in one read-only B x sum(l) float32 0/1 matrix ``G``
    that maps a message's info bits to the parity bits of every section: the
    column block of section l holds G[1][l], ..., G[l-1][l] stacked by rows,
    with zeros below. Every entry of a product with it sums at most B < 2^24
    ones, so the float32 (BLAS) products are exact and their parity mod 2 is
    the GF(2) parity. A uint8 operand keeps a product float32; an int64 one
    would promote it to float64 without a word.
    """

    def __init__(self, profile: ParityProfile, seed: int):
        self.profile = profile
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        lay = self._layout = _layout(profile)
        # scattered as uint8 and cast once: a float32 scatter would cast the
        # picked bits to float32 first
        bits = np.zeros(lay.shape, np.uint8)
        bits.reshape(-1)[lay.dest] = stream_bits(lay.outputs(self.seed))[lay.keep]
        self.G = bits.astype(np.float32)
        self.G.flags.writeable = False

    def generator(self, j: int, ell: int) -> np.ndarray:
        """G[j][ell], as a read-only view of ``G``."""
        rows, cols = self._layout.rows, self._layout.cols
        return self.G[rows[j - 1]:rows[j], cols[ell - 1]:cols[ell]]


def _mod2(product: np.ndarray, dtype) -> np.ndarray:
    """Bits mod 2, as ``dtype``, of an exact float32 product of 0/1 arrays, whose entries
    (at most B) it must hold; the cast beats float ``%`` several times. uint8 bits keep a
    further float32 product float32; int64 bits, read by ``rows_to_ints``, promote it."""
    bits = product.astype(dtype)
    bits &= 1
    return bits


def message_bytes(profile: ParityProfile, K: int) -> int:
    """Bytes of a codebook and of K messages. The codebook: its float32 G;
    its profile's cached layout, per output 8 byte flags, per bit a
    destination index, per block its two words and output count; and while
    G is built, 256 bytes per block (its seed sequence, its row of words
    and its outputs' array), 16 bytes per output (the outputs and their
    joined copy; then the joined copy and its stream bits; then the stream
    bits and the picked bits, a byte per bit) and G as uint8 (the bits are
    scattered into it, then cast once, when nothing else of the build is
    left, to the float32 G). The messages: their bits (one ``integers`` draw),
    fragments (uint8), and beside them while they are encoded their bits as
    float32, the float32 parity product and its bits in the narrowest type
    that holds B, with a uint8 copy if that is wider."""
    B, parity = profile.B, sum(profile.l)
    blocks = _blocks(profile)
    bits, outputs = sum(b[2] for b in blocks), sum(b[3] for b in blocks)
    layout = 8 * outputs + 8 * bits + 16 * len(blocks) + 16 * (profile.L + 1)
    build = 256 * len(blocks) + 16 * outputs + B * parity
    counts = np.min_scalar_type(B).itemsize
    per_parity = 4 + counts + (counts > 1)
    return 4 * B * parity + layout + build + K * (5 * B + sum(profile.v) + per_parity * parity)


def encode_messages(W: np.ndarray, codebook: TreeCodebook) -> list[np.ndarray]:
    """Encode a batch of messages (rows of W) with one product by ``G``;
    returns L uint8 arrays of shape (K, v_l)."""
    W = np.atleast_2d(np.asarray(W, dtype=np.uint8))
    prof = codebook.profile
    if W.shape[1] != prof.B:
        raise ValueError(f"messages have {W.shape[1]} bits, profile needs B={prof.B}")
    lay = codebook._layout
    parity = _mod2(W @ codebook.G, lay.counts_dtype).astype(np.uint8, copy=False)
    rows, cols = lay.rows, lay.cols
    return [np.concatenate((W[:, rows[i]:rows[i + 1]], parity[:, cols[i]:cols[i + 1]]), axis=1)
            for i in range(prof.L)]


def fragment_values(W: np.ndarray, codebook: TreeCodebook) -> np.ndarray:
    """Radix-2 values of the fragments ``encode_messages`` builds from the
    messages W, as a (K, L) array, without building them. Every product entry
    is a sum of distinct powers of two below 2^24 (float32 values) or 2^53
    (float64), so the values are exact; fragments wider than 53 bits raise
    ValueError."""
    W = np.atleast_2d(np.asarray(W, dtype=np.uint8))
    lay = codebook._layout
    B, weights = codebook.profile.B, lay.fragment_weights
    return W @ weights[:B] + _mod2(W @ codebook.G, lay.counts_dtype) @ weights[B:]


@dataclass
class DecodeDiagnostics:
    """Per-stage bookkeeping of the path search, plus the per-slot effort
    of a slot-interleaved decode (empty for ``tree_decode``)."""

    live_paths: list[int] = field(default_factory=list)
    capped_roots: int = 0
    cols: list[int] = field(default_factory=list)        # |S_l|; enhanced: 0 once all paths died
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
    loses its paths in that stage, before they are built, and is counted once
    in ``capped_roots``; a negative cap is refused. ``admissible`` and
    ``advance`` raise after the last stage, ``finalize`` before it.
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
        cb = self.codebook
        if stage < cb.profile.L:
            # the next section's parity depends on the info bits so far only
            cols = cb._layout.cols
            G = cb.G[:info.shape[1], cols[stage]:cols[stage + 1]]
            self._next = rows_to_ints(_mod2(info @ G, np.int64))

    def start(self, roots: np.ndarray) -> None:
        """Open one root per section-1 fragment index."""
        roots = np.asarray(roots, dtype=np.int64)
        self.root_count = roots.size
        self._enter(1, ints_to_rows(roots, self.codebook.profile.m[0]),
                    np.arange(self.root_count, dtype=np.int64))

    def live_path_count(self) -> int:
        return self._roots.shape[0]

    def admissible(self) -> np.ndarray:
        """Admissible parity patterns for the next stage: the live paths'
        next parities as sorted, distinct int64 values."""
        if self.stage >= self.codebook.profile.L:
            raise ValueError("already at the final stage")
        patterns = np.sort(self._next)
        first = np.ones(patterns.size, dtype=bool)
        np.not_equal(patterns[1:], patterns[:-1], out=first[1:])
        return patterns[first]

    def advance(self, fragments: np.ndarray) -> None:
        """Extend every live path into the entries of the next index list
        that carry its parity, in list order; other branches are pruned."""
        ell = self.stage + 1
        prof = self.codebook.profile
        if ell > prof.L:
            raise ValueError("already at the final stage")
        m, l = prof.m[ell - 1], prof.l[ell - 1]
        fragments = np.asarray(fragments, dtype=np.int64)
        # a path's entries are one contiguous run of the stably sorted list
        # parities, found from a count table of the parity values where it is small
        parities = fragments & ((1 << l) - 1)
        order = np.argsort(parities, kind="stable")
        if _table_fits(l, self._next.size + fragments.size):
            table = np.bincount(parities, minlength=1 << l)
            counts = table[self._next]
            lo = (np.cumsum(table) - table)[self._next]
        else:
            parities = parities[order]
            lo = np.searchsorted(parities, self._next, side="left")
            counts = np.searchsorted(parities, self._next, side="right") - lo
        # worst-case branching is exponential; drop the paths of roots that
        # blow up before building them, so a capped root has none from here
        # on. No root can pass the cap unless all of them together do
        if counts.sum() > self.path_cap:
            over = np.bincount(self._roots, weights=counts, minlength=self.root_count) > self.path_cap
            self.diagnostics.capped_roots += int(np.count_nonzero(over))
            counts[over[self._roots]] = 0
        rep = np.repeat(np.arange(self._next.shape[0]), counts)
        run_start = np.cumsum(counts) - counts
        # info bits of each sorted list entry, converted once and gathered per path
        entries = ints_to_rows(fragments[order] >> l, m)
        taken = entries[np.repeat(lo - run_start, counts) + np.arange(rep.shape[0])]
        self._enter(ell, np.concatenate((self._info[rep], taken), axis=1), self._roots[rep])

    def finalize(self) -> DecodeResult:
        """Settle per-root books: a root decodes iff all of its surviving
        paths carry the same message, else it is a failure."""
        if self.stage != self.codebook.profile.L:
            raise ValueError("finalize called before the final stage")
        # live paths stay in root order, so each root's paths are one run; a
        # root decodes iff every row of its run equals the row before it
        # (identical-message survivors are unambiguous)
        roots, info = self._roots, self._info
        first = np.ones(roots.shape[0], dtype=bool)
        np.not_equal(roots[1:], roots[:-1], out=first[1:])
        same = first.copy()
        same[1:] |= (info[1:] == info[:-1]).all(axis=1)
        starts = np.flatnonzero(first)
        decoded = starts[np.logical_and.reduceat(same, starts)]
        return DecodeResult(
            messages=list(dict.fromkeys(rows_to_ints(info[decoded]).tolist())),
            failures=self.root_count - decoded.size,
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
                       solve_slot, mode: str = "original",
                       force_full_patterns: bool = False,
                       path_cap: int = DEFAULT_PATH_CAP,
                       memo: dict | None = None) -> DecodeResult:
    """Recover messages slot by slot, advancing the tree search after each slot.

    ``solve_slot(observation, matrix, S)`` picks one slot's column indices
    from the columns in S, a sorted int64 index array, and returns (indices,
    solver iterations, work units). mode="original" hands every slot the full
    set; mode="enhanced" restricts slots 2..L to the indices whose parity the
    live paths admit, so once every path has died the set is empty and the
    remaining slots are not solved. ``force_full_patterns`` keeps the enhanced
    plumbing but admits every parity, which must reproduce original-mode
    output exactly. ``path_cap`` bounds each root's live paths (PathTracker).

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
