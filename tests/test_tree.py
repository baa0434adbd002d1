"""Tests for the outer tree code: encoding, parity algebra, and list decoding."""

import collections
import itertools
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import uracs.tree as tree_module
from uracs.bits import ints_to_rows, random_bits, rows_to_ints
from uracs.harness import CODEBOOK, derive_seed
from uracs.tree import (
    DEFAULT_MIMO_PROFILE,
    DEFAULT_PATH_CAP,
    DEFAULT_SISO_PROFILE,
    ParityProfile,
    PathTracker,
    TreeCodebook,
    encode_messages,
    fragment_values,
    interleaved_decode,
    tree_decode,
)


def radix2(bits) -> int:
    """Value of a bit vector, MSB first (0 when empty): the oracle for rows_to_ints."""
    return int("0" + "".join(str(int(b)) for b in bits), 2)


def prefix_parity(codebook, prefixes, ell):
    """Parity bits of section ``ell`` for info prefixes (rows): the prefixes
    zero-padded to B bits, encoded, and section ell's parity columns. A
    section's parity depends only on the info bits before it."""
    prefixes = np.atleast_2d(prefixes)
    W = np.zeros((prefixes.shape[0], codebook.profile.B), dtype=np.uint8)
    W[:, :prefixes.shape[1]] = prefixes
    return encode_messages(W, codebook)[ell - 1][:, codebook.profile.m[ell - 1]:]


def brute_force_search(lists, codebook, path_cap=1 << 16):
    """Reference path search by enumeration: at stage s, every combination
    of one row from each of lists 1..s whose fragments all carry the parity
    of the info bits before them, less the combinations of capped roots. A
    root is capped at the first stage from 2 on where it has more than
    ``path_cap`` combinations. Roots settle as in the fast decoder: exactly
    one distinct surviving message, not capped. Returns the live counts per
    stage, the number of capped roots, the sorted parity values the live
    combinations admit at each stage 2..L, the decoded messages in root
    order and the failures."""
    prof = codebook.profile
    parities = {}

    def info(combo):
        return np.concatenate([lists[i][row][:prof.m[i]] for i, row in enumerate(combo)])

    def parity(combo):
        # the parity section len(combo) + 1 expects after the rows in combo
        if combo not in parities:
            parities[combo] = prefix_parity(codebook, info(combo), len(combo) + 1)[0]
        return parities[combo]

    live, patterns, capped = [], [], set()
    for s in range(1, prof.L + 1):
        combos = [c for c in itertools.product(*(range(a.shape[0]) for a in lists[:s]))
                  if c[0] not in capped and all(
                      np.array_equal(lists[i][c[i]][prof.m[i]:], parity(c[:i])) for i in range(1, s))]
        if s > 1:
            per_root = collections.Counter(c[0] for c in combos)
            capped |= {root for root, n in per_root.items() if n > path_cap}
            combos = [c for c in combos if c[0] not in capped]
        live.append(len(combos))
        if s < prof.L:
            patterns.append(sorted({radix2(parity(c)) for c in combos}))
    survivors: dict[int, set] = {}
    for c in combos:
        survivors.setdefault(c[0], set()).add(radix2(info(c)))
    decoded = [next(iter(msgs)) for _, msgs in sorted(survivors.items()) if len(msgs) == 1]
    return SimpleNamespace(live=live, capped=len(capped), patterns=patterns,
                           messages=list(dict.fromkeys(decoded)),
                           failures=lists[0].shape[0] - len(decoded))


def brute_force_decode(lists, codebook, path_cap=1 << 16):
    """The messages and failures of ``brute_force_search``."""
    ref = brute_force_search(lists, codebook, path_cap)
    return ref.messages, ref.failures


def test_profile_validation():
    with pytest.raises(ValueError):
        ParityProfile(m=(2, 1), l=(0, 1, 2))
    with pytest.raises(ValueError):
        ParityProfile(m=(2, 1), l=(1, 1))  # first section must carry no parity
    with pytest.raises(ValueError):
        ParityProfile(m=(2, 0), l=(0, 0))  # empty section
    prof = ParityProfile(m=(3, 2), l=(0, 2))
    assert prof.B == 5
    assert prof.L == 2
    assert prof.v == (3, 4)


def test_default_profiles_consistent():
    assert DEFAULT_SISO_PROFILE.B == 75
    assert DEFAULT_SISO_PROFILE.L == 11
    assert all(v == 15 for v in DEFAULT_SISO_PROFILE.v)
    assert DEFAULT_MIMO_PROFILE.B == 96
    assert DEFAULT_MIMO_PROFILE.L == 32
    assert all(v == 12 for v in DEFAULT_MIMO_PROFILE.v)


def test_parity_matches_generator_algebra():
    prof = ParityProfile(m=(2, 2), l=(0, 2))
    cb = TreeCodebook(prof, seed=3)
    w = np.array([1, 0], dtype=np.uint8)
    G = cb.generator(1, 2)  # section-1 info feeding section-2 parity
    assert G.shape == (2, 2)
    expect = (w @ G) % 2
    got = prefix_parity(cb, w, 2)[0]
    assert np.array_equal(got, expect.astype(np.uint8))


def test_parity_linearity_over_gf2():
    # p(w1 xor w2) == p(w1) xor p(w2) for the linear map of each section.
    prof = ParityProfile(m=(4, 3, 2), l=(0, 2, 3))
    cb = TreeCodebook(prof, seed=11)
    rng = np.random.default_rng(0)
    for _ in range(20):
        w1 = random_bits(rng, 7)
        w2 = random_bits(rng, 7)
        for ell in (2, 3):
            n = sum(prof.m[:ell - 1])
            p1 = prefix_parity(cb, w1[:n], ell)[0]
            p2 = prefix_parity(cb, w2[:n], ell)[0]
            p12 = prefix_parity(cb, (w1 ^ w2)[:n], ell)[0]
            assert np.array_equal(p12, p1 ^ p2)


def test_outer_encode_bit_layout():
    # Fragment = info bits (MSB first) followed by parity bits.
    prof = ParityProfile(m=(3, 2), l=(0, 2))
    cb = TreeCodebook(prof, seed=5)
    w = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    frags = encode_messages(w, cb)
    assert np.array_equal(frags[0][0], w[:3])
    parity = prefix_parity(cb, w[:3], 2)[0]
    assert np.array_equal(frags[1][0], np.concatenate([w[3:], parity]))


def test_encode_messages_matches_scalar_path():
    prof = ParityProfile(m=(2, 1, 1), l=(0, 1, 2))
    cb = TreeCodebook(prof, seed=9)
    rng = np.random.default_rng(1)
    W = random_bits(rng, (5, prof.B))
    batch = encode_messages(W, cb)
    for k in range(5):
        single = encode_messages(W[k], cb)
        for ell in range(prof.L):
            assert np.array_equal(batch[ell][k], single[ell][0])
    with pytest.raises(ValueError, match="^messages have 3 bits, profile needs B=4$"):
        encode_messages(W[:, :3], cb)


def integer_parity(W, profile, seed):
    """Reference parity of every section: integer products of the info
    blocks with generators drawn straight from their PRNG streams, mod 2."""
    W = W.astype(np.int64)
    out = []
    for ell in range(2, profile.L + 1):
        acc = np.zeros((W.shape[0], profile.l[ell - 1]), dtype=np.int64)
        for j in range(1, ell):
            G = np.random.default_rng((seed, j, ell)).integers(
                0, 2, size=(profile.m[j - 1], profile.l[ell - 1]), dtype=np.uint8)
            lo = sum(profile.m[:j - 1])
            acc += W[:, lo:lo + profile.m[j - 1]] @ G.astype(np.int64)
        out.append((acc % 2).astype(np.uint8))
    return out


def random_profile(rng):
    L = int(rng.integers(1, 9))
    m = rng.integers(0, 9, L)
    l = rng.integers(0, 9, L)
    l[0] = 0
    m[0] = max(m[0], 1)
    m[1:] = np.where(m[1:] + l[1:] == 0, 1, m[1:])
    return ParityProfile(m=tuple(m), l=tuple(l))


@pytest.mark.parametrize("profile", ["siso-default", "mimo-96", "random", "wide"])
def test_float_parity_equals_integer_parity(profile):
    # The generator matrix is float32 so its products run on BLAS; they sum
    # fewer than 2^24 ones, so they are exact, and encode_messages must equal
    # integer GF(2), also on prefixes, and fragment_values the radix-2 values
    # of the encoded fragments. At B = 1,280 product entries pass 255, so
    # their parity is taken through uint16.
    rng = np.random.default_rng(23)
    if profile == "random":
        cases = [(random_profile(rng), 40) for _ in range(30)]
    elif profile == "wide":
        cases = [(ParityProfile(m=(20,) + (14,) * 90, l=(0,) + (6,) * 90), 200)]
    else:
        prof = DEFAULT_SISO_PROFILE if profile == "siso-default" else DEFAULT_MIMO_PROFILE
        cases = [(prof, 3000)]
    for prof, rows in cases:
        seed = int(rng.integers(1 << 32))
        cb = TreeCodebook(prof, seed)
        W = random_bits(rng, (rows, prof.B))
        ref = integer_parity(W, prof, seed)
        frags = encode_messages(W, cb)
        assert len(frags) == prof.L
        values = fragment_values(W, cb)
        assert values.shape == (rows, prof.L)
        assert [values[:, i].tolist() for i in range(prof.L)] == [
            rows_to_ints(f).tolist() for f in frags]
        for ell in range(1, prof.L + 1):
            lo, m = sum(prof.m[:ell - 1]), prof.m[ell - 1]
            assert frags[ell - 1].dtype == np.uint8
            assert np.array_equal(frags[ell - 1][:, :m], W[:, lo:lo + m])
            if ell > 1:
                assert np.array_equal(frags[ell - 1][:, m:], ref[ell - 2])
                got = prefix_parity(cb, W[:, :lo], ell)
                assert got.dtype == np.uint8
                assert np.array_equal(got, ref[ell - 2])


def codebook_cases():
    """(profile, seed) pairs of every shape the batched codebook build meets.
    Seeds of one to seven 32-bit entropy words: trials seed the codebook
    with 64-bit derive_seed values, and seeds from 2^64 up make entropy
    longer than SeedSequence's 4-word pool. Profiles with m = 0 or l = 0
    sections, whose blocks are empty (mimo-96 has both), one 992-bit block
    of 124 outputs, and profiles with no block at all. Two profiles are
    built alternately, and the second of two equal but distinct profile
    objects must find the first one's layout, so a wrong cache hit shows."""
    rng = np.random.default_rng(29)
    edge_seeds = [0, (1 << 32) - 1, 1 << 32, 1 << 63, (1 << 64) - 1, 1 << 64,
                  (1 << 100) + 5, (1 << 200) - 1] + [
        derive_seed(master, trial, CODEBOOK) for master, trial in [(1, 0), (7, 3), (2026, 199)]]
    profiles = [DEFAULT_SISO_PROFILE, DEFAULT_MIMO_PROFILE,
                ParityProfile(m=(3, 0, 5, 2), l=(0, 4, 0, 9)),
                ParityProfile(m=(31, 20), l=(0, 32)),
                ParityProfile(m=(6,), l=(0,)), ParityProfile(m=(2, 3), l=(0, 0))]
    cases = [(prof, seed) for prof in profiles for seed in edge_seeds]
    cases += [(random_profile(rng), int(rng.integers(1 << 32))) for _ in range(20)]
    alternate = [ParityProfile(m=(4, 3, 2), l=(0, 2, 5)), ParityProfile(m=(4, 3, 2), l=(0, 5, 2))]
    cases += [(alternate[i % 2], seed) for i, seed in enumerate(edge_seeds)]
    cases += [(ParityProfile(m=(2, 5, 1), l=(0, 3, 6)), seed) for seed in edge_seeds]
    return cases


def test_generator_blocks_are_read_only_views_of_the_seeded_streams():
    for prof, seed in codebook_cases():
        cb = TreeCodebook(prof, seed)
        for ell in range(2, prof.L + 1):
            for j in range(1, ell):
                G = cb.generator(j, ell)
                expect = np.random.default_rng((seed, j, ell)).integers(
                    0, 2, size=(prof.m[j - 1], prof.l[ell - 1]), dtype=np.uint8)
                assert np.array_equal(G, expect)
                assert not G.flags.writeable
                with pytest.raises(ValueError):
                    G[...] = 0


def test_codebook_build_wraps_its_integer_arithmetic_silently():
    # numpy warns when a scalar integer operation overflows; SeedSequence's
    # hash must wrap mod 2^32 instead; each profile's layout is built afresh
    # under the filter too
    tree_module._layout.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for prof, seed in codebook_cases():
            TreeCodebook(prof, seed)


def test_block_states_are_numpy_seed_sequence_words():
    # all 256 bits of every block's PCG64 state, where the generator test
    # sees only bit 7 of each drawn byte: every codebook case, seeds of each
    # length from 1 to 7 words, and profiles with no block
    cases = codebook_cases() + [(DEFAULT_SISO_PROFILE, 1 << 32 * w) for w in range(7)]
    assert any(not tree_module._blocks(prof) for prof, _ in cases)
    for prof, seed in cases:
        words = tree_module._layout(prof).words
        states = tree_module._seed_sequence_states(seed, words)
        assert states.shape == (words.shape[1], 4) and states.dtype == np.uint64
        for state, (j, ell) in zip(states, words.T.tolist()):
            expect = np.random.SeedSequence((seed, j, ell)).generate_state(4, np.uint64)
            assert state.tolist() == expect.tolist()


def test_codebook_refuses_negative_seeds():
    # SeedSequence refuses them too; the seed's 32-bit chunks never run out
    prof = ParityProfile(m=(2, 2), l=(0, 2))
    for seed in (-1, -(1 << 64)):
        with pytest.raises(ValueError, match="non-negative"):
            TreeCodebook(prof, seed)


def test_messages_wider_than_63_bits_keep_every_bit():
    # int64 weights would wrap above 63 bits: on mimo-96 two messages that
    # differ only in their first bit used to get one value, so tree_decode
    # returned one message for two sent and counted no failure.
    prof = DEFAULT_MIMO_PROFILE
    cb = TreeCodebook(prof, seed=7)
    w = random_bits(np.random.default_rng(3), prof.B)
    W = np.stack([w, w])
    W[1, 0] ^= 1
    expect = [int("".join(str(b) for b in row), 2) for row in W]
    assert expect[0] != expect[1]
    assert rows_to_ints(W).tolist() == expect
    res = tree_decode(encode_messages(W, cb), cb)
    assert res.failures == 0
    assert res.messages == expect
    # up to 63 bits the values stay int64, and every width down to 0 keeps
    # the value of its bits
    assert rows_to_ints(W[:, :63]).dtype == np.int64
    for width in (0, 1, 62, 63):
        assert rows_to_ints(W[:, :width]).tolist() == [radix2(row[:width]) for row in W]


def test_roundtrip_decode_noiseless():
    # Genie lists holding exactly the transmitted fragments decode back to
    # the transmitted messages, in root (list position) order.
    prof = ParityProfile(m=(4, 3, 3), l=(0, 3, 3))
    cb = TreeCodebook(prof, seed=21)
    rng = np.random.default_rng(4)
    W = random_bits(rng, (3, prof.B))
    # Distinct root fragments, otherwise both messages survive under both
    # colliding root positions and those roots are (rightly) ambiguous.
    assert len(set(rows_to_ints(W[:, :4]).tolist())) == 3
    res = tree_decode(encode_messages(W, cb), cb)
    # Verified ambiguity-free for this (codebook, message) seed pair.
    assert res.failures == 0
    assert res.messages == [int(x) for x in rows_to_ints(W)]


def test_decode_matches_brute_force():
    # Cross-check the vectorized decoder against full enumeration on small
    # profiles, with decoy fragments mixed into every list.
    rng = np.random.default_rng(7)
    prof = ParityProfile(m=(2, 2, 1), l=(0, 1, 2))
    for trial in range(25):
        cb = TreeCodebook(prof, seed=100 + trial)
        K = int(rng.integers(1, 4))
        W = random_bits(rng, (K, prof.B))
        genie = encode_messages(W, cb)
        merged = []
        for ell in range(prof.L):
            decoys = random_bits(rng, (2, prof.v[ell]))
            merged.append(np.vstack([genie[ell], decoys]))
        res = tree_decode(merged, cb)
        ref_msgs, ref_fail = brute_force_decode(merged, cb)
        assert res.messages == ref_msgs
        assert res.failures == ref_fail


def test_tracker_advance_matches_brute_force():
    # Every parity-consistent (root, fragment) pair, and no other, becomes a
    # live path carrying the concatenated info bits.
    prof = ParityProfile(m=(2, 2), l=(0, 2))
    cb = TreeCodebook(prof, seed=31)
    roots = ints_to_rows(np.arange(4), 2)
    frags = ints_to_rows(np.arange(16), 4)
    tracker = PathTracker(cb)
    tracker.start(np.arange(4))
    tracker.advance(np.arange(16))
    got = set(zip(tracker._roots.tolist(), rows_to_ints(tracker._info).tolist()))
    expect = set()
    for i in range(4):
        parity = prefix_parity(cb, roots[i], 2)[0]
        for row in range(16):
            if np.array_equal(frags[row, 2:], parity):
                expect.add((i, radix2(np.concatenate([roots[i], frags[row, :2]]))))
    assert got == expect
    assert tracker.live_path_count() == len(expect)


def test_admissible_parities_small():
    # PathTracker.admissible() is exactly the deduplicated set of parity
    # patterns the live paths predict for the next stage.
    prof = ParityProfile(m=(2, 2, 2), l=(0, 1, 2))
    cb = TreeCodebook(prof, seed=17)
    info = ints_to_rows(np.array([0, 3]), 2)
    tracker = PathTracker(cb)
    tracker.start(np.array([0, 3]))
    pats = tracker.admissible()
    expect = sorted({radix2(prefix_parity(cb, row, 2)[0]) for row in info})
    assert pats.tolist() == expect
    assert pats.dtype == np.int64
    with pytest.raises(ValueError, match="^finalize called before the final stage$"):
        tracker.finalize()
    # Once every path has died no pattern is admissible.
    tracker.advance(np.zeros(0, dtype=np.int64))
    assert tracker.admissible().size == 0
    # after the last stage there is nothing to admit or advance into
    tracker.advance(np.zeros(0, dtype=np.int64))
    for step in (tracker.admissible, lambda: tracker.advance(np.zeros(0, dtype=np.int64))):
        with pytest.raises(ValueError, match="^already at the final stage$"):
            step()


@pytest.mark.parametrize("m, l, sides", [
    ((3, 2, 2, 2), (0, 1, 2, 2), {True}),         # every stage counts in a table
    ((3, 2, 2), (0, 7, 9), {False}),              # l above the table bound: sorted
    ((2, 2, 2), (0, 0, 2), {True}),               # l = 0: every entry matches
    ((3, 2, 1, 1), (0, 0, 3, 8), {True, False}),  # both sides in one search
], ids=["narrow", "wide", "l=0", "mixed"])
def test_path_search_matches_brute_force_on_both_sides_of_the_join_rule(m, l, sides):
    # advance joins paths to list entries through a count table of the 2^l
    # parity values on a narrow stage and by sorted search on a wide one;
    # seeded lists of genie fragments and decoys, some of them empty, with
    # caps that bind, must give the oracle's search on both sides
    prof = ParityProfile(m=m, l=l)
    rng = np.random.default_rng(97 + sum(l))
    seen = collections.Counter()
    for _ in range(60):
        cb = TreeCodebook(prof, seed=int(rng.integers(1 << 32)))
        lists = []
        for genie, v in zip(encode_messages(random_bits(rng, (int(rng.integers(1, 5)), prof.B)), cb),
                            prof.v):
            rows = np.vstack([genie, random_bits(rng, (int(rng.integers(0, 4)), v))])
            lists.append(rows[:0] if lists and rng.random() < 0.15 else rows[rng.permutation(len(rows))])
        cap = int(rng.choice([0, 1, 2] + [DEFAULT_PATH_CAP] * 3))
        ref = brute_force_search(lists, cb, cap)
        tracker = PathTracker(cb, path_cap=cap)
        tracker.start(rows_to_ints(lists[0]))
        for ell in range(2, prof.L + 1):
            patterns = tracker.admissible()
            assert patterns.dtype == np.int64
            assert (np.diff(patterns) > 0).all()
            assert patterns.tolist() == ref.patterns[ell - 2]
            fragments = rows_to_ints(lists[ell - 1])
            items = tracker.live_path_count() + fragments.size
            if items:
                seen[tree_module._table_fits(l[ell - 1], items)] += 1
            seen["empty list"] += fragments.size == 0
            seen["no live paths"] += tracker.live_path_count() == 0
            tracker.advance(fragments)
        res = tracker.finalize()
        assert (res.diagnostics.live_paths, res.diagnostics.capped_roots) == (ref.live, ref.capped)
        assert (res.messages, res.failures) == (ref.messages, ref.failures)
        seen["capped"] += ref.capped > 0
        seen["decoded"] += len(ref.messages) > 0
    assert {side for side in (True, False) if seen[side]} == sides, seen
    assert min(seen[k] for k in ("empty list", "no live paths", "capped", "decoded")) >= 3, seen


def test_tracker_admissible_never_misses_true_path():
    # Soundness: while the true prefix survives, the true parity pattern is
    # in the admissible set at every stage.
    rng = np.random.default_rng(3)
    prof = ParityProfile(m=(3, 2, 2), l=(0, 2, 3))
    for trial in range(10):
        cb = TreeCodebook(prof, seed=500 + trial)
        W = random_bits(rng, (2, prof.B))
        lists = encode_messages(W, cb)
        true_frags = [f[0] for f in lists]
        tracker = PathTracker(cb)
        tracker.start(rows_to_ints(lists[0]))
        for ell in range(2, prof.L + 1):
            pats = tracker.admissible()
            m = prof.m[ell - 1]
            true_parity = radix2(true_frags[ell - 1][m:])
            assert true_parity in pats.tolist()
            tracker.advance(rows_to_ints(lists[ell - 1]))
        # The true message always survives to the end (the root may still
        # be ambiguous if a decoy path shares it, so only check survival).
        final = tracker.finalize()
        assert final.diagnostics.live_paths[-1] >= 2


def test_tracker_matches_tree_decode():
    rng = np.random.default_rng(13)
    prof = ParityProfile(m=(3, 2, 2), l=(0, 2, 2))
    cb = TreeCodebook(prof, seed=71)
    W = random_bits(rng, (3, prof.B))
    genie = encode_messages(W, cb)
    merged = [
        np.vstack([genie[ell], random_bits(rng, (3, prof.v[ell]))])
        for ell in range(prof.L)
    ]
    tracker = PathTracker(cb)
    tracker.start(rows_to_ints(merged[0]))
    for ell in range(2, prof.L + 1):
        tracker.advance(rows_to_ints(merged[ell - 1]))
    a = tracker.finalize()
    b = tree_decode(merged, cb)
    assert a.messages == b.messages
    assert a.failures == b.failures
    assert a.diagnostics.live_paths == b.diagnostics.live_paths


def test_duplicate_messages_count_once():
    # Two users transmitting the same message: both roots succeed, the
    # message is reported once, no failures.
    prof = ParityProfile(m=(3, 2), l=(0, 2))
    cb = TreeCodebook(prof, seed=41)
    w = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    W = np.stack([w, w])
    res = tree_decode(encode_messages(W, cb), cb)
    assert res.messages == [radix2(w)]
    assert res.failures == 0


def test_ambiguous_root_fails():
    # Zero parity bits in the last section keep every extension alive, so a
    # single root with two candidate continuations is ambiguous.
    prof = ParityProfile(m=(2, 2), l=(0, 0))
    cb = TreeCodebook(prof, seed=43)
    lists = [ints_to_rows(np.array([1]), 2), ints_to_rows(np.array([0, 1]), 2)]
    res = tree_decode(lists, cb)
    assert res.messages == []
    assert res.failures == 1


def test_path_cap_marks_root_failed():
    prof = ParityProfile(m=(1, 2), l=(0, 0))
    cb = TreeCodebook(prof, seed=47)
    lists = [ints_to_rows(np.array([0]), 1), ints_to_rows(np.arange(4), 2)]
    res = tree_decode(lists, cb, path_cap=2)
    assert res.messages == []
    assert res.failures == 1
    assert res.diagnostics.capped_roots == 1
    # With a roomy cap the same root is merely ambiguous, not capped.
    res2 = tree_decode(lists, cb, path_cap=100)
    assert res2.diagnostics.capped_roots == 0
    assert res2.failures == 1


def test_path_cap_zero_caps_each_root_once_and_a_negative_cap_is_refused():
    # l = 0 everywhere: every path continues into every fragment. A cap of 0
    # drops each of the 3 roots at stage 2, and the dead roots are not
    # counted again at stage 3. A negative cap would count them there too
    # (0 paths > cap), so the tracker refuses it.
    prof = ParityProfile(m=(2, 2, 2), l=(0, 0, 0))
    cb = TreeCodebook(prof, seed=47)
    lists = [ints_to_rows(np.arange(3), 2)] + [ints_to_rows(np.arange(2), 2)] * 2
    res = tree_decode(lists, cb, path_cap=0)
    assert res.diagnostics.capped_roots == 3
    assert res.diagnostics.live_paths == [3, 0, 0]
    assert (res.messages, res.failures) == ([], 3)
    for cap in (-1, -100):
        with pytest.raises(ValueError, match="path_cap must be non-negative"):
            PathTracker(cb, path_cap=cap)


def test_admissible_columns_match_the_filter_oracle():
    # random m, l <= 6 and random sorted, distinct pattern sets, the empty
    # and the full set among them: the columns are exactly those whose low l
    # bits are an admissible pattern, in strictly increasing order
    rng = np.random.default_rng(67)
    for m, l in itertools.product(range(7), repeat=2):
        sizes = [0, 1 << l] + rng.integers(0, (1 << l) + 1, 3).tolist()
        for size in sizes:
            patterns = np.sort(rng.choice(1 << l, size, replace=False))
            S = tree_module.admissible_columns(patterns, m, l)
            admitted = set(patterns.tolist())
            oracle = [i for i in range(1 << (m + l)) if i & ((1 << l) - 1) in admitted]
            assert S.dtype == np.int64
            assert S.tolist() == oracle
            assert (np.diff(S) > 0).all()


def test_capped_roots_keep_the_other_paths_in_order():
    # advance keeps the extended paths of roots within the cap, in parent
    # order and then list order, exactly as if it built every path first
    rng = np.random.default_rng(41)
    prof = ParityProfile(m=(3, 2), l=(0, 1))
    cb = TreeCodebook(prof, seed=43)
    for cap in (2, 5, 100):
        roots = rng.integers(0, 8, 6)
        # 8 entries with parity 0 and 3 with parity 1: a cap of 5 drops only
        # the roots that expect parity 0
        frags = rng.permutation(np.r_[rng.integers(0, 4, 8) << 1, (rng.integers(0, 4, 3) << 1) | 1])
        tracker = PathTracker(cb, path_cap=cap)
        tracker.start(roots)
        expect = []
        for root, w in enumerate(roots):
            parity = rows_to_ints(prefix_parity(cb, ints_to_rows(np.array([w]), 3), 2))[0]
            expect += [(root, (int(w) << 2) | int(f) >> 1) for f in frags if f & 1 == parity]
        per_root = np.bincount([r for r, _ in expect], minlength=roots.size)
        over = set(np.flatnonzero(per_root > cap).tolist())
        tracker.advance(frags)
        assert list(zip(tracker._roots.tolist(), rows_to_ints(tracker._info).tolist())) == [
            (r, msg) for r, msg in expect if r not in over]
        assert tracker.diagnostics.capped_roots == len(over)


def test_capped_roots_never_build_their_paths():
    # 64 roots of 64 branches each: stage 3 would build 262,144 paths
    # (over 20 MB) before dropping every root over the cap of 100
    prof = ParityProfile(m=(6, 6, 6), l=(0, 0, 0))
    tracker = PathTracker(TreeCodebook(prof, seed=5), path_cap=100)
    tracker.start(np.arange(64))
    tracemalloc.start()
    try:
        tracker.advance(np.arange(64))
        tracker.advance(np.arange(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tracker.diagnostics.capped_roots == 64
    assert tracker.live_path_count() == 0
    assert peak < 2 << 20


@pytest.mark.parametrize("m", [(6, 6, 6), (40, 30, 6)])
def test_finalize_settles_roots_on_their_bit_rows(m):
    # 64 roots of 4,096 paths each, 2^18 in all and every root ambiguous:
    # finalize compares the paths' bit rows where they are and converts no
    # path of an undecoded root to an int
    prof = ParityProfile(m=m, l=(0,) * len(m))
    rng = np.random.default_rng(79)
    lists = [np.arange(64) << (b - 6) | rng.integers(0, 1 << (b - 6), 64) for b in m]
    tracker = PathTracker(TreeCodebook(prof, seed=5), path_cap=1 << 20)
    tracker.start(lists[0])
    for fragments in lists[1:]:
        tracker.advance(fragments)
    assert tracker.live_path_count() == 1 << 18
    tracemalloc.start()
    try:
        res = tracker.finalize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.messages, res.failures, res.diagnostics.capped_roots) == ([], 64, 0)
    assert peak <= 3 * tracker._info.nbytes


@pytest.mark.parametrize("m", [(6, 6, 6), (6, 6, 12)])
def test_advance_converts_each_list_entry_once(m):
    # the last advance builds 2^18 paths from lists of 64 entries: the
    # entries' info bits become bit rows once per entry, not once per path
    # as an int64 (paths x m) array, so the step holds little more than the
    # new paths' rows and their index arrays
    prof = ParityProfile(m=m, l=(0,) * len(m))
    rng = np.random.default_rng(79)
    lists = [np.arange(64) << (b - 6) | rng.integers(0, 1 << (b - 6), 64) for b in m]
    tracker = PathTracker(TreeCodebook(prof, seed=5), path_cap=1 << 20)
    tracker.start(lists[0])
    tracker.advance(lists[1])
    tracemalloc.start()
    try:
        tracker.advance(lists[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tracker.live_path_count() == 1 << 18
    np.testing.assert_array_equal(rows_to_ints(tracker._info[:, -m[2]:]),
                                  np.tile(lists[2], 1 << 12))
    assert peak <= 3 * tracker._info.nbytes


def dict_of_sets_finalize(tracker):
    """The reference rule: every path's message int grouped by root; a root
    decodes iff its set holds one message, and each decoded message is
    listed once, in root order."""
    by_root = {}
    for root, msg in zip(tracker._roots.tolist(), rows_to_ints(tracker._info).tolist()):
        by_root.setdefault(root, set()).add(msg)
    decoded = [next(iter(msgs)) for msgs in by_root.values() if len(msgs) == 1]
    return list(dict.fromkeys(decoded)), tracker.root_count - len(decoded)


def test_finalize_matches_the_dict_of_sets_rule(monkeypatch):
    # 1,200 seeded decodes of genie lists with decoys: some users send one
    # message, some lists repeat an entry (a root with identical survivors),
    # some path caps bind, some lists kill every path, one profile has B > 63
    reference = []
    real = PathTracker.finalize

    def checked(tracker):
        paths = list(zip(tracker._roots.tolist(), rows_to_ints(tracker._info).tolist()))
        diag = tracker.diagnostics
        reference.append((*dict_of_sets_finalize(tracker), list(diag.live_paths), diag.capped_roots,
                          len(paths) > len(set(paths)), len(set(paths)) > len(set(tracker._roots.tolist()))))
        return real(tracker)
    monkeypatch.setattr(PathTracker, "finalize", checked)
    profiles = [ParityProfile(m=(4, 3, 3, 2), l=(0, 2, 3, 4)), ParityProfile(m=(3, 2, 2), l=(0, 1, 3)),
                ParityProfile(m=(2, 2, 2), l=(0, 0, 1)), ParityProfile(m=(30, 20, 14, 4), l=(0, 2, 3, 6))]
    rng = np.random.default_rng(89)
    seen = dict.fromkeys(["decoded", "B > 63 decoded", "ambiguous", "duplicate survivors",
                          "capped", "all died"], 0)
    for case in range(1200):
        prof = profiles[case % len(profiles)]
        cb = TreeCodebook(prof, seed=int(rng.integers(1 << 32)))
        W = random_bits(rng, (int(rng.integers(1, 6)), prof.B))
        if rng.random() < 0.3:
            W[-1] = W[0]
        lists = []
        for ell, (genie, v) in enumerate(zip(encode_messages(W, cb), prof.v)):
            rows = [genie, random_bits(rng, (int(rng.integers(0, 4)), v))]
            if rng.random() < 0.2:
                rows.append(genie[:1])
            rows = np.vstack(rows)
            rows = rows[rng.permutation(rows.shape[0])]
            lists.append(rows[:0] if ell and rng.random() < 0.03 else rows)
        res = tree_decode(lists, cb, path_cap=int(rng.choice([0, 2, 4] + [DEFAULT_PATH_CAP] * 3)))
        messages, failures, live, capped, repeats, ambiguous = reference.pop()
        assert (res.messages, res.failures, res.diagnostics.live_paths,
                res.diagnostics.capped_roots) == (messages, failures, live, capped)
        seen["decoded"] += len(messages) > 0
        seen["B > 63 decoded"] += prof.B > 63 and len(messages) > 0
        seen["ambiguous"] += ambiguous
        seen["duplicate survivors"] += repeats
        seen["capped"] += capped > 0
        seen["all died"] += live[-1] == 0 < live[0] and not capped
    assert min(seen.values()) >= 20, seen


def test_empty_slot_kills_all_roots():
    prof = ParityProfile(m=(2, 2), l=(0, 2))
    cb = TreeCodebook(prof, seed=53)
    lists = [ints_to_rows(np.array([1, 2]), 2), np.zeros((0, 4), dtype=np.uint8)]
    res = tree_decode(lists, cb)
    assert res.messages == []
    assert res.failures == 2
    assert res.diagnostics.live_paths == [2, 0]


def test_tree_decode_rejects_malformed_lists():
    prof = ParityProfile(m=(2, 2), l=(0, 2))
    cb = TreeCodebook(prof, seed=59)
    good = encode_messages(np.array([[1, 0, 1, 1]], dtype=np.uint8), cb)
    with pytest.raises(ValueError, match="1 lists for an L=2 profile"):
        tree_decode(good[:1], cb)
    with pytest.raises(ValueError, match="list 2 fragments must be 4 bits wide"):
        tree_decode([good[0], good[1][:, :3]], cb)
    with pytest.raises(ValueError, match="list 1 fragments must be 2 bits wide"):
        tree_decode([good[0][0], good[1]], cb)


def test_profile_refuses_sections_wider_than_63_bits():
    # the path search takes fragments as int64 column indices, which a
    # 64-bit fragment would overflow, so no profile may have one
    with pytest.raises(ValueError, match="at most 63 coded bits \\(m \\+ l\\), got 64"):
        ParityProfile(m=(2, 62), l=(0, 2))
    assert ParityProfile(m=(2, 61), l=(0, 2)).v == (2, 63)


def test_profile_refuses_messages_of_2_to_the_24_bits():
    # a product with the float32 G sums up to B ones, and float32 holds every
    # integer below 2^24 only, so the profile itself refuses B = 2^24, before
    # any codebook could be built
    m = (63,) * ((1 << 24) // 63)
    assert ParityProfile(m=m, l=(0,) * len(m)).B == (1 << 24) - 1
    with pytest.raises(ValueError, match="float32 parity products are exact, got B=16777216"):
        ParityProfile(m=m + (1,), l=(0,) * (len(m) + 1))


@pytest.mark.parametrize("width", [23, 24, 25, 40, 53])
def test_fragment_values_are_exact_in_either_weights_dtype(width):
    # float32 holds every integer below 2^24 and float64 every one below
    # 2^53: the values of a profile whose widest fragment has at most 24
    # bits are float32, of one up to 53 bits float64, and either way equal
    # to the integers of the encoded fragments, the narrow section's too
    prof = ParityProfile(m=(width, width // 2, 3), l=(0, width - width // 2, 2))
    for seed in range(4):
        cb = TreeCodebook(prof, seed)
        W = random_bits(np.random.default_rng(seed), (200, prof.B))
        values = fragment_values(W, cb)
        assert values.dtype == (np.float32 if width <= 24 else np.float64)
        assert [values[:, i].tolist() for i in range(prof.L)] == [
            rows_to_ints(f).tolist() for f in encode_messages(W, cb)]


def test_codebook_determinism():
    prof = ParityProfile(m=(3, 2, 2), l=(0, 2, 3))
    a = TreeCodebook(prof, seed=77)
    b = TreeCodebook(prof, seed=77)
    c = TreeCodebook(prof, seed=78)
    for ell in (2, 3):
        for j in range(1, ell):
            assert np.array_equal(a.generator(j, ell), b.generator(j, ell))
    assert any(
        not np.array_equal(a.generator(j, 3), c.generator(j, 3))
        for j in (1, 2)
    )


# ----------------------------------------------------------------------------
# interleaved_decode's memo of slot solves

SLEEP_S = 0.01


def memo_instance():
    """Noiseless slot "observations" (the true fragment indices themselves),
    stand-in matrices and a solver stub that keeps the fragments inside S
    after a fixed sleep; ``calls`` logs |S| per solve."""
    prof = ParityProfile(m=(3, 3, 3), l=(0, 1, 3))
    cb = TreeCodebook(prof, seed=64)
    W = random_bits(np.random.default_rng(65), (3, prof.B))
    frags = [rows_to_ints(f) for f in encode_messages(W, cb)]
    mats = [SimpleNamespace(v=v) for v in prof.v]
    calls = []

    def solve_slot(fragments, A, S):
        time.sleep(SLEEP_S)
        calls.append(S.size)
        return fragments[np.isin(fragments, S)], 1, S.size

    def decode(mode, memo=None, force_full_patterns=False):
        return interleaved_decode(frags, mats, cb, solve_slot, mode,
                                  force_full_patterns, DEFAULT_PATH_CAP, memo)
    return prof, decode, calls, sorted(int(w) for w in rows_to_ints(W))


def test_shared_memo_reuses_solves_and_charges_them_in_full():
    prof, decode, calls, sent = memo_instance()
    cold = decode("enhanced")
    assert sorted(cold.messages) == sent
    assert len(calls) == prof.L
    calls.clear()
    memo = {}
    decode("original", memo)
    assert calls == [1 << v for v in prof.v]
    calls.clear()
    warm = decode("enhanced", memo)
    full = [c == 1 << v for c, v in zip(warm.diagnostics.cols, prof.v)]
    # only the slots whose index set is not full are solved again; here
    # slots 1 and 2 are reused and slot 3 is solved
    assert full == [True, True, False] and len(calls) == 1
    assert warm.messages == cold.messages
    for name in ("cols", "iterations", "work_units", "live_paths"):
        assert getattr(warm.diagnostics, name) == getattr(cold.diagnostics, name)
    # every reused solve adds its recorded time to the reusing decode's wall
    # time, so the warm decode costs what a cold one does
    reused_ms = sum(memo[ell][3] for ell, f in enumerate(full, start=1) if f)
    assert warm.diagnostics.wall_ms >= reused_ms + len(calls) * SLEEP_S * 1e3
    assert warm.diagnostics.wall_ms >= prof.L * SLEEP_S * 1e3


def test_forced_full_decode_bypasses_the_memo():
    prof, decode, calls, sent = memo_instance()
    memo = {}
    orig = decode("original", memo)
    before = dict(memo)
    calls.clear()
    forced = decode("enhanced", memo, force_full_patterns=True)
    assert calls == [1 << v for v in prof.v]
    assert memo.keys() == before.keys()
    assert all(memo[k] is before[k] for k in memo)
    assert sorted(forced.messages) == sorted(orig.messages) == sent


def test_forced_full_decode_runs_the_enhanced_branch(monkeypatch):
    # A forced-full decode builds slots 2..L's index sets the way an enhanced
    # decode does, from every parity pattern, and so solves the full sets.
    prof, decode, calls, sent = memo_instance()
    built = []
    real = tree_module.admissible_columns

    def recording(patterns, m, l):
        built.append(np.asarray(patterns).tolist())
        return real(patterns, m, l)
    monkeypatch.setattr(tree_module, "admissible_columns", recording)
    decode("original")
    assert built == []
    forced = decode("enhanced", force_full_patterns=True)
    assert built == [list(range(1 << l)) for l in prof.l[1:]]
    assert forced.diagnostics.cols == [1 << v for v in prof.v]
    assert sorted(forced.messages) == sent

