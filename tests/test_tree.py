"""Tests for the outer tree code: encoding, parity algebra, and list decoding."""

import itertools
import time
from types import SimpleNamespace

import numpy as np
import pytest

from uracs.bits import bits_to_int, ints_to_rows, random_bits, rows_to_ints
from uracs.tree import (
    DEFAULT_MIMO_PROFILE,
    DEFAULT_PATH_CAP,
    DEFAULT_SISO_PROFILE,
    AdmissibleIndexSet,
    ParityProfile,
    PathTracker,
    TreeCodebook,
    encode_messages,
    interleaved_decode,
    tree_decode,
)


def brute_force_decode(lists, codebook, path_cap=1 << 16):
    """Reference decoder: enumerate every row combination across the lists,
    keep the parity-consistent ones, and settle roots by the same rule as
    the fast decoder (exactly one distinct surviving message, not capped)."""
    prof = codebook.profile
    survivors: dict[int, set] = {}
    counts: dict[int, int] = {}
    capped = set()
    row_choices = [range(arr.shape[0]) for arr in lists]
    for combo in itertools.product(*row_choices):
        info = []
        ok = True
        for ell, row in enumerate(combo, start=1):
            frag = lists[ell - 1][row]
            m = prof.m[ell - 1]
            if ell > 1:
                expect = codebook.parity_rows(np.concatenate(info), ell)[0]
                if not np.array_equal(frag[m:], expect):
                    ok = False
                    break
            info.append(frag[:m])
        if not ok:
            continue
        root = combo[0]
        msg = bits_to_int(np.concatenate(info))
        survivors.setdefault(root, set()).add(msg)
        counts[root] = counts.get(root, 0) + 1
        if counts[root] > path_cap:
            capped.add(root)
    messages = []
    seen = set()
    successes = 0
    for root in range(lists[0].shape[0]):
        got = survivors.get(root)
        if got is not None and len(got) == 1 and root not in capped:
            successes += 1
            msg = next(iter(got))
            if msg not in seen:
                seen.add(msg)
                messages.append(msg)
    return messages, lists[0].shape[0] - successes


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
    assert prof.prefix_bits(1) == 0
    assert prof.prefix_bits(2) == 3


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
    got = cb.parity_rows(w, 2)[0]
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
            n = prof.prefix_bits(ell)
            p1 = cb.parity_rows(w1[:n], ell)[0]
            p2 = cb.parity_rows(w2[:n], ell)[0]
            p12 = cb.parity_rows((w1 ^ w2)[:n], ell)[0]
            assert np.array_equal(p12, p1 ^ p2)


def test_outer_encode_bit_layout():
    # Fragment = info bits (MSB first) followed by parity bits.
    prof = ParityProfile(m=(3, 2), l=(0, 2))
    cb = TreeCodebook(prof, seed=5)
    w = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    frags = encode_messages(w, cb)
    assert np.array_equal(frags[0][0], w[:3])
    parity = cb.parity_rows(w[:3], 2)[0]
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
            lo = profile.prefix_bits(j)
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


@pytest.mark.parametrize("profile", ["siso-default", "mimo-96", "random"])
def test_float_parity_equals_integer_parity(profile):
    # The generator matrix is float64 so its products run on BLAS; they are
    # exact, so parity_rows and encode_messages must equal integer GF(2).
    rng = np.random.default_rng(23)
    if profile == "random":
        cases = [(random_profile(rng), 40) for _ in range(30)]
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
        for ell in range(1, prof.L + 1):
            lo, m = prof.prefix_bits(ell), prof.m[ell - 1]
            assert frags[ell - 1].dtype == np.uint8
            assert np.array_equal(frags[ell - 1][:, :m], W[:, lo:lo + m])
            if ell > 1:
                assert np.array_equal(frags[ell - 1][:, m:], ref[ell - 2])
                got = cb.parity_rows(W[:, :lo], ell)
                assert got.dtype == np.uint8
                assert np.array_equal(got, ref[ell - 2])


def test_generator_blocks_are_read_only_views_of_the_seeded_streams():
    rng = np.random.default_rng(29)
    for prof in [DEFAULT_SISO_PROFILE, DEFAULT_MIMO_PROFILE] + [
            random_profile(rng) for _ in range(20)]:
        seed = int(rng.integers(1 << 32))
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
    assert [bits_to_int(row) for row in W] == expect
    res = tree_decode(encode_messages(W, cb), cb)
    assert res.failures == 0
    assert res.messages == expect
    # up to 63 bits the values stay int64
    assert rows_to_ints(W[:, :63]).dtype == np.int64


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
    tracker.start(roots)
    tracker.advance(frags)
    got = set(zip(tracker._roots.tolist(), rows_to_ints(tracker._info).tolist()))
    expect = set()
    for i in range(4):
        parity = cb.parity_rows(roots[i], 2)[0]
        for row in range(16):
            if np.array_equal(frags[row, 2:], parity):
                expect.add((i, bits_to_int(np.concatenate([roots[i], frags[row, :2]]))))
    assert got == expect
    assert tracker.live_path_count() == len(expect)


def test_admissible_parities_small():
    # PathTracker.admissible() is exactly the deduplicated set of parity
    # patterns the live paths predict for the next stage.
    prof = ParityProfile(m=(2, 2, 2), l=(0, 1, 2))
    cb = TreeCodebook(prof, seed=17)
    info = ints_to_rows(np.array([0, 3]), 2)
    tracker = PathTracker(cb)
    tracker.start(info)
    pats = tracker.admissible()
    expect = sorted({bits_to_int(cb.parity_rows(row, 2)[0]) for row in info})
    assert pats.tolist() == expect
    assert pats.dtype == np.int64
    # Once every path has died no pattern is admissible.
    tracker.advance(np.zeros((0, 3), dtype=np.uint8))
    assert tracker.admissible().size == 0


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
        tracker.start(lists[0])
        for ell in range(2, prof.L + 1):
            pats = tracker.admissible()
            m = prof.m[ell - 1]
            true_parity = bits_to_int(true_frags[ell - 1][m:])
            assert true_parity in pats.tolist()
            tracker.advance(lists[ell - 1])
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
    tracker.start(merged[0])
    for ell in range(2, prof.L + 1):
        tracker.advance(merged[ell - 1])
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
    assert res.messages == [bits_to_int(w)]
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
    """Noiseless slot "observations" (the true fragments themselves), stand-in
    matrices and a solver stub that keeps the fragments inside S after a
    fixed sleep; ``calls`` logs |S| per solve."""
    prof = ParityProfile(m=(3, 3, 3), l=(0, 1, 3))
    cb = TreeCodebook(prof, seed=64)
    W = random_bits(np.random.default_rng(65), (3, prof.B))
    frags = encode_messages(W, cb)
    mats = [SimpleNamespace(v=v) for v in prof.v]
    calls = []

    def solve_slot(fragments, A, S):
        time.sleep(SLEEP_S)
        calls.append(S.size)
        keep = np.isin(rows_to_ints(fragments), S.indices)
        return fragments[keep], 1, S.size

    def decode(mode, memo=None, force_full_patterns=False):
        return interleaved_decode(frags, mats, cb, mode, force_full_patterns,
                                  DEFAULT_PATH_CAP, solve_slot, memo)
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
    reused_ms = sum(memo[(ell, AdmissibleIndexSet.full(v).indices.tobytes())][3]
                    for ell, (v, f) in enumerate(zip(prof.v, full), start=1) if f)
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
