"""Tests for the inner compressed-sensing layer: matrices, encoding, support
recovery, column pruning, and the two slot decoders."""

import numpy as np
import pytest

import uracs.ccs
import uracs.mimo
from uracs.bits import ints_to_rows, random_bits, rows_to_ints
from uracs.ccs import (
    build_complex_sensing_matrix,
    build_sensing_matrix,
    decode_siso,
    prune_columns,
    top_k_support,
    user_signals,
)
from uracs.channel import mimo_block_transmit
from uracs.mimo import decode_mimo, sample_covariance
from uracs.tree import ParityProfile, TreeCodebook, admissible_columns, encode_messages


def test_index_fragment_bijection():
    # A fragment's column index is its radix-2 value, MSB first.
    for v in (1, 3, 8):
        rows = ints_to_rows(np.arange(1 << v), v)
        assert rows.shape == (1 << v, v) and rows.dtype == np.uint8
        assert [int("".join(map(str, r)), 2) for r in rows] == list(range(1 << v))
        np.testing.assert_array_equal(rows_to_ints(rows), np.arange(1 << v))
    assert rows_to_ints(np.array([[1, 0, 1]], dtype=np.uint8)).tolist() == [5]


def test_build_sensing_matrix_properties():
    A = build_sensing_matrix(16, 6, seed=0)
    assert A.columns.shape == (16, 64)
    assert A.rows == 16 and A.cols == 64
    np.testing.assert_allclose(np.linalg.norm(A.columns, axis=0), 1.0, atol=1e-12)
    assert A.v == 6
    B = build_sensing_matrix(16, 6, seed=0)
    np.testing.assert_array_equal(A.columns, B.columns)
    C = build_sensing_matrix(16, 6, seed=1)
    assert not np.array_equal(A.columns, C.columns)
    # Tuple seeds select distinct deterministic streams.
    D = build_sensing_matrix(16, 6, seed=(0, 3))
    E = build_sensing_matrix(16, 6, seed=(0, 3))
    np.testing.assert_array_equal(D.columns, E.columns)
    assert not np.array_equal(A.columns, D.columns)
    for n, v in ((0, 6), (16, 0)):
        with pytest.raises(ValueError, match=r"^need n >= 1 and v >= 1$"):
            build_sensing_matrix(n, v, seed=0)


def test_build_complex_sensing_matrix_radius():
    A = build_complex_sensing_matrix(8, 5, radius=3.0, seed=2)
    assert A.columns.dtype == np.complex128
    np.testing.assert_allclose(np.linalg.norm(A.columns, axis=0), 3.0, atol=1e-12)
    with pytest.raises(ValueError):
        build_complex_sensing_matrix(8, 5, radius=0.0, seed=2)
    for n, v in ((0, 5), (8, 0)):
        with pytest.raises(ValueError, match=r"^need n >= 1 and v >= 1$"):
            build_complex_sensing_matrix(n, v, radius=3.0, seed=2)


def test_column_cross_correlation_is_small():
    A = build_sensing_matrix(256, 8, seed=3)
    G = A.columns.T @ A.columns
    off = np.abs(G - np.eye(256))
    assert off.max() < 0.45
    assert off.mean() < 0.08


def slot_signal(frags, A, d=1.0):
    """Noiseless slot signal d * A * (sum of the users' one-hot index vectors)."""
    return d * user_signals(frags, A).sum(axis=0)


def test_slot_encode_matches_dense_oracle():
    A = build_sensing_matrix(12, 5, seed=4)
    frags = ints_to_rows(np.array([3, 17, 3]), 5)  # duplicate fragment
    y = slot_signal(frags, A, d=2.5)
    x = np.zeros(32)
    x[3] += 1.0
    x[17] += 1.0
    x[3] += 1.0  # duplicates stack energy on the shared column
    np.testing.assert_allclose(y, 2.5 * (A.columns @ x), atol=1e-12)


def test_user_signals_rows_are_columns():
    A = build_sensing_matrix(10, 4, seed=5)
    frags = ints_to_rows(np.array([7, 0, 15]), 4)
    S = user_signals(frags, A)
    assert S.shape == (3, 10)
    for k, idx in enumerate((7, 0, 15)):
        np.testing.assert_array_equal(S[k], A.columns[:, idx])
    assert user_signals(np.zeros((0, 4), dtype=np.uint8), A).shape == (0, 10)
    with pytest.raises(ValueError):
        user_signals(ints_to_rows(np.array([7]), 5), A)


def test_top_k_support_tie_rules():
    full = np.arange(4)
    x = np.array([0.1, 0.9, 0.5, 0.9])
    # the tie on 0.9 goes to the lower index
    assert top_k_support(x, 2, full).tolist() == [1, 3]
    # On a restricted set, x[j] scores column S[j]; ties still go to the
    # lower index.
    S = np.array([1, 3], dtype=np.int64)
    assert top_k_support(np.array([0.7, 0.7]), 1, S).tolist() == [1]
    assert top_k_support(np.array([0.2, 0.9]), 1, S).tolist() == [3]
    with pytest.raises(ValueError):
        top_k_support(x, 0, full)


def test_top_k_support_truncates_to_available_columns():
    idx = top_k_support(np.array([1.0, 2.0, 3.0, 4.0]), 9, np.arange(4))
    assert idx.tolist() == [3, 2, 1, 0]


def test_prune_columns_matches_filter_oracle():
    A = build_sensing_matrix(8, 6, seed=8)  # fragments: 4 info + 2 parity bits
    S = admissible_columns(np.array([1, 2], dtype=np.int64), m=4, l=2)
    P = prune_columns(A, S)
    keep = [i for i in range(64) if (i & 0b11) in (1, 2)]
    assert S.tolist() == keep
    np.testing.assert_array_equal(P.columns, A.columns[:, keep])
    assert P.v == A.v
    # Full pattern set is the identity pruning: the matrix itself.
    F = prune_columns(A, admissible_columns(np.arange(4), m=4, l=2))
    assert F is A


def make_noiseless_instance(seed_cb, seed_msg, K=2):
    prof = ParityProfile(m=(4, 3, 3), l=(0, 3, 3))
    cb = TreeCodebook(prof, seed=seed_cb)
    rng = np.random.default_rng(seed_msg)
    W = random_bits(rng, (K, prof.B))
    frags = encode_messages(W, cb)
    mats = [build_sensing_matrix(24, prof.v[ell], seed=(10, ell))
            for ell in range(prof.L)]
    y = [slot_signal(frags[ell], mats[ell]) for ell in range(prof.L)]
    return prof, cb, W, mats, y


def test_decode_siso_noiseless_roundtrip_both_modes():
    # Verified for this seed pair: distinct roots, ambiguity-free tree.
    prof, cb, W, mats, y = make_noiseless_instance(seed_cb=21, seed_msg=4)
    sent = sorted(int(x) for x in rows_to_ints(W))
    for mode in ("original", "enhanced"):
        res = decode_siso(y, mats, cb, list_size=2, mode=mode)
        assert res.failures == 0
        assert sorted(res.messages) == sent
        assert len(res.diagnostics.cols) == prof.L
        assert len(res.diagnostics.iterations) == prof.L
    # Enhanced mode never solves a larger system than original mode.
    orig = decode_siso(y, mats, cb, list_size=2, mode="original")
    enh = decode_siso(y, mats, cb, list_size=2, mode="enhanced")
    assert all(e <= o for e, o in
               zip(enh.diagnostics.cols, orig.diagnostics.cols))
    assert enh.diagnostics.cols[0] == orig.diagnostics.cols[0]
    assert any(e < o for e, o in
               zip(enh.diagnostics.cols[1:], orig.diagnostics.cols[1:]))


def test_decode_siso_forced_full_patterns_equals_original():
    prof, cb, W, mats, y = make_noiseless_instance(seed_cb=21, seed_msg=4)
    rng = np.random.default_rng(11)
    noisy = [yy + 0.3 * rng.standard_normal(yy.shape) for yy in y]
    a = decode_siso(noisy, mats, cb, list_size=2, mode="original")
    b = decode_siso(noisy, mats, cb, list_size=2, mode="enhanced",
                    force_full_patterns=True)
    assert a.messages == b.messages
    assert a.failures == b.failures
    assert a.diagnostics.cols == b.diagnostics.cols
    assert a.diagnostics.iterations == b.diagnostics.iterations
    assert a.diagnostics.work_units == b.diagnostics.work_units


def test_decode_siso_work_model_is_iterations_times_size():
    prof, cb, W, mats, y = make_noiseless_instance(seed_cb=21, seed_msg=4)
    res = decode_siso(y, mats, cb, list_size=2, mode="enhanced")
    d = res.diagnostics
    expect = sum(it * 24 * c for it, c in zip(d.iterations, d.cols))
    assert d.work_units == expect
    assert d.wall_ms > 0.0


def test_decode_siso_dead_paths_after_total_cap():
    # A tiny path cap kills the only root at slot 2 (no slot-2 parity means
    # every fragment extends it); slot 3 then has no admissible patterns and
    # the decoder reports a clean failure instead of decoding garbage.
    prof = ParityProfile(m=(2, 2, 2), l=(0, 0, 2))
    cb = TreeCodebook(prof, seed=13)
    rng = np.random.default_rng(0)
    W = random_bits(rng, (1, prof.B))
    frags = encode_messages(W, cb)
    mats = [build_sensing_matrix(16, prof.v[ell], seed=(20, ell))
            for ell in range(prof.L)]
    y = [slot_signal(frags[ell], mats[ell]) for ell in range(prof.L)]
    res = decode_siso(y, mats, cb, list_size=4, mode="enhanced", path_cap=3)
    assert res.messages == []
    # Every slot-1 list entry opens a root; all four roots blow past the cap.
    assert res.failures == 4
    assert res.diagnostics.live_paths == [4, 0, 0]
    assert res.diagnostics.cols[2] == 0
    assert res.diagnostics.iterations[2] == 0


def test_decode_siso_input_validation():
    prof, cb, W, mats, y = make_noiseless_instance(seed_cb=21, seed_msg=4)
    with pytest.raises(ValueError):
        decode_siso(y, mats, cb, list_size=2, mode="fancy")
    with pytest.raises(ValueError):
        decode_siso(y[:2], mats, cb, list_size=2)
    bad = list(mats)
    bad[1] = build_sensing_matrix(24, 5, seed=0)
    with pytest.raises(ValueError):
        decode_siso(y, bad, cb, list_size=2)


# no slot-2 parity: every root extends into both slot-2 list entries
LOOP_PROFILE = ParityProfile(m=(3, 2, 2), l=(0, 0, 4))


def loop_instance(decoder, monkeypatch):
    """decode(**loop) through ``decoder`` on two users' noiseless scalar slots
    or long MIMO blocks, with list size 2, and the log of its slot solves."""
    prof = LOOP_PROFILE
    cb = TreeCodebook(prof, seed=5)
    frags = encode_messages(random_bits(np.random.default_rng(6), (2, prof.B)), cb)
    module, solver = ((uracs.ccs, "nnls_solve") if decoder == "siso"
                      else (uracs.mimo, "activity_detect"))
    real, calls = getattr(module, solver), []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, solver, counting)
    if decoder == "siso":
        mats = [build_sensing_matrix(16, v, seed=(40, ell)) for ell, v in enumerate(prof.v)]
        y = [slot_signal(f, A) for f, A in zip(frags, mats)]
        return (lambda **loop: decode_siso(y, mats, cb, 2, **loop)), calls
    mats = [build_complex_sensing_matrix(8, v, radius=np.sqrt(8), seed=(41, ell))
            for ell, v in enumerate(prof.v)]
    covs = [sample_covariance(mimo_block_transmit(rows_to_ints(f), A.columns, 1024, 0.1,
                                                  50 + ell, 60 + ell, block=ell))
            for ell, (f, A) in enumerate(zip(frags, mats))]
    return (lambda **loop: decode_mimo(covs, mats, cb, 2, 0.1, **loop)), calls


@pytest.mark.parametrize("decoder", ["siso", "mimo"])
def test_decoders_forward_every_loop_keyword(decoder, monkeypatch):
    # decode_siso and decode_mimo declare none of interleaved_decode's loop
    # keywords; each must still reach the loop through them.
    decode, calls = loop_instance(decoder, monkeypatch)
    full = [1 << v for v in LOOP_PROFILE.v]
    cold = decode(mode="enhanced")
    assert cold.diagnostics.capped_roots == 0
    assert 0 < cold.diagnostics.cols[2] < full[2]
    # path_cap: each root has two slot-2 paths, so a cap of 1 takes them all
    capped = decode(mode="enhanced", path_cap=1).diagnostics
    assert capped.capped_roots == capped.live_paths[0] == 2
    assert capped.live_paths[1:] == [0, 0] and capped.cols[2] == 0
    # memo: the original decode fills it, the enhanced one reuses its full slots
    memo = {}
    calls.clear()
    orig = decode(mode="original", memo=memo)
    assert sorted(memo) == [1, 2, 3] and len(calls) == 3
    calls.clear()
    warm = decode(mode="enhanced", memo=memo)
    assert len(calls) == 1
    assert warm.messages == cold.messages
    for name in ("cols", "iterations", "work_units", "live_paths"):
        assert getattr(warm.diagnostics, name) == getattr(cold.diagnostics, name)
    # force_full_patterns: the enhanced decode solves the full sets
    forced = decode(mode="enhanced", force_full_patterns=True)
    assert forced.diagnostics.cols == orig.diagnostics.cols == full
    assert forced.messages == orig.messages
    with pytest.raises(TypeError):
        decode(mode="enhanced", path_caps=1)
    with pytest.raises(ValueError, match="mode must be"):
        decode(mode="fancy")
