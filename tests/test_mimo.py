"""Tests for covariance-based MIMO activity detection and the block decoder."""

from types import SimpleNamespace

import numpy as np
import pytest

from uracs.bits import random_bits, rows_to_ints
import uracs.mimo
from uracs.ccs import SensingMatrix, build_complex_sensing_matrix, top_k_support
from uracs.channel import ebn0_to_power, mimo_block_transmit
from uracs.mimo import (
    DEFAULT_CD_TOL,
    DEFAULT_SWEEPS,
    REFRESH_EVERY,
    TAU_INV,
    TAU_SING,
    CovarianceState,
    activity_detect,
    decode_mimo,
    sample_covariance,
)
from uracs.tree import (ParityProfile, PathTracker, TreeCodebook, admissible_columns,
                         encode_messages)


def test_admissible_index_set_construction():
    # an index set is a sorted int64 array of column indices w * 2^l + p
    s = admissible_columns(np.array([1, 3]), m=2, l=2)
    assert s.dtype == np.int64
    np.testing.assert_array_equal(s, [1, 3, 5, 7, 9, 11, 13, 15])
    # every pattern admits the full set, and no pattern admits no column
    np.testing.assert_array_equal(admissible_columns(np.arange(4), m=2, l=2), np.arange(16))
    assert admissible_columns(np.zeros(0, dtype=np.int64), m=2, l=2).size == 0
    # l = 0 admits only the empty pattern and keeps every info word.
    s0 = admissible_columns(np.array([0]), m=3, l=0)
    np.testing.assert_array_equal(s0, np.arange(8))


def test_sample_covariance_matches_definition():
    rng = np.random.default_rng(0)
    Y = rng.normal(size=(4, 12)) + 1j * rng.normal(size=(4, 12))
    S = sample_covariance(Y)
    np.testing.assert_allclose(S, Y @ Y.conj().T / 12, atol=1e-12)
    np.testing.assert_allclose(S, S.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(S).min() >= -1e-12
    with pytest.raises(ValueError):
        sample_covariance(Y[0])


def scalar_state(sample_value, N0=1.0):
    A = SensingMatrix(columns=np.array([[1.0 + 0j]]), v=1)
    cov = np.array([[sample_value + 0j]])
    return CovarianceState(cov, A, N0=N0)


def test_coordinate_step_scalar_hand_example():
    # n=1, a=1, N0=1, sample 3: step = (3 - 1)/1 = 2, inverse becomes 1/3.
    st = scalar_state(3.0)
    change = st.coordinate_step(0)
    assert change == pytest.approx(2.0)
    assert st.gamma[0] == pytest.approx(2.0)
    assert st.sigma_inv[0, 0].real == pytest.approx(1.0 / 3.0)
    assert st.updates == 1


def test_coordinate_step_clamps_at_zero():
    # Sample power below the noise floor pushes gamma negative; the clamp
    # keeps it at zero and leaves the inverse untouched.
    st = scalar_state(0.5)
    change = st.coordinate_step(0)
    assert change == 0.0
    assert st.gamma[0] == 0.0
    assert st.sigma_inv[0, 0].real == pytest.approx(1.0)
    assert st.updates == 0


def test_cost_decreases_and_inverse_tracks_covariance():
    rng = np.random.default_rng(1)
    n, v, M = 4, 3, 64
    A = build_complex_sensing_matrix(n, v, radius=np.sqrt(n), seed=2)
    truth = np.zeros(8)
    truth[[1, 6]] = [1.5, 0.8]
    cols = A.columns[:, [1, 6]]
    sigma_true = np.eye(n) * 0.5 + (cols * truth[[1, 6]]) @ cols.conj().T
    # Sample covariance from finite draws of the true model.
    Lc = np.linalg.cholesky(sigma_true)
    Y = Lc @ (rng.normal(size=(n, M)) + 1j * rng.normal(size=(n, M))) * np.sqrt(0.5)
    st = CovarianceState(sample_covariance(Y), A, N0=0.5)
    costs = [st.cost()]
    for sweep in range(6):
        for k in range(8):
            st.coordinate_step(k)
            costs.append(st.cost())
        # The running inverse matches the dense inverse of the implied
        # covariance after every sweep.
        dense = np.linalg.inv(st.covariance())
        assert np.linalg.norm(st.sigma_inv - dense) < 1e-7
    assert st.gamma.min() >= 0.0
    diffs = np.diff(np.array(costs))
    assert diffs.max() <= 1e-9  # non-increasing per clamped step


def reference_coordinate_step(st, A, k):
    """The coordinate step as first written: strided column of A, a fresh
    conjugate per use and np.outer for the rank-one update."""
    a = A.columns[:, k]
    s = st.sigma_inv @ a
    quad = float((a.conj() @ s).real)
    fit = float((s.conj() @ (st.sample_cov @ s)).real)
    d_star = (fit - quad) / (quad * quad)
    new_gamma = max(st.gamma[k] + d_star, 0.0)
    d_eff = new_gamma - st.gamma[k]
    denom = 1.0 + d_eff * quad
    if denom <= TAU_SING:
        st.skipped += 1
        return 0.0
    st.gamma[k] = new_gamma
    if d_eff != 0.0:
        st.sigma_inv -= (d_eff / denom) * np.outer(s, s.conj())
        st.updates += 1
        if st.updates % REFRESH_EVERY == 0 and st.drift() > TAU_INV:
            st.refresh_inverse()
    return d_eff


def test_coordinate_step_is_bit_identical_to_reference_step():
    # Ten full sweeps per instance, with steps that update, clamp and
    # trigger the periodic drift check.
    for i in range(36):
        rng = np.random.default_rng(500 + i)
        n, v = (8, 16, 32)[i % 3], int(rng.integers(3, 7))
        A = build_complex_sensing_matrix(n, v, radius=np.sqrt(n), seed=(50, i))
        active = rng.choice(1 << v, int(rng.integers(1, 5)), replace=False)
        cov = sample_covariance(mimo_block_transmit(active, A.columns, 64, 0.5,
                                                    600 + i, 700 + i, block=0))
        st, ref = CovarianceState(cov, A, N0=0.5), CovarianceState(cov, A, N0=0.5)
        for _ in range(10):
            for k in range(1 << v):
                assert st.coordinate_step(k) == reference_coordinate_step(ref, A, k)
        assert np.array_equal(st.gamma, ref.gamma)
        assert np.array_equal(st.sigma_inv, ref.sigma_inv)
        assert (st.updates, st.skipped) == (ref.updates, ref.skipped)


def test_drift_check_refreshes_a_perturbed_inverse(monkeypatch):
    # An error of about 1e-6 I in the tracked inverse is past TAU_INV, so the
    # next drift check recomputes the inverse from the covariance.
    n, v, M, N0 = 16, 5, 256, 0.5
    A = build_complex_sensing_matrix(n, v, radius=np.sqrt(n), seed=21)
    Y = mimo_block_transmit(np.array([4, 19]), A.columns, M, N0, 22, 23, block=0)
    st = CovarianceState(sample_covariance(Y), A, N0)
    for k in range(1 << v):
        st.coordinate_step(k)
    assert st.drift() < TAU_INV
    refreshes = []
    refresh = CovarianceState.refresh_inverse

    def counted_refresh(self):
        refreshes.append(self.updates)
        refresh(self)

    monkeypatch.setattr(CovarianceState, "refresh_inverse", counted_refresh)
    st.sigma_inv += 1e-6 * np.eye(n)
    check_at = (st.updates // REFRESH_EVERY + 1) * REFRESH_EVERY
    for step in range(100 * REFRESH_EVERY):
        st.coordinate_step(step % (1 << v))
        if st.updates == check_at:
            break
    assert refreshes == [check_at]
    np.testing.assert_array_equal(st.sigma_inv, np.linalg.inv(st.covariance()))


def reference_activity_detect(st, A, S, sweeps=DEFAULT_SWEEPS, tol=DEFAULT_CD_TOL):
    """activity_detect's sweep loop as first written, over
    reference_coordinate_step. Also returns the (sweep, position in S) of
    each step that refreshed the inverse: a refresh rebinds sigma_inv, where
    a rank-one update writes into it."""
    refreshed = []
    for sweep in range(sweeps):
        max_change = 0.0
        for i, k in enumerate(S.tolist()):
            before = st.sigma_inv
            max_change = max(max_change, abs(reference_coordinate_step(st, A, k)))
            if st.sigma_inv is not before:
                refreshed.append((sweep, i))
        st.sweeps_run += 1
        if max_change < tol:
            break
    return refreshed


def test_activity_detect_is_bit_identical_to_reference_loop(monkeypatch):
    # Whole activity_detect calls against the reference loop: over all
    # columns, over a sorted pruned subset, with a tol that stops the run
    # early, and from an inverse perturbed past TAU_INV, whose first drift
    # check refreshes it in the middle of a sweep.
    n, v, M, N0 = 16, 6, 64, 0.5
    A = build_complex_sensing_matrix(n, v, radius=np.sqrt(n), seed=41)
    active = np.array([3, 17, 40, 58])
    cov = sample_covariance(mimo_block_transmit(active, A.columns, M, N0, 42, 43,
                                                block=0))
    full = np.arange(1 << v)
    pruned = np.union1d(active, np.random.default_rng(44).choice(1 << v, 20,
                                                                 replace=False))
    assert 20 <= pruned.size < full.size
    cases = {"full": (full, DEFAULT_CD_TOL, 0.0),
             "pruned": (pruned, DEFAULT_CD_TOL, 0.0),
             "early stop": (full, 1e-2, 0.0),
             "refresh": (full, DEFAULT_CD_TOL, 1e-6)}
    for name, (S, tol, perturb) in cases.items():
        refreshes = []

        class Perturbed(CovarianceState):
            def __init__(self, *args):
                super().__init__(*args)
                self.sigma_inv += perturb * np.eye(n)

            def refresh_inverse(self):
                refreshes.append(self.updates)
                super().refresh_inverse()

        monkeypatch.setattr(uracs.mimo, "CovarianceState", Perturbed)
        gamma, st = activity_detect(cov, A, S, N0, tol=tol)
        ref = CovarianceState(cov, A, N0)
        ref.sigma_inv += perturb * np.eye(n)
        refreshed = reference_activity_detect(ref, A, S, tol=tol)
        assert np.array_equal(gamma, ref.gamma), name
        assert np.array_equal(st.sigma_inv, ref.sigma_inv), name
        assert ((st.sweeps_run, st.updates, st.skipped)
                == (ref.sweeps_run, ref.updates, ref.skipped)), name
        assert len(refreshes) == len(refreshed), name
        if name == "early stop":
            assert 1 < st.sweeps_run < DEFAULT_SWEEPS
        if name == "refresh":
            # the first drift check, at update REFRESH_EVERY, is mid-sweep
            _, i = refreshed[0]
            assert refreshes[0] == REFRESH_EVERY
            assert 0 < i < S.size - 1


def test_singular_step_is_skipped_and_changes_nothing():
    # With sigma_inv = I / N0 and N0 = |a_k|^2, quad = 1; with a zero sample
    # covariance the step from gamma[k] = 1 is d_eff = -1, so 1 + d_eff quad
    # = 0 and the rank-one update would divide by zero.
    n, v, k = 8, 3, 5
    A = build_complex_sensing_matrix(n, v, radius=np.sqrt(n), seed=24)
    a = A.columns[:, k]
    N0 = float(np.vdot(a, a).real)
    st = CovarianceState(np.zeros((n, n)), A, N0)
    st.gamma[k] = 1.0
    gamma, sigma_inv = st.gamma.copy(), st.sigma_inv.copy()
    np.testing.assert_array_equal(sigma_inv, np.eye(n) / N0)
    assert st.coordinate_step(k) == 0.0
    assert (st.skipped, st.updates) == (1, 0)
    np.testing.assert_array_equal(st.gamma, gamma)
    np.testing.assert_array_equal(st.sigma_inv, sigma_inv)


def stepped_like_sweep(st, order):
    """Steps coordinate_step k by k over order, the sweep's reference; returns
    the largest absolute change."""
    return max((abs(st.coordinate_step(k)) for k in order), default=0.0)


def assert_same_state(st, ref):
    assert np.array_equal(st.gamma, ref.gamma)
    assert np.array_equal(st.sigma_inv, ref.sigma_inv)
    assert ((st.updates, st.skipped, st.refreshes)
            == (ref.updates, ref.skipped, ref.refreshes))


def test_sweep_leaves_the_state_of_single_steps():
    # A sweep carries sigma_inv as a local across its steps, so a refresh in
    # the middle of it must rebind that local; a skipped step counts 0.
    n, v, M, N0 = 16, 6, 64, 0.5
    A = build_complex_sensing_matrix(n, v, radius=np.sqrt(n), seed=41)
    cov = sample_covariance(mimo_block_transmit(np.array([3, 17, 40, 58]), A.columns,
                                                M, N0, 42, 43, block=0))
    st, ref = CovarianceState(cov, A, N0), CovarianceState(cov, A, N0)
    for state in (st, ref):
        state.sigma_inv += 1e-6 * np.eye(n)
    # two passes over the columns in one sweep, so that steps which update
    # follow the refresh at update REFRESH_EVERY
    order = list(range(1 << v)) * 2
    for sweep in range(3):
        assert st.sweep(order) == stepped_like_sweep(ref, order)
        assert_same_state(st, ref)
        if sweep == 0:
            assert st.refreshes == 1 and st.updates > REFRESH_EVERY + 1

    # the singular step of the test below, followed by steps that update
    n, v, k = 8, 3, 5
    A = build_complex_sensing_matrix(n, v, radius=np.sqrt(n), seed=24)
    N0 = float(np.vdot(A.columns[:, k], A.columns[:, k]).real)
    st, ref = (CovarianceState(np.zeros((n, n)), A, N0) for _ in range(2))
    for state in (st, ref):
        state.gamma[:] = 0.5
        state.gamma[k] = 1.0
    order = [k] + [j for j in range(1 << v) if j != k]
    change = st.sweep(order)
    assert change == stepped_like_sweep(ref, order) > 0.0
    assert_same_state(st, ref)
    assert st.gamma[k] == 1.0 and st.skipped >= 1 and st.updates > 0
    assert st.sweep([]) == 0.0


def test_drift_is_numpys_frobenius_norm_bit_for_bit():
    # drift() is ||SIGMA^-1 SIGMA - I||_F / sqrt(n). Here the error
    # is sigma_inv = E: the covariance is the identity and the subtracted
    # identity is zero.
    rng = np.random.default_rng(45)
    for n in (1, 8, 16, 32):
        A = build_complex_sensing_matrix(n, 2, radius=1.0, seed=46)
        st = CovarianceState(np.eye(n), A, 1.0)
        st._eye = np.zeros((n, n), dtype=np.complex128)
        identity = np.eye(n, dtype=np.complex128)
        st.covariance = lambda: identity
        errors = [np.zeros((n, n), dtype=np.complex128)]
        for e in range(-150, 151, 10):
            spread = 10.0 ** rng.uniform(-2, 2, size=(n, n))
            errors.append((rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                          * spread * 10.0 ** e)
        for E in errors:
            st.sigma_inv = E
            assert st.drift() == np.linalg.norm(E) / np.sqrt(n)
        assert st.drift() > 0.0
        st.sigma_inv = errors[0]
        assert st.drift() == 0.0


def test_refreshes_are_counted():
    # A 0 dB slot of the mimo-desk size (n = 16, v = 5; B = 12 bits over L = 4
    # slots) never refreshes; an inverse perturbed past TAU_INV does.
    n, v, M, N0 = 16, 5, 64, 1.0
    P = ebn0_to_power(0.0, 12, 4, n, N0)
    A = build_complex_sensing_matrix(n, v, radius=np.sqrt(n * P), seed=47)
    cov = sample_covariance(mimo_block_transmit(np.array([2, 9, 30]), A.columns, M, N0,
                                                48, 49, block=0))
    _, st = activity_detect(cov, A, np.arange(1 << v), N0, tol=0.0)
    assert st.updates > REFRESH_EVERY
    assert st.refreshes == 0
    st = CovarianceState(cov, A, N0)
    st.sigma_inv += 1e-6 * np.eye(n)
    while st.updates < REFRESH_EVERY:
        st.sweep(range(1 << v))
    assert st.refreshes >= 1


def test_activity_detect_exact_support_large_arrays():
    # Near-asymptotic array: the detector concentrates gamma on the two
    # transmitted columns.
    n, v, M, N0 = 16, 5, 4096, 0.1
    P = 0.5
    A = build_complex_sensing_matrix(n, v, radius=np.sqrt(n * P), seed=3)
    idx = np.array([7, 23])
    Y = mimo_block_transmit(idx, A.columns, M, N0, 4, 5, block=0)
    gamma, state = activity_detect(sample_covariance(Y), A, np.arange(1 << v), N0)
    top = top_k_support(gamma, 2, np.arange(1 << v))
    assert sorted(top.tolist()) == [7, 23]
    assert state.gamma is gamma
    assert state.sweeps_run >= 1
    assert state.updates > 0


def test_drift_is_checked_once_per_refresh_interval(monkeypatch):
    # The tracked inverse is compared with the covariance once every
    # REFRESH_EVERY rank-one updates, not at every update after the first
    # REFRESH_EVERY.
    n, v, M, N0 = 16, 6, 256, 0.5
    A = build_complex_sensing_matrix(n, v, radius=np.sqrt(n), seed=12)
    Y = mimo_block_transmit(np.array([3, 17, 40, 58]), A.columns, M, N0, 13, 14,
                            block=0)
    checks = []
    drift = CovarianceState.drift

    def counted_drift(self):
        checks.append(1)
        return drift(self)

    monkeypatch.setattr(CovarianceState, "drift", counted_drift)
    _, state = activity_detect(sample_covariance(Y), A, np.arange(1 << v), N0, tol=0.0)
    assert state.updates > 3 * REFRESH_EVERY
    assert 1 <= len(checks) <= -(-state.updates // REFRESH_EVERY)


def test_activity_detect_restricted_sweep_stays_in_set():
    n, v, M, N0 = 8, 4, 512, 0.2
    A = build_complex_sensing_matrix(n, v, radius=np.sqrt(n), seed=6)
    Y = mimo_block_transmit(np.array([5]), A.columns, M, N0, 7, 8, block=0)
    S = np.array([2, 5, 9], dtype=np.int64)
    gamma, _ = activity_detect(sample_covariance(Y), A, S, N0)
    outside = np.setdiff1d(np.arange(16), S)
    assert np.all(gamma[outside] == 0.0)
    assert gamma[5] > 0.0
    with pytest.raises(ValueError, match="^sweeps must be at least 1$"):
        activity_detect(sample_covariance(Y), A, S, N0, sweeps=0)
    with pytest.raises(ValueError, match="^sample covariance shape must match matrix rows$"):
        CovarianceState(sample_covariance(Y[:n - 1]), A, N0)
    # a NaN used to give NaN gamma after one sweep, with no error
    for bad in (np.nan, np.inf, complex(0, np.inf)):
        cov = sample_covariance(Y)
        cov[1, 2] = bad
        with pytest.raises(ValueError, match="^sample covariance must be finite$"):
            activity_detect(cov, A, S, N0)
    # N0 = 0 or NaN used to give an all-NaN gamma and N0 = -1 all zeros
    cov = sample_covariance(Y)
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^N0 must be finite and positive$"):
            CovarianceState(cov, A, bad)
        with pytest.raises(ValueError, match="^N0 must be finite and positive$"):
            activity_detect(cov, A, S, bad)
    # S = [-1, 2] used to step column 2^v - 1
    for bad in ([-1, 2], [0, 1 << v]):
        with pytest.raises(ValueError, match=r"^column indices must lie in \[0, 2\^v\)$"):
            activity_detect(cov, A, np.array(bad, dtype=np.int64), N0)
    for edge in ([0, (1 << v) - 1], []):
        gamma, _ = activity_detect(cov, A, np.array(edge, dtype=np.int64), N0)
        assert np.all(np.delete(gamma, edge) == 0.0)


def test_activity_detect_pure_noise_converges_immediately():
    # With the sample covariance exactly at the noise floor every step is
    # clamped to zero and the loop stops after one sweep.
    n, v = 4, 3
    A = build_complex_sensing_matrix(n, v, radius=1.0, seed=9)
    gamma, state = activity_detect(np.eye(n, dtype=np.complex128), A,
                                   np.arange(1 << v), N0=1.0)
    assert np.all(gamma == 0.0)
    assert state.sweeps_run == 1
    assert state.updates == 0


def make_mimo_instance(K=2, seed=13):
    prof = ParityProfile(m=(3, 2, 2), l=(0, 2, 2))
    cb = TreeCodebook(prof, seed=seed)
    rng = np.random.default_rng(seed + 1)
    W = random_bits(rng, (K, prof.B))
    frags = encode_messages(W, cb)
    n, M, N0, P = 8, 1024, 0.1, 1.0
    mats, covs = [], []
    for ell in range(prof.L):
        A = build_complex_sensing_matrix(n, prof.v[ell],
                                         radius=np.sqrt(n * P), seed=(30, ell))
        idx = rows_to_ints(frags[ell])
        covs.append(sample_covariance(mimo_block_transmit(
            idx, A.columns, M, N0, 1000 + ell, 2000 + ell, block=ell)))
        mats.append(A)
    return prof, cb, W, mats, covs, N0


def test_decode_mimo_roundtrip_both_modes():
    prof, cb, W, mats, covs, N0 = make_mimo_instance()
    sent = sorted(int(x) for x in rows_to_ints(W))
    for mode in ("original", "enhanced"):
        res = decode_mimo(covs, mats, cb, list_size=2, N0=N0, mode=mode)
        assert sorted(res.messages) == sent
        assert res.failures == 0
    orig = decode_mimo(covs, mats, cb, list_size=2, N0=N0, mode="original")
    enh = decode_mimo(covs, mats, cb, list_size=2, N0=N0, mode="enhanced")
    assert orig.diagnostics.cols == [8, 16, 16]
    assert enh.diagnostics.cols[0] == 8
    assert all(e <= o for e, o in
               zip(enh.diagnostics.cols, orig.diagnostics.cols))
    assert any(e < o for e, o in
               zip(enh.diagnostics.cols[1:], orig.diagnostics.cols[1:]))
    assert enh.diagnostics.work_units < orig.diagnostics.work_units


def test_decode_mimo_forced_full_equals_original():
    prof, cb, W, mats, covs, N0 = make_mimo_instance(seed=17)
    a = decode_mimo(covs, mats, cb, list_size=2, N0=N0, mode="original")
    b = decode_mimo(covs, mats, cb, list_size=2, N0=N0, mode="enhanced",
                  force_full_patterns=True)
    assert a.messages == b.messages
    assert a.failures == b.failures
    assert a.diagnostics.cols == b.diagnostics.cols
    assert a.diagnostics.iterations == b.diagnostics.iterations
    assert a.diagnostics.work_units == b.diagnostics.work_units


def test_decode_mimo_work_model():
    prof, cb, W, mats, covs, N0 = make_mimo_instance()
    res = decode_mimo(covs, mats, cb, list_size=2, N0=N0, mode="enhanced")
    d = res.diagnostics
    expect = sum(s * sz * 64 for s, sz in zip(d.iterations, d.cols))
    assert d.work_units == expect


def test_decode_mimo_input_validation():
    prof, cb, W, mats, covs, N0 = make_mimo_instance()
    with pytest.raises(ValueError):
        decode_mimo(covs, mats, cb, list_size=2, N0=N0, mode="turbo")
    with pytest.raises(ValueError):
        decode_mimo(covs[:2], mats, cb, list_size=2, N0=N0)
    bad = list(mats)
    bad[1] = build_complex_sensing_matrix(8, 5, radius=1.0, seed=0)
    with pytest.raises(ValueError):
        decode_mimo(covs, bad, cb, list_size=2, N0=N0)


def test_decode_mimo_list_rule(monkeypatch):
    # Each slot's list is the list_size largest gamma entries ranked over all
    # columns by (-gamma, index), so ties go to the lower index, and it is
    # reported in index order. Once S runs out of positive gamma the list
    # fills up with the lowest zero-gamma columns, which may lie outside S.
    index_sets, lists = [], []  # of every slot solve, in order

    def fake_detect(sample_cov, A, S, N0, sweeps=DEFAULT_SWEEPS, tol=DEFAULT_CD_TOL):
        index_sets.append(S)
        gamma = np.zeros(A.cols)
        if S.size == A.cols:
            gamma[[1, 3, 5, 7]] = [0.5, 0.7, 0.9, 0.7]
        else:
            gamma[S[-1]] = 1.0
        return gamma, SimpleNamespace(sweeps_run=1)

    # the lists as decode_mimo hands them to the path tracker, unsorted
    real_start, real_advance = PathTracker.start, PathTracker.advance

    def start(self, fragments):
        lists.append(np.asarray(fragments).tolist())
        real_start(self, fragments)

    def advance(self, fragments):
        lists.append(np.asarray(fragments).tolist())
        real_advance(self, fragments)

    monkeypatch.setattr(uracs.mimo, "activity_detect", fake_detect)
    monkeypatch.setattr(PathTracker, "start", start)
    monkeypatch.setattr(PathTracker, "advance", advance)
    prof, cb, W, mats, covs, N0 = make_mimo_instance()
    decode_mimo(covs, mats, cb, list_size=2, N0=N0, mode="enhanced")
    assert len(index_sets) == len(lists) == prof.L
    # ranked 5, then 3 and 7 tied at 0.7: the tie goes to 3, reported as [3, 5]
    assert lists[0] == [3, 5]
    restricted = [(S, got) for S, got in zip(index_sets[1:], lists[1:]) if S.size < 16]
    assert restricted
    for S, got in restricted:
        assert got == [0, int(S[-1])]
    assert any(0 not in S for S, _ in restricted)
    with pytest.raises(ValueError):
        decode_mimo(covs, mats, cb, list_size=0, N0=N0)
