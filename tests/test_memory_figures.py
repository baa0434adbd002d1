"""Each layer's memory figure bounds the traced peak of the call it describes.

The trial's memory plan (``harness._check_trial_memory``) adds these
figures up, taking the larger of a MIMO block's transmission and its
covariance, which are never held at once, so a figure that misses an
allocation shows up here, at its own layer. A matrix build has no figure of
its own: it comes before any slot and holds less beside its matrix than one
slot, which the build tests check. Every call runs once untraced first, so
one-off import costs are not traced. A figure counts arrays; the Python
objects and array headers a call makes are allowed ``SLACK`` bytes, which
the plan's one ufunc-buffer allowance covers in a trial.

Sizes: n = 1 at the widest fragments a default profile uses, and the
benchmark's siso-desk (n = 64, v = 8), siso-wide (n = 128, v = 10) and
mimo-desk (n = 16, v = 5, M = 64, K = 4) shapes.
"""

import tracemalloc

import numpy as np
import pytest

from uracs import ccs, channel, harness, mimo, nnls, tree
from uracs.tree import DEFAULT_MIMO_PROFILE, DEFAULT_SISO_PROFILE, ParityProfile

SLACK = 8 << 10


def assert_bounded(call, figure: int) -> None:
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= figure + SLACK, f"traced peak {peak} over figure {figure}"


def slot_observation(A: np.ndarray, K: int, seed: int) -> np.ndarray:
    """K columns of A at amplitude 5, plus unit Gaussian noise."""
    rng = np.random.default_rng(seed)
    cols = rng.choice(A.shape[1], K, replace=False)
    return 5 * A[:, cols].sum(axis=1) + rng.standard_normal(A.shape[0])


SCALAR = pytest.mark.parametrize("n, v", [(1, 15), (64, 8), (128, 10)])
MIMO = pytest.mark.parametrize("n, v", [(1, 12), (16, 5)])


def one_section(v: int) -> tree.TreeCodebook:
    """A codebook of one v-bit section, so that a decode is one slot solve."""
    return tree.TreeCodebook(ParityProfile(m=(v,), l=(0,)), 0)


def mimo_slot(n: int, v: int):
    """A complex matrix and the covariance of a block of four of its columns."""
    A = ccs.build_complex_sensing_matrix(n, v, 2.0, 0)
    Y = channel.mimo_block_transmit(np.arange(4), A.columns, 64, 1.0, 1, 2)
    return A, mimo.sample_covariance(Y)


@SCALAR
def test_real_matrix_build(n, v):
    # beside the matrix: the n x 2^v product x * x its column norms come
    # from, and three 2^v-vectors of norms and scales
    build = 8 * n * (1 << v) + 24 * (1 << v)
    assert build < ccs.slot_bytes(1, n, v)
    assert_bounded(lambda: ccs.build_sensing_matrix(n, v, 0), ccs.matrix_bytes(n, [v]) + build)


@SCALAR
def test_nnls_solve(n, v):
    A = ccs.build_sensing_matrix(n, v, 0).columns
    y = slot_observation(A, 4, 1)
    assert_bounded(lambda: nnls.nnls_solve(A, y), nnls.workspace_bytes(n, 1 << v))


def test_nnls_solve_refactor(monkeypatch):
    # siso-desk's n with one column 1e-6 from another: the passive set fills
    # to 63 columns, and one of the pair leaves by a re-factor of the rest,
    # NNLS's largest working set
    n = 64
    rng = np.random.default_rng(9)
    B = rng.standard_normal((n, n))
    A = np.column_stack([B, B[:, 0] + 1e-6 * rng.standard_normal(n)])
    y = A @ np.abs(rng.standard_normal(n + 1)) + 0.1 * rng.standard_normal(n)
    refactored = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: refactored.append(a.shape[1]) or qr(a))
    nnls.nnls_solve(A, y)
    monkeypatch.undo()
    assert refactored and max(refactored) >= n - 2
    assert_bounded(lambda: nnls.nnls_solve(A, y), nnls.workspace_bytes(n, n + 1))


@SCALAR
def test_scalar_slot_solve(n, v):
    A = ccs.build_sensing_matrix(n, v, 0)
    y = slot_observation(A.columns, 4, 1)
    assert_bounded(lambda: ccs.decode_siso([y], [A], one_section(v), 4), ccs.slot_bytes(4, n, v))


@MIMO
def test_complex_matrix_build(n, v):
    # beside the matrix: the two n x 2^v products its column norms come
    # from, conj(x) * x and conj(x), and three 2^v-vectors of norms and scales
    build = 16 * n * 2 * (1 << v) + 24 * (1 << v)
    assert build < mimo.decoder_bytes(n, v, 1)
    assert_bounded(lambda: ccs.build_complex_sensing_matrix(n, v, 2.0, 0),
                   ccs.matrix_bytes(n, [v], np.complex128) + build)


@MIMO
def test_activity_detect(n, v):
    A, cov = mimo_slot(n, v)
    S = np.arange(1 << v)
    # the covariance is made before the call; the figure counts it once
    assert_bounded(lambda: mimo.activity_detect(cov, A, S, 1.0), mimo.decoder_bytes(n, v, 1))


@MIMO
def test_mimo_slot_solve(n, v):
    A, cov = mimo_slot(n, v)
    assert_bounded(lambda: mimo.decode_mimo([cov], [A], one_section(v), 4, 1.0),
                   mimo.decoder_bytes(n, v, 1))


@pytest.mark.parametrize("n, K, M", [(1, 2, 20000), (8, 2, 20000), (16, 4, 64), (64, 32, 1)])
def test_mimo_block_in_flight(n, K, M):
    # at n = 64, K = 32, M = 1 the users' columns outweigh the block, so a
    # second copy of them would show
    A = ccs.build_complex_sensing_matrix(n, 5, 2.0, 0)

    def transmit():
        return channel.mimo_block_transmit(np.arange(K), A.columns, M, 1.0, 1, 2, block=1)
    assert_bounded(transmit, channel.mimo_block_bytes(n, K, M))
    # the figure counts the block the covariance is taken of, so a copy is traced
    Y = transmit()
    assert_bounded(lambda: mimo.sample_covariance(Y.copy()), mimo.covariance_bytes(n, M))


@pytest.mark.parametrize("profile, K", [(DEFAULT_SISO_PROFILE, 2), (DEFAULT_SISO_PROFILE, 100),
                                        (DEFAULT_MIMO_PROFILE, 2)],
                         ids=["siso-default-K2", "siso-default-K100", "mimo-96-K2"])
def test_messages(profile, K):
    # the codebook, the messages and the fragments are tree's; the messages'
    # Python ints are the harness's
    cfg = harness.parse_config({"scenario": "siso", "K": K, "ebn0_db": 10.0, "n": 1,
                                "profile": {"m": list(profile.m), "l": list(profile.l)}})
    assert_bounded(lambda: harness._draw_messages(cfg, K, 3),
                   tree.message_bytes(profile, K) + harness._SENT_INT_BYTES * K)
