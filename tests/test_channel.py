"""Tests for the scalar Gaussian MAC and the block-fading MIMO channel."""

import numpy as np
import pytest

from uracs.channel import (
    ebn0_to_amplitude,
    ebn0_to_power,
    gmac_transmit,
    mimo_block_transmit,
)


def test_transmit_validation():
    with pytest.raises(ValueError):
        gmac_transmit(np.zeros((1, 4)), -1.0, 0)
    # the user signals are K x n, one row per user
    for shape in ((4,), (1, 1, 4)):
        with pytest.raises(ValueError, match=r"must be \(K, n\)"):
            gmac_transmit(np.zeros(shape), 1.0, 0)
    A = np.zeros((8, 4), dtype=np.complex128)
    with pytest.raises(ValueError):
        mimo_block_transmit(np.array([0]), A, 4, 0.0, 0, 0)
    with pytest.raises(ValueError):
        mimo_block_transmit(np.array([0]), A, 0, 1.0, 0, 0)


def test_ebn0_amplitude_round_trip():
    # Inverted through the energy convention Eb/N0 = d^2 L / (2 B).
    for ebn0 in (-3.0, 0.0, 4.7, 12.0):
        d = ebn0_to_amplitude(ebn0, B=24, L=4)
        assert 10 * np.log10(d ** 2 * 4 / (2 * 24)) == pytest.approx(ebn0)
    # Hand value: Eb/N0 = 0 dB, B=24, L=4 gives d^2 = 2*24/4 = 12.
    assert ebn0_to_amplitude(0.0, 24, 4) == pytest.approx(np.sqrt(12.0))
    for B, L in ((0, 4), (24, 0)):
        with pytest.raises(ValueError, match="^B and L must be at least 1$"):
            ebn0_to_amplitude(0.0, B, L)


def test_ebn0_power_round_trip():
    # Inverted through the energy convention Eb/N0 = L n P / (B N0).
    for ebn0 in (-2.0, 0.0, 6.0):
        P = ebn0_to_power(ebn0, B=12, L=4, n=16, N0=2.0)
        assert 10 * np.log10(4 * 16 * P / (12 * 2.0)) == pytest.approx(ebn0)
    # Hand value: 0 dB, B=12, L=4, n=16, N0=1 gives P = 12/64.
    assert ebn0_to_power(0.0, 12, 4, 16, 1.0) == pytest.approx(12.0 / 64.0)
    for B, L, n in ((0, 4, 16), (12, 0, 16), (12, 4, 0)):
        with pytest.raises(ValueError, match="^B, L, n must be at least 1$"):
            ebn0_to_power(0.0, B, L, n, 1.0)
    for N0 in (0.0, -1.0):
        with pytest.raises(ValueError, match="^N0 must be positive$"):
            ebn0_to_power(0.0, 12, 4, 16, N0)


def test_gmac_noiseless_is_scaled_sum():
    # Less the noise of its (seed, stream) substream, the output is d times
    # the sum of the user signals.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 32))
    y = gmac_transmit(X, 2.0, 5, stream=2)
    z = np.random.default_rng((5, 2)).standard_normal(32)
    np.testing.assert_allclose(y - z, 2.0 * X.sum(axis=0), atol=1e-12)


def test_gmac_pure_noise_statistics():
    samples = np.concatenate([
        gmac_transmit(np.zeros((0, 4000)), 1.0, 1, stream=s) for s in range(10)
    ])
    assert samples.mean() == pytest.approx(0.0, abs=0.05)
    assert samples.std() == pytest.approx(1.0, rel=0.03)


def test_gmac_streams_differ_and_are_reproducible():
    X = np.zeros((1, 64))
    a0 = gmac_transmit(X, 1.0, 3, stream=0)
    a1 = gmac_transmit(X, 1.0, 3, stream=1)
    assert not np.array_equal(a0, a1)
    np.testing.assert_array_equal(a0, gmac_transmit(X, 1.0, 3, stream=0))
    assert not np.array_equal(a0, gmac_transmit(X, 1.0, 4, stream=0))


def test_mimo_block_matches_dense_oracle():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    idx = np.array([2, 5, 2])  # repeated column is allowed
    Y = mimo_block_transmit(idx, A, 6, 0.3, 7, 9, block=3)
    # Reconstruct with the same substreams.
    frng = np.random.default_rng((7, 3))
    nrng = np.random.default_rng((9, 3))
    H = (frng.standard_normal((3, 6)) + 1j * frng.standard_normal((3, 6))) * np.sqrt(0.5)
    Z = (nrng.standard_normal((4, 6)) + 1j * nrng.standard_normal((4, 6))) * np.sqrt(0.15)
    np.testing.assert_allclose(Y, A[:, idx] @ H + Z, atol=1e-12)


def test_mimo_zero_users_is_pure_noise():
    A = np.zeros((8, 4), dtype=np.complex128)
    Y = mimo_block_transmit(np.zeros(0, dtype=np.int64), A, 2048, 0.5, 0, 11)
    assert Y.shape == (8, 2048)
    # Per-entry complex variance N0, split evenly between parts.
    assert Y.real.var() == pytest.approx(0.25, rel=0.05)
    assert Y.imag.var() == pytest.approx(0.25, rel=0.05)


def test_mimo_fading_is_unit_variance_per_antenna():
    rng = np.random.default_rng(6)
    A = np.ones((1, 2), dtype=np.complex128)
    Y = mimo_block_transmit(np.array([0]), A, 20000, 1e-12, 13, 0)
    h = Y[0]
    # h ~ CN(0, 1): unit total variance, zero mean, independent halves.
    assert np.abs(h.mean()) < 0.02
    assert (np.abs(h) ** 2).mean() == pytest.approx(1.0, rel=0.03)


def test_mimo_energy_accounting():
    # Received signal power per channel use is ||a||^2 * K on average over
    # fading when columns have norm sqrt(n * P).
    n, M, K = 16, 4096, 3
    radius = np.sqrt(n * 0.25)
    rng = np.random.default_rng(8)
    A = rng.normal(size=(n, 8)) + 1j * rng.normal(size=(n, 8))
    A *= radius / np.linalg.norm(A, axis=0)
    Y = mimo_block_transmit(np.array([0, 1, 2]), A, M, 1e-12, 15, 0)
    per_use = (np.abs(Y) ** 2).sum(axis=0).mean()
    assert per_use == pytest.approx(K * radius ** 2, rel=0.1)


def test_mimo_rejects_bad_indices():
    A = np.zeros((4, 8), dtype=np.complex128)
    with pytest.raises(ValueError):
        mimo_block_transmit(np.array([8]), A, 2, 1.0, 0, 0)
    with pytest.raises(ValueError):
        mimo_block_transmit(np.array([-1]), A, 2, 1.0, 0, 0)
