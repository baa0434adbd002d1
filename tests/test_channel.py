"""Tests for the scalar Gaussian MAC and the block-fading MIMO channel."""

import numpy as np
import pytest

from uracs.channel import (
    MimoChannelConfig,
    SisoChannelConfig,
    ebn0_to_amplitude,
    ebn0_to_power,
    gmac_transmit,
    mimo_block_transmit,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SisoChannelConfig(d=-1.0, B=10, L=2)
    with pytest.raises(ValueError):
        SisoChannelConfig(d=1.0, B=0, L=2)
    with pytest.raises(ValueError):
        MimoChannelConfig(M=4, n=8, N0=0.0, P=1.0)
    with pytest.raises(ValueError):
        MimoChannelConfig(M=0, n=8, N0=1.0, P=1.0)


def test_ebn0_amplitude_round_trip():
    # Inverted through the energy convention Eb/N0 = d^2 L / (2 B).
    for ebn0 in (-3.0, 0.0, 4.7, 12.0):
        d = ebn0_to_amplitude(ebn0, B=24, L=4)
        assert 10 * np.log10(d ** 2 * 4 / (2 * 24)) == pytest.approx(ebn0)
    # Hand value: Eb/N0 = 0 dB, B=24, L=4 gives d^2 = 2*24/4 = 12.
    assert ebn0_to_amplitude(0.0, 24, 4) == pytest.approx(np.sqrt(12.0))


def test_ebn0_power_round_trip():
    # Inverted through the energy convention Eb/N0 = L n P / (B N0).
    for ebn0 in (-2.0, 0.0, 6.0):
        P = ebn0_to_power(ebn0, B=12, L=4, n=16, N0=2.0)
        assert 10 * np.log10(4 * 16 * P / (12 * 2.0)) == pytest.approx(ebn0)
    # Hand value: 0 dB, B=12, L=4, n=16, N0=1 gives P = 12/64.
    assert ebn0_to_power(0.0, 12, 4, 16, 1.0) == pytest.approx(12.0 / 64.0)


def test_gmac_noiseless_is_scaled_sum():
    # Less the noise of its (seed, stream) substream, the output is d times
    # the sum of the user signals.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 32))
    cfg = SisoChannelConfig(d=2.0, B=10, L=2, noise_seed=5)
    y = gmac_transmit(X, cfg, stream=2)
    z = np.random.default_rng((5, 2)).standard_normal(32)
    np.testing.assert_allclose(y - z, 2.0 * X.sum(axis=0), atol=1e-12)


def test_gmac_pure_noise_statistics():
    cfg = SisoChannelConfig(d=1.0, B=10, L=2, noise_seed=1)
    samples = np.concatenate([
        gmac_transmit(np.zeros((0, 4000)), cfg, stream=s) for s in range(10)
    ])
    assert samples.mean() == pytest.approx(0.0, abs=0.05)
    assert samples.std() == pytest.approx(1.0, rel=0.03)


def test_gmac_streams_differ_and_are_reproducible():
    cfg = SisoChannelConfig(d=1.0, B=10, L=2, noise_seed=3)
    X = np.zeros((1, 64))
    a0 = gmac_transmit(X, cfg, stream=0)
    a1 = gmac_transmit(X, cfg, stream=1)
    assert not np.array_equal(a0, a1)
    np.testing.assert_array_equal(a0, gmac_transmit(X, cfg, stream=0))
    other = SisoChannelConfig(d=1.0, B=10, L=2, noise_seed=4)
    assert not np.array_equal(a0, gmac_transmit(X, other, stream=0))


def test_mimo_block_matches_dense_oracle():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    cfg = MimoChannelConfig(M=6, n=4, N0=0.3, P=1.0, fading_seed=7, noise_seed=9)
    idx = np.array([2, 5, 2])  # repeated column is allowed
    Y = mimo_block_transmit(idx, A, cfg, block=3)
    # Reconstruct with the same substreams.
    frng = np.random.default_rng((7, 3))
    nrng = np.random.default_rng((9, 3))
    H = (frng.standard_normal((3, 6)) + 1j * frng.standard_normal((3, 6))) * np.sqrt(0.5)
    Z = (nrng.standard_normal((4, 6)) + 1j * nrng.standard_normal((4, 6))) * np.sqrt(0.15)
    np.testing.assert_allclose(Y, A[:, idx] @ H + Z, atol=1e-12)


def test_mimo_zero_users_is_pure_noise():
    A = np.zeros((8, 4), dtype=np.complex128)
    cfg = MimoChannelConfig(M=2048, n=8, N0=0.5, P=1.0, noise_seed=11)
    Y = mimo_block_transmit(np.zeros(0, dtype=np.int64), A, cfg)
    assert Y.shape == (8, 2048)
    # Per-entry complex variance N0, split evenly between parts.
    assert Y.real.var() == pytest.approx(0.25, rel=0.05)
    assert Y.imag.var() == pytest.approx(0.25, rel=0.05)


def test_mimo_fading_is_unit_variance_per_antenna():
    rng = np.random.default_rng(6)
    A = np.ones((1, 2), dtype=np.complex128)
    cfg = MimoChannelConfig(M=20000, n=1, N0=1e-12, P=1.0, fading_seed=13)
    Y = mimo_block_transmit(np.array([0]), A, cfg)
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
    cfg = MimoChannelConfig(M=M, n=n, N0=1e-12, P=0.25, fading_seed=15)
    Y = mimo_block_transmit(np.array([0, 1, 2]), A, cfg)
    per_use = (np.abs(Y) ** 2).sum(axis=0).mean()
    assert per_use == pytest.approx(K * radius ** 2, rel=0.1)


def test_mimo_rejects_bad_indices():
    A = np.zeros((4, 8), dtype=np.complex128)
    cfg = MimoChannelConfig(M=2, n=4, N0=1.0, P=1.0)
    with pytest.raises(ValueError):
        mimo_block_transmit(np.array([8]), A, cfg)
    with pytest.raises(ValueError):
        mimo_block_transmit(np.array([-1]), A, cfg)
