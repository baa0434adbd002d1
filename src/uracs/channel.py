"""Channel models: real-valued Gaussian MAC and block-fading MIMO uplink.

Energy conventions (documented, not canonical):
  SISO  Eb/N0 = d^2 * L / (2 * B)   unit-norm columns, real noise variance 1
  MIMO  Eb/N0 = L * n * P / (B * N0)  columns on the sphere of radius sqrt(n*P)

Both transmit functions take the plain values they read (the amplitude, or M
and N0, and the noise and fading seeds) and raise ValueError on one they
cannot use.
"""

from __future__ import annotations

import numpy as np


# Eb/N0 values a config may set, in dB. Far past any physical link, and far
# inside the float range: 10 ** (x / 10) overflows from about 3083 dB, and
# the powers derived from it must stay finite when squared.
EBN0_DB_LIMIT = 300.0


def ebn0_to_amplitude(ebn0_db: float, B: int, L: int) -> float:
    """Transmit amplitude d for the scalar channel at the given Eb/N0 (dB)."""
    if B < 1 or L < 1:
        raise ValueError("B and L must be at least 1")
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return float(np.sqrt(2.0 * B * ebn0 / L))


def ebn0_to_power(ebn0_db: float, B: int, L: int, n: int, N0: float) -> float:
    """Per-symbol power P for the MIMO channel at the given Eb/N0 (dB)."""
    if B < 1 or L < 1 or n < 1:
        raise ValueError("B, L, n must be at least 1")
    if N0 <= 0:
        raise ValueError("N0 must be positive")
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return float(ebn0 * B * N0 / (L * n))


def gmac_transmit(user_signals: np.ndarray, d: float, noise_seed,
                  stream: int = 0) -> np.ndarray:
    """y = d * sum_j x_j + z, z ~ N(0, I): superimpose the K x n per-user
    signals (one row per user) at amplitude d >= 0 and add real Gaussian noise.

    ``stream`` picks an independent substream of ``noise_seed`` so
    successive slots of one trial do not share noise.
    """
    if not d >= 0:
        raise ValueError("amplitude d must be nonnegative")
    user_signals = np.asarray(user_signals, dtype=np.float64)
    if user_signals.ndim != 2:
        raise ValueError("user_signals must be (K, n)")
    n = user_signals.shape[1]
    rng = np.random.default_rng((noise_seed, stream))
    return d * user_signals.sum(axis=0) + rng.standard_normal(n)


def mimo_block_bytes(n: int, K: int, M: int) -> int:
    """Bytes of ``mimo_block_transmit`` making an n x M block of K users: the
    block and two more n x M blocks (its noise and the product of its columns
    with the fading draw), the draw's three K x M arrays and the users' n x K
    columns, gathered from A once as complex128."""
    return 16 * (3 * n * M + 3 * K * M + n * K)


def mimo_block_transmit(column_indices: np.ndarray, A: np.ndarray, M: int,
                        N0: float, fading_seed, noise_seed,
                        block: int = 0) -> np.ndarray:
    """One coherence block: Y = sum_j a_{i_j} h_j^T + Z, shape (n, M).

    Fading vectors h_j are circularly-symmetric complex normal CN(0, I_M),
    drawn fresh per block; Z entries are CN(0, N0). ``block`` keys the
    per-block substreams of ``fading_seed`` and ``noise_seed``.
    """
    if M < 1:
        raise ValueError("antenna count M must be at least 1")
    if not N0 > 0:
        raise ValueError("noise power N0 must be positive")
    A = np.asarray(A)
    column_indices = np.asarray(column_indices, dtype=np.int64)
    n = A.shape[0]
    K = column_indices.shape[0]
    if column_indices.size and (column_indices.min() < 0 or
                                column_indices.max() >= A.shape[1]):
        raise ValueError("column index out of range")
    frng = np.random.default_rng((fading_seed, block))
    nrng = np.random.default_rng((noise_seed, block))
    H = (frng.standard_normal((K, M)) + 1j * frng.standard_normal((K, M)))
    H *= np.sqrt(0.5)
    Z = (nrng.standard_normal((n, M)) + 1j * nrng.standard_normal((n, M)))
    Z *= np.sqrt(N0 / 2.0)
    Y = Z
    if K:
        Y = A[:, column_indices].astype(np.complex128, copy=False) @ H + Z
    return Y
