"""Bit-vector helpers.

Bit rows are ``uint8`` arrays with values in {0, 1}, most significant bit
first. A fragment's integer index is its radix-2 value under that order.
"""

from __future__ import annotations

import numpy as np

# 2^62, ..., 2, 1: a row of w <= 63 bits is weighted by the last w of them
_WEIGHTS = 1 << np.arange(62, -1, -1, dtype=np.int64)


def rows_to_ints(rows: np.ndarray) -> np.ndarray:
    """Radix-2 values (MSB first) of the rows of a 2-D bit array.

    Rows of up to 63 bits give int64 values. Wider rows would wrap int64, so
    they give exact Python ints (an object array), built from 63-bit chunks.
    """
    rows = np.asarray(rows)
    width = rows.shape[-1]
    if width > 63:
        head = rows_to_ints(rows[..., :width - 63]).astype(object)
        return (head << 63) | rows_to_ints(rows[..., width - 63:]).astype(object)
    return rows.astype(np.int64, copy=False) @ _WEIGHTS[63 - width:]


def ints_to_rows(values: np.ndarray, width: int) -> np.ndarray:
    """Bit rows (MSB first) of ``values``, zero-padded to ``width`` bits;
    returns a (len(values), width) uint8 array."""
    values = np.asarray(values, dtype=np.int64).reshape(-1, 1)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((values >> shifts) & 1).astype(np.uint8)


def stream_bits(outputs: np.ndarray) -> np.ndarray:
    """The bits numpy's ``integers(0, 2, n, np.uint8)`` reads from 64-bit
    PCG64 ``outputs``: bit 7 of each byte, the outputs read little-endian.
    A draw starts on a fresh uint32 word (an output is its low word, then its
    high word) and takes the next n of these bits, ceil(n / 4) words."""
    return outputs.astype("<u8", copy=False).view(np.uint8) >> 7


def random_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. Bernoulli(1/2) bits: ``rng.integers(0, 2, shape, np.uint8)``."""
    return rng.integers(0, 2, shape, np.uint8)
