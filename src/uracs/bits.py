"""Bit-vector helpers.

Bit vectors are 1-D ``uint8`` arrays with values in {0, 1}, most significant
bit first. A fragment's integer index is its radix-2 value under that order.
"""

from __future__ import annotations

import numpy as np


def bits_to_int(bits: np.ndarray) -> int:
    """Radix-2 value of a bit vector, MSB first."""
    return int(rows_to_ints(np.atleast_2d(bits))[0])


def rows_to_ints(rows: np.ndarray) -> np.ndarray:
    """Vectorised bits_to_int over the rows of a 2-D bit array.

    Rows of up to 63 bits give int64 values. Wider rows would wrap int64, so
    they give exact Python ints (an object array), built from 63-bit chunks.
    """
    rows = np.asarray(rows)
    width = rows.shape[-1]
    if width > 63:
        head = rows_to_ints(rows[..., :width - 63]).astype(object)
        return (head << 63) | rows_to_ints(rows[..., width - 63:]).astype(object)
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    return rows.astype(np.int64) @ weights


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Bit vector (MSB first) of ``value``, zero-padded to ``width`` bits."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((value >> shifts) & 1).astype(np.uint8)


def ints_to_rows(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorised int_to_bits; returns a (len(values), width) uint8 array."""
    values = np.asarray(values, dtype=np.int64).reshape(-1, 1)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((values >> shifts) & 1).astype(np.uint8)


def random_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. Bernoulli(1/2) bits."""
    return rng.integers(0, 2, size=shape, dtype=np.uint8)
