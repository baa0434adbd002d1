"""Bit-vector helpers.

Bit rows are ``uint8`` arrays with values in {0, 1}, most significant bit
first. A fragment's integer index is its radix-2 value under that order.
"""

from __future__ import annotations

from contextlib import closing

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


def bit_draws(rng: np.random.Generator, shape):
    """Successive ``rng.integers(0, 2, shape, np.uint8)`` draws, read from the
    raw output of its PCG64 bit generator.

    numpy's rule for those draws: each bit is bit 7 of a byte of the uint32
    stream, low byte first; every draw starts on a fresh uint32 word, so a
    draw of n bits takes ceil(n / 4) words (none if n = 0); the uint32 stream
    is each 64-bit output's low half, then its high half, and a leftover
    half is cached for the next draw. The first draw refuses any other bit
    generator (TypeError) and reads the cached half; closing writes it back.
    """
    bg = rng.bit_generator
    if not isinstance(bg, np.random.PCG64):
        raise TypeError(f"bits are read from a PCG64 stream, not {type(bg).__name__}")
    n = int(np.prod(shape))
    words = -(-n // 4)
    state = bg.state
    # numpy keeps the last half read, whether or not it is still cached
    cached, uinteger = state["has_uint32"], np.uint32(state["uinteger"])
    try:
        while True:
            # that half, then the halves of the outputs the draw still needs
            raw = bg.random_raw(-(-(words - cached) // 2))
            halves = np.concatenate(([uinteger], raw.astype("<u8", copy=False).view("<u4")),
                                    dtype="<u4")
            first = 1 - cached
            cached, uinteger = halves.size - first - words, halves[-1]
            yield (halves[first:first + words].view(np.uint8)[:n] >> 7).reshape(shape)
    finally:
        state = bg.state
        state["has_uint32"], state["uinteger"] = cached, int(uinteger)
        bg.state = state


def random_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. Bernoulli(1/2) bits: ``rng.integers(0, 2, shape, np.uint8)``,
    the single-draw case of ``bit_draws``."""
    with closing(bit_draws(rng, shape)) as draws:
        return next(draws)
