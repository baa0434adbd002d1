"""Tests for the PCG64 bit rule: ``random_bits`` and ``stream_bits`` against
``Generator.integers(0, 2, shape, np.uint8)``."""

import numpy as np
import pytest

from uracs.bits import random_bits, stream_bits

# K x B with K * B = 0, 1, 2 and 3 (mod 4), zero-size shapes and 1-D shapes
SHAPES = [(4, 5), (3, 3), (2, 3), (1, 7), (100, 75), (0, 75), (5, 0), (0,), (1,), (6,), (13,)]


def twin_generators(seed: int, cached: bool):
    """Two generators in one state; with ``cached``, one holding a half word."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    if cached:
        for g in (a, b):
            g.integers(0, 2 ** 32, dtype=np.uint32)
        assert a.bit_generator.state["has_uint32"] == 1
    return a, b


@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached-half"])
@pytest.mark.parametrize("seed", [0, 1, 2026])
def test_random_bits_is_integers(seed, cached):
    a, b = twin_generators(seed, cached)
    # every shape after every other, so each starts on each cache state
    for shape in SHAPES + SHAPES[::-1]:
        want = a.integers(0, 2, shape, np.uint8)
        got = random_bits(b, shape)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert b.bit_generator.state == a.bit_generator.state
    # an int shape is a 1-D one
    got = random_bits(b, 5)
    assert got.shape == (5,) and np.array_equal(got, a.integers(0, 2, 5, np.uint8))
    # draws mixed with other calls on the same generator
    assert np.array_equal(random_bits(b, 9), a.integers(0, 2, 9, np.uint8))
    assert b.random() == a.random()


def test_zero_size_draw_consumes_nothing():
    for cached in (False, True):
        a, b = twin_generators(3, cached)
        before = b.bit_generator.state
        assert random_bits(b, (0, 8)).shape == (0, 8)
        assert b.bit_generator.state == before
        assert np.array_equal(random_bits(b, 6), a.integers(0, 2, 6, np.uint8))


@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached-half"])
@pytest.mark.parametrize("shape", SHAPES)
def test_bit_draws_are_successive_random_bits(shape, cached):
    # eleven draws read from the raw outputs' stream bits, each n bits from
    # a fresh uint32 word and ceil(n / 4) words long; a cached half, the high
    # word of the output it came from, is the first word read
    a, b = twin_generators(7, cached)
    n = int(np.prod(shape))
    words = -(-n // 4)
    half = [b.bit_generator.state["uinteger"] << 32] if cached else []
    outputs = np.r_[np.array(half, np.uint64), b.bit_generator.random_raw(6 * words)]
    bits = stream_bits(outputs)[4 * cached:]
    for draw in range(11):
        got = bits[4 * words * draw:][:n].reshape(shape)
        assert np.array_equal(got, a.integers(0, 2, shape, np.uint8))

