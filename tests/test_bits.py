"""Tests for the PCG64 bit reader: ``random_bits`` and ``bit_draws`` against
``Generator.integers(0, 2, shape, np.uint8)``."""

from contextlib import closing

import numpy as np
import pytest

from uracs.bits import bit_draws, random_bits

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


@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached-half"])
@pytest.mark.parametrize("shape", SHAPES)
def test_bit_draws_are_successive_random_bits(shape, cached):
    a, b = twin_generators(7, cached)
    with closing(bit_draws(b, shape)) as draws:
        for _, got in zip(range(11), draws):
            assert np.array_equal(got, a.integers(0, 2, shape, np.uint8))
            assert got.shape == np.empty(shape).shape
    # the cached half is written back when the draws stop, so the next draw
    # is the one after as many random_bits calls
    assert b.bit_generator.state == a.bit_generator.state
    assert np.array_equal(random_bits(b, (3, 3)), a.integers(0, 2, (3, 3), np.uint8))


def test_bit_draws_match_random_bits_calls():
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    with closing(bit_draws(b, (2, 3))) as draws:
        drawn = [next(draws) for _ in range(9)]
    assert all(np.array_equal(d, random_bits(a, (2, 3))) for d in drawn)
    assert np.array_equal(random_bits(b, (1, 5)), random_bits(a, (1, 5)))


def test_zero_size_draw_consumes_nothing():
    for cached in (False, True):
        a, b = twin_generators(3, cached)
        before = b.bit_generator.state
        assert random_bits(b, (0, 8)).shape == (0, 8)
        assert b.bit_generator.state == before
        assert np.array_equal(random_bits(b, 6), a.integers(0, 2, 6, np.uint8))


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                           np.random.SFC64, np.random.PCG64DXSM])
def test_other_bit_generators_are_refused(bit_generator):
    rng, twin = np.random.Generator(bit_generator(0)), np.random.Generator(bit_generator(0))
    with pytest.raises(TypeError, match="PCG64"):
        random_bits(rng, (2, 3))
    with pytest.raises(TypeError, match="PCG64"):
        next(bit_draws(rng, (2, 3)))
    # nothing was drawn
    assert rng.random() == twin.random()
