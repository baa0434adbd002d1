"""Tests for the closed-form tree-statistics predictors."""

import numpy as np
import pytest

from uracs.predictors import (
    VARIANTS,
    admissible_pattern_mean,
    expected_admissible_patterns,
    expected_column_reduction_ratio,
    expected_erroneous_paths,
    expected_partial_paths,
    predict_table,
)
from uracs.tree import DEFAULT_SISO_PROFILE, ParityProfile


def erroneous_paths_by_summation(K, profile, ell):
    """Independent oracle: unroll the recursion into an explicit sum.

    Each term counts paths that went wrong at slot k and then survived every
    later parity check: (K-1) * K^(ell-k) * 2^-(l_k + ... + l_ell).
    """
    total = 0.0
    for k in range(2, ell + 1):
        exponent = sum(profile.l[j - 1] for j in range(k, ell + 1))
        total += (K - 1) * K ** (ell - k) * 2.0 ** -exponent
    return total


def test_recursion_matches_summation_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        L = int(rng.integers(2, 7))
        m = tuple(int(x) for x in rng.integers(1, 6, size=L))
        l = (0,) + tuple(int(x) for x in rng.integers(0, 5, size=L - 1))
        profile = ParityProfile(m=m, l=l)
        K = int(rng.integers(1, 40))
        for ell in range(1, L + 1):
            got = expected_erroneous_paths(K, profile, ell, "full")
            want = erroneous_paths_by_summation(K, profile, ell)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_one_step_drops_carryover():
    profile = ParityProfile(m=(8, 7, 5, 4), l=(0, 1, 3, 4))
    K = 25
    for ell in range(2, 5):
        got = expected_erroneous_paths(K, profile, ell, "one_step")
        assert got == pytest.approx(2.0 ** -profile.l[ell - 1] * (K - 1))
    # The variants agree exactly at slot 2 (no carryover exists there).
    assert expected_erroneous_paths(K, profile, 2, "full") == pytest.approx(
        expected_erroneous_paths(K, profile, 2, "one_step")
    )


def test_slot1_is_zero_and_partial_paths_scale():
    profile = DEFAULT_SISO_PROFILE
    for variant in VARIANTS:
        assert expected_erroneous_paths(10, profile, 1, variant) == 0.0
        assert expected_partial_paths(10, profile, 1, variant) == 10.0
        e = expected_erroneous_paths(10, profile, 5, variant)
        assert expected_partial_paths(10, profile, 5, variant) == pytest.approx(
            10 * (1 + e)
        )


def test_admissible_pattern_mean_hand_values():
    # Occupancy of 2^l bins by P uniform throws: 2^l (1 - (1 - 2^-l)^P).
    assert admissible_pattern_mean(2.0, 1) == pytest.approx(1.5)
    assert admissible_pattern_mean(3.0, 2) == pytest.approx(2.3125)
    assert admissible_pattern_mean(1.0, 4) == pytest.approx(1.0)
    # Zero parity bits means the single empty pattern.
    assert admissible_pattern_mean(17.0, 0) == 1.0
    with pytest.raises(ValueError):
        admissible_pattern_mean(2.0, -1)


def test_admissible_pattern_mean_monte_carlo():
    rng = np.random.default_rng(1)
    for P, l in [(5, 2), (12, 3), (40, 4)]:
        draws = rng.integers(0, 2 ** l, size=(20000, P))
        occupied = np.array([len(set(row.tolist())) for row in draws])
        mc = occupied.mean()
        se = occupied.std(ddof=1) / np.sqrt(len(occupied))
        assert abs(admissible_pattern_mean(float(P), l) - mc) < 5 * se


def test_reduction_ratio_limits():
    profile = ParityProfile(m=(8, 7, 5, 4), l=(0, 1, 3, 4))
    for variant in VARIANTS:
        # Slot 1 carries no parity: nothing can be pruned.
        assert expected_column_reduction_ratio(3, profile, 1, variant) == 1.0
        for ell in range(2, 5):
            r = expected_column_reduction_ratio(3, profile, ell, variant)
            assert 0.0 < r < 1.0
            # Consistency with the pattern-count form.
            pats = expected_admissible_patterns(3, profile, ell, variant)
            assert r == pytest.approx(pats / 2.0 ** profile.l[ell - 1])
    # Huge path counts occupy every pattern.
    big = ParityProfile(m=(4, 4), l=(0, 1))
    assert expected_column_reduction_ratio(10000, big, 2) == pytest.approx(1.0)


def test_ratio_monotone_in_users():
    profile = DEFAULT_SISO_PROFILE
    for ell in (2, 3, 10):
        r = [
            expected_column_reduction_ratio(K, profile, ell, "full")
            for K in (5, 25, 100, 300)
        ]
        assert all(a < b for a, b in zip(r, r[1:]))


def test_default_profile_reference_values():
    # Frozen reference points for the 11-slot default profile (5 decimals).
    cases = [
        (25, 2, 0.41804),
        (25, 3, 0.10149),
        (25, 9, 0.10149),
        (25, 11, 0.00076),
        (100, 10, 0.01228),
        (100, 3, 0.41885),
    ]
    for K, slot, want in cases:
        got = expected_column_reduction_ratio(K, DEFAULT_SISO_PROFILE, slot, "one_step")
        assert got == pytest.approx(want, abs=5e-5)
    # Full-recursion counterparts, pinned as regression values.
    full_cases = [
        (25, 3, 0.10471),
        (100, 3, 0.54125),
        (100, 9, 0.47285),
    ]
    for K, slot, want in full_cases:
        got = expected_column_reduction_ratio(K, DEFAULT_SISO_PROFILE, slot, "full")
        assert got == pytest.approx(want, abs=5e-5)


def test_full_exceeds_one_step_after_slot2():
    # Carryover can only add wrong paths, so full >= one_step everywhere.
    for K in (5, 25, 100):
        for ell in range(2, 12):
            f = expected_erroneous_paths(K, DEFAULT_SISO_PROFILE, ell, "full")
            o = expected_erroneous_paths(K, DEFAULT_SISO_PROFILE, ell, "one_step")
            assert f >= o - 1e-15


def test_predict_table_shape_and_consistency():
    profile = ParityProfile(m=(8, 7, 5, 4), l=(0, 1, 3, 4))
    rows = predict_table(4, profile, "full")
    assert len(rows) == 4
    for ell, row in enumerate(rows, start=1):
        assert row["K"] == 4
        assert row["slot"] == ell
        assert row["variant"] == "full"
        assert row["E_L"] == pytest.approx(
            expected_erroneous_paths(4, profile, ell, "full")
        )
        assert row["P"] == pytest.approx(4 * (1 + row["E_L"]))
        assert row["P_patterns"] == pytest.approx(
            admissible_pattern_mean(row["P"], profile.l[ell - 1])
        )
        assert row["R"] == pytest.approx(
            expected_column_reduction_ratio(4, profile, ell, "full")
        )


def test_input_validation():
    with pytest.raises(ValueError):
        predict_table(0, DEFAULT_SISO_PROFILE)
    with pytest.raises(ValueError):
        predict_table(2, DEFAULT_SISO_PROFILE, variant="half")
    with pytest.raises(ValueError):
        expected_erroneous_paths(5, DEFAULT_SISO_PROFILE, 0)
    with pytest.raises(ValueError):
        expected_erroneous_paths(5, DEFAULT_SISO_PROFILE, 12)
    with pytest.raises(ValueError):
        expected_erroneous_paths(5, DEFAULT_SISO_PROFILE, 3, variant="bogus")
