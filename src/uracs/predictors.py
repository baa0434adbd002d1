"""Closed-form predictors of tree-decoder statistics.

For K simultaneous users and a parity profile (m, l), these give the
expected number of erroneous surviving paths per root, the total number of
parity-consistent partial paths, the mean number of admissible parity
patterns per slot, and the resulting column reduction ratio.

Two variants are provided. ``full`` iterates the erroneous-path recursion
    E[L_l] = 2^{-l_l} * (K * E[L_{l-1}] + K - 1),  E[L_1] = 0,
while ``one_step`` drops the carryover term and uses E[L_l] = 2^{-l_l}(K-1)
for l >= 2. The one-step numbers are the ones usually plotted; the variants
agree at slot 2 and differ by about a percent afterwards.
"""

from __future__ import annotations

import numpy as np

from .tree import ParityProfile

VARIANTS = ("full", "one_step")


def _check_slot(profile: ParityProfile, ell: int) -> None:
    if not 1 <= ell <= profile.L:
        raise ValueError(f"slot {ell} out of range [1, {profile.L}]")


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")


def expected_erroneous_paths(K: int, profile: ParityProfile, ell: int,
                             variant: str = "full") -> float:
    """Mean number of wrong parity-consistent paths per root surviving slot ``ell``."""
    _check_slot(profile, ell)
    _check_variant(variant)
    if ell == 1:
        return 0.0
    if variant == "one_step":
        return float(2.0 ** -profile.l[ell - 1] * (K - 1))
    e = 0.0
    for k in range(2, ell + 1):
        e = 2.0 ** -profile.l[k - 1] * (K * e + K - 1)
    return float(e)


def expected_partial_paths(K: int, profile: ParityProfile, ell: int,
                           variant: str = "full") -> float:
    """Total parity-consistent partial paths at slot ``ell`` across K roots."""
    return K * (1.0 + expected_erroneous_paths(K, profile, ell, variant))


def admissible_pattern_mean(path_count: float, parity_bits: int) -> float:
    """Mean occupied parity patterns when ``path_count`` paths each draw one of
    2**parity_bits patterns uniformly and independently."""
    if parity_bits < 0:
        raise ValueError("parity_bits must be nonnegative")
    if parity_bits == 0:
        return 1.0
    # 2^l * (1 - (1 - 2^-l)^P), in log space for small 2^-l
    log_miss = path_count * np.log1p(-(2.0 ** -parity_bits))
    return float(2.0 ** parity_bits * -np.expm1(log_miss))


def expected_admissible_patterns(K: int, profile: ParityProfile, ell: int,
                                 variant: str = "full") -> float:
    """Mean size of the admissible parity-pattern set at slot ``ell``."""
    p = expected_partial_paths(K, profile, ell, variant)
    return admissible_pattern_mean(p, profile.l[ell - 1])


def expected_column_reduction_ratio(K: int, profile: ParityProfile, ell: int,
                                    variant: str = "full") -> float:
    """Expected fraction of slot-``ell`` columns kept by parity-based pruning."""
    patterns = expected_admissible_patterns(K, profile, ell, variant)
    return patterns / 2.0 ** profile.l[ell - 1]


def predict_table(K: int, profile: ParityProfile, variant: str = "full") -> list[dict]:
    """All four statistics for every slot; one dict per slot."""
    if K < 1:
        raise ValueError("K must be at least 1")
    _check_variant(variant)
    return [{
        "K": K,
        "slot": ell,
        "variant": variant,
        "E_L": expected_erroneous_paths(K, profile, ell, variant),
        "P": expected_partial_paths(K, profile, ell, variant),
        "P_patterns": expected_admissible_patterns(K, profile, ell, variant),
        "R": expected_column_reduction_ratio(K, profile, ell, variant),
    } for ell in range(1, profile.L + 1)]
