"""Inner compressed-sensing code for the scalar channel.

Each slot transmits the superposition of sensing-matrix columns indexed by
the users' coded fragments. Recovery is per-slot NNLS followed by a top-K
support estimate, over the slot's admissible set of column indices; in
enhanced mode that set shrinks with the surviving tree paths.

The matrix builders check no memory budget: ``harness._check_trial_memory``
plans a whole trial's memory before any matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import rows_to_ints
from .nnls import nnls_solve, workspace_bytes
from .tree import DecodeResult, TreeCodebook, interleaved_decode


@dataclass
class SensingMatrix:
    """Dense sensing matrix; column j belongs to the fragment with index j,
    or to fragment S[j] once restricted by prune_columns(A, S)."""

    columns: np.ndarray      # (rows, cols)
    v: int                   # fragment bit width; indices live in [0, 2^v)

    @property
    def rows(self) -> int:
        return self.columns.shape[0]

    @property
    def cols(self) -> int:
        return self.columns.shape[1]


def matrix_bytes(n: int, widths, dtype=np.float64) -> int:
    """Bytes of one n x 2^v ``dtype`` sensing matrix per width in ``widths``."""
    return np.dtype(dtype).itemsize * n * sum(1 << v for v in widths)


def slot_bytes(K: int, n: int, v: int) -> int:
    """Bytes of a scalar slot at width v: K x n user signals, and a solve over
    2^v indices: the int64 index set, a pruned n x 2^v matrix, NNLS's figure,
    and the two 2^v-vectors of the top-K sort."""
    return 8 * n * (K + (1 << v)) + workspace_bytes(n, 1 << v) + 24 * (1 << v)


def _seed_key(seed) -> tuple:
    return (int(seed),) if np.isscalar(seed) else tuple(int(s) for s in seed)


def build_sensing_matrix(n: int, v: int, seed) -> SensingMatrix:
    """Full 2^v-column real Gaussian matrix with unit-norm columns."""
    if n < 1 or v < 1:
        raise ValueError("need n >= 1 and v >= 1")
    rng = np.random.default_rng(_seed_key(seed) + (n, v))
    A = rng.standard_normal((n, 1 << v))
    A /= np.linalg.norm(A, axis=0)
    return SensingMatrix(columns=A, v=v)


def build_complex_sensing_matrix(n: int, v: int, radius: float, seed) -> SensingMatrix:
    """Full 2^v-column complex matrix, every column on the sphere of the given radius."""
    if n < 1 or v < 1:
        raise ValueError("need n >= 1 and v >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(_seed_key(seed) + (n, v))
    cols = 1 << v
    A = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    A *= radius / np.linalg.norm(A, axis=0)
    return SensingMatrix(columns=A, v=v)


def user_signals(fragments: np.ndarray, A: SensingMatrix) -> np.ndarray:
    """Per-user slot signals (one row per user), unscaled columns of A."""
    fragments = np.atleast_2d(np.asarray(fragments, dtype=np.uint8))
    if fragments.shape[1] != A.v:
        raise ValueError(f"fragments must be {A.v} bits wide")
    return A.columns[:, rows_to_ints(fragments)].T


def top_k_support(x: np.ndarray, list_size: int, S: np.ndarray) -> np.ndarray:
    """Column indices behind the ``list_size`` largest entries of x, where
    x[j] scores column S[j], largest first. Ties go to the lower index."""
    if list_size < 1:
        raise ValueError("list_size must be at least 1")
    return S[np.lexsort((S, -np.asarray(x)))[:list_size]]


def prune_columns(A: SensingMatrix, S: np.ndarray) -> SensingMatrix:
    """The columns of A indexed by S, in S order; A itself when S is full."""
    if S.size == A.cols:
        return A
    return SensingMatrix(columns=A.columns[:, S], v=A.v)


def decode_siso(y_slots: list[np.ndarray], matrices: list[SensingMatrix],
                codebook: TreeCodebook, list_size: int, **loop) -> DecodeResult:
    """Recover messages from L slot observations.

    Each slot runs NNLS, at its default tolerance, on the matrix columns of
    its index set and keeps the top ``list_size`` fragments. ``loop`` goes to
    interleaved_decode unchanged: mode, force_full_patterns, path_cap, memo.
    """
    def solve_slot(y, A, S):
        A_S = prune_columns(A, S)
        res = nnls_solve(A_S.columns, y)
        # work model: nnls iterations * rows * cols
        return (top_k_support(res.x, list_size, S), res.iterations,
                res.iterations * A_S.rows * A_S.cols)

    return interleaved_decode(y_slots, matrices, codebook, solve_slot, **loop)
