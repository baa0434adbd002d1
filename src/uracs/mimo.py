"""Covariance-based activity detection for the block-fading MIMO uplink.

Per coherence block, user activity enters only through the received
covariance N0*I + A diag(gamma) A^H. Coordinate descent fits gamma to the
sample covariance one column at a time, maintaining the running inverse by
rank-one updates. The enhanced decoder restricts the sweep to the column
indices that the admissible parity patterns of the surviving tree paths generate.

A step is a few hundred flops on n x n arrays, so its time is mostly numpy's
per-call overhead: it calls ndarray.dot, not ``@`` (at n = 16 with numpy 2.4,
``sigma_inv.dot(a)`` takes about 1.0 us and ``sigma_inv @ a`` 1.9 us), and
writes its rank-one update into one buffer allocated with the state.
"""

from __future__ import annotations

import numpy as np

from .ccs import SensingMatrix, top_k_support
from .tree import DEFAULT_PATH_CAP, DecodeResult, TreeCodebook, interleaved_decode

TAU_SING = 1e-12
# every REFRESH_EVERY rank-one updates the tracked inverse is checked against
# the covariance it should invert, and recomputed if it drifted past TAU_INV
REFRESH_EVERY = 32
TAU_INV = 1e-8
DEFAULT_SWEEPS = 10
DEFAULT_CD_TOL = 1e-6


def decoder_bytes(n: int, v: int, L: int) -> int:
    """Bytes of L n x n sample covariances and one slot solve over 2^v columns:
    the state's row copy and 3 n x n matrices, and a drift check's 3 of each;
    per column, the int64 index set, gamma, the sweep's Python int and list
    slot (40 bytes) and the three int64 vectors of the top-K sort."""
    return 16 * (L * n * n + 4 * n * (1 << v) + 6 * n * n) + 80 * (1 << v)


def covariance_bytes(n: int, M: int) -> int:
    """Bytes of ``sample_covariance`` of an n x M block: the block, its
    conjugate copy, their n x n product and the scaled result."""
    return 16 * (2 * n * M + 2 * n * n)


def sample_covariance(Y: np.ndarray) -> np.ndarray:
    """(1/M) Y Y^H for an n x M block observation."""
    Y = np.asarray(Y)
    if Y.ndim != 2:
        raise ValueError("Y must be 2-D (n, M)")
    return Y @ Y.conj().T / Y.shape[1]


class CovarianceState:
    """Running gamma, inverse of N0*I + A diag(gamma) A^H, and solve counters."""

    def __init__(self, sample_cov: np.ndarray, A: SensingMatrix, N0: float):
        n = A.rows
        if sample_cov.shape != (n, n):
            raise ValueError("sample covariance shape must match matrix rows")
        self.sample_cov = np.asarray(sample_cov, dtype=np.complex128)
        if not np.isfinite(self.sample_cov).all():
            raise ValueError("sample covariance must be finite")
        self.N0 = float(N0)
        self._eye = np.eye(n, dtype=np.complex128)
        self.sigma_inv = self._eye / self.N0
        self.gamma = np.zeros(A.cols)
        # column k of A as a contiguous row; the state's one copy of A
        self._rows = np.ascontiguousarray(A.columns.T)
        # the rank-one update of each step is written here
        self._outer = np.empty((n, n), dtype=np.complex128)
        self.sweeps_run = 0
        self.updates = 0
        self.skipped = 0

    def covariance(self) -> np.ndarray:
        """The covariance N0*I + A diag(gamma) A^H implied by the current gamma."""
        supp = np.flatnonzero(self.gamma > 0)
        sigma = self.N0 * self._eye
        if supp.size:
            rows = self._rows[supp]
            sigma += (rows.T * self.gamma[supp]).dot(rows.conj())
        return sigma

    def cost(self) -> float:
        """Covariance-matching objective log det(SIGMA) + tr(SIGMA^-1 SAMPLE)."""
        sigma = self.covariance()
        _, logdet = np.linalg.slogdet(sigma)
        return float(logdet + np.trace(np.linalg.solve(sigma, self.sample_cov)).real)

    def drift(self) -> float:
        err = self.sigma_inv.dot(self.covariance())
        err -= self._eye
        return float(np.linalg.norm(err) / np.sqrt(len(err)))

    def refresh_inverse(self) -> None:
        self.sigma_inv = np.linalg.inv(self.covariance())

    def coordinate_step(self, k: int) -> float:
        """One clamped descent step on gamma[k]; returns the applied change."""
        a = self._rows[k]
        s = self.sigma_inv.dot(a)
        sc = s.conj()
        quad = float(np.vdot(a, s).real)  # a^H Sigma^-1 a
        fit = float(sc.dot(self.sample_cov.dot(s)).real)
        d_star = (fit - quad) / (quad * quad)  # x * x, not libm's pow: the same bits everywhere
        g = float(self.gamma[k])
        new_gamma = max(g + d_star, 0.0)
        d_eff = new_gamma - g
        denom = 1.0 + d_eff * quad
        if denom <= TAU_SING:
            self.skipped += 1
            return 0.0
        self.gamma[k] = new_gamma
        if d_eff != 0.0:
            # rank-one inverse update with the clamped step, so sigma_inv
            # stays the inverse of the covariance implied by gamma
            outer = np.multiply.outer(s, sc, out=self._outer)
            outer *= d_eff / denom
            self.sigma_inv -= outer
            self.updates += 1
            if self.updates % REFRESH_EVERY == 0 and self.drift() > TAU_INV:
                self.refresh_inverse()
        return d_eff


def activity_detect(sample_cov: np.ndarray, A: SensingMatrix,
                    S: np.ndarray, N0: float, sweeps: int = DEFAULT_SWEEPS,
                    tol: float = DEFAULT_CD_TOL) -> tuple[np.ndarray, CovarianceState]:
    """Coordinate descent over the column indices S; ascending order within a sweep.

    Stops after ``sweeps`` full passes or when the largest absolute gamma
    change within a pass drops below ``tol``. Entries outside S stay zero.
    Returns gamma and the final state, which holds the solve's counters.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    state = CovarianceState(sample_cov, A, N0)
    step, order = state.coordinate_step, S.tolist()
    for _ in range(sweeps):
        max_change = 0.0
        for k in order:
            change = abs(step(k))
            if change > max_change:
                max_change = change
        state.sweeps_run += 1
        if max_change < tol:
            break
    return state.gamma, state


def decode_mimo(covariances: list[np.ndarray], matrices: list[SensingMatrix],
                codebook: TreeCodebook, list_size: int, N0: float,
                mode: str = "original", force_full_patterns: bool = False,
                path_cap: int = DEFAULT_PATH_CAP,
                memo: dict | None = None) -> DecodeResult:
    """Recover messages from the sample covariances of L blocks (modes and
    memo: see interleaved_decode).

    Each block runs activity detection over its index set and keeps the
    ``list_size`` largest gamma entries, in index order. They are ranked over
    all columns, so a list short of positive gamma fills up with zero-gamma
    columns, which may lie outside the set.
    """
    def solve_slot(sample_cov, A, S):
        gamma, state = activity_detect(sample_cov, A, S, N0)
        found = np.sort(top_k_support(gamma, list_size, np.arange(A.cols)))
        # every visited coordinate costs an n^2 matvec whether or not it moves
        return found, state.sweeps_run, state.sweeps_run * S.size * A.rows ** 2

    return interleaved_decode(covariances, matrices, codebook, mode,
                              force_full_patterns, path_cap, solve_slot, memo)
