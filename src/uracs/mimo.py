"""Covariance-based activity detection for the block-fading MIMO uplink.

Per coherence block, user activity enters only through the received
covariance N0*I + A diag(gamma) A^H. Coordinate descent fits gamma to the
sample covariance one column at a time, maintaining the running inverse by
rank-one updates. The enhanced decoder restricts the sweep to the index set
generated by the admissible parity patterns of the surviving tree paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ccs import SensingMatrix, top_k_support
from .tree import (DEFAULT_PATH_CAP, AdmissibleIndexSet, DecodeResult,
                   TreeCodebook, interleaved_decode)

TAU_SING = 1e-12
# every REFRESH_EVERY rank-one updates the tracked inverse is checked against
# the covariance it should invert, and recomputed if it drifted past TAU_INV
REFRESH_EVERY = 32
TAU_INV = 1e-8
DEFAULT_SWEEPS = 10
DEFAULT_CD_TOL = 1e-6


def sample_covariance(Y: np.ndarray) -> np.ndarray:
    """(1/M) Y Y^H for an n x M block observation."""
    Y = np.asarray(Y)
    if Y.ndim != 2:
        raise ValueError("Y must be 2-D (n, M)")
    return Y @ Y.conj().T / Y.shape[1]


class CovarianceState:
    """Running gamma estimate and inverse of N0*I + A diag(gamma) A^H."""

    def __init__(self, sample_cov: np.ndarray, A: SensingMatrix, N0: float):
        n = A.rows
        if sample_cov.shape != (n, n):
            raise ValueError("sample covariance shape must match matrix rows")
        self.sample_cov = np.asarray(sample_cov, dtype=np.complex128)
        self.A = A
        self.N0 = float(N0)
        self._eye = np.eye(n, dtype=np.complex128)
        self.sigma_inv = self._eye / self.N0
        self.gamma = np.zeros(A.cols)
        # column k as a contiguous row, and its conjugate, for coordinate_step
        self._rows = np.ascontiguousarray(A.columns.T)
        self._rows_conj = self._rows.conj()
        self.updates = 0
        self.skipped = 0
        self._since_check = 0

    def covariance(self) -> np.ndarray:
        """The covariance N0*I + A diag(gamma) A^H implied by the current gamma."""
        supp = np.flatnonzero(self.gamma > 0)
        sigma = self.N0 * self._eye
        if supp.size:
            cols = self.A.columns[:, supp]
            sigma += (cols * self.gamma[supp]) @ cols.conj().T
        return sigma

    def cost(self) -> float:
        """Covariance-matching objective log det(SIGMA) + tr(SIGMA^-1 SAMPLE)."""
        sigma = self.covariance()
        _, logdet = np.linalg.slogdet(sigma)
        return float(logdet + np.trace(np.linalg.solve(sigma, self.sample_cov)).real)

    def drift(self) -> float:
        n = self.A.rows
        err = self.sigma_inv @ self.covariance() - self._eye
        return float(np.linalg.norm(err) / np.sqrt(n))

    def refresh_inverse(self) -> None:
        self.sigma_inv = np.linalg.inv(self.covariance())

    def coordinate_step(self, k: int) -> float:
        """One clamped descent step on gamma[k]; returns the applied change."""
        s = self.sigma_inv @ self._rows[k]
        sc = s.conj()
        quad = float((self._rows_conj[k] @ s).real)  # a^H Sigma^-1 a
        fit = float((sc @ (self.sample_cov @ s)).real)
        d_star = (fit - quad) / quad ** 2
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
            self.sigma_inv -= (d_eff / denom) * (s[:, None] * sc)
            self.updates += 1
            self._since_check += 1
            if self._since_check == REFRESH_EVERY:
                self._since_check = 0
                if self.drift() > TAU_INV:
                    self.refresh_inverse()
        return d_eff


@dataclass
class ActivityDiagnostics:
    sweeps_run: int = 0
    updates: int = 0
    skipped: int = 0


def activity_detect(sample_cov: np.ndarray, A: SensingMatrix,
                    S: AdmissibleIndexSet, N0: float, sweeps: int = DEFAULT_SWEEPS,
                    tol: float = DEFAULT_CD_TOL) -> tuple[np.ndarray, ActivityDiagnostics]:
    """Coordinate descent over the index set S; ascending order within a sweep.

    Stops after ``sweeps`` full passes or when the largest absolute gamma
    change within a pass drops below ``tol``. Entries outside S stay zero.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be at least 1")
    state = CovarianceState(sample_cov, A, N0)
    diag = ActivityDiagnostics()
    for _ in range(sweeps):
        max_change = 0.0
        for k in S.indices.tolist():
            max_change = max(max_change, abs(state.coordinate_step(k)))
        diag.sweeps_run += 1
        if max_change < tol:
            break
    diag.updates = state.updates
    diag.skipped = state.skipped
    return state.gamma, diag


def decode_mimo(Y_blocks: list[np.ndarray], matrices: list[SensingMatrix],
                codebook: TreeCodebook, K: int, N0: float,
                mode: str = "original", list_size: int | None = None,
                sweeps: int = DEFAULT_SWEEPS, tol: float = DEFAULT_CD_TOL,
                force_full_patterns: bool = False,
                path_cap: int = DEFAULT_PATH_CAP,
                memo: dict | None = None) -> DecodeResult:
    """Recover messages from L block observations (modes and memo: see
    interleaved_decode).

    Each block runs activity detection over its index set and keeps the
    ``list_size`` (default K) largest gamma entries, in index order. They are
    ranked over all columns, so a list short of positive gamma fills up with
    zero-gamma columns, which may lie outside the set.
    """
    if list_size is None:
        list_size = K

    def solve_slot(Y, A, S):
        gamma, adiag = activity_detect(sample_covariance(Y), A, S, N0,
                                       sweeps=sweeps, tol=tol)
        bits, idx = top_k_support(gamma, list_size, AdmissibleIndexSet.full(A.v), A.v)
        # every visited coordinate costs an n^2 matvec whether or not it moves
        return (bits[np.argsort(idx)], adiag.sweeps_run,
                adiag.sweeps_run * S.size * A.rows ** 2)

    return interleaved_decode(Y_blocks, matrices, codebook, mode,
                              force_full_patterns, path_cap, solve_slot, memo)
