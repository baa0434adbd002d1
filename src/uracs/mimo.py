"""Covariance-based activity detection for the block-fading MIMO uplink.

Per coherence block, user activity enters only through the received
covariance N0*I + A diag(gamma) A^H. Coordinate descent fits gamma to the
sample covariance one column at a time, maintaining the running inverse by
rank-one updates. The enhanced decoder restricts the sweep to the column
indices that the admissible parity patterns of the surviving tree paths generate.

A step is a few hundred flops on n x n arrays, so its time is mostly numpy's
per-call overhead: it calls ndarray.dot, not ``@`` (at n = 16 with numpy 2.4,
``sigma_inv.dot(a)`` takes about 1.0 us and ``sigma_inv @ a`` 1.9 us), and
writes its rank-one update into one buffer allocated with the state. For the
same reason a whole pass over the index set is one call,
``CovarianceState.sweep``, with the state's arrays bound to locals: a method
call and its attribute loads per step took about a tenth of a pass.
``coordinate_step`` is the sweep over one index.
"""

from __future__ import annotations

import math

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
    """Running gamma, inverse of N0*I + A diag(gamma) A^H, and solve counters:
    sweeps, rank-one updates, skipped steps and inverse refreshes."""

    def __init__(self, sample_cov: np.ndarray, A: SensingMatrix, N0: float):
        n = A.rows
        if sample_cov.shape != (n, n):
            raise ValueError("sample covariance shape must match matrix rows")
        self.sample_cov = np.asarray(sample_cov, dtype=np.complex128)
        if not np.isfinite(self.sample_cov).all():
            raise ValueError("sample covariance must be finite")
        self.N0 = float(N0)
        if not (math.isfinite(self.N0) and self.N0 > 0.0):
            raise ValueError("N0 must be finite and positive")
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
        self.refreshes = 0

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
        """||SIGMA^-1 SIGMA - I||_F / sqrt(n), the norm by numpy's rule for the
        raveled error, sqrt(re.re + im.im), without np.linalg.norm's wrapper."""
        err = self.sigma_inv.dot(self.covariance())
        err -= self._eye
        flat = err.ravel()
        re, im = flat.real, flat.imag
        return math.sqrt(re.dot(re) + im.dot(im)) / math.sqrt(len(err))

    def refresh_inverse(self) -> None:
        self.sigma_inv = np.linalg.inv(self.covariance())
        self.refreshes += 1

    def sweep(self, order) -> float:
        """One clamped descent step on gamma[k] for each k of ``order``, in
        order; returns the largest absolute change, 0.0 for a skipped step.

        The state's arrays are locals for the whole pass; drift checks and
        refreshes still go through ``self``, and a refresh rebinds sigma_inv.
        """
        rows, gamma, sample_cov, outer = self._rows, self.gamma, self.sample_cov, self._outer
        sigma_inv = self.sigma_inv
        updates, max_change = self.updates, 0.0
        for k in order:
            a = rows[k]
            s = sigma_inv.dot(a)
            sc = s.conj()
            quad = float(sc.dot(a).real)  # a^H Sigma^-1 a, the bits of np.vdot(a, s)
            fit = float(sc.dot(sample_cov.dot(s)).real)
            # x * x, not libm's pow: the same bits everywhere
            d_star = (fit - quad) / (quad * quad)
            g = gamma.item(k)
            new_gamma = g + d_star
            if new_gamma < 0.0:
                new_gamma = 0.0
            d_eff = new_gamma - g
            denom = 1.0 + d_eff * quad
            if denom <= TAU_SING:
                self.skipped += 1
                continue
            if d_eff != 0.0:
                gamma[k] = new_gamma
                # rank-one inverse update with the clamped step, so sigma_inv
                # stays the inverse of the covariance implied by gamma
                np.multiply(s[:, None], sc, out=outer)
                outer *= d_eff / denom
                sigma_inv -= outer
                updates += 1
                if updates % REFRESH_EVERY == 0:
                    self.updates = updates
                    if self.drift() > TAU_INV:
                        self.refresh_inverse()
                        sigma_inv = self.sigma_inv
                change = abs(d_eff)
                if change > max_change:
                    max_change = change
        self.updates = updates
        return max_change

    def coordinate_step(self, k: int) -> float:
        """One clamped descent step on gamma[k]; returns the applied change."""
        g = float(self.gamma[k])
        self.sweep((k,))
        return float(self.gamma[k]) - g


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
    if S.size and not (S.min() >= 0 and S.max() < A.cols):
        raise ValueError("column indices must lie in [0, 2^v)")
    state = CovarianceState(sample_cov, A, N0)
    order = S.tolist()
    for _ in range(sweeps):
        max_change = state.sweep(order)
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
