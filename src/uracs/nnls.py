"""Non-negative least squares via the Lawson-Hanson active-set method.

Solves min ||A x - y||_2 subject to x >= 0. At exit either the KKT
conditions hold within ``tol`` (converged), or the iteration cap was hit or a
shut-out column (see ``nnls_solve``) still has a gradient above ``tol``, and
the best iterate so far is returned with ``converged`` False.

Each passive-set solve reuses the last one, after Bro & De Jong's FNNLS
(J. Chemometrics 1997): the inverse of the passive Gram block A_P^T A_P is
updated in place by a Schur complement when a column enters and downdated
when one leaves. The loop keeps only passive-set state (the p passive
columns, their values and that inverse, in buffers allocated once), so the
gradient A^T r is its one product with the whole n x c matrix: a step costs
O(n c) for it plus O(n p + p^2), instead of a fresh O(n p^2) solve. Every
solve takes one refinement step on its residual (corrected semi-normal
equations), which keeps the inverse's rounding out of the solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class NnlsResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    # objective ||Ax - y|| at x = 0 and after each outer step, for
    # monotonicity checks; the last entry is residual_norm
    objective_history: list[float] = field(default_factory=list)


def nnls_solve(A: np.ndarray, y: np.ndarray, tol: float = 1e-8,
               max_iter: int | None = None) -> NnlsResult:
    """Active-set NNLS. ``max_iter`` caps least-squares subproblem solves
    (default 10 * number of columns); ties in the entering variable go to the
    lowest column index. ``tol`` must be finite and positive: a column enters
    only when its gradient exceeds it, which keeps the passive columns
    linearly independent and their Gram block invertible.

    A ``tol`` far below rounding lets numerically dependent columns enter.
    One whose Schur complement rounds to exactly 0 is shut out for the rest
    of the solve, and a downdate whose pivot is 0 or overflows re-inverts the
    remaining Gram block (pseudo-inverse), so x stays finite."""
    A = np.asarray(A, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if A.ndim != 2 or y.ndim != 1 or A.shape[0] != y.shape[0]:
        raise ValueError("A must be (n, c) and y length n")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    n, c = A.shape
    if max_iter is None:
        max_iter = 10 * max(c, 1)

    iterations = 0
    converged = False
    history: list[float] = []
    # passive-set state in entry order: column indices cols, values x_P, the
    # columns as the first p columns of A_P and (A_P^T A_P)^-1 as the leading
    # p x p block of inv. Independent columns fit in min(n, c) slots; the
    # spare one takes a numerically dependent entry, and more regrow both.
    # closed: the passive and the shut-out columns, which may not enter
    closed = np.zeros(c, dtype=bool)
    shut: list[int] = []
    cols: list[int] = []
    x_P = np.zeros(0)
    cap = min(n, c) + 1
    A_P = np.empty((n, cap), order="F")
    inv = np.empty((cap, cap))
    p = 0

    def enter(j: int) -> bool:
        nonlocal A_P, inv, p
        a = A[:, j]
        g = A_P[:, :p].T @ a
        u = inv[:p, :p] @ g
        s = float(a @ a - g @ u)
        # s is the squared distance of a from the passive columns' span
        if s == 0.0:
            closed[j] = True
            shut.append(j)
            return False
        if p == A_P.shape[1]:
            A_P = np.hstack([A_P, A_P])
            inv = np.pad(inv, (0, p))
        inv[:p, :p] += np.outer(u, u / s)
        inv[:p, p] = inv[p, :p] = -u / s
        inv[p, p] = 1.0 / s
        A_P[:, p] = a
        cols.append(j)
        closed[j] = True
        p += 1
        return True

    def leave(k: int) -> None:
        nonlocal p
        f = inv[:p, k].copy()
        d = f[k]
        f[k:-1] = f[k + 1:]
        inv[k:p - 1, :p] = inv[k + 1:p, :p]
        inv[:p - 1, k:p - 1] = inv[:p - 1, k + 1:p]
        A_P[:, k:p - 1] = A_P[:, k + 1:p]
        closed[cols.pop(k)] = False
        p -= 1
        if d and np.isfinite(q := f[:p] / d).all():
            inv[:p, :p] -= np.outer(f[:p], q)
        else:
            B = A_P[:, :p]
            inv[:p, :p] = np.linalg.pinv(B.T @ B)

    def solve_passive() -> np.ndarray:
        B, G = A_P[:, :p], inv[:p, :p]
        z_P = G @ (B.T @ y)
        z_P += G @ (B.T @ (y - B @ z_P))
        return z_P

    r = y
    while True:
        history.append(float(np.linalg.norm(r)))
        w = A.T @ r
        w[closed] = -np.inf
        # np.argmax returns the first maximizer, which is the tie rule we want
        j = int(np.argmax(w))
        while w[j] > tol and iterations < max_iter and not enter(j):
            w[j] = -np.inf
            j = int(np.argmax(w))
        if not w[j] > tol:
            converged = not shut or not (A[:, shut].T @ r > tol).any()
            break
        if iterations >= max_iter:
            break
        x_P = np.append(x_P, 0.0)

        z_P = solve_passive()
        iterations += 1
        while p and z_P.min() <= 0:
            if iterations >= max_iter:
                break
            # step toward z until the first passive coordinate hits zero
            neg = z_P <= 0
            denom = x_P[neg] - z_P[neg]
            ratio = np.where(denom > 0, x_P[neg] / np.where(denom > 0, denom, 1.0), 0.0)
            alpha = float(ratio.min())
            x_P = x_P + alpha * (z_P - x_P)
            out = np.flatnonzero(np.abs(x_P) <= 1e-14)
            for k in out[::-1].tolist():
                leave(k)
            x_P = np.delete(x_P, out)
            z_P = solve_passive()
            iterations += 1
        else:
            x_P = z_P
        r = y - A_P[:, :p] @ x_P

    x = np.zeros(c)
    x[cols] = x_P
    # the last entry comes from the returned x on the whole matrix, so that
    # residual_norm is exactly ||A x - y||
    history[-1] = float(np.linalg.norm(A @ x - y))
    return NnlsResult(
        x=x,
        residual_norm=history[-1],
        iterations=iterations,
        converged=converged,
        objective_history=history,
    )
