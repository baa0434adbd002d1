"""Non-negative least squares via the Lawson-Hanson active-set method.

Solves min ||A x - y||_2 subject to x >= 0. At exit either the KKT
conditions hold within ``tol`` (converged) or the iteration cap was hit and
the best iterate so far is returned with ``converged`` False.

Each passive-set solve reuses the last one, after Bro & De Jong's FNNLS
(J. Chemometrics 1997): the inverse of the passive Gram block A_P^T A_P is
updated by a Schur complement when a column enters and downdated when one
leaves, so a step costs O(n p + p^2) instead of a fresh O(n p^2) solve. Every
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
    linearly independent and their Gram block invertible."""
    A = np.asarray(A, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if A.ndim != 2 or y.ndim != 1 or A.shape[0] != y.shape[0]:
        raise ValueError("A must be (n, c) and y length n")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    n, c = A.shape
    if max_iter is None:
        max_iter = 10 * max(c, 1)

    x = np.zeros(c)
    passive = np.zeros(c, dtype=bool)
    iterations = 0
    converged = False
    history: list[float] = []
    # passive columns in the order they entered, A[:, cols], and
    # (A_P^T A_P)^-1 in that order
    cols: list[int] = []
    A_P = A[:, :0]
    inv = np.zeros((0, 0))

    def enter(j: int) -> None:
        nonlocal A_P, inv
        cols.append(j)
        A_P = A[:, cols]
        a = A_P[:, -1]
        g = A_P[:, :-1].T @ a
        u = inv @ g
        s = float(a @ a - g @ u)
        p = len(g)
        grown = np.empty((p + 1, p + 1))
        grown[:p, :p] = inv + np.outer(u, u / s)
        grown[:p, p] = grown[p, :p] = -u / s
        grown[p, p] = 1.0 / s
        inv = grown

    def leave(k: int) -> None:
        nonlocal A_P, inv
        keep = np.arange(len(cols)) != k
        f = inv[keep, k]
        inv = inv[np.ix_(keep, keep)] - np.outer(f, f / inv[k, k])
        del cols[k]
        A_P = A[:, cols]

    def solve_passive() -> np.ndarray:
        z = np.zeros(c)
        if cols:
            z_P = inv @ (A_P.T @ y)
            z_P += inv @ (A_P.T @ (y - A_P @ z_P))
            z[cols] = z_P
        return z

    while True:
        r = y - A @ x
        history.append(float(np.linalg.norm(r)))
        w = A.T @ r
        free = ~passive
        if not free.any() or w[free].max() <= tol:
            converged = True
            break
        if iterations >= max_iter:
            break
        # np.argmax returns the first maximizer, which is the tie rule we want
        w_masked = np.where(free, w, -np.inf)
        j = int(np.argmax(w_masked))
        passive[j] = True
        enter(j)

        z = solve_passive()
        iterations += 1
        while passive.any() and z[passive].min() <= 0:
            if iterations >= max_iter:
                break
            # step toward z until the first passive coordinate hits zero
            neg = passive & (z <= 0)
            denom = x[neg] - z[neg]
            ratio = np.where(denom > 0, x[neg] / np.where(denom > 0, denom, 1.0), 0.0)
            alpha = float(ratio.min())
            x = x + alpha * (z - x)
            passive[passive & (np.abs(x) <= 1e-14)] = False
            x[~passive] = 0.0
            for k in reversed(range(len(cols))):
                if not passive[cols[k]]:
                    leave(k)
            z = solve_passive()
            iterations += 1
        else:
            x = z

    return NnlsResult(
        x=x,
        residual_norm=history[-1],
        iterations=iterations,
        converged=converged,
        objective_history=history,
    )
