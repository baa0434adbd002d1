"""Non-negative least squares via the Lawson-Hanson active-set method.

Solves min ||A x - y||_2 subject to x >= 0. At exit either the KKT
conditions hold within ``tol`` (converged), or the iteration cap was hit or a
shut-out column (see ``nnls_solve``) still has a gradient above ``tol``, and
the best iterate so far is returned with ``converged`` False.

Each passive-set solve reuses the last one, after Lawson & Hanson (Solving
Least Squares Problems, 1974) and Bro & De Jong's FNNLS (J. Chemometrics
1997): the inverse of the passive Gram block A_P^T A_P is updated in place by
a Schur complement when a column enters and downdated when one leaves. The
loop keeps only passive-set state (the p passive columns, their values and
that inverse, in buffers allocated once), so the gradient w = A^T r is its
one product with the whole n x c matrix: a step costs O(n c) for it plus
O(n p + p^2), instead of a fresh O(n p^2) solve.

Which solves are refined. A solve inside the clipping (leave) loop, and the
first entry after one, takes the refined solve: the normal equations through
the inverse, then one refinement step on its residual (corrected semi-normal
equations), which keeps the inverse's rounding out of the solution.

Why the other entries are exact in O(p). When column a = A[:, j] enters
after an unclipped step, x_P is the least-squares solution on the passive
columns B and r = y - B x_P is its residual. With g = B^T a, u = (B^T B)^-1 g
and the Schur complement s = a^T a - g^T u, the normal equations of [B a]
give the new solution [x_P - u w_j / s; w_j / s], where w_j = a^T r is the
entering gradient, already computed. The new column of the updated inverse is
[-u / s; 1 / s], so the new solution is x_P (with a zero appended) plus w_j
times that column.

What the guard checks. An extension is not refined, so it inherits the
error of x_P and of the inverse. At the exact passive solution the passive
gradient w_P = B^T r is 0, and w is computed from a fresh residual at every
step, so if max |w_P| exceeds ``tol`` the next entry takes the refined solve
instead: an iterate is extended only while it meets the KKT conditions on
the passive set within ``tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_NNLS_TOL = 1e-8


@dataclass
class NnlsResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    # objective ||Ax - y|| at x = 0 and after each outer step, for
    # monotonicity checks; the last entry is residual_norm
    objective_history: list[float] = field(default_factory=list)
    # steps at which the passive gradient of an extensible iterate exceeded
    # tol, so that the entry, if any, took the refined solve
    guard_trips: int = 0


def nnls_solve(A: np.ndarray, y: np.ndarray, tol: float = DEFAULT_NNLS_TOL,
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
    guard_trips = 0
    history: list[float] = []
    # passive-set state in entry order: column indices P, values x_P, the
    # columns as the first p columns of A_P and (A_P^T A_P)^-1 as the leading
    # p x p block of inv. Independent columns fit in min(n, c) slots; the
    # spare one takes a numerically dependent entry, and more regrow them.
    # closed: the passive and the shut-out columns, which may not enter
    closed = np.zeros(c, dtype=bool)
    shut: list[int] = []
    cap = min(n, c) + 1
    P = np.empty(cap, dtype=np.intp)
    x_buf = np.empty(cap)
    A_P = np.empty((n, cap), order="F")
    inv = np.empty((cap, cap))
    p = 0

    def leave(k: int) -> None:
        nonlocal p
        f = inv[:p, k].copy()
        d = f[k]
        f[k:-1] = f[k + 1:]
        inv[k:p - 1, :p] = inv[k + 1:p, :p]
        inv[:p - 1, k:p - 1] = inv[:p - 1, k + 1:p]
        A_P[:, k:p - 1] = A_P[:, k + 1:p]
        closed[P[k]] = False
        P[k:p - 1] = P[k + 1:p]
        x_buf[k:p - 1] = x_buf[k + 1:p]
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
    # x_P solves the least squares on the passive columns and r is its
    # residual, so the next entry may extend x_P instead of re-solving
    extend = True
    while True:
        history.append(math.sqrt(r @ r))
        w = A.T @ r
        if extend and p and np.abs(w[P[:p]]).max() > tol:
            # the passive gradient should be 0 at that solution; above tol,
            # rounding has taken x_P too far from it to extend
            extend = False
            guard_trips += 1
        w[closed] = -np.inf
        # argmax returns the first maximizer, which is the tie rule we want
        j = int(w.argmax())
        while (wj := w[j]) > tol and iterations < max_iter:
            a = A[:, j]
            g = A_P[:, :p].T @ a
            u = inv[:p, :p] @ g
            # s is the squared distance of a from the passive columns' span
            s = float(a @ a - g @ u)
            if s != 0.0:
                break
            closed[j] = True
            shut.append(j)
            w[j] = -np.inf
            j = int(w.argmax())
        else:
            if not wj > tol:
                converged = not shut or not (A[:, shut].T @ r > tol).any()
            break

        # column j enters as passive column p
        if p == cap:
            A_P = np.hstack([A_P, A_P])
            inv = np.pad(inv, (0, p))
            P = np.pad(P, (0, p))
            x_buf = np.pad(x_buf, (0, p))
            cap += p
        # the Schur complement update of the inverse, written in place
        v = u / s
        G = inv[:p, :p]
        G += np.outer(u, v)
        inv[:p, p] = inv[p, :p] = -v
        inv[p, p] = 1.0 / s
        A_P[:, p] = a
        P[p] = j
        closed[j] = True
        x_buf[p] = 0.0
        p += 1
        x_P = x_buf[:p]
        if extend:
            # the new inverse column [-u/s; 1/s] times a^T r = w[j] adds the
            # new column's least-squares correction to the old solution
            z_P = x_P + wj * inv[:p, p - 1]
        else:
            z_P = solve_passive()
        iterations += 1
        extend = True
        while p and z_P.min() <= 0:
            extend = False
            if iterations >= max_iter:
                break
            # step toward z until the first passive coordinate hits zero
            neg = z_P <= 0
            denom = x_P[neg] - z_P[neg]
            ratio = np.where(denom > 0, x_P[neg] / np.where(denom > 0, denom, 1.0), 0.0)
            alpha = float(ratio.min())
            x_P += alpha * (z_P - x_P)
            out = np.flatnonzero(np.abs(x_P) <= 1e-14)
            for k in out[::-1].tolist():
                leave(k)
            x_P = x_buf[:p]
            z_P = solve_passive()
            iterations += 1
        else:
            x_P[:] = z_P
        r = y - A_P[:, :p] @ x_P

    x = np.zeros(c)
    x[P[:p]] = x_buf[:p]
    # the last entry comes from the returned x on the whole matrix, so that
    # residual_norm is exactly ||A x - y||
    history[-1] = float(np.linalg.norm(A @ x - y))
    return NnlsResult(
        x=x,
        residual_norm=history[-1],
        iterations=iterations,
        converged=converged,
        objective_history=history,
        guard_trips=guard_trips,
    )
