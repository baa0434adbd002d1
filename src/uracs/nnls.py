"""Non-negative least squares via the Lawson-Hanson active-set method.

Solves min ||A x - y||_2 subject to x >= 0. At exit either the KKT
conditions hold within ``tol`` (converged), or the iteration cap was hit or a
column with a gradient above ``tol`` could not enter (see ``nnls_solve``),
and the best iterate so far is returned with ``converged`` False.

When the passive solution has a value <= 0, x steps toward it until the
first passive values reach 0. By Lawson & Hanson's leave rule those values
are set to exactly 0, and the columns whose values are then <= 0 leave; no
threshold on a value's size decides, so a tiny positive value stays passive.

Each passive-set solve reuses the last one, after Lawson & Hanson (Solving
Least Squares Problems, 1974): the loop keeps a thin factor A_P R^-1 = Q of
the passive columns, updated as columns enter and leave, in buffers allocated
once. It holds Q (orthonormal columns), R^-1 and Q^T y, so the passive
least-squares solution is one product, z_P = R^-1 (Q^T y), and the gradient
w = A^T r is the loop's one product with the whole n x c matrix. The rounding
of this solution grows with the condition number of A_P, where that of an
inverse of the Gram block A_P^T A_P grows with its square (Bjorck, Numerical
Methods for Least Squares Problems, 1996). R^-1 need not be triangular: the
entry update needs only row p of R^-1 to be zero before column p enters.

An entering column a is orthogonalised against Q by classical Gram-Schmidt:
its column of R is h = Q^T a, and q = a - Q h, so ||a||^2 = ||h||^2 + ||q||^2.
Rounding of about eps ||a|| in q costs q / ||q|| up to eps ||a|| / ||q|| of
orthogonality to Q, so a second pass runs only when q.q <= h.h, that is when
||q|| <= ||a|| / sqrt(2) (the DGKS test: Daniel, Gragg, Kaufman & Stewart,
Math. Comp., 1976). rho = ||q|| is a's distance from the passive span; R^-1
gains the column [-R^-1 h / rho; 1 / rho]. After a step that ends at z_P the
residual is y - Q (Q^T y), y - A_P z_P in exact arithmetic; after a leave loop
the cap cut short it is y - A_P x_P from A's columns: no copy of A_P is kept.

Leaving positions go last first, each by an update of the factor. Row k of
R^-1, g, is in Q's basis the direction in span(A_P) orthogonal to every
passive column but a_k; the Householder reflection that maps g / ||g|| onto
e_k (up to sign), applied to Q and R^-1 from the right and to Q^T y, makes
row k of R^-1 a multiple of e_k, so position k and row and column k of R^-1
can be deleted, in O(np + p^2). kappa = ||g|| ||a_k|| is 1 / sine of a_k's
angle to the others' span. The deletion drops rounding of about eps ||g||,
so eps kappa of a_k stays in A_P R^-1 = Q, and z_P's error grows by about
eps kappa ||R^-1|| ||A_P|| >= eps kappa^2. KAPPA_MAX = eps^(-1/4) = 8192
holds that below sqrt(eps); past it the passive block is re-factored by QR.

An iteration costs tens of microseconds, mostly numpy's per-call overhead, so
minima are read at their argmin (numpy 2.4: 0.4 us; a reduce takes 1.3-2.2 us)
and products call ndarray.dot (0.8 us; ``@`` 1.5 us), but for R^-1's p x p
block, which ndarray.dot copies first: there ``@`` ran siso-wide 6% faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_NNLS_TOL = 1e-8
# the largest kappa at which a leave reflects the factor (module docstring)
KAPPA_MAX = np.finfo(float).eps ** -0.25


def workspace_bytes(n: int, c: int) -> int:
    """Bytes of ``nnls_solve``'s buffers for p = min(n, c) passive columns: three
    n x p blocks (Q, which a re-factor fills with A's passive columns, qr's copy and
    its new Q, room too for a reflection's or cut step's temporaries), four p x p (R^-1,
    a re-factor's R, inverse and numpy's copy), three p-vectors, gradient and x."""
    p = min(n, c)
    return 8 * p * (3 * n + 4 * p + 3) + 16 * c


@dataclass
class NnlsResult:
    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    # objective ||Ax - y|| at x = 0 and after each outer step, for
    # monotonicity checks; the last entry is residual_norm
    objective_history: list[float] = field(default_factory=list)


def nnls_solve(A: np.ndarray, y: np.ndarray, tol: float | None = None,
               max_iter: int | None = None) -> NnlsResult:
    """Active-set NNLS. ``max_iter`` caps least-squares subproblem solves
    (default 10 * number of columns); ties in the entering variable go to the
    lowest column index. ``tol`` must be finite and positive: a column enters
    only when its gradient exceeds it. By default it is DEFAULT_NNLS_TOL or
    64 eps sqrt(n) ||y||, whichever is larger: with a large ||y|| the
    gradient A^T r carries rounding noise of about eps sqrt(n) ||y||, which a
    fixed tolerance would chase until the iteration cap.

    The column with the largest gradient enters only if it passes Lawson &
    Hanson's entry test: its distance from the passive span is nonzero and its
    own value in the passive least-squares solution is positive. One that fails
    is skipped for this outer step, and the next largest gradient is tried. A
    solve reports unconverged when its last step skipped a column, when the cap
    cut a leave loop short, or when it stopped at the cap or at min(n, c)
    passive columns with a gradient above ``tol``. So with a ``tol`` far below
    rounding no zero distance is divided by, no column enters with a value <= 0
    only to leave, and x stays finite. Columns leave by Lawson & Hanson's rule
    (module docstring). A NaN or infinity in y or A raises ValueError; one in A
    shows in A^T y."""
    A = np.asarray(A, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if A.ndim != 2 or y.ndim != 1 or A.shape[0] != y.shape[0]:
        raise ValueError("A must be (n, c) and y length n")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    n, c = A.shape
    if tol is None:
        tol = max(DEFAULT_NNLS_TOL,
                  64 * np.finfo(float).eps * np.sqrt(n) * np.linalg.norm(y))
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    if c == 0:
        norm = float(np.linalg.norm(y))
        return NnlsResult(np.zeros(0), norm, 0, True, [norm])
    if max_iter is None:
        max_iter = 10 * c

    iterations = 0
    # the cap stopped a leave loop while a passive value was <= 0
    cut = False
    history: list[float] = []
    # passive-set state in entry order: column indices P, values x_P and the
    # factor (Q, R^-1, Q^T y), each in the leading p entries, columns or p x p
    # block of its buffer; row p of R^-1 is zero. Independent columns fit in
    # min(n, c) slots, and no column enters once they are full
    cap = min(n, c)
    P = np.empty(cap, dtype=np.intp)
    x_buf = np.empty(cap)
    Q = np.empty((n, cap), order="F")
    R_inv = np.zeros((cap, cap))
    qty = np.empty(cap)
    p = 0

    def leave(k: int) -> None:
        # passive position k leaves (module docstring); a last position whose
        # row of R^-1 is already e_k / rho touches no other column
        nonlocal p
        g = R_inv[k, :p]
        if k == p - 1 and not g[:k].any():
            p -= 1
            return
        norm = math.sqrt(g.dot(g))
        a_k = A[:, P[k]]
        reflect = norm * math.sqrt(a_k.dot(a_k)) <= KAPPA_MAX
        if reflect:
            # H = I - v v^T / |v_k| maps u = g / norm onto -+e_k
            v = g / norm
            v[k] += math.copysign(1.0, v[k])
            v_scaled = v / abs(v[k])
            Q[:, :p] -= np.outer(Q[:, :p].dot(v), v_scaled)
            R_inv[:p, :p] -= np.outer(R_inv[:p, :p] @ v, v_scaled)
            qty[:p] -= v_scaled.dot(qty[:p]) * v
        p -= 1
        # numpy moves 1-D runs in place: Q's by an F-order view, R^-1's by whole rows
        for buf, run in ((P, 1), (x_buf, 1), (qty, 1), (Q.ravel("F"), n),
                         (R_inv.ravel(), cap)):
            buf[run * k:run * p] = buf[run * (k + 1):run * (p + 1)]
        R_inv[:p, k:p] = R_inv[:p, k + 1:p + 1]
        R_inv[p, :p + 1] = 0.0
        if not reflect:
            Q[:, :p] = A[:, P[:p]]  # so that qr's own copy is the only other one
            Q[:, :p], R = np.linalg.qr(Q[:, :p])
            R_inv[:p, :p] = np.linalg.inv(R)
            qty[:p] = Q[:, :p].T.dot(y)

    r = y
    w = A.T.dot(r)
    if not np.isfinite(w).all():
        raise ValueError("A must be finite: A^T y is not")
    while True:
        history.append(math.sqrt(r.dot(r)))
        w[P[:p]] = -np.inf
        # argmax returns the first maximizer, which is the tie rule we want;
        # a free gradient above tol leaves the solve unconverged
        j = int(w.argmax())
        converged = not (w[j] > tol or cut)
        Q_p = Q[:, :p]
        Q_pT = Q_p.T
        while w[j] > tol and iterations < max_iter and p < cap:
            # a less its projection on Q, and its column h of R (module docstring)
            a = A[:, j]
            h = Q_pT.dot(a)
            q = a - Q_p.dot(h)
            qq = q.dot(q)
            if qq <= h.dot(h):
                h2 = Q_pT.dot(q)
                q -= Q_p.dot(h2)
                h += h2
                qq = q.dot(q)
            # the entry test: rho is the distance of a from the passive
            # columns' span, and a's passive value is qty[p] / rho
            rho = math.sqrt(qq)
            if rho:
                np.divide(q, rho, out=Q[:, p])
                qty[p] = Q[:, p].dot(y)
                if qty[p] > 0:
                    break
            w[j] = -np.inf
            j = int(w.argmax())
        else:
            break

        # column j enters as passive column p
        np.divide(R_inv[:p, :p] @ h, -rho, out=R_inv[:p, p])
        R_inv[p, p] = 1.0 / rho
        P[p] = j
        x_buf[p] = 0.0
        p += 1
        x_P = x_buf[:p]
        z_P = R_inv[:p, :p] @ qty[:p]
        iterations += 1
        while p and z_P[z_P.argmin()] <= 0:
            if iterations >= max_iter:
                cut = True
                r = y - A[:, P[:p]].dot(x_P)
                break
            # step toward z until the first passive coordinate hits zero
            neg = z_P <= 0
            # x_P > 0 but the entering 0, whose z > 0 (entry test): x - z > 0 where z <= 0
            ratio = x_P[neg] / (x_P[neg] - z_P[neg])
            alpha = float(ratio[ratio.argmin()])
            x_P += alpha * (z_P - x_P)
            # the values the step stops at become exactly 0, so one leaves
            x_P[np.flatnonzero(neg)[ratio == alpha]] = 0.0
            for k in np.flatnonzero(x_P <= 0)[::-1].tolist():
                leave(k)
            x_P = x_buf[:p]
            z_P = R_inv[:p, :p] @ qty[:p]
            iterations += 1
        else:
            x_P[:] = z_P
            r = y - Q[:, :p].dot(qty[:p])
        w = A.T.dot(r)

    x = np.zeros(c)
    x[P[:p]] = x_buf[:p]
    # from the returned x on the whole matrix, residual_norm is exactly ||A x - y||
    history[-1] = float(np.linalg.norm(A @ x - y))
    return NnlsResult(x, history[-1], iterations, converged, history)
