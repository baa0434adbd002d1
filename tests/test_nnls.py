"""Tests for the active-set nonnegative least squares solver."""

import numpy as np
import pytest

from uracs.channel import ebn0_to_amplitude
from uracs.nnls import NnlsResult, nnls_solve


def projected_gradient_nnls(A, y, steps=200000, seed=None):
    """Slow independent oracle: projected gradient with a safe step size."""
    step = 1.0 / np.linalg.norm(A.T @ A, 2)
    x = np.zeros(A.shape[1])
    for _ in range(steps):
        x = np.maximum(x + step * (A.T @ (y - A @ x)), 0.0)
    return x


def restarting_nnls(A, y, tol=1e-8, max_iter=None):
    """Reference Lawson-Hanson that re-solves the passive block by lstsq at
    every set change; the same outer loop as ``nnls_solve``. Returns
    (x, iterations, converged, outer steps)."""
    c = A.shape[1]
    if max_iter is None:
        max_iter = 10 * max(c, 1)
    x = np.zeros(c)
    passive = np.zeros(c, dtype=bool)
    iterations = outer = 0

    def solve_passive():
        z = np.zeros(c)
        cols = np.flatnonzero(passive)
        if cols.size:
            z[cols] = np.linalg.lstsq(A[:, cols], y, rcond=None)[0]
        return z

    while True:
        w = A.T @ (y - A @ x)
        free = ~passive
        if not free.any() or w[free].max() <= tol:
            return x, iterations, True, outer
        if iterations >= max_iter:
            return x, iterations, False, outer
        outer += 1
        passive[int(np.argmax(np.where(free, w, -np.inf)))] = True
        z = solve_passive()
        iterations += 1
        while passive.any() and z[passive].min() <= 0:
            if iterations >= max_iter:
                break
            neg = passive & (z <= 0)
            denom = x[neg] - z[neg]
            ratio = np.where(denom > 0, x[neg] / np.where(denom > 0, denom, 1.0), 0.0)
            x = x + float(ratio.min()) * (z - x)
            passive[passive & (np.abs(x) <= 1e-14)] = False
            x[~passive] = 0.0
            z = solve_passive()
            iterations += 1
        else:
            x = z


def top_order(x, k=8):
    """Indices of the k largest entries; the lower index wins ties."""
    return np.lexsort((np.arange(x.size), -x))[:k].tolist()


def kkt_violation(A, y, x, active_tol=1e-10):
    """Max violation of the NNLS KKT conditions at x."""
    w = A.T @ (y - A @ x)
    passive = x > active_tol
    v = 0.0
    if passive.any():
        v = max(v, float(np.abs(w[passive]).max()))
    if (~passive).any():
        v = max(v, float(w[~passive].max()))
    return v


def test_identity_matrix_clips_negatives():
    A = np.eye(4)
    y = np.array([1.0, -2.0, 3.0, -0.5])
    res = nnls_solve(A, y)
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, 0.0, 3.0, 0.0], atol=1e-12)
    assert res.residual_norm == pytest.approx(np.sqrt(4.25))


def test_zero_rhs_returns_zero_without_iterating():
    A = np.random.default_rng(0).normal(size=(6, 9))
    res = nnls_solve(A, np.zeros(6))
    assert res.converged
    assert res.iterations == 0
    np.testing.assert_array_equal(res.x, np.zeros(9))


def test_exact_nonnegative_combination_recovered():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(20, 8))
    x_true = np.zeros(8)
    x_true[[1, 4, 6]] = [2.0, 0.5, 3.0]
    res = nnls_solve(A, A @ x_true)
    assert res.converged
    np.testing.assert_allclose(res.x, x_true, atol=1e-9)
    assert res.residual_norm < 1e-9


def test_kkt_conditions_hold_at_solution():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n, c = int(rng.integers(5, 30)), int(rng.integers(2, 40))
        A = rng.normal(size=(n, c))
        y = rng.normal(size=n)
        res = nnls_solve(A, y)
        assert res.converged
        assert kkt_violation(A, y, res.x) <= 1e-7
        assert res.x.min() >= 0.0


def test_matches_projected_gradient_oracle():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(12, 7))
    y = rng.normal(size=12) * 3.0
    res = nnls_solve(A, y)
    ref = projected_gradient_nnls(A, y)
    np.testing.assert_allclose(res.x, ref, atol=1e-5)


def test_overdetermined_equals_lstsq_when_interior():
    # If the unconstrained optimum is strictly positive, NNLS must match it.
    rng = np.random.default_rng(4)
    A = rng.normal(size=(30, 4))
    x_true = np.array([1.0, 2.0, 0.7, 1.4])
    y = A @ x_true + 0.01 * rng.normal(size=30)
    res = nnls_solve(A, y)
    ref = np.linalg.lstsq(A, y, rcond=None)[0]
    assert ref.min() > 0
    np.testing.assert_allclose(res.x, ref, atol=1e-10)


def test_objective_history_monotone():
    rng = np.random.default_rng(5)
    for trial in range(10):
        A = rng.normal(size=(15, 25))
        y = rng.normal(size=15)
        res = nnls_solve(A, y)
        h = np.array(res.objective_history)
        assert h.size >= 1
        assert np.all(np.diff(h) <= 1e-10)
        assert h[-1] == pytest.approx(res.residual_norm, abs=1e-10)


def test_objective_history_has_one_entry_per_outer_step():
    # history[0] is ||y|| at x = 0; each outer step, leave steps included,
    # adds one entry, and the last entry is the residual norm at exit
    rng = np.random.default_rng(4405)
    for i in range(20):
        rows, cols = int(rng.integers(2, 33)), int(rng.integers(2, 129))
        A = rng.standard_normal((rows, cols))
        y = rng.standard_normal(rows)
        res = nnls_solve(A, y)
        _, _, _, outer = restarting_nnls(A, y)
        h = res.objective_history
        assert h[0] == float(np.linalg.norm(y))
        assert len(h) == outer + 1
        assert res.residual_norm == h[-1] == float(np.linalg.norm(A @ res.x - y))
    capped = nnls_solve(A, y, max_iter=1)
    assert len(capped.objective_history) == 2


def test_entering_tie_goes_to_lowest_index():
    # Duplicate columns produce an exact gradient tie on the first pass.
    a = np.array([[1.0], [2.0], [0.5]])
    A = np.hstack([a, a])
    y = a[:, 0] * 2.0
    res = nnls_solve(A, y)
    assert res.converged
    assert res.x[0] == pytest.approx(2.0)
    assert res.x[1] == 0.0


def test_iteration_cap_reports_unconverged():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(10, 30))
    y = rng.normal(size=10)
    res = nnls_solve(A, y, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert res.x.min() >= 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        nnls_solve(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        nnls_solve(np.zeros(3), np.zeros(3))
    for tol in (0.0, -1e-8, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            nnls_solve(np.eye(3), np.ones(3), tol=tol)


def test_wide_random_instances_match_scipy_if_available():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)
    for trial in range(10):
        A = rng.normal(size=(20, 50))
        y = rng.normal(size=20)
        res = nnls_solve(A, y)
        x_ref, r_ref = scipy_opt.nnls(A, y)
        # Both satisfy KKT; solutions of this strictly convex-in-support
        # problem coincide up to solver tolerance.
        np.testing.assert_allclose(res.x, x_ref, atol=1e-8)
        assert res.residual_norm == pytest.approx(r_ref, abs=1e-8)


def assert_matches_restarting(A, y):
    res = nnls_solve(A, y)
    x_ref, iterations, converged, _ = restarting_nnls(A, y)
    assert res.iterations == iterations
    assert res.converged == converged
    assert np.abs(res.x - x_ref).max() <= 1e-9
    assert top_order(res.x) == top_order(x_ref)
    return res


def unit_columns(rng, n, c):
    A = rng.standard_normal((n, c))
    return A / np.linalg.norm(A, axis=0)


@pytest.mark.parametrize("cols", [256, 128])
@pytest.mark.parametrize("K", [2, 4, 8])
def test_updated_solve_matches_restarting_solve_on_decoder_slots(cols, K):
    # A slot of the acceptance-6 scalar profile (v = 8, n = 64) at 16 dB: the
    # full 256-column dictionary, or a pruned half of it.
    rng = np.random.default_rng(600 + 10 * K + cols)
    d = ebn0_to_amplitude(16.0, 24, 4)
    A = unit_columns(rng, 64, cols)
    y = d * A[:, rng.choice(cols, K, replace=False)].sum(axis=1) + rng.standard_normal(64)
    res = assert_matches_restarting(A, y)
    assert res.converged


def test_updated_solve_matches_restarting_solve_on_wide_dictionary():
    # A full slot of perfbench's siso-wide profile (B = 30, v = 10, n = 128)
    # at 14 dB with K = 4.
    rng = np.random.default_rng(1024)
    d = ebn0_to_amplitude(14.0, 30, 4)
    A = unit_columns(rng, 128, 1024)
    y = d * A[:, rng.choice(1024, 4, replace=False)].sum(axis=1) + rng.standard_normal(128)
    assert assert_matches_restarting(A, y).converged


def leave_test_instances():
    """The instance shapes of acceptance criterion 4, 60 seeded instances."""
    rng = np.random.default_rng(4404)
    for i in range(60):
        rows, cols = int(rng.integers(2, 33)), int(rng.integers(2, 129))
        A = rng.standard_normal((rows, cols))
        if i % 2 == 0:
            x0 = np.where(rng.random(cols) < 0.3, np.abs(rng.standard_normal(cols)), 0.0)
            y = A @ x0 + 0.1 * rng.standard_normal(rows)
        else:
            y = rng.standard_normal(rows)
        yield A, y


def test_updated_solve_matches_restarting_solve_when_columns_leave():
    # The leave steps exercise the downdate of the passive Gram inverse.
    leaves = 0
    for A, y in leave_test_instances():
        res = assert_matches_restarting(A, y)
        # one history entry per entering column; the other solves follow a leave
        leaves += res.iterations - (len(res.objective_history) - 1)
    assert leaves >= 1


def test_capped_solves_match_restarting_solve():
    # The instances of the leave test, capped: a capped solve exits with the
    # passive-set state of the step the cap stopped, and the full x is built
    # from it once, at exit.
    inside_leave_loop = 0
    for max_iter in (1, 3, 7):
        for A, y in leave_test_instances():
            res = nnls_solve(A, y, max_iter=max_iter)
            x_ref, iterations, converged, outer = restarting_nnls(A, y, max_iter=max_iter)
            assert res.iterations == iterations
            assert res.converged == converged
            assert np.abs(res.x - x_ref).max() <= 1e-9
            np.testing.assert_array_equal(np.flatnonzero(res.x), np.flatnonzero(x_ref))
            assert res.residual_norm == float(np.linalg.norm(A @ res.x - y))
            if not converged:
                # when the cap stopped the leave loop, one more allowed
                # solve is a leave solve, not a new entry
                _, more, _, outer_more = restarting_nnls(A, y, max_iter=max_iter + 1)
                inside_leave_loop += more == max_iter + 1 and outer_more == outer
    assert inside_leave_loop >= 1


def test_numerically_dependent_entries_regrow_the_passive_buffers():
    # With a tolerance far below rounding, columns keep entering after the
    # passive set already spans the n = 2 rows, past the min(n, c) + 1
    # columns the passive buffers start with.
    for seed in (42, 133):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((2, 6))
        y = rng.standard_normal(2) * 1e9
        with np.errstate(all="ignore"):
            res = nnls_solve(A, y, tol=1e-300)
        assert np.count_nonzero(res.x) > 3
        assert np.isfinite(res.x).all()
        assert res.residual_norm == float(np.linalg.norm(A @ res.x - y))


def test_tiny_tolerance_never_divides_by_a_zero_schur_complement():
    # With tol = 1e-300 dependent columns keep entering the 2-row passive
    # set; their Schur complement (or a downdate's pivot) can round to
    # exactly 0. Such a column is shut out and such a pivot re-inverts the
    # passive Gram block, so nothing raises and x stays finite.
    shut_out = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((2, 6))
        y = rng.standard_normal(2) * 10.0 ** rng.uniform(6, 13)
        with np.errstate(all="ignore"):
            res = nnls_solve(A, y, tol=1e-300)
        assert np.isfinite(res.x).all()
        assert (res.x >= 0).all()
        assert res.residual_norm == float(np.linalg.norm(A @ res.x - y))
        shut_out += not res.converged and res.iterations < 60
    # the family does exercise the shut-out rule
    assert shut_out > 0
