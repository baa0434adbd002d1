"""Tests for the active-set nonnegative least squares solver."""

import linecache
import sys

import numpy as np
import pytest

import uracs.ccs as ccs
import uracs.nnls as nnls_module
from uracs.channel import ebn0_to_amplitude
from uracs.harness import parse_config, run_siso_trial
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
    (x, iterations, converged, outer steps). Its leave rule is a threshold,
    |x_j| <= 1e-14, which picks the same columns as ``nnls_solve``'s on the
    default-tolerance instances here; far below rounding the two differ."""
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
                # cut short with a passive value <= 0: not a KKT point
                return x, iterations, False, outer
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


def test_matrix_without_columns_returns_empty_x_without_iterating():
    y = np.array([3.0, -4.0, 12.0])
    res = nnls_solve(np.zeros((3, 0)), y)
    assert res.converged
    assert res.iterations == 0
    assert res.x.shape == (0,)
    assert res.residual_norm == 13.0
    assert res.objective_history == [13.0]


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
    # a NaN in y or A used to give x = 0 reported converged with a NaN
    # residual, and an infinite y was blamed on the default tolerance
    rng = np.random.default_rng(0)
    A, y = rng.standard_normal((6, 10)), rng.standard_normal(6)
    for bad in (np.nan, np.inf, -np.inf):
        y_bad = y.copy()
        y_bad[0] = bad
        with pytest.raises(ValueError, match="^y must be finite$"):
            nnls_solve(A, y_bad)
        # also in a row where y is 0, which inf * 0 and NaN * 0 still reach
        for y_row in (y[0], 0.0):
            A_bad, y_ok = A.copy(), y.copy()
            A_bad[0, 3], y_ok[0] = bad, y_row
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^A must be finite"):
                nnls_solve(A_bad, y_ok)


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
    # The leave steps exercise the reflection of the passive factor.
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


def test_numerically_dependent_entries_stop_at_a_full_passive_set():
    # With a tolerance far below rounding, the gradient left by rounding
    # stays above tol once the passive set spans the n = 2 rows; no column
    # enters past min(n, c) passive ones, and the solve reports unconverged.
    for seed in (42, 133):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((2, 6))
        y = rng.standard_normal(2) * 1e9
        with np.errstate(all="ignore"):
            res = nnls_solve(A, y, tol=1e-300)
        assert np.count_nonzero(res.x) <= min(A.shape)
        assert not res.converged
        assert np.isfinite(res.x).all()
        assert res.residual_norm == float(np.linalg.norm(A @ res.x - y))


def test_tiny_tolerance_never_makes_identical_columns_both_passive():
    # With tol = 1e-300 dependent columns keep trying to enter. On 2-row
    # Gaussian instances they stop at a full passive set or at the entry
    # test. Where A has two identical columns of 0.5 entries, the one that
    # did not enter has a rounding-level gradient; its distance from the
    # passive span is exactly 0 or its passive value is <= 0, so it is
    # skipped, or it enters with a distance of rounding size and the other
    # leaves. Either way the two are never passive together, nothing
    # raises and x stays finite.
    def instances():
        for seed in range(300):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((2, 6))
            yield A, rng.standard_normal(2) * 10.0 ** rng.uniform(6, 13), False
        rng = np.random.default_rng(0)
        for _ in range(300):
            A = np.hstack([np.full((4, 2), 0.5), rng.standard_normal((4, 2))])
            yield A, rng.standard_normal(4), True

    stopped = {False: 0, True: 0}
    for A, y, duplicate in instances():
        with np.errstate(all="ignore"):
            res = nnls_solve(A, y, tol=1e-300)
        assert np.isfinite(res.x).all()
        assert (res.x >= 0).all()
        assert res.residual_norm == float(np.linalg.norm(A @ res.x - y))
        assert not duplicate or res.x[0] == 0.0 or res.x[1] == 0.0
        stopped[duplicate] += not res.converged and res.iterations < 10 * A.shape[1]
    # the families do stop solves under the iteration cap at these rules
    assert stopped[False] > 0 and stopped[True] > 0


def test_default_tolerance_stops_at_the_rounding_level_of_a_large_y():
    # y is the sum of four columns at ||y|| of about 1e11, so the gradient at
    # the solution is rounding of about eps sqrt(n) ||y||, 1e-4 here, far
    # above DEFAULT_NNLS_TOL. The default tolerance is floored at that level,
    # so each solve converges on those four columns; at 1e-8 these solves
    # chased the rounding to the 160-solve cap.
    for seed in range(6):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((64, 16))
        A /= np.linalg.norm(A, axis=0)
        y = 5e10 * A[:, :4].sum(axis=1)
        res = nnls_solve(A, y)
        assert res.converged and res.iterations <= 8
        np.testing.assert_array_equal(np.flatnonzero(res.x), np.arange(4))


def test_column_failing_the_entry_test_stops_the_solve_unconverged():
    # Column 1 alone fits y with x_1 = 2, leaving a residual orthogonal to
    # column 0 in exact arithmetic (y = 2 a_1 + a_0 x a_1 / 2). Rounding
    # leaves column 0 a gradient of about 4e-15, above tol = 1e-300, but its
    # passive value would be <= 0, so it fails the entry test instead of
    # entering and leaving again until the cap. No other column may enter, so
    # the solve stops after its one solve, unconverged, with x at the solution.
    A = np.array([[-2.0, 2.0], [1.0, -1.0], [-3.0, 1.0]])
    y = np.array([3.0, -4.0, 2.0])
    res = nnls_solve(A, y, tol=1e-300)
    assert res.iterations == 1 and not res.converged
    assert res.x[0] == 0.0 and abs(res.x[1] - 2.0) <= 1e-15
    assert res.residual_norm == float(np.linalg.norm(A @ res.x - y))


def traced_nnls(A, y, **kwargs):
    """nnls_solve's result and the (function, stripped source line) pairs
    that ran in its module, from a line trace."""
    path = nnls_module.__file__
    lines = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != path:
            return None
        if event == "line":
            lines.add((frame.f_code.co_name, linecache.getline(path, frame.f_lineno).strip()))
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        res = nnls_solve(A, y, **kwargs)
    finally:
        sys.settrace(previous)
    return res, lines


def test_entering_column_that_leaves_at_once_keeps_the_factor():
    # Columns 0 and 3 are equal, column 1 is 2.05 times column 4 up to 2e-12,
    # and y is a positive combination of columns 0 and 2. At tol = 1e-300
    # columns 2 and 0 enter, then column 3 on a rounding-size gradient
    # (6e-16), and column 0 leaves with kappa 2e16 (its twin is passive), so
    # the factor of the rest is re-factored. Then columns 1 and 4 enter on
    # gradients of 7e-16 and 2e-16; in column 4's leave loop column 1 leaves
    # with kappa 3e12, another re-factor, and column 4, now last with a row of
    # R^-1 that is e_k / rho, leaves at once: that leave returns, keeping the
    # factor of columns 2 and 3 and touching no other column. The solve
    # repeats this cycle of four solves until the 50-solve cap cuts a leave
    # loop short, right after column 4 enters, with column 1 passive at
    # 1e-17, and reports unconverged. The line trace shows all three paths.
    rng = np.random.default_rng(207)
    a, b, c = rng.standard_normal((3, 7))
    d = 2.05 * b + 1e-12 * rng.standard_normal(7)
    g = np.abs(rng.standard_normal(2))
    A, y = np.column_stack([a, d, c, a, b]), g[0] * a + g[1] * c
    res, lines = traced_nnls(A, y, tol=1e-300)
    assert ("leave", "return") in lines
    assert ("leave", "Q[:, :p], R = np.linalg.qr(Q[:, :p])") in lines
    assert ("nnls_solve", "cut = True") in lines
    assert res.iterations == 50 and not res.converged
    np.testing.assert_array_equal(np.flatnonzero(res.x), [1, 2, 3])
    assert 0.0 < res.x[1] < 1e-15
    # columns 2 and 3 alone fit y, through the factor every return kept
    fit = np.linalg.lstsq(A[:, 2:4], y, rcond=None)[0]
    assert np.abs(res.x[2:4] - fit).max() <= 1e-12 * np.abs(fit).max()
    assert res.residual_norm == float(np.linalg.norm(A @ res.x - y))


def leaves_with_factors(A, y, **kwargs):
    """nnls_solve's result and one record per leave, from a trace: the
    leaving position k, the passive count p before it, the solve count of its
    leave step, whether its row of R^-1 had an entry off the diagonal, and
    copies of the factor after it: A_P, Q, R^-1 with one more row, and Q^T y."""
    path = nnls_module.__file__
    records = []

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != path:
            return None
        if frame.f_code.co_name == "leave" and event in ("call", "return"):
            k, state = frame.f_locals["k"], frame.f_back.f_locals
            p = state["p"]
            if event == "call":
                records.append({"k": k, "p": p, "step": state["iterations"],
                                "full_row": np.count_nonzero(state["R_inv"][k, :p]) > 1})
            else:
                records[-1].update(A_P=state["A"][:, state["P"][:p]],
                                   Q=state["Q"][:, :p].copy(),
                                   R_inv=state["R_inv"][:p + 1, :p + 1].copy(),
                                   qty=state["qty"][:p].copy())
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        res = nnls_solve(A, y, **kwargs)
    finally:
        sys.settrace(previous)
    return res, records


def test_leaves_keep_the_factor_of_the_passive_columns():
    # 3,000 small instances y = A x0 with coefficients down to 1e-14, at
    # tol = 1e-20, where columns leave at the first, a middle and the last
    # position (the last with a full row of R^-1, so reflected), and several
    # in one leave step. After every leave Q is orthonormal, A_P R^-1 = Q,
    # qty = Q^T y, row p of R^-1 is zero, and Q spans what a fresh QR of A_P
    # spans, with the same passive solution.
    kinds = set()
    rng = np.random.default_rng(0)
    for _ in range(3000):
        n, c = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        A = rng.standard_normal((n, c))
        x0 = np.where(rng.random(c) < 0.5,
                      np.abs(rng.standard_normal(c)) * 10.0 ** rng.uniform(-14, 0, c), 0.0)
        y = A @ x0
        res, records = leaves_with_factors(A, y, tol=1e-20)
        steps = [r["step"] for r in records]
        for r in records:
            k, p = r["k"], r["p"] - 1
            if steps.count(r["step"]) > 1:
                kinds.add("several")
            kinds.add("first" if k == 0 else "middle" if k < p else
                      "last" if r["full_row"] else "kept")
            A_P, Q, R_inv, qty = r["A_P"], r["Q"], r["R_inv"], r["qty"]
            assert not R_inv[p, :p].any()
            if p == 0:
                continue
            R_inv = R_inv[:p, :p]
            assert np.abs(Q.T @ Q - np.eye(p)).max() <= 1e-12
            assert np.linalg.norm(A_P @ R_inv - Q) <= 1e-12 * np.linalg.norm(A_P) * np.linalg.norm(R_inv)
            assert np.abs(Q.T @ y - qty).max() <= 1e-12 * np.linalg.norm(y)
            fresh_Q, fresh_R = np.linalg.qr(A_P)
            assert np.abs(fresh_Q @ fresh_Q.T - Q @ Q.T).max() <= 1e-12
            z = np.linalg.solve(fresh_R, fresh_Q.T @ y)
            assert np.abs(R_inv @ qty - z).max() <= 1e-12 * np.linalg.cond(A_P) * np.abs(z).max()
    assert {"first", "middle", "last", "several"} <= kinds


def test_leave_of_a_nearly_dependent_column_refactors():
    # Column 5 is column 0 plus 1e-5 of noise, so when one of the two leaves
    # while the other is passive, kappa is about 1e5, past KAPPA_MAX: the
    # passive block is re-factored by one QR, and the solve still matches
    # the restarting reference.
    for seed in (0, 13, 14, 47, 89):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((8, 5))
        A = np.column_stack([B, B[:, 0] + 1e-5 * rng.standard_normal(8)])
        y = rng.standard_normal(8)
        _, lines = traced_nnls(A, y)
        assert ("leave", "Q[:, :p], R = np.linalg.qr(Q[:, :p])") in lines
        assert assert_matches_restarting(A, y).converged


def test_tiny_positive_passive_value_stays_passive():
    # y is nearly A [9.8e-15, 7.4e-6, 0]. An absolute leave threshold of
    # 1e-14 evicted column 0 after each step toward the passive solution,
    # and the column entered again until the 30-solve cap. Under Lawson &
    # Hanson's rule a positive value keeps its column passive, and the solve
    # converges in 4 solves.
    A = np.array([[-0.6375611457394129, 1.6702662475625463, -1.6025044332926788],
                  [-1.003796672270391, -0.24274333638326615, -1.6551546032076008],
                  [-1.218884324994872, -1.3043283212797843, 0.12110072584894474]])
    y = np.array([1.2337600327205499e-05, -1.7930496343177283e-06, -9.634560702580936e-06])
    res = nnls_solve(A, y, tol=1e-20)
    assert res.converged and res.iterations == 4
    assert 9.8e-15 < res.x[0] < 9.9e-15 and res.x[1] > 0.0 and res.x[2] == 0.0
    assert np.abs(A.T @ (y - A @ res.x)).max() <= 1e-20


def test_entries_right_after_a_leave_match_restarting_solve():
    # The capped solves stop right after the first or second entry that
    # follows a leave step, each solved through the factor the leave
    # reflected, and must match the reference.
    firsts = seconds = 0
    for A, y in leave_test_instances():
        total = restarting_nnls(A, y)[1]
        outer = [restarting_nnls(A, y, max_iter=k)[3] for k in range(total + 1)]
        # solve k entered a column iff capping at k adds an outer step; an
        # entry followed by another entry (or by the end) was not clipped
        entered = [False] + [outer[k] > outer[k - 1] for k in range(1, total + 1)]
        clean = [entered[k] and (k == total or entered[k + 1]) for k in range(total + 1)]
        for k in range(2, total + 1):
            first = clean[k] and not entered[k - 1]
            second = k >= 3 and clean[k] and clean[k - 1] and not entered[k - 2]
            if not (first or second):
                continue
            firsts += first
            seconds += second
            res = nnls_solve(A, y, max_iter=k)
            x_ref, iterations, converged, _ = restarting_nnls(A, y, max_iter=k)
            assert res.iterations == iterations == k
            assert res.converged == converged
            np.testing.assert_array_equal(np.flatnonzero(res.x), np.flatnonzero(x_ref))
            assert np.abs(res.x - x_ref).max() <= 1e-9
    assert firsts >= 1 and seconds >= 1


def nearly_collinear(seed, n, c, scale):
    """Unit columns, each a common random direction plus 0.01 spread, and
    y = scale * (A |g| + 0.01 z). At the solution the passive columns have
    condition numbers of about 3e2 to 9e2 at 16 x 12 and 4e3 to 1.5e4 at
    32 x 64, and their Gram blocks the squares of these."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, 1)) + 0.01 * rng.standard_normal((n, c))
    A /= np.linalg.norm(A, axis=0)
    y = scale * (A @ np.abs(rng.standard_normal(c)) + 0.01 * rng.standard_normal(n))
    return A, y


def test_nearly_collinear_columns_match_restarting_solve():
    # Every instance converges with the reference's support, and x agrees
    # relative to its size (about 3e3 here), because the conditioning
    # amplifies rounding. Iteration counts may differ: near ties at an entry
    # take one solve more or fewer on seeds 12 and 30.
    for seed in range(40):
        A, y = nearly_collinear(seed, 16, 12, 1e3)
        res = nnls_solve(A, y)
        x_ref, _, converged, _ = restarting_nnls(A, y)
        assert res.converged and converged
        np.testing.assert_array_equal(np.flatnonzero(res.x), np.flatnonzero(x_ref))
        assert np.abs(res.x - x_ref).max() <= 1e-6 * np.abs(x_ref).max()


def test_ill_conditioned_solves_converge():
    # The passive solution's rounding must grow with the passive columns'
    # condition number, not its square: through an updated inverse of the
    # Gram block, 6 of these 40 solves cycle until the 640-solve cap.
    for scale in (1.0, 1e3):
        for seed in range(20):
            A, y = nearly_collinear(seed, 32, 64, scale)
            res = nnls_solve(A, y)
            x_ref, _, converged, _ = restarting_nnls(A, y)
            assert res.converged and converged
            assert np.abs(res.x - x_ref).max() <= 1e-6 * np.abs(x_ref).max()


def entries_with_factors(A, y):
    """nnls_solve's factor right after each entry, as (A_P, Q, R^-1), and the
    source lines that ran right after the second-pass test, from a trace."""
    path = nnls_module.__file__
    records, after_test, previous = [], set(), [""]

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != path:
            return None
        if event == "line" and frame.f_code.co_name == "nnls_solve":
            state, line = frame.f_locals, linecache.getline(path, frame.f_lineno).strip()
            if previous[0] == "p += 1":
                p = state["p"]
                records.append((A[:, state["P"][:p]], state["Q"][:, :p].copy(),
                                state["R_inv"][:p, :p].copy()))
            if previous[0] == "if qq <= h.dot(h):":
                after_test.add(line)
            previous[0] = line
        return tracer

    previous_trace = sys.gettrace()
    sys.settrace(tracer)
    try:
        nnls_solve(A, y)
    finally:
        sys.settrace(previous_trace)
    return records, after_test


def test_entries_keep_the_factor_orthonormal_with_one_or_two_passes():
    # An entering column is orthogonalised a second time only when the first
    # pass leaves ||q|| <= ||a|| / sqrt(2). On the nearly collinear family of
    # test_ill_conditioned_solves_converge and on decoder slots both branches
    # run, and after every entry ||Q^T Q - I||_F <= 1e-14 (about 45 eps; the
    # largest seen is 3e-15) and ||A_P R^-1 - Q||_F <= 1e-12 ||A_P||_F
    # ||R^-1||_F. Skipping every second pass leaves Q^T Q up to 4e-9 from I
    # on the family and 1e-13 on the slots.
    def slots():
        for cols in (256, 128):
            for K in (2, 4, 8):
                rng = np.random.default_rng(600 + 10 * K + cols)
                d = ebn0_to_amplitude(16.0, 24, 4)
                A = unit_columns(rng, 64, cols)
                yield A, (d * A[:, rng.choice(cols, K, replace=False)].sum(axis=1)
                          + rng.standard_normal(64))

    collinear = (nearly_collinear(seed, 32, 64, scale) for scale in (1.0, 1e3) for seed in range(20))
    for instances in (collinear, slots()):
        branches = set()
        for A, y in instances:
            records, after_test = entries_with_factors(A, y)
            branches |= after_test
            for A_P, Q, R_inv in records:
                assert np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])) <= 1e-14
                assert (np.linalg.norm(A_P @ R_inv - Q)
                        <= 1e-12 * np.linalg.norm(A_P) * np.linalg.norm(R_inv))
        assert branches == {"h2 = Q_pT.dot(q)", "rho = math.sqrt(qq)"}


def test_objective_history_non_increasing_on_decoder_slots(monkeypatch):
    # every slot solve of paired acceptance-6 trials, full and pruned
    cfg = parse_config({"scenario": "siso", "profile": {"m": [8, 7, 5, 4], "l": [0, 1, 3, 4]},
                        "K": [2, 4, 8], "ebn0_db": 16.0, "n": 64, "master_seed": 11})
    results = []

    def keeping(*args, **kwargs):
        results.append(nnls_solve(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(ccs, "nnls_solve", keeping)
    for t, K in enumerate(cfg.K):
        run_siso_trial(cfg, K, 16.0, t)
    assert len(results) >= 3 * 4
    for res in results:
        assert res.converged
        assert np.all(np.diff(res.objective_history) <= 1e-10)
