"""Acceptance gate: nine end-to-end checks with stated tolerances and runtimes.

Each test prints one bracketed PASS/FAIL line (written through the capture so
it is always visible), then asserts. Criteria 6 and 7 compare the enhanced
decoder against the original at desk scale; see README for the measured
outcome of those comparisons.
"""

import time

import numpy as np
import pytest

from uracs.bits import random_bits, rows_to_ints
from uracs.ccs import (build_complex_sensing_matrix, build_sensing_matrix,
                       decode_siso, user_signals)
from uracs.channel import (ebn0_to_amplitude, ebn0_to_power, gmac_transmit,
                           mimo_block_transmit)
from uracs.harness import (genie_path_stats, parse_config, run_experiment,
                           run_mimo_trial, run_siso_trial)
from uracs.mimo import (CovarianceState, activity_detect,
                        decode_mimo, sample_covariance)
from uracs.nnls import nnls_solve
from uracs.predictors import expected_erroneous_paths
from uracs.tree import ParityProfile, TreeCodebook, encode_messages


def emit(capsys, num: int, ok: bool, elapsed: float, limit: float,
         detail: str, extra_lines=()):
    with capsys.disabled():
        for line in extra_lines:
            print(f"[acceptance {num}]   {line}")
        word = "PASS" if ok else "FAIL"
        print(f"[acceptance {num}] {word} ({elapsed:.1f}s / limit {limit:.0f}s) "
              f"{detail}")


def paired_delta(orig: np.ndarray, enh: np.ndarray):
    """Mean and standard error of per-trial (original - enhanced) differences."""
    d = np.asarray(orig, dtype=float) - np.asarray(enh, dtype=float)
    dbar = float(d.mean())
    se = float(d.std(ddof=1) / np.sqrt(d.size))
    return dbar, se


def significantly_not_worse(dbar: float, se: float) -> bool:
    """One-sided paired check at 95% that enhanced <= original.

    With zero variance the decoders tied on every trial and the claim holds
    whenever the mean difference is not negative."""
    if se == 0.0:
        return dbar >= 0.0
    return dbar >= 1.645 * se


def not_significantly_worse(dbar: float, se: float) -> bool:
    """Weaker reading: the data do not show enhanced > original at 95%."""
    return dbar >= -1.645 * se


# --- 1: one-step predictor golden values -----------------------------------

def test_criterion_1_predictor_goldens(capsys):
    t0 = time.perf_counter()
    cfg = parse_config({
        "scenario": "predict",
        "profile": "siso-default",
        "K": [25, 50, 75, 100, 125, 150],
        "variant": "one_step",
    })
    lines = run_experiment(cfg).splitlines()
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    table = {}
    for line in lines[1:]:
        row = line.split(",")
        table[(int(row[col["K"]]), int(row[col["slot"]]))] = float(row[col["R"]])

    goldens = [(25, 2, 0.41804), (100, 10, 0.01228), (25, 11, 0.00076)]
    goldens += [(25, slot, 0.10149) for slot in range(3, 10)]
    max_err = max(abs(table[(K, slot)] - want) for K, slot, want in goldens)
    slot1_exact = all(table[(K, 1)] == 1.0 for K in (25, 50, 75, 100, 125, 150))

    elapsed = time.perf_counter() - t0
    ok = max_err <= 5e-5 and slot1_exact and elapsed < 1.0
    emit(capsys, 1, ok, elapsed, 1.0,
         f"one-step column-reduction goldens, max |err|={max_err:.2e}, "
         f"slot 1 ratio exactly 1.0: {slot1_exact}")
    assert max_err <= 5e-5
    assert slot1_exact
    assert elapsed < 1.0


# --- 2: recursion vs closed-form summation ----------------------------------

def erroneous_paths_summation(K: int, profile: ParityProfile, ell: int) -> float:
    """Closed-form sum over the stage where each wrong path first appears."""
    total = 0.0
    for k in range(2, ell + 1):
        expo = sum(profile.l[j - 1] for j in range(k, ell + 1))
        total += (K - 1) * float(K) ** (ell - k) * 2.0 ** (-expo)
    return total


def test_criterion_2_recursion_matches_summation(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20230814)
    worst = 0.0
    for _ in range(1000):
        K = int(rng.integers(1, 201))
        L = int(rng.integers(2, 13))
        l = (0,) + tuple(int(x) for x in rng.integers(0, 17, size=L - 1))
        m = tuple(int(x) for x in rng.integers(1, 9, size=L))
        profile = ParityProfile(m=m, l=l)
        for ell in range(1, L + 1):
            full = expected_erroneous_paths(K, profile, ell, "full")
            summed = erroneous_paths_summation(K, profile, ell)
            scale = max(abs(full), abs(summed))
            rel = abs(full - summed) / scale if scale > 0 else 0.0
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    emit(capsys, 2, ok, elapsed, 5.0,
         f"recursion vs summation over 1000 random profiles, "
         f"worst rel diff={worst:.2e}")
    assert worst <= 1e-12
    assert elapsed < 5.0


# --- 3: genie-aided tree statistics vs theory --------------------------------

def test_criterion_3_genie_tree_statistics(capsys):
    t0 = time.perf_counter()
    # wide info sections keep the distinct-fragment conditioning negligible
    profile = ParityProfile(m=(12, 12, 12, 12), l=(0, 4, 6, 8))
    K = 10
    stats = genie_path_stats(profile, K, trials=10_000, master_seed=314)
    details = []
    ok = stats["wrong_mean"][0] == 0.0
    for ell in (2, 3, 4):
        want = expected_erroneous_paths(K, profile, ell, "full")
        got = float(stats["wrong_mean"][ell - 1])
        se = float(stats["wrong_se"][ell - 1])
        dev = abs(got - want) / se if se > 0 else float("inf")
        details.append(f"slot {ell}: measured {got:.5f} theory {want:.5f} "
                       f"({dev:.2f} SE)")
        ok = ok and abs(got - want) <= 3.0 * se
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    emit(capsys, 3, ok, elapsed, 120.0,
         "genie Monte Carlo wrong-path means within 3 SE of recursion",
         details)
    assert ok


# --- 4: NNLS against a projected-gradient oracle -----------------------------

def fista_nnls(A: np.ndarray, y: np.ndarray, tol: float = 1e-10,
               max_iter: int = 200_000) -> np.ndarray:
    """Accelerated projected gradient with objective restarts."""
    G = A.T @ A
    h = A.T @ y
    step = 1.0 / max(np.linalg.eigvalsh(G)[-1], 1e-30)

    def half_obj(x):
        return 0.5 * x @ (G @ x) - h @ x

    def pg_inf_norm(x):
        g = G @ x - h
        pg = np.where(x > 0, g, np.minimum(g, 0.0))
        return float(np.abs(pg).max()) if pg.size else 0.0

    x = np.zeros(A.shape[1])
    w = x.copy()
    fx = 0.0
    t = 1.0
    for it in range(max_iter):
        z = np.maximum(w - step * (G @ w - h), 0.0)
        fz = half_obj(z)
        if fz > fx:
            w = x.copy()
            t = 1.0
            z = np.maximum(w - step * (G @ w - h), 0.0)
            fz = half_obj(z)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        w = z + ((t - 1.0) / t_next) * (z - x)
        x, fx, t = z, fz, t_next
        if it % 5 == 4 and pg_inf_norm(x) <= tol:
            return x
    raise RuntimeError("oracle failed to reach tolerance")


def kkt_residual(A: np.ndarray, y: np.ndarray, x: np.ndarray) -> float:
    g = A.T @ (A @ x - y)
    active = x > 0
    stationarity = float(np.abs(g[active]).max()) if active.any() else 0.0
    feasibility = max(0.0, -float(x.min())) if x.size else 0.0
    slack = max(0.0, -float(g[~active].min())) if (~active).any() else 0.0
    return max(stationarity, feasibility, slack)


def test_criterion_4_nnls_kkt_and_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4404)
    worst_kkt = 0.0
    worst_obj = 0.0
    for i in range(500):
        rows = int(rng.integers(2, 33))
        cols = int(rng.integers(2, 129))
        A = rng.standard_normal((rows, cols))
        if i % 2 == 0:
            x0 = np.where(rng.random(cols) < 0.3, np.abs(rng.standard_normal(cols)), 0.0)
            y = A @ x0 + 0.1 * rng.standard_normal(rows)
        else:
            y = rng.standard_normal(rows)
        res = nnls_solve(A, y)
        worst_kkt = max(worst_kkt, kkt_residual(A, y, res.x))
        x_ref = fista_nnls(A, y, tol=1e-10)
        ref_norm = float(np.linalg.norm(A @ x_ref - y))
        worst_obj = max(worst_obj, abs(res.residual_norm - ref_norm))
    elapsed = time.perf_counter() - t0
    ok = worst_kkt <= 1e-8 and worst_obj <= 1e-6 and elapsed < 60.0
    emit(capsys, 4, ok, elapsed, 60.0,
         f"500 instances: worst KKT residual={worst_kkt:.2e}, "
         f"worst objective gap vs oracle={worst_obj:.2e}")
    assert worst_kkt <= 1e-8
    assert worst_obj <= 1e-6
    assert elapsed < 60.0


# --- 5: coordinate-descent state consistency ---------------------------------

def test_criterion_5_covariance_state_consistency(capsys):
    t0 = time.perf_counter()
    n, v, M, N0 = 16, 6, 256, 1.0
    cols = 1 << v
    worst_fro = 0.0
    worst_increase = 0.0
    eye = np.eye(n)
    for i in range(100):
        rng = np.random.default_rng((550, i))
        A = build_complex_sensing_matrix(n, v, radius=float(np.sqrt(n)),
                                         seed=(551, i))
        k_true = int(rng.integers(1, 9))
        support = rng.choice(cols, size=k_true, replace=False)
        H = (rng.standard_normal((k_true, M))
             + 1j * rng.standard_normal((k_true, M))) * np.sqrt(0.5)
        Z = (rng.standard_normal((n, M))
             + 1j * rng.standard_normal((n, M))) * np.sqrt(N0 / 2.0)
        Y = A.columns[:, support] @ H + Z
        cov = sample_covariance(Y)

        state = CovarianceState(cov, A, N0)
        cost_prev = state.cost()
        for _ in range(10):
            for k in range(cols):
                state.coordinate_step(k)
                cost_now = state.cost()
                worst_increase = max(worst_increase, cost_now - cost_prev)
                cost_prev = cost_now
            fro = float(np.linalg.norm(state.sigma_inv @ state.covariance() - eye))
            worst_fro = max(worst_fro, fro)
            assert state.gamma.min() >= 0.0
        # the shipped sweep driver must produce the same trajectory
        gamma_ref, _ = activity_detect(cov, A, np.arange(1 << v), N0,
                                       sweeps=10, tol=0.0)
        assert np.array_equal(gamma_ref, state.gamma)
    elapsed = time.perf_counter() - t0
    ok = worst_fro <= 1e-7 and worst_increase <= 1e-9 and elapsed < 120.0
    emit(capsys, 5, ok, elapsed, 120.0,
         f"100 instances, every sweep: worst ||inv*cov - I||_F={worst_fro:.2e}, "
         f"worst per-step cost increase={worst_increase:.2e}")
    assert worst_fro <= 1e-7
    assert worst_increase <= 1e-9
    assert elapsed < 120.0


# --- 6: enhanced vs original, scalar channel at desk scale -------------------

SISO_DESK = {"m": [8, 7, 5, 4], "l": [0, 1, 3, 4]}    # B=24, every v_l=8
MIMO_DESK = {"m": [5, 4, 2, 1], "l": [0, 1, 3, 4]}    # B=12, every v_l=5


def test_criterion_6_siso_enhanced_vs_original(capsys):
    t0 = time.perf_counter()
    trials = 200
    cfg = parse_config({
        "scenario": "siso",
        "profile": SISO_DESK,
        "K": [2, 4, 8],
        "trials": trials,
        "ebn0_db": [16.0],
        "n": 64,
        "master_seed": 2026,
    })
    details = []
    all_ok = True
    for K in (2, 4, 8):
        results = [run_siso_trial(cfg, K, 16.0, t) for t in range(trials)]
        orig = np.array([r.outcomes["original"].pupe for r in results])
        enh = np.array([r.outcomes["enhanced"].pupe for r in results])
        cols_o = np.mean([r.outcomes["original"].per_slot for r in results], axis=0)
        cols_e = np.mean([r.outcomes["enhanced"].per_slot for r in results], axis=0)
        window_ok = 0.05 <= orig.mean() <= 0.5
        dbar, se = paired_delta(orig, enh)
        sig_ok = significantly_not_worse(dbar, se)
        cols_ok = bool(np.all(cols_e[1:] < cols_o[1:]))
        k_ok = window_ok and sig_ok and cols_ok
        all_ok = all_ok and k_ok
        details.append(
            f"K={K}: orig pupe={orig.mean():.4f} enh pupe={enh.mean():.4f} "
            f"window[0.05,0.5]={'ok' if window_ok else 'VIOLATED'} "
            f"dbar={dbar:+.5f} se={se:.5f} "
            f"one-sided-95%={'pass' if sig_ok else 'fail'} "
            f"(not-worse reading: "
            f"{'pass' if not_significantly_worse(dbar, se) else 'fail'}) "
            f"cols slots2+ orig={np.round(cols_o[1:], 1).tolist()} "
            f"enh={np.round(cols_e[1:], 1).tolist()} "
            f"smaller={'yes' if cols_ok else 'no'}")
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 600.0
    emit(capsys, 6, ok, elapsed, 600.0,
         "scalar-channel enhanced<=original with significance plus strict "
         "column reduction, K in {2,4,8}", details)
    assert ok, "enhanced decoder did not significantly beat original; see ledger"


# --- 7: enhanced vs original, MIMO at desk scale -----------------------------

def test_criterion_7_mimo_enhanced_vs_original(capsys):
    t0 = time.perf_counter()
    trials = 100
    cfg = parse_config({
        "scenario": "mimo",
        "profile": MIMO_DESK,
        "K": [2, 3, 4],
        "M": [64],
        "trials": trials,
        "ebn0_db": 0.0,
        "n": 16,
        "master_seed": 2026,
    })
    details = []
    all_ok = True
    for K in (2, 3, 4):
        results = [run_mimo_trial(cfg, K, 64, t) for t in range(trials)]
        orig = np.array([r.outcomes["original"].pupe for r in results])
        enh = np.array([r.outcomes["enhanced"].pupe for r in results])
        wall_o = sum(r.outcomes["original"].wall_ms for r in results)
        wall_e = sum(r.outcomes["enhanced"].wall_ms for r in results)
        ratio = wall_e / wall_o
        dbar, se = paired_delta(orig, enh)
        sig_ok = significantly_not_worse(dbar, se)
        ratio_ok = ratio < 1.0
        k_ok = sig_ok and ratio_ok
        all_ok = all_ok and k_ok
        details.append(
            f"K={K}: orig pupe={orig.mean():.4f} enh pupe={enh.mean():.4f} "
            f"dbar={dbar:+.5f} se={se:.5f} "
            f"one-sided-95%={'pass' if sig_ok else 'fail'} "
            f"(not-worse reading: "
            f"{'pass' if not_significantly_worse(dbar, se) else 'fail'}) "
            f"wall ratio enh/orig={ratio:.3f} "
            f"({'<1 ok' if ratio_ok else '>=1 VIOLATED'})")
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 900.0
    emit(capsys, 7, ok, elapsed, 900.0,
         "MIMO enhanced<=original with significance plus wall-time ratio < 1, "
         "K in {2,3,4} at 0 dB", details)
    assert ok, "enhanced decoder did not significantly beat original; see ledger"


# --- 8: forced-full pattern sets reproduce the original decoder --------------

def test_criterion_8_forced_full_equivalence(capsys):
    t0 = time.perf_counter()
    trials = 50

    profile_s = ParityProfile(m=(6, 4, 3), l=(0, 3, 4))
    cb_s = TreeCodebook(profile_s, 81)
    mats_s = [build_sensing_matrix(24, v, (82, v)) for v in profile_s.v]
    d = ebn0_to_amplitude(8.0, profile_s.B, profile_s.L)
    siso_equal = 0
    for t in range(trials):
        rng = np.random.default_rng((83, t))
        W = random_bits(rng, (3, profile_s.B))
        frags = encode_messages(W, cb_s)
        y = [gmac_transmit(user_signals(frags[ell - 1], mats_s[ell - 1]), d,
                           (84, t), stream=ell) for ell in range(1, profile_s.L + 1)]
        base = decode_siso(y, mats_s, cb_s, 3, mode="original")
        forced = decode_siso(y, mats_s, cb_s, 3, mode="enhanced",
                             force_full_patterns=True)
        siso_equal += int(forced.messages == base.messages
                          and forced.failures == base.failures)

    profile_m = ParityProfile(m=(4, 3, 2), l=(0, 2, 3))
    cb_m = TreeCodebook(profile_m, 91)
    P = ebn0_to_power(0.0, profile_m.B, profile_m.L, 8, 1.0)
    radius = float(np.sqrt(8 * P))
    mats_m = [build_complex_sensing_matrix(8, v, radius, (92, v))
              for v in profile_m.v]
    mimo_equal = 0
    for t in range(trials):
        rng = np.random.default_rng((93, t))
        W = random_bits(rng, (2, profile_m.B))
        frags = encode_messages(W, cb_m)
        covs = [sample_covariance(mimo_block_transmit(
                    rows_to_ints(frags[ell - 1]), mats_m[ell - 1].columns, 32, 1.0,
                    (94, t), (95, t), block=ell))
                for ell in range(1, profile_m.L + 1)]
        base = decode_mimo(covs, mats_m, cb_m, 2, 1.0, mode="original")
        forced = decode_mimo(covs, mats_m, cb_m, 2, 1.0, mode="enhanced",
                                force_full_patterns=True)
        mimo_equal += int(forced.messages == base.messages
                          and forced.failures == base.failures)

    elapsed = time.perf_counter() - t0
    ok = siso_equal == trials and mimo_equal == trials and elapsed < 300.0
    emit(capsys, 8, ok, elapsed, 300.0,
         f"forced-full enhanced == original message lists: scalar "
         f"{siso_equal}/{trials}, MIMO {mimo_equal}/{trials}")
    assert siso_equal == trials
    assert mimo_equal == trials
    assert elapsed < 300.0


# --- 9: byte-identical CSV under a fixed master seed --------------------------

def test_criterion_9_csv_determinism(capsys):
    t0 = time.perf_counter()
    configs = [
        {"scenario": "siso", "profile": {"m": [4, 3, 3], "l": [0, 3, 3]},
         "K": [2], "trials": 3, "ebn0_db": [10.0], "n": 20, "master_seed": 97},
        {"scenario": "mimo", "profile": {"m": [4, 3, 3], "l": [0, 2, 2]},
         "K": [2], "M": [16], "trials": 3, "ebn0_db": 4.0, "n": 8,
         "master_seed": 97},
        {"scenario": "predict", "profile": "siso-default", "K": [25, 100]},
    ]
    all_equal = True
    for data in configs:
        first = run_experiment(parse_config(data))
        second = run_experiment(parse_config(data))
        all_equal = all_equal and (first == second)
    elapsed = time.perf_counter() - t0
    ok = all_equal and elapsed < 120.0
    emit(capsys, 9, ok, elapsed, 120.0,
         "siso/mimo/predict reruns with the same master seed are byte-identical: "
         f"{all_equal}")
    assert all_equal
    assert elapsed < 120.0
