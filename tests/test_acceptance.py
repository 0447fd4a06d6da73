"""Acceptance gate: one test per release criterion, each printing a summary line.

Heavy criteria run the real workloads at full size; every tolerance is stated
inline next to its assertion.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import sparselab as sl
from sparselab.experiment import dictionary_seed, parse_config, run_experiment
from sparselab.metrics import rip_exact, rip_monte_carlo, worst_case_noise_correlation

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

SOLVERS = {"sp": sl.subspace_pursuit, "cosamp": sl.cosamp, "iht": sl.iht}


def test_criterion_1_guarantee_constants():
    t0 = time.perf_counter()
    rho, tau, c_sp = sl.sp_constants(0.139)
    _, _, c_cosamp = sl.cosamp_constants(0.1)
    rho_iht, _, c_iht = sl.iht_constants(1 / math.sqrt(32))
    c_ds = sl.ds_constant(0.139)
    elapsed = time.perf_counter() - t0

    assert rho <= 0.5
    assert tau <= 8.22
    assert c_sp <= 21.41
    assert abs(c_sp - 21.41) <= 0.02
    assert abs(c_cosamp - 34.1) <= 0.05
    assert c_iht == 9.0
    assert rho_iht == 0.5
    assert abs(c_ds - 5.54) <= 0.05
    assert elapsed < 0.05  # milliseconds-scale requirement
    print(
        f"CRITERION 1 PASS: sp=(rho {rho:.4f}, tau {tau:.4f}, C {c_sp:.4f}), "
        f"cosamp C {c_cosamp:.4f}, iht C {c_iht}, iht rho {rho_iht}, ds {c_ds:.4f}, "
        f"{elapsed*1e3:.2f} ms"
    )


def test_criterion_2_oracle_estimator_mse():
    t0 = time.perf_counter()
    draws = 10_000

    # part 1: matched statistics at working size
    D = sl.generate_dictionary(64, 128, 7)
    x = sl.generate_signal(128, 5, 7)
    T = x.support
    sigma = 1.0
    exact = sl.oracle_mse_exact(D, T, sigma)
    rng = np.random.default_rng(77)
    clean = D.entries @ x.values
    total = 0.0
    for _ in range(draws):
        y = clean + sigma * rng.standard_normal(64)
        res = sl.oracle_estimator(D, y, T)
        total += float(np.sum((res.estimate.values - x.values) ** 2))
    empirical = total / draws
    assert abs(empirical - exact) <= 0.05 * exact  # within 5%

    # part 2: both sit under K sigma^2 / (1 - delta_K) at enumerable size
    D_small = sl.generate_dictionary(24, 36, 60)
    delta3 = rip_exact(D_small, 3).delta
    assert delta3 < 1.0
    x2 = sl.generate_signal(36, 3, 60)
    exact_small = sl.oracle_mse_exact(D_small, x2.support, sigma)
    rng2 = np.random.default_rng(88)
    clean2 = D_small.entries @ x2.values
    total2 = 0.0
    for _ in range(draws):
        y = clean2 + sigma * rng2.standard_normal(24)
        res = sl.oracle_estimator(D_small, y, x2.support)
        total2 += float(np.sum((res.estimate.values - x2.values) ** 2))
    empirical_small = total2 / draws
    bound = sl.oracle_mse_bound(3, delta3, sigma)
    assert exact_small <= bound
    assert empirical_small <= bound

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"CRITERION 2 PASS: empirical {empirical:.4f} vs exact {exact:.4f} "
        f"({100*abs(empirical-exact)/exact:.2f}% off); reduced-size bound "
        f"{bound:.3f} covers exact {exact_small:.3f} and empirical {empirical_small:.3f}; "
        f"{elapsed:.1f} s"
    )


def test_criterion_3_recurrence_diagnostics_enumerated_constants():
    t0 = time.perf_counter()
    k = 2
    sigma = 1.0
    instances = 50
    D = sl.generate_dictionary(24, 36, 60)
    delta3k = rip_exact(D, 3 * k, budget=None).delta
    delta4k = rip_exact(D, 4 * k, budget=None).delta
    deltas = {"sp": delta3k, "iht": delta3k, "cosamp": delta4k}

    results = {name: {"filtered": 0, "filtered_held": 0, "held": 0} for name in SOLVERS}
    cfg = sl.PursuitConfig(k=k, halting=sl.FixedIterations(6))
    for i in range(instances):
        x = sl.generate_signal(36, k, 1000 + i)
        e = sigma * np.random.default_rng(2000 + i).standard_normal(24)
        y = D.entries @ x.values + e
        # size-k worst case over all 630 supports, no shortcut
        nc = worst_case_noise_correlation(D, e, k, use_enumeration=True).value
        for name, solver in SOLVERS.items():
            res = solver(D, y, cfg, x_true=x)
            rep = sl.recurrence_diagnostics(
                res.trace, x, e, D, name, delta=deltas[name], noise_correlation=nc
            )
            if rep.all_hold:
                results[name]["held"] += 1
            if rep.condition_met:
                results[name]["filtered"] += 1
                if rep.all_hold:
                    results[name]["filtered_held"] += 1

    for name, r in results.items():
        # every instance passing the condition check must satisfy all
        # per-iteration inequalities: a 100% pass rate on the filtered set
        assert r["filtered_held"] == r["filtered"], name
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0

    detail = ", ".join(
        f"{name}: filtered {r['filtered']}/{instances} (pass rate "
        f"{'100%' if r['filtered'] == r['filtered_held'] else 'FAIL'}), "
        f"unfiltered hold {r['held']}/{instances}"
        for name, r in results.items()
    )
    print(
        f"CRITERION 3 PASS: delta_3K={delta3k:.4f}, delta_4K={delta4k:.4f} "
        f"(conditions unattainable at this aspect ratio, filtered sets empty "
        f"and the 100% rate is vacuous); {detail}; {elapsed:.1f} s"
    )


def test_criterion_4_bound_dominance_full_scale():
    t0 = time.perf_counter()
    cfg = parse_config(CONFIGS / "full_sparsity.cfg")
    rows, _ = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0

    for row in rows:
        if row.algorithm == "oracle":
            continue
        assert row.bound_violation_rate == 0.0, (row.k, row.algorithm)
        if row.k <= 15:
            assert row.mse <= 4.0 * row.oracle_mse, (row.k, row.algorithm)

    t1 = time.perf_counter()
    scaled_rows, _ = run_experiment(parse_config(CONFIGS / "scaled.cfg"))
    scaled_elapsed = time.perf_counter() - t1
    assert scaled_elapsed < 60.0
    assert scaled_rows

    worst_ratio = max(
        row.mse / row.oracle_mse for row in rows if row.algorithm != "oracle" and row.k <= 15
    )
    print(
        f"CRITERION 4 PASS: all violation rates zero over {len(rows)} rows, "
        f"worst mse/oracle ratio {worst_ratio:.2f} for K<=15; full run {elapsed:.0f} s, "
        f"scaled preset {scaled_elapsed:.1f} s"
    )


def _linear_fit_r2(rows, alg):
    pts = sorted((r.sigma**2, r.mse) for r in rows if r.algorithm == alg)
    sig2 = np.array([p[0] for p in pts])
    mse = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(sig2, mse, 1)
    pred = slope * sig2 + intercept
    ss_res = float(np.sum((mse - pred) ** 2))
    ss_tot = float(np.sum((mse - mse.mean()) ** 2))
    return 1.0 - ss_res / ss_tot, [float(v) for v in mse]


def test_criterion_5_noise_linearity():
    t0 = time.perf_counter()
    cfg = parse_config(CONFIGS / "full_noise.cfg")
    rows, records = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0

    oracle_r2, _ = _linear_fit_r2(rows, "oracle")
    recovery = {}
    for r in records:
        if r.algorithm != "oracle":
            recovery.setdefault((r.algorithm, r.sigma), []).append(r.support_recovered)
    top_recovery = {
        alg: float(np.mean(recovery[(alg, 4.0)])) for alg in ("sp", "cosamp", "iht")
    }

    r2_by_alg = {}
    for alg in ("sp", "cosamp", "iht"):
        r2, mse = _linear_fit_r2(rows, alg)
        r2_by_alg[alg] = r2

    detail = ", ".join(f"{alg} R^2={r2:.5f}" for alg, r2 in r2_by_alg.items())
    for alg, r2 in r2_by_alg.items():
        # the oracle's R^2 (knows the support, error exactly trace * sigma^2)
        # shows what the harness measures when identification never fails;
        # the solvers fall away from the line once per-atom noise
        # correlations (~3.73 sigma at N=1024) pass the smallest signal
        # magnitudes (10), which happens inside this sweep at sigma=4
        assert r2 >= 0.99, (
            f"{alg} R^2={r2:.5f} < 0.99 ({detail}; oracle R^2={oracle_r2:.5f}; "
            f"full-support recovery at sigma=4: {top_recovery})"
        )
    print(f"CRITERION 5 PASS: {detail}, oracle R^2={oracle_r2:.5f}; {elapsed:.0f} s")


def test_criterion_6_noiseless_exact_recovery():
    t0 = time.perf_counter()
    seeds = [
        int(line)
        for line in (CONFIGS / "recovery_seeds.txt").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(seeds) == 100
    D = sl.generate_dictionary(128, 256, dictionary_seed(20240817))
    counts = {}
    for name, solver in SOLVERS.items():
        iters = 100 if name == "iht" else 10
        cfg = sl.PursuitConfig(k=5, halting=sl.FixedIterations(iters))
        good = 0
        for s in seeds:
            x = sl.generate_signal(256, 5, s)
            y = D.entries @ x.values
            res = solver(D, y, cfg)
            err = float(np.linalg.norm(res.estimate.values - x.values))
            if err <= 1e-8 * float(np.linalg.norm(x.values)):
                good += 1
        counts[name] = good

    assert counts["sp"] >= 99
    assert counts["cosamp"] >= 99
    assert counts["iht"] >= 95
    elapsed = time.perf_counter() - t0
    print(
        f"CRITERION 6 PASS: sp {counts['sp']}/100, cosamp {counts['cosamp']}/100, "
        f"iht {counts['iht']}/100; {elapsed:.1f} s"
    )


def test_criterion_7_metric_oracle_equivalence():
    t0 = time.perf_counter()

    # exhaustively sampled Monte Carlo reproduces exact enumeration
    D = sl.generate_dictionary(8, 12, 3)
    for k, trials in ((2, 2000), (3, 4000)):
        exact = rip_exact(D, k).delta
        mc = rip_monte_carlo(D, k, trials=trials, seed=0).delta
        assert abs(exact - mc) <= 1e-12, k

    # fast top-k path equals enumeration; coherence bound holds everywhere
    checked = 0
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        Di = sl.normalize_columns(rng.standard_normal((6, 10)))
        e = rng.standard_normal(6)
        k = 1 + i % 3
        fast = worst_case_noise_correlation(Di, e, k).value
        slow = worst_case_noise_correlation(Di, e, k, use_enumeration=True).value
        assert abs(fast - slow) <= 1e-12
        mu = sl.mutual_coherence(Di)
        for kk in (2, 3):
            assert rip_exact(Di, kk).delta <= (kk - 1) * mu + 1e-12
        checked += 1

    elapsed = time.perf_counter() - t0
    print(
        f"CRITERION 7 PASS: mc==exact at k=2,3; {checked} instances of "
        f"fast==enumeration and delta_K <= (K-1) mu; {elapsed:.1f} s"
    )


def test_criterion_8_byte_identical_csv(tmp_path):
    from sparselab.cli import main

    outputs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / name
        code = main(
            ["run", "--config", str(CONFIGS / "scaled.cfg"), "--out-dir", str(out), "--workers", str(workers)]
        )
        assert code == 0
        outputs.append((out / "results.csv").read_bytes())

    assert outputs[0] == outputs[1]  # rerun
    assert outputs[0] == outputs[2]  # 8 workers vs 1
    print(
        f"CRITERION 8 PASS: {len(outputs[0])} bytes identical across two runs "
        f"and across workers 1 and 8"
    )
