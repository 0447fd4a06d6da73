import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselab.errors import Divergence, IterationBudgetExceeded
from sparselab.guarantees import cosamp_constants, iht_constants, oracle_mse_exact, sp_constants
from sparselab.linalg import SupportSet, least_squares_on_support, normalize_columns
from sparselab.metrics import worst_case_noise_correlation
from sparselab.pursuit import (
    Algorithm,
    FixedIterations,
    PracticalLogRule,
    PursuitConfig,
    cosamp,
    iht,
    oracle_estimator,
    practical_iteration_count,
    read_trace,
    recurrence_diagnostics,
    subspace_pursuit,
    write_trace,
)
from sparselab.experiment import generate_signal


def random_dictionary(m, n, seed):
    rng = np.random.default_rng(seed)
    return normalize_columns(rng.standard_normal((m, n)))


def near_orthonormal_dictionary():
    # 12x12 perturbed orthonormal basis: delta_6 ~ 0.077 and delta_8 ~ 0.081,
    # so the acceptance conditions of all three solvers hold exactly
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    return normalize_columns(Q + 0.01 * rng.standard_normal((12, 12)))


SOLVERS = {"sp": subspace_pursuit, "cosamp": cosamp, "iht": iht}


class TestHalting:
    def test_practical_count_formula(self):
        # ceil(log2(||x|| / (sqrt(K) sigma)))
        assert practical_iteration_count(32.0, 1, 1.0) == 5
        assert practical_iteration_count(64.0, 4, 0.5) == 6

    def test_practical_count_clamps(self):
        assert practical_iteration_count(0.0, 2, 1.0) == 1
        assert practical_iteration_count(1.0, 4, 10.0) == 1
        assert practical_iteration_count(1e60, 1, 1e-60, cap=100) == 100

    def test_fixed_iterations_validated(self):
        with pytest.raises(ValueError):
            FixedIterations(0)
        with pytest.raises(IterationBudgetExceeded):
            PursuitConfig(k=2, halting=FixedIterations(101), max_iterations_cap=100)

    def test_practical_rule_reads_measurement_norm(self):
        D = random_dictionary(9, 15, 0)
        x = generate_signal(15, 2, 1)
        y = D.entries @ x.values
        sigma = 0.5
        cfg = PursuitConfig(k=2, halting=PracticalLogRule(sigma=sigma))
        res = subspace_pursuit(D, y, cfg)
        assert res.iterations_run == practical_iteration_count(float(np.linalg.norm(y)), 2, sigma)

    def test_zero_measurement_runs_one_iteration(self):
        D = random_dictionary(8, 12, 2)
        cfg = PursuitConfig(k=2, halting=PracticalLogRule(sigma=1.0))
        res = subspace_pursuit(D, np.zeros(8), cfg)
        assert res.iterations_run == 1
        assert np.all(res.estimate.values == 0.0)


class TestExactRecovery:
    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_orthonormal_basis_recovers_in_one_iteration(self, name):
        D = normalize_columns(np.eye(8))
        x = generate_signal(8, 2, 3)
        y = D.entries @ x.values
        cfg = PursuitConfig(k=2, halting=FixedIterations(1))
        res = SOLVERS[name](D, y, cfg)
        assert np.allclose(res.estimate.values, x.values, atol=1e-12)
        assert res.estimate.support == x.support

    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_incoherent_noiseless_recovery(self, name):
        D = random_dictionary(64, 128, 4)
        x = generate_signal(128, 5, 5)
        y = D.entries @ x.values
        iters = 10 if name != "iht" else 60
        cfg = PursuitConfig(k=5, halting=FixedIterations(iters), trace_enabled=False)
        res = SOLVERS[name](D, y, cfg)
        err = np.linalg.norm(res.estimate.values - x.values)
        assert err <= 1e-8 * np.linalg.norm(x.values)

    def test_estimates_are_k_sparse(self):
        D = random_dictionary(24, 48, 6)
        x = generate_signal(48, 3, 7)
        y = D.entries @ x.values + 0.5 * np.random.default_rng(8).standard_normal(24)
        cfg = PursuitConfig(k=3, halting=FixedIterations(5), trace_enabled=False)
        for solver in SOLVERS.values():
            res = solver(D, y, cfg)
            assert len(res.estimate.support) <= 3
            assert np.count_nonzero(res.estimate.values) <= 3


class TestSubspacePursuit:
    def test_zero_measurement_selects_leading_atoms(self):
        D = random_dictionary(12, 18, 9)
        cfg = PursuitConfig(k=3, halting=FixedIterations(2))
        res = subspace_pursuit(D, np.zeros(12), cfg)
        assert res.estimate.support == SupportSet((0, 1, 2))
        assert np.all(res.estimate.values == 0.0)

    def test_residual_orthogonal_to_pruned_atoms(self):
        D = random_dictionary(16, 32, 10)
        x = generate_signal(32, 3, 11)
        y = D.entries @ x.values + 0.3 * np.random.default_rng(12).standard_normal(16)
        cfg = PursuitConfig(k=3, halting=FixedIterations(4))
        res = subspace_pursuit(D, y, cfg)
        for rec in res.trace:
            coef = least_squares_on_support(D, rec.pruned_support, y)
            r = y - D.columns(rec.pruned_support) @ coef
            assert np.allclose(D.columns(rec.pruned_support).T @ r, 0.0, atol=1e-9)
            assert rec.residual_norm == pytest.approx(float(np.linalg.norm(r)), abs=1e-9)

    def test_final_estimate_is_least_squares_on_final_support(self):
        D = random_dictionary(12, 24, 13)
        x = generate_signal(24, 2, 14)
        y = D.entries @ x.values + 0.2 * np.random.default_rng(15).standard_normal(12)
        cfg = PursuitConfig(k=2, halting=FixedIterations(3))
        res = subspace_pursuit(D, y, cfg)
        coef = least_squares_on_support(D, res.estimate.support, y)
        assert np.allclose(res.estimate.on_support(), coef, atol=1e-12)

    def test_merged_support_contains_previous_and_new(self):
        D = random_dictionary(12, 20, 16)
        x = generate_signal(20, 2, 17)
        y = D.entries @ x.values + 0.4 * np.random.default_rng(18).standard_normal(12)
        cfg = PursuitConfig(k=2, halting=FixedIterations(3))
        res = subspace_pursuit(D, y, cfg)
        for rec in res.trace:
            merged = set(rec.merged_support)
            assert set(rec.support_before).issubset(merged)
            assert set(rec.delta_support).issubset(merged)
            assert len(rec.merged_support) <= 2 * 2
            assert set(rec.pruned_support).issubset(merged)


class TestDimensionGuards:
    @pytest.mark.parametrize("name, factor", [("sp", 3), ("cosamp", 4), ("iht", 3)])
    def test_rip_order_must_fit_in_m(self, name, factor):
        D = random_dictionary(12, 24, 3)
        y = np.random.default_rng(4).standard_normal(12)
        k = 12 // factor
        SOLVERS[name](D, y, PursuitConfig(k=k, halting=FixedIterations(1)))
        with pytest.raises(ValueError, match="rip order"):
            SOLVERS[name](D, y, PursuitConfig(k=k + 1, halting=FixedIterations(1)))


class TestCosamp:
    def test_delta_support_has_2k_atoms(self):
        D = random_dictionary(16, 28, 19)
        x = generate_signal(28, 2, 20)
        y = D.entries @ x.values + 0.3 * np.random.default_rng(21).standard_normal(16)
        cfg = PursuitConfig(k=2, halting=FixedIterations(3))
        res = cosamp(D, y, cfg)
        for rec in res.trace:
            assert len(rec.delta_support) == 4
            assert len(rec.merged_support) <= 6

    def test_final_values_are_pruned_merged_coefficients_not_resolved(self):
        # the estimate keeps the merged least-squares values on the pruned
        # support; re-solving on the pruned support would give different
        # numbers whenever the discarded atoms were correlated
        D = random_dictionary(16, 28, 22)
        x = generate_signal(28, 2, 23)
        y = D.entries @ x.values + 0.5 * np.random.default_rng(24).standard_normal(16)
        cfg = PursuitConfig(k=2, halting=FixedIterations(3))
        res = cosamp(D, y, cfg)
        last = res.trace[-1]
        merged_coef = least_squares_on_support(D, last.merged_support, y)
        merged_idx = list(last.merged_support)
        kept = [merged_idx.index(i) for i in last.pruned_support]
        assert np.allclose(res.estimate.on_support(), merged_coef[kept], atol=1e-12)
        resolved = least_squares_on_support(D, last.pruned_support, y)
        assert not np.allclose(res.estimate.on_support(), resolved, atol=1e-10)

    def test_residual_uses_kept_values(self):
        D = random_dictionary(16, 28, 25)
        x = generate_signal(28, 2, 26)
        y = D.entries @ x.values + 0.3 * np.random.default_rng(27).standard_normal(16)
        cfg = PursuitConfig(k=2, halting=FixedIterations(2))
        res = cosamp(D, y, cfg)
        rec = res.trace[-1]
        # estimate_values is compact: one entry per pruned-support atom
        r = y - D.columns(rec.pruned_support) @ rec.estimate_values
        assert rec.residual_norm == pytest.approx(float(np.linalg.norm(r)), abs=1e-9)


class TestIht:
    def test_first_iteration_thresholds_correlations(self):
        D = random_dictionary(12, 20, 28)
        rng = np.random.default_rng(29)
        y = rng.standard_normal(12)
        cfg = PursuitConfig(k=3, halting=FixedIterations(1))
        res = iht(D, y, cfg)
        c = D.entries.T @ y
        order = np.argsort(-np.abs(c), kind="stable")
        expected = SupportSet(tuple(sorted(int(i) for i in order[:3])))
        assert res.estimate.support == expected
        assert np.allclose(res.estimate.on_support(), c[expected.as_array()], atol=1e-12)

    def test_no_least_squares_involved(self):
        # one step from a zero estimate is pure correlate-and-threshold even
        # when the dictionary is rank deficient on the selected support
        A = np.random.default_rng(30).standard_normal((9, 15))
        A[:, 7] = A[:, 3]
        D = normalize_columns(A)
        y = D.entries[:, 3] + D.entries[:, 7]
        cfg = PursuitConfig(k=2, halting=FixedIterations(1))
        res = iht(D, y, cfg)
        assert res.estimate.support == SupportSet((3, 7))

    def test_divergence_raised_on_coherent_dictionary(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((6, 1))
        D = normalize_columns(u + 0.01 * rng.standard_normal((6, 18)))
        x = generate_signal(18, 2, 3)
        y = D.entries @ x.values
        cfg = PursuitConfig(k=2, halting=FixedIterations(100), trace_enabled=False)
        with pytest.raises(Divergence):
            iht(D, y, cfg)


class TestOracleEstimator:
    def test_matches_closed_form_mse(self):
        D = random_dictionary(16, 32, 31)
        x = generate_signal(32, 3, 32)
        sigma = 1.0
        rng = np.random.default_rng(33)
        exact = oracle_mse_exact(D, x.support, sigma)
        draws = 2000
        total = 0.0
        for _ in range(draws):
            e = sigma * rng.standard_normal(16)
            res = oracle_estimator(D, D.entries @ x.values + e, x.support)
            total += float(np.sum((res.estimate.values - x.values) ** 2))
        assert total / draws == pytest.approx(exact, rel=0.1)

    def test_zero_iterations_and_support_preserved(self):
        D = random_dictionary(8, 14, 34)
        x = generate_signal(14, 2, 35)
        res = oracle_estimator(D, D.entries @ x.values, x.support)
        assert res.iterations_run == 0
        assert res.algorithm is Algorithm.ORACLE
        assert res.estimate.support == x.support
        assert np.allclose(res.estimate.values, x.values, atol=1e-10)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_identical_reruns(self, name):
        D = random_dictionary(20, 40, 36)
        x = generate_signal(40, 4, 37)
        y = D.entries @ x.values + 0.2 * np.random.default_rng(38).standard_normal(20)
        cfg = PursuitConfig(k=4, halting=FixedIterations(4), trace_enabled=False)
        a = SOLVERS[name](D, y, cfg)
        b = SOLVERS[name](D, y, cfg)
        assert np.array_equal(a.estimate.values, b.estimate.values)
        assert a.estimate.support == b.estimate.support


class TestTraceRoundTrip:
    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_all_fields_survive(self, tmp_path, name):
        # iht records no delta_support or merged_support, so None fields round-trip too
        D = random_dictionary(12, 20, 39)
        x = generate_signal(20, 2, 40)
        e = 0.3 * np.random.default_rng(41).standard_normal(12)
        y = D.entries @ x.values + e
        cfg = PursuitConfig(k=2, halting=FixedIterations(3))
        res = SOLVERS[name](D, y, cfg, x_true=x)
        path = tmp_path / "trace.jsonl"
        write_trace(path, res, D, x_true=x, noise=e, sigma=0.3)
        bundle = read_trace(path)
        assert bundle.algorithm is Algorithm(name)
        assert bundle.k == 2
        assert bundle.iterations_run == res.iterations_run
        assert np.array_equal(bundle.dictionary.entries, D.entries)
        assert np.array_equal(bundle.x_true.values, x.values)
        assert np.array_equal(bundle.noise, e)
        assert bundle.sigma == 0.3
        assert len(bundle.records) == len(res.trace)
        for got, want in zip(bundle.records, res.trace):
            assert got.iteration == want.iteration
            assert got.support_before == want.support_before
            assert got.delta_support == want.delta_support
            assert got.merged_support == want.merged_support
            assert got.pruned_support == want.pruned_support
            assert np.array_equal(got.coefficients, want.coefficients)
            assert np.array_equal(got.estimate_values, want.estimate_values)
            assert got.residual_norm == want.residual_norm
            assert got.estimate_error == want.estimate_error

    def test_header_without_truth_or_noise(self, tmp_path):
        D = random_dictionary(12, 20, 39)
        y = np.random.default_rng(42).standard_normal(12)
        res = cosamp(D, y, PursuitConfig(k=2, halting=FixedIterations(2)))
        path = tmp_path / "trace.jsonl"
        write_trace(path, res, D)
        bundle = read_trace(path)
        assert bundle.x_true is None and bundle.noise is None and bundle.sigma is None
        assert np.array_equal(bundle.dictionary.entries, D.entries)
        for got, want in zip(bundle.records, res.trace, strict=True):
            assert got.estimate_error is None
            assert got.pruned_support == want.pruned_support
            assert np.array_equal(got.coefficients, want.coefficients)

    def test_trace_disabled_gives_no_trace(self):
        D = random_dictionary(10, 18, 42)
        x = generate_signal(18, 2, 43)
        cfg = PursuitConfig(k=2, halting=FixedIterations(2), trace_enabled=False)
        res = subspace_pursuit(D, D.entries @ x.values, cfg)
        assert res.trace is None
        with pytest.raises(ValueError):
            write_trace("/dev/null", res, D)


class TestRecurrenceDiagnostics:
    def test_all_families_hold_under_their_conditions(self):
        D = near_orthonormal_dictionary()
        rng = np.random.default_rng(5)
        rng.standard_normal((12, 12)), rng.standard_normal((12, 12))  # consumed by fixture
        x = generate_signal(12, 2, 9)
        e = 0.3 * np.random.default_rng(77).standard_normal(12)
        y = D.entries @ x.values + e
        cfg = PursuitConfig(k=2, halting=FixedIterations(6))
        for name in ("sp", "cosamp", "iht"):
            res = SOLVERS[name](D, y, cfg, x_true=x)
            rep = recurrence_diagnostics(res.trace, x, e, D, name)
            assert rep.condition_met, name
            assert rep.all_hold, name
            expected = {"sp": 18, "cosamp": 6, "iht": 6}[name]
            assert len(rep.checks) == expected

    def test_sp_checks_nonvacuous_under_heavy_noise(self):
        # sigma chosen so the first correlation step misses part of the true
        # support: the lhs of the miss inequalities is strictly positive
        D = near_orthonormal_dictionary()
        x = generate_signal(12, 2, 5)
        e = 4.0 * np.random.default_rng(1005).standard_normal(12)
        y = D.entries @ x.values + e
        cfg = PursuitConfig(k=2, halting=FixedIterations(6))
        res = subspace_pursuit(D, y, cfg, x_true=x)
        rep = recurrence_diagnostics(res.trace, x, e, D, "sp")
        assert rep.condition_met
        assert rep.all_hold
        assert sum(1 for c in rep.checks if c.lhs > 0) >= 10

    def test_check_names(self):
        D = near_orthonormal_dictionary()
        x = generate_signal(12, 2, 9)
        e = 0.1 * np.random.default_rng(50).standard_normal(12)
        y = D.entries @ x.values + e
        cfg = PursuitConfig(k=2, halting=FixedIterations(2))
        res = subspace_pursuit(D, y, cfg, x_true=x)
        rep = recurrence_diagnostics(res.trace, x, e, D, "sp")
        names = {c.name for c in rep.checks}
        assert names == {"merged_support_miss", "pruned_support_miss", "composed_recurrence"}
        res = iht(D, y, cfg, x_true=x)
        rep = recurrence_diagnostics(res.trace, x, e, D, "iht")
        assert {c.name for c in rep.checks} == {"estimate_recurrence"}

    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_explicit_delta_and_noise_correlation_respected(self, name):
        D = near_orthonormal_dictionary()
        x = generate_signal(12, 2, 9)
        e = 0.2 * np.random.default_rng(51).standard_normal(12)
        y = D.entries @ x.values + e
        cfg = PursuitConfig(k=2, halting=FixedIterations(2))
        res = SOLVERS[name](D, y, cfg, x_true=x)
        d, nc = 0.05, 1.25
        rep = recurrence_diagnostics(res.trace, x, e, D, name, delta=d, noise_correlation=nc)
        assert rep.delta == d
        assert rep.noise_correlation == nc
        assert worst_case_noise_correlation(D, e, 2).value != nc
        rho, tau, _ = {"sp": sp_constants, "cosamp": cosamp_constants, "iht": iht_constants}[name](d)
        expected = []
        if name == "sp":
            T = set(x.support)

            def miss(support):
                return float(np.linalg.norm(x.values[sorted(T - set(support))]))

            for r in res.trace:
                prev, merged, pruned = miss(r.support_before), miss(r.merged_support), miss(r.pruned_support)
                expected += [
                    2 * d / (1 - d) ** 2 * prev + 2 / (1 - d) ** 2 * nc,
                    (1 + d) / (1 - d) * merged + 4 / (1 - d) * nc,
                    rho * prev + tau * nc,
                ]
        else:
            prev = np.zeros(12)
            for r in res.trace:
                expected.append(rho * float(np.linalg.norm(x.values - prev)) + tau * nc)
                prev = np.zeros(12)
                prev[r.pruned_support.as_array()] = r.estimate_values
        assert [c.rhs for c in rep.checks] == pytest.approx(expected, rel=1e-12)
        if name == "iht":
            assert rep.checks[0].rhs == pytest.approx(math.sqrt(8) * d * float(np.linalg.norm(x.values)) + 4 * nc, rel=1e-12)

    @pytest.mark.parametrize("delta", [1.0, 1.5])
    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_past_the_pole_checks_hold_vacuously(self, name, delta):
        # noiseless exact recovery: the miss and noise terms are zero, so an
        # infinite coefficient times zero must not turn the rhs into nan
        D = near_orthonormal_dictionary()
        x = generate_signal(12, 2, 9)
        e = np.zeros(12)
        cfg = PursuitConfig(k=2, halting=FixedIterations(4))
        res = SOLVERS[name](D, D.entries @ x.values, cfg, x_true=x)
        assert np.allclose(res.estimate.values, x.values, atol=1e-9)
        rep = recurrence_diagnostics(res.trace, x, e, D, name, delta=delta)
        assert not any(math.isnan(c.rhs) for c in rep.checks)
        assert not rep.condition_met
        if name != "iht":
            assert all(c.rhs == math.inf for c in rep.checks)
            assert rep.all_hold

    def test_oracle_and_empty_trace_rejected(self):
        D = near_orthonormal_dictionary()
        x = generate_signal(12, 2, 9)
        with pytest.raises(ValueError):
            recurrence_diagnostics((), x, np.zeros(12), D, "sp")
        with pytest.raises(ValueError):
            recurrence_diagnostics((), x, np.zeros(12), D, "oracle")


class TestProperties:
    @given(
        st.sampled_from(["sp", "cosamp", "iht"]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(deadline=None, max_examples=40)
    def test_estimate_always_k_sparse_and_finite(self, name, k, seed):
        rng = np.random.default_rng(seed)
        D = normalize_columns(rng.standard_normal((16, 24)))
        x = generate_signal(24, k, seed)
        y = D.entries @ x.values + rng.standard_normal(16)
        cfg = PursuitConfig(k=k, halting=FixedIterations(3), trace_enabled=False)
        try:
            res = SOLVERS[name](D, y, cfg)
        except Divergence:
            return
        assert len(res.estimate.support) <= k
        assert np.count_nonzero(res.estimate.values) <= k
        assert np.all(np.isfinite(res.estimate.values))
