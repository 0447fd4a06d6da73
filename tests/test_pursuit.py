import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselab import cli, pursuit
from sparselab.errors import Divergence, NonFinite
from sparselab.guarantees import cosamp_constants, iht_constants, oracle_mse_exact, rip_order, sp_constants
from sparselab.linalg import Dictionary, SparseSignal, SupportSet, least_squares_on_support, normalize_columns, top_k_support
from sparselab.metrics import rip_exact, worst_case_noise_correlation
from sparselab.pursuit import (
    MAX_ITERATIONS,
    Algorithm,
    FixedIterations,
    IterationRecord,
    PracticalLogRule,
    PursuitConfig,
    PursuitResult,
    TraceBundle,
    _error_vs,
    cosamp,
    iht,
    oracle_estimator,
    read_trace,
    recurrence_diagnostics,
    subspace_pursuit,
    write_trace,
)
from sparselab.experiment import generate_dictionary, generate_signal


def near_orthonormal_dictionary():
    # 12x12 perturbed orthonormal basis: delta_6 ~ 0.077 and delta_8 ~ 0.081,
    # so the acceptance conditions of all three solvers hold exactly
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    return normalize_columns(Q + 0.01 * rng.standard_normal((12, 12)))


SOLVERS = {"sp": subspace_pursuit, "cosamp": cosamp, "iht": iht}


def _merged_solve(D, y, before, record, k):
    """Least squares on `before` united with record.delta_support, solved again here; asserts that
    record.pruned_support is its k largest magnitudes and returns the solve at those atoms."""
    merged = before.union(record.delta_support)
    coef = least_squares_on_support(D, merged, y)
    top = np.sort(np.argsort(-np.abs(coef), kind="stable")[:k])
    assert record.pruned_support == SupportSet(merged.as_array()[top])
    return coef[top]


class TestHalting:
    def test_practical_count_formula(self):
        # ceil(log2(||x|| / (sqrt(K) sigma)))
        assert PracticalLogRule(1.0).iterations(32.0, 1) == 5
        assert PracticalLogRule(0.5).iterations(64.0, 4) == 6

    def test_practical_count_clamps(self):
        assert PracticalLogRule(1.0).iterations(0.0, 2) == 1
        assert PracticalLogRule(10.0).iterations(1.0, 4) == 1
        assert PracticalLogRule(1e-60).iterations(1e60, 1) == MAX_ITERATIONS == 100

    def test_practical_count_caps_an_overflowing_ratio(self):
        # ||y|| / (sqrt(k) sigma) is inf at a subnormal sigma: the cap, not an OverflowError from ceil(inf)
        assert PracticalLogRule(5e-324).iterations(10.0, 2) == MAX_ITERATIONS

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_practical_rule_rejects_a_non_positive_sigma(self, sigma):
        # a NaN sigma used to construct and fail later inside math.ceil
        with pytest.raises(ValueError, match="needs sigma > 0"):
            PracticalLogRule(sigma)

    @pytest.mark.parametrize("norm", [math.inf, math.nan])
    def test_practical_count_rejects_non_finite_norm(self, norm):
        with pytest.raises(NonFinite):
            PracticalLogRule(1.0).iterations(norm, 2)

    def test_fixed_iterations_validated(self):
        with pytest.raises(ValueError):
            FixedIterations(0)
        FixedIterations(MAX_ITERATIONS)
        with pytest.raises(ValueError, match="fixed iteration count 101 exceeds cap 100"):
            FixedIterations(MAX_ITERATIONS + 1)

    def test_practical_rule_reads_measurement_norm(self):
        D = generate_dictionary(9, 15, 0)
        x = generate_signal(15, 2, 1)
        y = D.entries @ x.values
        sigma = 0.5
        cfg = PursuitConfig(k=2, halting=PracticalLogRule(sigma=sigma))
        res = subspace_pursuit(D, y, cfg)
        assert res.iterations_run == PracticalLogRule(sigma).iterations(float(np.linalg.norm(y)), 2)

    def test_zero_measurement_runs_one_iteration(self):
        D = generate_dictionary(8, 12, 2)
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
        D = generate_dictionary(64, 128, 4)
        x = generate_signal(128, 5, 5)
        y = D.entries @ x.values
        iters = 10 if name != "iht" else 60
        cfg = PursuitConfig(k=5, halting=FixedIterations(iters))
        res = SOLVERS[name](D, y, cfg)
        err = np.linalg.norm(res.estimate.values - x.values)
        assert err <= 1e-8 * np.linalg.norm(x.values)

    def test_estimates_are_k_sparse(self):
        D = generate_dictionary(24, 48, 6)
        x = generate_signal(48, 3, 7)
        y = D.entries @ x.values + 0.5 * np.random.default_rng(8).standard_normal(24)
        cfg = PursuitConfig(k=3, halting=FixedIterations(5))
        for solver in SOLVERS.values():
            res = solver(D, y, cfg)
            assert len(res.estimate.support) <= 3
            assert np.count_nonzero(res.estimate.values) <= 3


class TestSubspacePursuit:
    def test_zero_measurement_selects_leading_atoms(self):
        D = generate_dictionary(12, 18, 9)
        cfg = PursuitConfig(k=3, halting=FixedIterations(2))
        res = subspace_pursuit(D, np.zeros(12), cfg)
        assert res.estimate.support == SupportSet((0, 1, 2))
        assert np.all(res.estimate.values == 0.0)

    def test_residual_orthogonal_to_pruned_atoms(self):
        D = generate_dictionary(16, 32, 10)
        x = generate_signal(32, 3, 11)
        y = D.entries @ x.values + 0.3 * np.random.default_rng(12).standard_normal(16)
        cfg = PursuitConfig(k=3, halting=FixedIterations(4))
        res = subspace_pursuit(D, y, cfg)
        for rec in res.trace:
            # the recorded values leave a residual orthogonal to the pruned atoms
            r = y - D.columns(rec.pruned_support) @ rec.estimate_values
            assert np.allclose(D.columns(rec.pruned_support).T @ r, 0.0, atol=1e-9)

    def test_final_estimate_is_least_squares_on_final_support(self):
        D = generate_dictionary(12, 24, 13)
        x = generate_signal(24, 2, 14)
        y = D.entries @ x.values + 0.2 * np.random.default_rng(15).standard_normal(12)
        cfg = PursuitConfig(k=2, halting=FixedIterations(3))
        res = subspace_pursuit(D, y, cfg)
        coef = least_squares_on_support(D, res.estimate.support, y)
        assert np.allclose(res.estimate.on_support(), coef, atol=1e-12)

    def test_merged_support_contains_previous_and_new(self):
        D = generate_dictionary(12, 20, 16)
        x = generate_signal(20, 2, 17)
        y = D.entries @ x.values + 0.4 * np.random.default_rng(18).standard_normal(12)
        cfg = PursuitConfig(k=2, halting=FixedIterations(3))
        res = subspace_pursuit(D, y, cfg)
        before = SupportSet(())
        for rec in res.trace:
            # the merged support is derived: the previous pruned support and the atoms added
            assert len(rec.delta_support) == 2 and len(before.union(rec.delta_support)) <= 2 * 2
            _merged_solve(D, y, before, rec, 2)
            before = rec.pruned_support


class TestMeasurementChecks:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("gram", [False, True], ids=["plain", "gram"])
    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_non_finite_y_rejected_before_the_first_iteration(self, monkeypatch, name, gram, bad):
        # every iteration used to run on it with RuntimeWarnings, then fail naming the estimate, not y
        def no_iteration(*args, **kwargs):
            raise AssertionError("an iteration ran on a non-finite y")

        D = generate_dictionary(12, 24, 3)
        D = D.with_gram() if gram else D
        y = np.random.default_rng(4).standard_normal(12)
        y[5] = bad
        monkeypatch.setattr(pursuit, "top_k_support", no_iteration)
        with pytest.raises(NonFinite, match="measurements y must be finite"):
            SOLVERS[name](D, y, PursuitConfig(k=2, halting=FixedIterations(3)))

    @pytest.mark.parametrize(
        "y_shape, z, error, message",
        [
            ((12,), np.zeros(5), ValueError, r"z = D\^T y must be of shape \(20,\), got \(5,\)"),
            ((12,), np.zeros((20, 1)), ValueError, r"z = D\^T y must be of shape \(20,\), got \(20, 1\)"),
            ((12,), np.r_[np.zeros(19), math.nan], NonFinite, r"z = D\^T y must be finite"),
            ((12, 1), None, ValueError, r"measurements y must be of shape \(12,\), got \(12, 1\)"),
            ((5,), None, ValueError, r"measurements y must be of shape \(12,\), got \(5,\)"),
        ],
        ids=["z_short", "z_column", "z_nan", "y_column", "y_short"],
    )
    @pytest.mark.parametrize("gram", [False, True], ids=["plain", "gram"])
    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_y_and_z_of_the_wrong_shape_rejected(self, name, gram, y_shape, z, error, message):
        # a short z used to give a plain dictionary's first correlation from 5 entries, and die in numpy's
        # broadcasting on a Gram one; a (12, 1) y died in the partition and a short one in matmul
        D = generate_dictionary(12, 20, 3)
        D = D.with_gram() if gram else D
        y = np.random.default_rng(4).standard_normal(y_shape)
        with pytest.raises(error, match=message):
            SOLVERS[name](D, y, PursuitConfig(k=2, halting=FixedIterations(3)), z=z)

    @pytest.mark.filterwarnings("error")
    def test_norm_of_a_finite_y_does_not_overflow(self):
        # the plain norm squares 1e200 and overflows; the scaled one, sqrt(2) * 1e200, gives ceil(log2(sqrt(2))) = 1
        y = np.zeros(12)
        y[:2] = 1e200
        res = subspace_pursuit(generate_dictionary(12, 24, 3), y, PursuitConfig(k=1, halting=PracticalLogRule(1e200)))
        assert res.iterations_run == 1


class TestDimensionGuards:
    @pytest.mark.parametrize("name, factor", [("sp", 3), ("cosamp", 4), ("iht", 3)])
    def test_rip_order_must_fit_in_m(self, name, factor):
        D = generate_dictionary(12, 24, 3)
        y = np.random.default_rng(4).standard_normal(12)
        k = 12 // factor
        SOLVERS[name](D, y, PursuitConfig(k=k, halting=FixedIterations(1)))
        with pytest.raises(ValueError, match="rip order"):
            SOLVERS[name](D, y, PursuitConfig(k=k + 1, halting=FixedIterations(1)))


class TestCosamp:
    def test_delta_support_has_2k_atoms(self):
        D = generate_dictionary(16, 28, 19)
        x = generate_signal(28, 2, 20)
        y = D.entries @ x.values + 0.3 * np.random.default_rng(21).standard_normal(16)
        cfg = PursuitConfig(k=2, halting=FixedIterations(3))
        res = cosamp(D, y, cfg)
        before = SupportSet(())
        for rec in res.trace:
            assert len(rec.delta_support) == 4 and len(before.union(rec.delta_support)) <= 6
            # the estimate is the merged solve at the kept atoms
            assert np.max(np.abs(rec.estimate_values - _merged_solve(D, y, before, rec, 2))) <= 1e-12
            before = rec.pruned_support

    def test_final_values_are_pruned_merged_coefficients_not_resolved(self):
        # the estimate keeps the merged least-squares values on the pruned
        # support; re-solving on the pruned support would give different
        # numbers whenever the discarded atoms were correlated
        D = generate_dictionary(16, 28, 22)
        x = generate_signal(28, 2, 23)
        y = D.entries @ x.values + 0.5 * np.random.default_rng(24).standard_normal(16)
        cfg = PursuitConfig(k=2, halting=FixedIterations(3))
        res = cosamp(D, y, cfg)
        last = res.trace[-1]
        merged = res.trace[-2].pruned_support.union(last.delta_support)
        merged_coef = least_squares_on_support(D, merged, y)
        merged_idx = list(merged)
        kept = [merged_idx.index(i) for i in last.pruned_support]
        assert np.allclose(res.estimate.on_support(), merged_coef[kept], atol=1e-12)
        resolved = least_squares_on_support(D, last.pruned_support, y)
        assert not np.allclose(res.estimate.on_support(), resolved, atol=1e-10)

    def test_residual_uses_kept_values(self):
        D = generate_dictionary(16, 28, 25)
        x = generate_signal(28, 2, 26)
        y = D.entries @ x.values + 0.3 * np.random.default_rng(27).standard_normal(16)
        cfg = PursuitConfig(k=2, halting=FixedIterations(2))
        res = cosamp(D, y, cfg)
        first, second = res.trace
        # estimate_values is compact: one entry per pruned-support atom
        r = y - D.columns(first.pruned_support) @ first.estimate_values
        assert second.delta_support == top_k_support(D.entries.T @ r, 2 * 2)


class TestIht:
    def test_first_iteration_thresholds_correlations(self):
        D = generate_dictionary(12, 20, 28)
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
        cfg = PursuitConfig(k=2, halting=FixedIterations(100))
        with pytest.raises(Divergence):
            iht(D, y, cfg)


class TestOracleEstimator:
    def test_matches_closed_form_mse(self):
        D = generate_dictionary(16, 32, 31)
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
        D = generate_dictionary(8, 14, 34)
        x = generate_signal(14, 2, 35)
        res = oracle_estimator(D, D.entries @ x.values, x.support)
        assert res.iterations_run == 0
        assert res.algorithm is Algorithm.ORACLE
        assert res.estimate.support == x.support
        assert np.allclose(res.estimate.values, x.values, atol=1e-10)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_identical_reruns(self, name):
        D = generate_dictionary(20, 40, 36)
        x = generate_signal(40, 4, 37)
        y = D.entries @ x.values + 0.2 * np.random.default_rng(38).standard_normal(20)
        cfg = PursuitConfig(k=4, halting=FixedIterations(4))
        a = SOLVERS[name](D, y, cfg)
        b = SOLVERS[name](D, y, cfg)
        assert np.array_equal(a.estimate.values, b.estimate.values)
        assert a.estimate.support == b.estimate.support


# Through the Gram, IHT's iterate x + D^T r carries the correlation's rounding
# and SP/CoSaMP solve the normal equations by a Cholesky factor instead of
# factoring D_T: values may differ from the plain dictionary's by this, relative
GRAM_RTOL = 1e-12


def _close(a, b):
    return np.max(np.abs(a - b), initial=0.0) <= GRAM_RTOL * np.max(np.abs(a), initial=0.0)


class TestGramCorrelation:
    """Oracle: solving on D.with_gram() against the dense correlation and orthogonal solve of a plain D."""

    @pytest.mark.parametrize(
        "m, n, k", [(24, 48, 2), (64, 128, 4), (128, 256, 6), (256, 512, 10), (512, 1024, 20)]
    )
    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    @pytest.mark.parametrize("halting", [FixedIterations(8), PracticalLogRule(0.3)], ids=["fixed", "practical"])
    def test_same_supports_and_estimates_as_the_dense_path(self, m, n, k, name, halting):
        for seed in range(3):
            D = generate_dictionary(m, n, 100 * m + seed)
            x = generate_signal(n, k, seed)
            y = D.entries @ x.values + 0.3 * np.random.default_rng(seed).standard_normal(m)
            cfg = PursuitConfig(k=k, halting=halting)
            dense = SOLVERS[name](D, y, cfg, x_true=x)
            gram = SOLVERS[name](D.with_gram(), y, cfg, x_true=x)
            assert len(dense.trace) == len(gram.trace)
            for a, b in zip(dense.trace, gram.trace):
                assert (a.delta_support, a.pruned_support) == (b.delta_support, b.pruned_support)
                assert _close(a.estimate_values, b.estimate_values)
            assert dense.estimate.support == gram.estimate.support
            assert _close(dense.estimate.values, gram.estimate.values)

    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_plain_dictionary_never_builds_a_gram(self, name, monkeypatch):
        # a single solve pays for no m x N x N product; it correlates through the entries
        def fail(self):
            raise AssertionError("Gram built for a plain dictionary")

        monkeypatch.setattr(Dictionary, "gram", fail)
        D = generate_dictionary(20, 40, 36)
        x = generate_signal(40, 3, 37)
        res = SOLVERS[name](D, D.entries @ x.values, PursuitConfig(k=3, halting=FixedIterations(4)))
        assert res.iterations_run == 4 and D._gram_form is None


def _record_bits(record):
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in (getattr(record, f.name) for f in fields(record)))


class TestSharedCorrelation:
    """z = D^T y handed in, as a sweep trial hands it to its three solvers, against each solver forming it."""

    @pytest.mark.parametrize("gram", [False, True], ids=["plain", "gram"])
    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_given_z_changes_no_bit(self, name, gram):
        D = generate_dictionary(128, 256, 44)
        D = D.with_gram() if gram else D
        x = generate_signal(256, 6, 45)
        y = D.entries @ x.values + 0.5 * np.random.default_rng(46).standard_normal(128)
        cfg = PursuitConfig(k=6, halting=PracticalLogRule(0.5))
        own = SOLVERS[name](D, y, cfg, x_true=x)
        shared = SOLVERS[name](D, y, cfg, x_true=x, z=D.entries.T @ y)
        assert own.iterations_run > 1
        assert own.estimate.support == shared.estimate.support
        assert own.estimate.values.tobytes() == shared.estimate.values.tobytes()
        assert list(map(_record_bits, own.trace)) == list(map(_record_bits, shared.trace))


class TestTraceRoundTrip:
    @pytest.mark.parametrize("gram", [False, True], ids=["plain", "gram"])
    @pytest.mark.parametrize("name, m", [(name, m) for m in (12, 64) for name in SOLVERS] + [("sp", 512)])
    def test_all_fields_survive(self, tmp_path, name, m, gram):
        # bit for bit; iht records no delta_support, so a None field round-trips too
        k = 2 if m < 64 else 10
        D = generate_dictionary(m, 2 * m, 39)
        x = generate_signal(2 * m, k, 40)
        e = 0.3 * np.random.default_rng(41).standard_normal(m)
        cfg = PursuitConfig(k=k, halting=FixedIterations(5))
        res = SOLVERS[name](D.with_gram() if gram else D, D.entries @ x.values + e, cfg, x_true=x)
        # written at the path as given: np.savez alone would add .npz to it
        path = tmp_path / "trace.jsonl"
        write_trace(path, res, D, x_true=x, noise=e, sigma=0.3)
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]
        bundle = read_trace(path)
        assert (bundle.algorithm, bundle.k, bundle.iterations_run, bundle.sigma) == (Algorithm(name), k, 5, 0.3)
        assert bundle.x_true.support == x.support
        for got, want in ((bundle.dictionary.entries, D.entries), (bundle.x_true.values, x.values), (bundle.noise, e)):
            assert got.tobytes(order="A") == want.tobytes(order="A")
        for got, want in zip(bundle.records, res.trace, strict=True):
            assert (got.delta_support, got.pruned_support) == (want.delta_support, want.pruned_support)
            assert got.estimate_values.tobytes() == want.estimate_values.tobytes()
            assert got.estimate_error == want.estimate_error

    def test_header_without_truth_or_noise(self, tmp_path):
        # a trace is the whole problem: diagnostics and every record's error need the truth and the noise
        D = generate_dictionary(12, 20, 39)
        x = generate_signal(20, 2, 40)
        res = cosamp(D, D.entries @ x.values, PursuitConfig(k=2, halting=FixedIterations(2)))
        path = tmp_path / "trace.npz"
        for kwargs in ({}, {"x_true": x}, {"noise": np.zeros(12)}):
            with pytest.raises(TypeError):
                write_trace(path, res, D, **kwargs)
        assert not path.exists()

    @pytest.mark.parametrize("gram", [False, True], ids=["plain", "gram"])
    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_errors_are_computed_from_the_stored_truth(self, tmp_path, name, gram):
        # a run with truth A written with truth B of the same k used to read back A's errors
        D = generate_dictionary(24, 40, 61)
        D = D.with_gram() if gram else D
        a, b = generate_signal(40, 3, 62), generate_signal(40, 3, 63)
        e = 0.1 * np.random.default_rng(64).standard_normal(24)
        res = SOLVERS[name](D, D.entries @ a.values + e, PursuitConfig(k=3, halting=FixedIterations(4)), x_true=a)
        path = tmp_path / "trace.npz"
        write_trace(path, res, D, x_true=b, noise=e)
        records = read_trace(path).records
        want = [_error_vs(b, r.pruned_support, r.estimate_values) for r in res.trace]
        assert [r.estimate_error for r in records] == want
        assert want != [r.estimate_error for r in res.trace]

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("trace") / "trace.npz"

    @given(
        st.sampled_from(["sp", "cosamp", "iht"]),
        st.integers(min_value=8, max_value=24),
        st.data(),
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(deadline=None, max_examples=30)
    def test_round_trip_property(self, trace_path, name, m, data, sigma, seed):
        n = data.draw(st.integers(min_value=m, max_value=2 * m), label="n")
        k = data.draw(st.integers(min_value=1, max_value=m // rip_order(name, 1)), label="k")
        iterations = data.draw(st.integers(min_value=1, max_value=4), label="iterations")
        D = generate_dictionary(m, n, seed)
        x = generate_signal(n, k, seed)
        e = sigma * np.random.default_rng(seed).standard_normal(m)
        cfg = PursuitConfig(k=k, halting=FixedIterations(iterations))
        res = SOLVERS[name](D, D.entries @ x.values + e, cfg, x_true=x)
        write_trace(trace_path, res, D, x_true=x, noise=e, sigma=sigma)
        bundle = read_trace(trace_path)
        assert (bundle.algorithm, bundle.k, bundle.iterations_run, bundle.sigma) == (Algorithm(name), k, iterations, sigma)
        assert np.array_equal(bundle.dictionary.entries, D.entries)
        assert np.array_equal(bundle.x_true.values, x.values)
        assert bundle.x_true.support == x.support
        assert np.array_equal(bundle.noise, e)
        for got, want in zip(bundle.records, res.trace, strict=True):
            for f in fields(IterationRecord):
                g, w = getattr(got, f.name), getattr(want, f.name)
                if w is None:
                    assert g is None, f.name
                elif isinstance(w, np.ndarray):
                    assert np.array_equal(g, w), f.name
                else:
                    assert g == w, f.name

    def test_arrays_read_back_bit_exact(self, tmp_path):
        # -0.0, a subnormal and values that need all 17 significant digits;
        # np.array_equal cannot see a -0.0 flip, so compare the bytes
        tiny, third = 5e-324, 1.0 / 3.0
        entries = np.zeros((2, 4))
        entries[:, 0] = (1.0, tiny)
        entries[:, 1] = (-0.0, -1.0)
        entries[:, 2] = (0.6, 0.8)
        entries[:, 3] = (math.sqrt(third), math.sqrt(1.0 - third))
        D = Dictionary(entries)
        x = SparseSignal(np.array([-0.0, third, 0.0, tiny]), SupportSet((1, 3)))
        noise = np.array([0.1 + 0.2, -0.0])
        record = IterationRecord(
            delta_support=SupportSet((1, 3)),
            pruned_support=SupportSet((1, 3)),
            estimate_values=np.array([tiny, -tiny]),
            estimate_error=third,
        )
        estimate = SparseSignal(np.array([0.0, -0.0, 0.0, tiny]), SupportSet((1, 3)))
        res = PursuitResult(estimate=estimate, trace=(record,), algorithm=Algorithm.SP)
        path = tmp_path / "exact.npz"
        write_trace(path, res, D, x_true=x, noise=noise, sigma=third)
        bundle = read_trace(path)
        assert bundle.dictionary.entries.tobytes() == D.entries.tobytes()
        assert bundle.x_true.values.tobytes() == x.values.tobytes()
        assert bundle.noise.tobytes() == noise.tobytes()
        (got,) = bundle.records
        assert got.estimate_values.tobytes() == record.estimate_values.tobytes()
        assert (got.estimate_error, bundle.sigma) == (third, third)

    def test_file_size_is_the_binary_arrays_plus_a_small_rest(self, tmp_path):
        # the m*N float64 dictionary bytes, plus a fixed allowance for truth,
        # noise, the iteration arrays and each array's header
        m, n = 64, 128
        D = generate_dictionary(m, n, 52)
        x = generate_signal(n, 4, 53)
        e = 0.3 * np.random.default_rng(54).standard_normal(m)
        res = subspace_pursuit(D, D.entries @ x.values + e, PursuitConfig(k=4, halting=FixedIterations(3)), x_true=x)
        path = tmp_path / "trace.npz"
        write_trace(path, res, D, x_true=x, noise=e, sigma=0.3)
        assert path.stat().st_size <= 8 * m * n + 8192

    def test_iht_records_hold_no_merge_fields(self, tmp_path):
        # IHT merges nothing: its records hold None for delta_support, and its archive no such array
        D = generate_dictionary(12, 20, 39)
        x = generate_signal(20, 2, 40)
        res = iht(D, D.entries @ x.values, PursuitConfig(k=2, halting=FixedIterations(3)), x_true=x)
        path = tmp_path / "trace.npz"
        write_trace(path, res, D, x_true=x, noise=np.zeros(12))
        with np.load(path) as archive:
            assert "delta_support" not in archive.files
        for records in (res.trace, read_trace(path).records):
            assert [r.delta_support for r in records] == [None] * 3

    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_records_store_what_the_solver_chose(self, tmp_path, name):
        # the merged least-squares solve is only pruned on, so neither IterationRecord nor the archive keeps it;
        # each stored record field is one array with a row per iteration
        D = generate_dictionary(12, 20, 39)
        x = generate_signal(20, 2, 40)
        res = SOLVERS[name](D, D.entries @ x.values, PursuitConfig(k=2, halting=FixedIterations(3)), x_true=x)
        path = tmp_path / "trace.npz"
        write_trace(path, res, D, x_true=x, noise=np.zeros(12))
        stored = ["delta_support", "pruned_support", "estimate_values"]
        assert [f.name for f in fields(IterationRecord)] == [*stored, "estimate_error"]
        per_iteration = stored if name != "iht" else stored[1:]
        problem = ["algorithm", "dictionary", "x_true.values", "x_true.support", "noise"]
        with np.load(path) as archive:
            assert sorted(archive.files) == sorted(problem + per_iteration)
            arrays = {f: archive[f] for f in archive.files}
        width = {"delta_support": 4 if name == "cosamp" else 2}
        assert {f: arrays[f].shape for f in per_iteration} == {f: (3, width.get(f, 2)) for f in per_iteration}
        for f in problem[1:] + per_iteration:
            assert arrays[f].dtype == (np.int64 if "support" in f else np.float64), f

    def test_k_is_stored_only_as_a_shape(self, tmp_path):
        # k is the width of pruned_support; no array holds it, and the truth is only its values and support
        D = generate_dictionary(12, 20, 39)
        x = generate_signal(20, 2, 40)
        res = subspace_pursuit(D, D.entries @ x.values, PursuitConfig(k=2, halting=FixedIterations(2)), x_true=x)
        path = tmp_path / "trace.npz"
        write_trace(path, res, D, x_true=x, noise=np.zeros(12))
        with np.load(path) as archive:
            assert archive["pruned_support"].shape == (2, 2)
            assert {f for f in archive.files if "k" in f.split(".")} == set()
            assert {f for f in archive.files if f.startswith("x_true")} == {"x_true.values", "x_true.support"}
        bundle = read_trace(path)
        assert bundle.k == 2 and not hasattr(bundle.x_true, "k")

    def test_oracle_result_has_no_trace_to_write(self, tmp_path):
        D = generate_dictionary(10, 18, 42)
        x = generate_signal(18, 2, 43)
        res = oracle_estimator(D, D.entries @ x.values, x.support)
        assert res.trace == ()
        with pytest.raises(ValueError, match="no iterations"):
            write_trace(tmp_path / "oracle.npz", res, D, x_true=x, noise=np.zeros(10))

    def test_truth_of_at_most_k_atoms_is_written(self, tmp_path):
        # a 2-sparse truth is 3-sparse, so a k = 3 run writes and reads it; a 4-sparse one is not
        D = generate_dictionary(10, 18, 44)
        x = generate_signal(18, 2, 45)
        res = subspace_pursuit(D, D.entries @ x.values, PursuitConfig(k=3, halting=FixedIterations(2)), x_true=x)
        path = tmp_path / "t.npz"
        write_trace(path, res, D, x_true=x, noise=np.zeros(10))
        bundle = read_trace(path)
        assert (bundle.k, bundle.x_true.support) == (3, x.support)
        path.unlink()
        with pytest.raises(ValueError, match=r"field 'x_true.support': holds 4 atoms, more than k = 3"):
            write_trace(path, res, D, x_true=generate_signal(18, 4, 45), noise=np.zeros(10))
        assert not path.exists()


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

            before = ()
            for r in res.trace:
                prev, merged, pruned = miss(before), miss(set(before) | set(r.delta_support)), miss(r.pruned_support)
                expected += [
                    2 * d / (1 - d) ** 2 * prev + 2 / (1 - d) ** 2 * nc,
                    (1 + d) / (1 - d) * merged + 4 / (1 - d) * nc,
                    rho * prev + tau * nc,
                ]
                before = r.pruned_support
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

    @pytest.mark.parametrize("name", ["sp", "cosamp", "iht"])
    def test_k_is_the_runs_for_a_sparser_truth(self, tmp_path, capsys, name):
        # with a 2-sparse truth for a k = 3 run, diagnostics used to take delta of order rip_order(name, 2)
        # and the noise correlation over 2 atoms, and write_trace refused the pair
        D = near_orthonormal_dictionary()
        x = generate_signal(12, 2, 9)
        e = 0.1 * np.random.default_rng(78).standard_normal(12)
        res = SOLVERS[name](D, D.entries @ x.values + e, PursuitConfig(k=3, halting=FixedIterations(3)), x_true=x)
        rep = recurrence_diagnostics(res.trace, x, e, D, name)
        assert rep.k == 3
        assert rep.delta == rip_exact(D, rip_order(name, 3)).delta
        assert rep.noise_correlation == worst_case_noise_correlation(D, e, 3).value
        path = tmp_path / "trace.npz"
        write_trace(path, res, D, x_true=x, noise=e)
        capsys.readouterr()
        assert cli.main(["diagnose", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        payload = {f.name: getattr(rep, f.name) for f in fields(rep)}
        payload.update(algorithm=name, checks=len(rep.checks), all_hold=rep.all_hold)
        assert json.loads(out[out.index("{") :]) == payload
        assert recurrence_diagnostics(read_trace(path).records, x, e, D, name).checks == rep.checks
        path.unlink()
        x4 = generate_signal(12, 4, 9)
        with pytest.raises(ValueError, match="x_true.support.*holds 4 atoms, more than k = 3"):
            write_trace(path, res, D, x_true=x4, noise=e)
        assert not path.exists()
        with pytest.raises(ValueError, match="x_true.support: holds 4 atoms, more than k = 3"):
            recurrence_diagnostics(res.trace, x4, e, D, name)

    @pytest.mark.parametrize("run, checked", [("iht", "sp"), ("iht", "cosamp"), ("sp", "iht"), ("cosamp", "iht")])
    def test_records_of_another_solver_rejected(self, run, checked):
        # an IHT trace checked as SP used to crash on SupportSet.union(None); as CoSaMP it ran CoSaMP's recurrence
        D = near_orthonormal_dictionary()
        x = generate_signal(12, 2, 9)
        res = SOLVERS[run](D, D.entries @ x.values, PursuitConfig(k=2, halting=FixedIterations(2)), x_true=x)
        with pytest.raises(ValueError, match=f"delta_support: {checked} iteration 1 must hold"):
            recurrence_diagnostics(res.trace, x, np.zeros(12), D, checked, delta=0.1, noise_correlation=0.0)


    @pytest.mark.parametrize("nc", [math.inf, -1.0, math.nan])
    def test_noise_correlation_outside_its_range_rejected(self, nc):
        # an infinite one made every rhs inf, so the checks held vacuously under a met condition;
        # a negative one gave false FAILs, and nan gave nan rhs values
        D = generate_dictionary(8, 16, 3)
        x = generate_signal(16, 2, 4)
        e = 0.1 * np.random.default_rng(5).standard_normal(8)
        res = subspace_pursuit(D, D.entries @ x.values + e, PursuitConfig(k=2, halting=FixedIterations(3)), x_true=x)
        assert recurrence_diagnostics(res.trace, x, e, D, "sp", delta=0.1, noise_correlation=1.0).condition_met
        with pytest.raises(ValueError, match="noise correlation must be finite and nonnegative"):
            recurrence_diagnostics(res.trace, x, e, D, "sp", delta=0.1, noise_correlation=nc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda x, e: (SparseSignal(np.r_[x.values, np.zeros(4)], x.support), e), "x_true.values: holds 20 values, expected 16"),
            (lambda x, e: (x, e[:5]), "noise: holds 5 values, expected 8"),
        ],
        ids=["truth_length", "noise_length"],
    )
    def test_inputs_that_do_not_fit_the_dictionary_rejected(self, edit, message):
        # a 20-entry truth against 16 atoms used to report a false FAIL, and a short e died in numpy's matmul
        D = generate_dictionary(8, 16, 3)
        x = generate_signal(16, 2, 4)
        e = 0.1 * np.random.default_rng(5).standard_normal(8)
        res = subspace_pursuit(D, D.entries @ x.values + e, PursuitConfig(k=2, halting=FixedIterations(3)), x_true=x)
        with pytest.raises(ValueError, match=message):
            recurrence_diagnostics(res.trace, *edit(x, e), D, "sp", delta=0.1)


def _top(v, k):
    return np.sort(np.argsort(-np.abs(v), kind="stable")[:k])


def textbook(name, A, y, k, iterations):
    """(delta_support, pruned_support, values) per iteration of SP (Dai & Milenkovic 2009), CoSaMP (Needell &
    Tropp 2009) or IHT (Blumensath & Davies 2009), from the published pseudocode on the dense matrix A:
    lstsq solves, a stable-argsort top-k and an explicit residual, with no Gram and no SupportSet."""
    T, x, out = np.zeros(0, dtype=np.int64), np.zeros(A.shape[1]), []
    for _ in range(iterations):
        residual = y - A[:, T] @ x[T]
        if name == "iht":
            proxy = x + A.T @ residual
            added, T = None, _top(proxy, k)
            values = proxy[T]
        else:
            added = _top(A.T @ residual, (2 if name == "cosamp" else 1) * k)
            merged = np.union1d(T, added)
            b = np.linalg.lstsq(A[:, merged], y, rcond=None)[0]
            keep = _top(b, k)
            T = merged[keep]
            values = np.linalg.lstsq(A[:, T], y, rcond=None)[0] if name == "sp" else b[keep]
            added = tuple(added.tolist())
        x = np.zeros(A.shape[1])
        x[T] = values
        out.append((added, tuple(T.tolist()), values))
    return out


class TestTextbookTwin:
    """Every iteration of each solver against its textbook twin, on plain and Gram dictionaries."""

    @pytest.mark.parametrize("name", list(SOLVERS))
    @given(st.integers(min_value=24, max_value=79), st.data(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_every_iteration_matches(self, name, m, data, seed):
        k = data.draw(st.integers(min_value=1, max_value=m // 8), label="k")
        # noiseless, an exact recovery leaves a residual of rounding error, whose top atoms are arbitrary
        sigma = data.draw(st.floats(min_value=0.01, max_value=8.0), label="sigma")
        D = generate_dictionary(m, 2 * m, seed)
        x = generate_signal(2 * m, k, seed)
        y = D.entries @ x.values + sigma * np.random.default_rng(seed).standard_normal(m)
        cfg = PursuitConfig(k=k, halting=FixedIterations(6))
        want = textbook(name, np.array(D.entries), y, k, 6)
        for dictionary, rtol in ((D, 1e-12), (D.with_gram(), 1e-10)):
            for r, (added, pruned, values) in zip(SOLVERS[name](dictionary, y, cfg).trace, want, strict=True):
                assert getattr(r.delta_support, "indices", None) == added
                assert r.pruned_support.indices == pruned
                assert np.max(np.abs(r.estimate_values - values)) <= rtol * np.max(np.abs(values))


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
        cfg = PursuitConfig(k=k, halting=FixedIterations(3))
        try:
            res = SOLVERS[name](D, y, cfg)
        except Divergence:
            return
        assert len(res.estimate.support) <= k
        assert np.count_nonzero(res.estimate.values) <= k
        assert np.all(np.isfinite(res.estimate.values))


def _solve(name, D, y, x, k):
    if name == "oracle":
        return oracle_estimator(D, y, x.support)
    return SOLVERS[name](D, y, PursuitConfig(k=k, halting=FixedIterations(4)))


class TestDerivedValues:
    """The supports and estimates a solver builds skip the public constructors' checks; each must pass them unchanged."""

    @given(
        st.sampled_from(["sp", "cosamp", "iht", "oracle"]),
        st.booleans(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(deadline=None, max_examples=80)
    def test_equal_their_checked_rebuilds(self, name, gram, k, seed):
        rng = np.random.default_rng(seed)
        D = normalize_columns(rng.standard_normal((16, 24)))
        x = generate_signal(24, k, seed)
        y = D.entries @ x.values + rng.standard_normal(16)
        try:
            res = _solve(name, D.with_gram() if gram else D, y, x, k)
        except Divergence:
            return
        for record in res.trace:
            for support in (record.delta_support, record.pruned_support):
                if support is not None:
                    assert support == SupportSet(support.indices) and support.as_array().dtype == np.int64
        est = res.estimate
        checked = SparseSignal(est.values, est.support)
        assert est.values.tobytes() == checked.values.tobytes() and not est.values.flags.writeable
        assert est.support == checked.support and hash(est.support) == hash(SupportSet(est.support.indices))
        assert len(est.support) <= k and vars(est).keys() == vars(checked).keys()


class TestKeptFiniteCheck:
    """The unchecked estimate keeps the one check that can fail there: a value that is not finite."""

    @pytest.mark.parametrize("name", ["sp", "oracle"])
    def test_infinite_coefficient_raises_non_finite(self, monkeypatch, name):
        monkeypatch.setattr(pursuit, "least_squares_on_support", lambda D, T, y, z=None: np.full(len(T), np.inf))
        D = generate_dictionary(16, 24, 3)
        x = generate_signal(24, 2, 4)
        with np.errstate(invalid="ignore"), pytest.raises(NonFinite):
            _solve(name, D, D.entries @ x.values, x, 2)


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda tmp: PursuitConfig(k=0, halting=FixedIterations(1)), "k must be >= 1"),
            (lambda tmp: read_trace(write_text(tmp, "")), "not a trace archive"),
            (lambda tmp: read_trace(write_text(tmp, '{"record": "iteration"}\n')), "not a trace archive"),
        ],
        ids=["config_k_zero", "trace_empty", "trace_without_header"],
    )
    def test_rejected(self, tmp_path, call, message):
        with pytest.raises(ValueError, match=message):
            call(tmp_path)


def write_text(tmp_path, text):
    path = tmp_path / "trace.npz"
    path.write_text(text)
    return path


def equal_content_pair(cls, tmp_path):
    """Two distinct objects of one array-holding class, built from the same inputs."""
    D = generate_dictionary(4, 6, 1)
    if cls is Dictionary:
        return D, generate_dictionary(4, 6, 1)
    x = generate_signal(6, 1, 2)
    if cls is SparseSignal:
        return x, generate_signal(6, 1, 2)
    cfg = PursuitConfig(k=1, halting=FixedIterations(2))
    a, b = (subspace_pursuit(D, D.entries @ x.values, cfg, x_true=x) for _ in range(2))
    if cls is PursuitResult:
        return a, b
    if cls is IterationRecord:
        return a.trace[0], b.trace[0]
    write_trace(tmp_path / "t.npz", a, D, x_true=x, noise=np.zeros(4))
    return read_trace(tmp_path / "t.npz"), read_trace(tmp_path / "t.npz")


class TestIdentityEquality:
    @pytest.mark.parametrize(
        "cls", [Dictionary, SparseSignal, IterationRecord, PursuitResult, TraceBundle], ids=lambda cls: cls.__name__
    )
    def test_equality_and_hash_are_by_identity(self, tmp_path, cls):
        # the generated __eq__ compared ndarray fields and raised; the generated __hash__ raised TypeError
        a, b = equal_content_pair(cls, tmp_path)
        assert type(a) is type(b) is cls and a is not b
        assert a == a and a != b
        assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
        assert a in {a} and b not in {a} and len({a, b}) == 2

    def test_dictionary_and_its_gram_form_differ(self):
        # the generated __eq__ compared the shared entries array by identity and called them equal
        D = generate_dictionary(4, 6, 1)
        assert D.with_gram() != D and D.with_gram() == D.with_gram()
