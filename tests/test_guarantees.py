import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselab.errors import RankDeficient
from sparselab.guarantees import (
    CONDITIONS,
    COSAMP_CONDITION,
    IHT_CONDITION,
    SP_CONDITION,
    GuaranteeParams,
    bound_report,
    condition_check,
    cosamp_constants,
    ds_constant,
    iht_constants,
    near_oracle_bound,
    oracle_mse_bound,
    oracle_mse_exact,
    recurrence_coefficients,
    rip_order,
    sp_constants,
    success_probability,
)
from sparselab.experiment import dictionary_seed, generate_dictionary
from sparselab.linalg import SupportSet, normalize_columns


def sp_oracle(d):
    """Exact-rational evaluation of the three subspace-pursuit constants."""
    d = Fraction(d)
    rho = 2 * d * (1 + d) / (1 - d) ** 3
    tau = (6 - 6 * d + 4 * d * d) / (1 - d) ** 3
    c = 2 * (7 - 9 * d + 7 * d * d - d**3) / (1 - d) ** 4
    return rho, tau, c


def cosamp_oracle(d):
    d = Fraction(d)
    rho = 4 * d / (1 - d) ** 2
    tau = (14 - 6 * d) / (1 - d) ** 2
    c = (29 - 14 * d + d * d) / (1 - d) ** 2
    return rho, tau, c


class TestSpConstants:
    def test_matches_rational_oracle_at_condition_point(self):
        rho, tau, c = sp_constants(0.139)
        orho, otau, oc = sp_oracle(Fraction(139, 1000))
        assert rho == pytest.approx(float(orho), rel=1e-14)
        assert tau == pytest.approx(float(otau), rel=1e-14)
        assert c == pytest.approx(float(oc), rel=1e-14)

    def test_frozen_values_at_condition_point(self):
        rho, tau, c = sp_constants(0.139)
        assert rho == pytest.approx(0.4960883926419445, rel=1e-13)
        assert tau == pytest.approx(8.214741985350097, rel=1e-13)
        assert c == pytest.approx(21.40474328768896, rel=1e-13)

    def test_cosamp_frozen_value(self):
        assert cosamp_constants(0.1)[2] == pytest.approx(34.08641975308642, rel=1e-13)

    @given(st.floats(min_value=0.0, max_value=0.45))
    @settings(deadline=None, max_examples=60)
    def test_matches_oracle_on_interval(self, d):
        rho, tau, c = sp_constants(d)
        orho, otau, oc = sp_oracle(Fraction(d))
        assert rho == pytest.approx(float(orho), rel=1e-12, abs=1e-12)
        assert tau == pytest.approx(float(otau), rel=1e-12)
        assert c == pytest.approx(float(oc), rel=1e-12)

    def test_composition_identity(self):
        # C = (2 + 2 tau) / (1 - delta): the geometric-series closed form
        for d in (0.0, 0.05, 0.1, 0.139):
            rho, tau, c = sp_constants(d)
            assert c == pytest.approx((2 + 2 * tau) / (1 - d), rel=1e-12)

    def test_zero_noise_free_limit(self):
        rho, tau, c = sp_constants(0.0)
        assert rho == 0.0
        assert tau == 6.0
        assert c == 14.0

    def test_rejects_delta_out_of_range(self):
        with pytest.raises(ValueError):
            sp_constants(1.0)
        with pytest.raises(ValueError):
            sp_constants(-0.1)


class TestCosampConstants:
    def test_matches_rational_oracle_at_condition_point(self):
        rho, tau, c = cosamp_constants(0.1)
        orho, otau, oc = cosamp_oracle(Fraction(1, 10))
        assert rho == pytest.approx(float(orho), rel=1e-14)
        assert tau == pytest.approx(float(otau), rel=1e-14)
        assert c == pytest.approx(float(oc), rel=1e-14)

    def test_composition_identity(self):
        # C = 1 + 2 tau
        for d in (0.0, 0.04, 0.1):
            rho, tau, c = cosamp_constants(d)
            assert c == pytest.approx(1 + 2 * tau, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.3))
    @settings(deadline=None, max_examples=60)
    def test_matches_oracle_on_interval(self, d):
        rho, tau, c = cosamp_constants(d)
        orho, otau, oc = cosamp_oracle(Fraction(d))
        assert rho == pytest.approx(float(orho), rel=1e-12, abs=1e-12)
        assert tau == pytest.approx(float(otau), rel=1e-12)
        assert c == pytest.approx(float(oc), rel=1e-12)


class TestIhtConstants:
    def test_constant_is_exactly_nine(self):
        _, tau, c = iht_constants(0.05)
        assert c == 9.0
        assert tau == 4.0
        # C = 1 + 2 tau with tau = 4, independent of delta
        assert c == 1 + 2 * tau

    def test_rho_is_exactly_half_at_condition_point(self):
        rho, _, _ = iht_constants(1 / math.sqrt(32))
        assert rho == 0.5

    def test_rho_scales_linearly(self):
        assert iht_constants(0.0)[0] == 0.0
        assert iht_constants(0.1)[0] == pytest.approx(math.sqrt(8) * 0.1, rel=1e-15)


class TestRecurrenceCoefficients:
    @pytest.mark.parametrize("d", [0.0, 0.05, 0.139, 0.5])
    def test_composed_step_is_rho_tau_of_the_constants(self, d):
        for name, constants in (("sp", sp_constants), ("cosamp", cosamp_constants), ("iht", iht_constants)):
            assert recurrence_coefficients(name, d)[-1] == constants(d)[:2]

    def test_sp_half_steps(self):
        d = Fraction(1, 10)
        (am, bm), (ap, bp), _ = recurrence_coefficients("sp", 0.1)
        assert am == pytest.approx(float(2 * d / (1 - d) ** 2), rel=1e-14)
        assert bm == pytest.approx(float(2 / (1 - d) ** 2), rel=1e-14)
        assert ap == pytest.approx(float((1 + d) / (1 - d)), rel=1e-14)
        assert bp == pytest.approx(float(4 / (1 - d)), rel=1e-14)

    @pytest.mark.parametrize("d", [1.0, 1.5, 2.5])
    def test_infinite_past_the_pole(self, d):
        for name, steps in (("sp", 3), ("cosamp", 1)):
            pairs = recurrence_coefficients(name, d)
            assert len(pairs) == steps
            assert all(v == math.inf for pair in pairs for v in pair)
        assert recurrence_coefficients("iht", d) == ((math.sqrt(8) * d, 4.0),)

    def test_rejects_negative_nan_and_ds(self):
        for bad in (-0.1, math.nan):
            with pytest.raises(ValueError):
                recurrence_coefficients("sp", bad)
        with pytest.raises(ValueError):
            recurrence_coefficients("ds", 0.1)


class TestRipOrder:
    def test_orders(self):
        assert [rip_order(name, 5) for name in ("sp", "cosamp", "iht", "ds", "oracle")] == [15, 20, 15, 15, 5]
        assert rip_order("COSAMP", 2) == 8

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            rip_order("omp", 2)


class TestDsConstant:
    def test_value_near_condition_point(self):
        assert ds_constant(0.139) == pytest.approx(float(4 / (1 - Fraction(278, 1000))), rel=1e-14)

    def test_pole_at_half(self):
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 0\.5\), got 0\.5"):
            ds_constant(0.5)
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 0\.5\), got 0\.7"):
            ds_constant(0.7)

    def test_noise_free_limit(self):
        assert ds_constant(0.0) == 4.0


class TestComparisons:
    @given(st.floats(min_value=1e-6, max_value=0.139))
    @settings(deadline=None, max_examples=60)
    def test_constant_ordering_on_shared_interval(self, d):
        # where all conditions can hold, the DS constant is smallest,
        # IHT sits at 9, and the SP constant is largest
        assert ds_constant(d) < 9.0 < sp_constants(d)[2]

    @given(st.floats(min_value=0.0, max_value=0.13), st.floats(min_value=0.001, max_value=0.008))
    @settings(deadline=None, max_examples=40)
    def test_constants_increase_with_delta(self, d, step):
        assert sp_constants(d + step)[2] > sp_constants(d)[2]
        assert cosamp_constants(d + step)[2] > cosamp_constants(d)[2]
        assert ds_constant(d + step) > ds_constant(d)


class TestConditionCheck:
    def test_thresholds_inclusive(self):
        assert condition_check("sp", SP_CONDITION)
        assert not condition_check("sp", SP_CONDITION + 1e-9)
        assert condition_check("cosamp", COSAMP_CONDITION)
        assert not condition_check("cosamp", COSAMP_CONDITION + 1e-9)
        assert condition_check("iht", IHT_CONDITION)
        assert not condition_check("iht", IHT_CONDITION + 1e-9)

    def test_one_threshold_table(self):
        assert CONDITIONS == {"sp": SP_CONDITION, "cosamp": COSAMP_CONDITION, "iht": IHT_CONDITION}
        for name, threshold in CONDITIONS.items():
            assert condition_check(name, threshold)
            assert not condition_check(name, math.nextafter(threshold, 1))

    def test_ds_uses_sum_of_two_orders(self):
        assert condition_check("ds", 0.4, second_delta=0.6)
        assert not condition_check("ds", 0.5, second_delta=0.6)

    def test_ds_requires_second_delta(self):
        with pytest.raises(ValueError):
            condition_check("ds", 0.3)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            condition_check("omp", 0.1)

    @pytest.mark.parametrize("second", [math.nan, -5.0])
    def test_ds_second_delta_checked(self, second):
        # a NaN used to read as "condition unmet" and -5 as "condition met"
        with pytest.raises(ValueError, match=r"delta must lie in \[0, inf\)"):
            condition_check("ds", 0.1, second)


class TestDeltaCheck:
    @pytest.mark.parametrize(
        "call, below",
        [
            (iht_constants, "inf"),
            (ds_constant, r"0\.5"),
            (lambda d: oracle_mse_bound(3, d, 1.0), r"1\.0"),
            (lambda d: condition_check("sp", d), "inf"),
        ],
        ids=["iht_constants", "ds_constant", "oracle_mse_bound", "condition_check"],
    )
    def test_nan_delta_rejected(self, call, below):
        # each used to return NaN (or False from condition_check); the bound is the function's pole
        with pytest.raises(ValueError, match=rf"delta must lie in \[0, {below}\), got nan"):
            call(math.nan)


class TestProbabilisticBounds:
    def test_near_oracle_bound_formula(self):
        # C^2 * 2 (1+a) ln(N) * K sigma^2, natural logarithm
        c = sp_constants(0.139)[2]
        params = GuaranteeParams(a=1.0, n_atoms=1024, k=10, sigma=1.0, delta=0.139)
        expected = c * c * 2.0 * 2.0 * math.log(1024) * 10 * 1.0
        got = near_oracle_bound(c, params)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(1.2703e5, rel=1e-4)

    def test_success_probability_value(self):
        # 1 - 1/(sqrt(pi (1+a) ln N) N^a)
        got = success_probability(1.0, 1024)
        expected = 1.0 - 1.0 / (math.sqrt(math.pi * 2.0 * math.log(1024)) * 1024.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.999852021923216, abs=1e-15)

    def test_success_probability_increases_with_n(self):
        assert success_probability(1.0, 2048) > success_probability(1.0, 1024)

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan])
    def test_success_probability_rejects_a_non_positive_exponent(self, a):
        # a NaN exponent used to slip past the check and return nan
        with pytest.raises(ValueError, match="exponent a must be positive"):
            success_probability(a, 1024)

    @pytest.mark.parametrize("a", [0.1, 0.25])
    def test_noise_lemma_holds_on_the_paper_dictionary(self, a):
        # P(max_i |<d_i, e>| > sigma sqrt(2 (1+a) ln N)) <= 1 - success_probability, the
        # union bound under every near-oracle bound. It is nearly tight at these a (about
        # 0.095 against 0.102 at a = 0.1), so the seeds are fixed and only an exceedance
        # beyond 3 standard errors fails
        D = generate_dictionary(512, 1024, dictionary_seed(20240817))
        draws, sigma = 4000, 1.0
        corr = D.entries.T @ (sigma * np.random.default_rng(20240817).standard_normal((D.m, draws)))
        rate = np.mean(np.max(np.abs(corr), axis=0) > sigma * math.sqrt(2 * (1 + a) * math.log(D.n_atoms)))
        assert 0 < rate < 1
        assert rate - 3 * math.sqrt(rate * (1 - rate) / draws) <= 1 - success_probability(a, D.n_atoms)

    def test_oracle_mse_bound(self):
        assert oracle_mse_bound(10, 0.0, 2.0) == pytest.approx(40.0, rel=1e-15)
        assert oracle_mse_bound(3, 0.5, 1.0) == pytest.approx(6.0, rel=1e-15)
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\.0\), got 1\.0"):
            oracle_mse_bound(3, 1.0, 1.0)


class TestOracleMseExact:
    def test_matches_trace_of_inverse_gram(self):
        rng = np.random.default_rng(20)
        D = normalize_columns(rng.standard_normal((12, 20)))
        T = SupportSet((1, 7, 13))
        sigma = 0.7
        G = D.columns(T).T @ D.columns(T)
        expected = float(np.trace(np.linalg.inv(G))) * sigma**2
        assert oracle_mse_exact(D, T, sigma) == pytest.approx(expected, rel=1e-12)

    def test_orthonormal_support_gives_k_sigma_squared(self):
        Q, _ = np.linalg.qr(np.random.default_rng(21).standard_normal((8, 8)))
        D = normalize_columns(Q)
        assert oracle_mse_exact(D, SupportSet((0, 3, 5)), 1.0) == pytest.approx(3.0, rel=1e-10)

    def test_singular_support_rejected(self):
        A = np.random.default_rng(22).standard_normal((6, 8))
        A[:, 4] = A[:, 2]
        D = normalize_columns(A)
        with pytest.raises(RankDeficient):
            oracle_mse_exact(D, SupportSet((2, 4)), 1.0)


class TestBoundReport:
    def test_sp_report_fields(self):
        params = GuaranteeParams(a=1.0, n_atoms=1024, k=10, sigma=1.0, delta=0.139)
        rep = bound_report("sp", params)
        assert rep.algorithm == "sp"
        assert rep.condition_met
        assert rep.constant == pytest.approx(sp_constants(0.139)[2], rel=1e-15)
        assert rep.probabilistic_bound == pytest.approx(near_oracle_bound(rep.constant, params), rel=1e-15)
        assert rep.success_probability == pytest.approx(success_probability(1.0, 1024), rel=1e-15)

    def test_report_with_noise_correlation_adds_deterministic_bound(self):
        params = GuaranteeParams(a=1.0, n_atoms=256, k=5, sigma=0.5, delta=0.1)
        rep = bound_report("iht", params, noise_correlation=0.8)
        assert rep.deterministic_bound is not None
        assert rep.deterministic_bound > 0

    def test_ds_report_requires_second_delta(self):
        params = GuaranteeParams(a=1.0, n_atoms=256, k=5, sigma=1.0, delta=0.2)
        with pytest.raises(ValueError):
            bound_report("ds", params)
        rep = bound_report("ds", params, second_delta=0.3)
        assert rep.condition_met

    @pytest.mark.parametrize(
        "field, value",
        [("a", math.nan), ("a", math.inf), ("sigma", math.nan), ("sigma", math.inf), ("a", 400.0), ("sigma", 1e200)],
    )
    def test_params_reject_non_finite(self, field, value):
        good = dict(a=1.0, n_atoms=8, k=1, sigma=1.0, delta=0.1)
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            GuaranteeParams(**{**good, field: value})

    @pytest.mark.parametrize("nc", [math.nan, math.inf, -0.5])
    def test_report_rejects_bad_noise_correlation(self, nc):
        params = GuaranteeParams(a=1.0, n_atoms=256, k=5, sigma=0.5, delta=0.1)
        with pytest.raises(ValueError, match="noise correlation"):
            bound_report("sp", params, noise_correlation=nc)
        assert bound_report("sp", params, noise_correlation=0.0).deterministic_bound == 0.0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GuaranteeParams(a=0.0, n_atoms=8, k=1, sigma=1.0, delta=0.1)
        with pytest.raises(ValueError):
            GuaranteeParams(a=1.0, n_atoms=8, k=1, sigma=1.0, delta=1.0)
        with pytest.raises(ValueError):
            GuaranteeParams(a=1.0, n_atoms=8, k=0, sigma=1.0, delta=0.1)


class TestInputChecks:
    D = normalize_columns(np.random.default_rng(71).standard_normal((3, 5)))

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda D: GuaranteeParams(a=1.0, n_atoms=1, k=1, sigma=1.0, delta=0.1), ValueError, "at least two atoms"),
            (lambda D: success_probability(1.0, 1), ValueError, "at least two atoms"),
            (lambda D: oracle_mse_exact(D, SupportSet((0, 1, 2, 3)), 1.0), RankDeficient, r"\|T\| = 4 exceeds m = 3"),
        ],
        ids=["params_one_atom", "success_probability_one_atom", "oracle_support_past_m"],
    )
    def test_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call(self.D)

    def test_oracle_mse_of_an_empty_support_is_zero(self):
        assert oracle_mse_exact(self.D, SupportSet(()), 2.0) == 0.0
