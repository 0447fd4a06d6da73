import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselab import metrics
from sparselab.errors import BudgetExceeded, NonFinite
from sparselab.experiment import generate_dictionary
from sparselab.linalg import SupportSet, normalize_columns
from sparselab.metrics import (
    _deviation_matrix,
    _pair_candidates,
    _prefix_chunks,
    _square_bounds,
    _support_deltas,
    mutual_coherence,
    rip_exact,
    rip_monte_carlo,
    worst_case_noise_correlation,
)


def brute_force_rip(D, k):
    """Reference oracle: plain loop over every support, no pruning tricks."""
    G = D.entries.T @ D.entries
    worst = 0.0
    for T in itertools.combinations(range(D.n_atoms), k):
        idx = np.asarray(T)
        w = np.linalg.eigvalsh(G[np.ix_(idx, idx)])
        worst = max(worst, max(w[-1] - 1.0, 1.0 - w[0]))
    return worst


def brute_force_coherence(D):
    worst = 0.0
    for i in range(D.n_atoms):
        for j in range(i + 1, D.n_atoms):
            worst = max(worst, abs(float(D.entries[:, i] @ D.entries[:, j])))
    return worst


class TestMutualCoherence:
    def test_matches_double_loop(self):
        D = generate_dictionary(6, 12, 0)
        assert mutual_coherence(D) == pytest.approx(brute_force_coherence(D), abs=1e-14)

    def test_orthonormal_columns_have_zero_coherence(self):
        D = generate_dictionary(8, 8, 1)
        Q, _ = np.linalg.qr(D.entries)
        D = normalize_columns(Q)
        assert mutual_coherence(D) < 1e-12


def unpruned_rip(D, k):
    """Reference oracle: every support through the same batched eigensolver, no pruning."""
    idx = np.array(list(itertools.combinations(range(D.n_atoms), k)))
    return float(_support_deltas(_deviation_matrix(D), idx).max())


def oracle_dictionaries():
    """Random dictionaries with N <= 10, one with repeated atoms (tied bounds), one orthonormal."""
    for seed in range(6):
        n = 7 + seed % 4
        m = int(np.random.default_rng(seed).integers(2, n))
        yield pytest.param(generate_dictionary(m, n, 300 + seed), id=f"random-{m}x{n}")
    base = np.random.default_rng(16).standard_normal((5, 4))
    yield pytest.param(normalize_columns(np.hstack([base, base, base[:, :1]])), id="duplicated-atoms")
    Q, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((8, 8)))
    yield pytest.param(normalize_columns(Q), id="orthonormal")


class TestRipExact:
    @pytest.mark.parametrize("D", oracle_dictionaries())
    def test_bit_equal_to_unpruned_enumeration(self, D):
        # every order 1..N, so k = 3 (one-atom prefix), k = N - 1 and k = N
        for k in range(1, D.n_atoms + 1):
            assert rip_exact(D, k).delta == unpruned_rip(D, k), k

    def test_bit_equal_when_the_argmax_needs_its_pair_rows(self):
        # the argmax pair (14, 15) at 0.9 is orthogonal to every other atom,
        # so only the rows of a and b of a support P + (14, 15) see it. The
        # other atoms share a coherence of 0.01, and a rival pair (0, 1) at
        # 0.5 gives a defect that prunes every support whose bound misses
        # 0.9: the 364 supports without 14 or 15 all outrank the argmax's
        # other rows, more than the first eigensolver batch holds.
        n = 16
        G = np.eye(n)
        G[:14, :14] += 0.01 * (1.0 - np.eye(14))
        G[0, 1] = G[1, 0] = 0.5
        G[14, 15] = G[15, 14] = 0.9
        D = normalize_columns(np.linalg.cholesky(G).T)
        delta = rip_exact(D, 3).delta
        assert delta == unpruned_rip(D, 3)
        assert delta == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("k", range(3, 12))
    def test_prefix_bounds_equal_gathered_row_sums(self, k):
        # every support exactly once, sorted, with the largest row sum of
        # |E_T| (diagonal residue included) that a direct gather gives;
        # a small chunk size splits the prefixes into many chunks
        D = generate_dictionary(7, 11, 21)
        absE = np.abs(_deviation_matrix(D))
        bounds, supports = [], []
        for prefixes in _prefix_chunks(11, k - 2, 40):
            bound, build = _pair_candidates(absE, prefixes, -np.inf)
            bounds.append(bound)
            supports.append(build(np.arange(bound.size)))
        bound, T = np.concatenate(bounds), np.concatenate(supports)
        order = np.lexsort(T.T[::-1])
        assert T[order].tolist() == [list(c) for c in itertools.combinations(range(11), k)]
        gathered = absE[T[:, :, None], T[:, None, :]].sum(axis=2).max(axis=1)
        np.testing.assert_allclose(bound, gathered, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force(self, k):
        D = generate_dictionary(6, 10, 2)
        est = rip_exact(D, k)
        assert est.delta == pytest.approx(brute_force_rip(D, k), abs=1e-12)
        assert est.method == "exact_enumeration"
        assert est.supports_checked == math.comb(10, k)

    def test_k2_equals_coherence(self):
        # for a pair {i, j} the extreme eigenvalues of the 2x2 Gram block
        # are 1 +- |<d_i, d_j>|, so delta_2 is exactly the coherence
        D = generate_dictionary(9, 14, 3)
        assert rip_exact(D, 2).delta == pytest.approx(mutual_coherence(D), abs=1e-12)

    def test_k1_is_negligible_for_unit_columns(self):
        D = generate_dictionary(5, 9, 4)
        assert rip_exact(D, 1).delta < 1e-10

    def test_monotone_in_k(self):
        D = generate_dictionary(7, 11, 5)
        deltas = [rip_exact(D, k).delta for k in range(1, 6)]
        assert all(a <= b + 1e-14 for a, b in zip(deltas, deltas[1:]))

    def test_coherence_bound(self):
        # delta_K <= (K-1) mu for every dictionary
        for seed in range(10):
            D = generate_dictionary(6, 9, seed)
            mu = mutual_coherence(D)
            for k in (2, 3, 4):
                assert rip_exact(D, k).delta <= (k - 1) * mu + 1e-12

    def test_budget_enforced(self):
        D = generate_dictionary(10, 30, 6)
        with pytest.raises(BudgetExceeded):
            rip_exact(D, 8, budget=1000)
        # budget=None disables the guard
        est = rip_exact(D, 2, budget=None)
        assert est.supports_checked == math.comb(30, 2)

    def test_orthonormal_square_dictionary_has_tiny_delta(self):
        Q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((8, 8)))
        D = normalize_columns(Q)
        assert rip_exact(D, 3).delta < 1e-10

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_square_bound_lies_between_defect_and_gershgorin(self, k):
        # rho(A)^2 = rho(A^2) <= ||A^2||_inf <= ||A||_inf^2 for symmetric A
        D = generate_dictionary(6, 11, 22)
        E = _deviation_matrix(D)
        idx = np.array(list(itertools.combinations(range(11), k)))
        sub = E[idx[:, :, None], idx[:, None, :]]
        square = _square_bounds(sub)
        assert np.all(square >= _support_deltas(E, idx) - 1e-12)
        assert np.all(square <= np.abs(sub).sum(axis=2).max(axis=1) + 1e-12)

    def test_square_bound_spares_the_eigensolver(self, monkeypatch):
        # Gershgorin alone sends about 12,000 of the 100,947 order-6 supports
        # of this dictionary to the eigensolver; the squared bound, about 300
        D = generate_dictionary(20, 23, 0)
        rows = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: rows.append(len(a)) or eigvalsh(a))
        delta = rip_exact(D, 6).delta
        monkeypatch.undo()
        assert sum(rows) < 0.01 * math.comb(23, 6)
        assert delta == unpruned_rip(D, 6)


class TestRipMonteCarlo:
    def test_never_exceeds_exact(self):
        D = generate_dictionary(6, 10, 8)
        exact = rip_exact(D, 3).delta
        for seed in range(5):
            est = rip_monte_carlo(D, 3, trials=50, seed=seed)
            assert est.delta <= exact + 1e-14
            assert est.method == "monte_carlo_lower_bound"
            assert est.seed == seed

    def test_exhaustive_sampling_matches_exact(self):
        # enough random supports to have seen all comb(10, 2) = 45 of them
        D = generate_dictionary(6, 10, 9)
        exact = rip_exact(D, 2).delta
        est = rip_monte_carlo(D, 2, trials=4000, seed=0)
        assert est.delta == pytest.approx(exact, abs=1e-12)

    def test_deterministic_given_seed(self):
        D = generate_dictionary(6, 12, 10)
        a = rip_monte_carlo(D, 3, trials=200, seed=42).delta
        b = rip_monte_carlo(D, 3, trials=200, seed=42).delta
        assert a == b

    def test_delta_is_bit_equal_on_the_gram_form(self):
        # a dictionary carrying its Gram hands rip_monte_carlo a copy of the same product
        D = generate_dictionary(24, 48, 12)
        for k in (1, 3, 6):
            assert rip_monte_carlo(D, k, trials=300, seed=k).delta == rip_monte_carlo(D.with_gram(), k, trials=300, seed=k).delta

    def test_batched_scoring_leaves_delta_bit_equal(self, monkeypatch):
        # order 40: the default chunk of 2**18 // 40**2 = 163 supports splits the 200 samples
        D = generate_dictionary(48, 96, 11)
        batches = []

        def counting(E, idx):
            batches.append(len(idx))
            return _support_deltas(E, idx)

        monkeypatch.setattr(metrics, "_support_deltas", counting)
        deltas = {}
        for elements, count in ((metrics._BATCH_ELEMENTS, 2), (1, 200), (10**9, 1)):
            monkeypatch.setattr(metrics, "_BATCH_ELEMENTS", elements)
            batches.clear()
            deltas[elements] = rip_monte_carlo(D, 40, trials=200, seed=5).delta
            assert len(batches) == count and sum(batches) == 200
        assert len(set(deltas.values())) == 1


class TestWorstCaseNoiseCorrelation:
    def brute_force(self, D, e, k):
        best = -1.0
        c = D.entries.T @ e
        for T in itertools.combinations(range(D.n_atoms), k):
            val = float(np.linalg.norm(c[list(T)]))
            if val > best:
                best = val
        return best

    @pytest.mark.parametrize("seed", range(8))
    def test_fast_path_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        D = generate_dictionary(5, 9, seed + 100)
        e = rng.standard_normal(5)
        for k in (1, 2, 3):
            fast = worst_case_noise_correlation(D, e, k)
            slow = worst_case_noise_correlation(D, e, k, use_enumeration=True)
            assert fast.value == pytest.approx(self.brute_force(D, e, k), abs=1e-12)
            assert fast.value == pytest.approx(slow.value, abs=1e-12)
            assert fast.argmax_support == slow.argmax_support

    def test_k_zero(self):
        D = generate_dictionary(4, 7, 13)
        assert worst_case_noise_correlation(D, np.ones(4), 0).value == 0.0

    def test_enumeration_over_budget_raises_before_enumerating(self, monkeypatch):
        # C(30, 10) = 30,045,015 supports, past ENUMERATION_BUDGET
        D = generate_dictionary(12, 30, 16)
        monkeypatch.setattr(metrics, "_combination_chunks", lambda *args: pytest.fail("enumeration started"))
        with pytest.raises(BudgetExceeded, match="C\\(30,10\\) = 30045015 supports exceeds budget 2000000"):
            worst_case_noise_correlation(D, np.ones(12), 10, use_enumeration=True)

    def test_block_scaling_bound(self):
        # the size-pk worst case is at most p times (and in fact sqrt(p)
        # times) the size-k worst case, because any size-pk support splits
        # into p disjoint size-k pieces
        rng = np.random.default_rng(14)
        D = generate_dictionary(6, 10, 15)
        e = rng.standard_normal(6)
        k, p = 2, 2
        t_k = worst_case_noise_correlation(D, e, k, use_enumeration=True).value
        t_pk = worst_case_noise_correlation(D, e, p * k, use_enumeration=True).value
        assert t_pk <= math.sqrt(p) * t_k + 1e-12
        assert t_pk <= p * t_k + 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(deadline=None, max_examples=30)
    def test_argmax_support_realizes_value(self, seed):
        rng = np.random.default_rng(seed)
        D = generate_dictionary(5, 8, seed % 1000)
        e = rng.standard_normal(5)
        res = worst_case_noise_correlation(D, e, 2)
        realized = float(np.linalg.norm(D.columns(res.argmax_support).T @ e))
        assert realized == pytest.approx(res.value, abs=1e-12)


class TestInputChecks:
    D = generate_dictionary(4, 6, 70)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda D: mutual_coherence(normalize_columns(np.ones((1, 1)))), ValueError, "at least two atoms"),
            (lambda D: rip_exact(D, 0), ValueError, r"need 1 <= k <= 6, got 0"),
            (lambda D: rip_exact(D, 7), ValueError, r"need 1 <= k <= 6, got 7"),
            (lambda D: rip_monte_carlo(D, 0, trials=10, seed=0), ValueError, r"need 1 <= k <= 6, got 0"),
            (lambda D: rip_monte_carlo(D, 7, trials=10, seed=0), ValueError, r"need 1 <= k <= 6, got 7"),
            (lambda D: rip_monte_carlo(D, 2, trials=0, seed=0), ValueError, "trials must be >= 1"),
            (lambda D: worst_case_noise_correlation(D, [0.0, np.nan, 0.0, 0.0], 1), NonFinite, "must be finite"),
            (lambda D: worst_case_noise_correlation(D, np.ones(4), -1), ValueError, r"need 0 <= k <= 6, got -1"),
            (lambda D: worst_case_noise_correlation(D, np.ones(4), 7), ValueError, r"need 0 <= k <= 6, got 7"),
        ],
        ids=[
            "coherence_one_atom",
            "rip_exact_k_zero",
            "rip_exact_k_past_n",
            "rip_mc_k_zero",
            "rip_mc_k_past_n",
            "rip_mc_no_trials",
            "noise_correlation_non_finite",
            "noise_correlation_k_negative",
            "noise_correlation_k_past_n",
        ],
    )
    def test_rejected(self, call, error, message):
        with pytest.raises(error, match=message):
            call(self.D)
