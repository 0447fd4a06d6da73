import base64
import json
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselab.errors import NonFinite, RankDeficient, ZeroColumn
from sparselab.experiment import generate_dictionary, generate_signal
from sparselab.linalg import (
    GRAM_EIG_FLOOR,
    Dictionary,
    SparseSignal,
    SupportSet,
    export_dictionary_csv,
    import_dictionary_csv,
    _cholesky_solve,
    _copy_in_blocks,
    least_squares_on_support,
    normalize_columns,
    top_k_support,
)
from sparselab.pursuit import FixedIterations, PursuitConfig, read_trace, subspace_pursuit, write_trace


class TestNormalizeColumns:
    def test_unit_norms(self):
        D = generate_dictionary(7, 13, 0)
        assert np.allclose(np.linalg.norm(D.entries, axis=0), 1.0, atol=1e-12)

    def test_zero_column_rejected(self):
        A = np.ones((4, 3))
        A[:, 1] = 0.0
        with pytest.raises(ZeroColumn) as exc:
            normalize_columns(A)
        assert exc.value.index == 1
        assert exc.value.category == "ZeroColumn"

    def test_non_finite_rejected(self):
        A = np.ones((4, 3))
        A[2, 2] = np.nan
        with pytest.raises(NonFinite):
            normalize_columns(A)

    def test_input_untouched(self):
        A = np.full((3, 3), 2.0)
        normalize_columns(A)
        assert np.all(A == 2.0)


class TestDictionary:
    def test_rejects_non_unit_columns(self):
        with pytest.raises(ValueError):
            Dictionary(np.eye(3) * 2.0)

    def test_rejects_wide_transpose(self):
        # more rows than columns means the frame cannot span
        with pytest.raises(ValueError):
            Dictionary(np.vstack([np.eye(2), np.zeros((1, 2))]))

    def test_entries_read_only(self):
        D = generate_dictionary(4, 6, 1)
        with pytest.raises(ValueError):
            D.entries[0, 0] = 5.0

    def test_pickle_round_trip_stays_read_only(self):
        # pool workers receive the dictionary pickled; a plain unpickled ndarray is writable
        D = generate_dictionary(5, 9, 3)
        D2 = pickle.loads(pickle.dumps(D))
        assert D2.entries.tobytes() == D.entries.tobytes()
        assert not D2.entries.flags.writeable
        with pytest.raises(ValueError):
            D2.entries[0, 0] = 2.0

    def test_columns_selects_support(self):
        D = generate_dictionary(5, 9, 2)
        T = SupportSet((1, 4, 7))
        assert np.array_equal(D.columns(T), D.entries[:, [1, 4, 7]])

    def test_gram_is_symmetric_unit_diagonal(self):
        D = generate_dictionary(6, 10, 3)
        G = D.gram()
        assert np.allclose(G, G.T, atol=1e-14)
        assert np.allclose(np.diag(G), 1.0, atol=1e-12)


class TestGram:
    """A dictionary's Gram-carrying form: built once, read-only, same entries, same correlations up to rounding."""

    def test_with_gram_is_built_once_and_shares_the_entries(self, monkeypatch):
        D = generate_dictionary(6, 10, 31)
        built = []
        gram = Dictionary.gram
        monkeypatch.setattr(Dictionary, "gram", lambda self: built.append(1) or gram(self))
        G = D.with_gram()
        assert D.with_gram() is G and G.with_gram() is G
        assert len(built) == 1
        assert G.entries is D.entries
        assert np.array_equal(G._gram, D.entries.T @ D.entries)
        assert G._gram.flags.c_contiguous and not G._gram.flags.writeable

    def test_gram_of_the_gram_form_is_a_writable_copy(self):
        # callers such as the RIP deviation matrix subtract I in place; the carried Gram must not change
        G = generate_dictionary(6, 10, 31).with_gram()
        copy = G.gram()
        assert copy is not G._gram and copy.flags.writeable and not np.shares_memory(copy, G._gram)
        assert copy.tobytes() == G._gram.tobytes() == (G.entries.T @ G.entries).tobytes()

    def test_plain_dictionary_correlates_through_the_entries(self):
        D = generate_dictionary(8, 14, 32)
        y = np.random.default_rng(33).standard_normal(8)
        T, c = SupportSet((2, 5)), np.array([1.0, -2.0])
        got = D.residual_correlation(y, np.full(14, np.nan), T, c)
        assert got.tobytes() == (D.entries.T @ (y - D.columns(T) @ c)).tobytes()
        assert D._gram is None

    @pytest.mark.parametrize("support", [(), (0,), (1, 4, 9, 13)])
    def test_gram_correlation_matches_the_dense_product(self, support):
        D = generate_dictionary(8, 14, 34)
        rng = np.random.default_rng(35)
        y = rng.standard_normal(8)
        T = SupportSet(support)
        c = rng.standard_normal(len(T))
        r = y - D.columns(T) @ c
        got = D.with_gram().residual_correlation(y, D.entries.T @ y, T, c)
        assert np.allclose(got, D.entries.T @ r, rtol=0, atol=1e-13)

    def test_pickle_drops_the_gram(self):
        # pool workers receive entries only, and build their own Gram
        G = generate_dictionary(5, 9, 36).with_gram()
        back = pickle.loads(pickle.dumps(G))
        assert back._gram is None
        assert back.entries.tobytes() == G.entries.tobytes()


def _column_major_and_read_only(D):
    return D.entries.flags.f_contiguous and not D.entries.flags.writeable


class TestLayout:
    """Entries are stored column-major whatever path built the dictionary; values and trace bytes do not change."""

    @staticmethod
    def _traced_run():
        D = generate_dictionary(12, 20, 25)
        y = np.random.default_rng(26).standard_normal(12)
        return D, subspace_pursuit(D, y, PursuitConfig(k=2, halting=FixedIterations(3)))

    def test_every_constructor_path_stores_column_major_read_only(self, tmp_path):
        A = np.random.default_rng(21).standard_normal((7, 11))
        D = normalize_columns(A)
        assert _column_major_and_read_only(D)
        # from a row-major and from a column-major matrix
        for source in (np.ascontiguousarray(D.entries), np.asfortranarray(D.entries)):
            built = Dictionary(source)
            assert _column_major_and_read_only(built)
            assert np.array_equal(built.entries, D.entries)
        assert _column_major_and_read_only(pickle.loads(pickle.dumps(D)))
        path = tmp_path / "d.csv"
        export_dictionary_csv(D, path)
        assert _column_major_and_read_only(import_dictionary_csv(path))

    def test_trace_round_trip_stores_column_major(self, tmp_path):
        D, res = self._traced_run()
        path = tmp_path / "t.jsonl"
        write_trace(path, res, D, x_true=generate_signal(20, 2, 27), noise=np.zeros(12))
        back = read_trace(path).dictionary
        assert _column_major_and_read_only(back)
        assert back.entries.tobytes(order="A") == D.entries.tobytes(order="A")

    def test_copy_is_exact_across_row_blocks(self):
        # more rows than one copy block, and a partial last block
        A = np.random.default_rng(22).standard_normal((77, 90))
        D = normalize_columns(A)
        assert np.array_equal(D.entries, A / np.linalg.norm(A, axis=0))

    @pytest.mark.parametrize("source_order", ["C", "F"])
    def test_blocked_copy_is_exact_in_either_order(self, source_order):
        # more rows and columns than one copy block, and a partial last block
        A = np.asarray(np.random.default_rng(27).standard_normal((77, 90)), order=source_order)
        out = _copy_in_blocks(A)
        assert out.flags.f_contiguous
        assert np.array_equal(out, A)

    def test_input_is_copied_not_aliased(self):
        D = generate_dictionary(5, 8, 23)
        source = D.entries.copy(order="F")
        built = Dictionary(source)
        source[0, 0] = 9.0
        assert built.entries[0, 0] == D.entries[0, 0]

    def test_columns_are_bit_equal_to_the_row_major_gather(self):
        D = generate_dictionary(9, 31, 24)
        row_major = np.ascontiguousarray(D.entries)
        for T in (SupportSet(()), SupportSet((0,)), SupportSet((2, 3, 17, 30)), SupportSet(range(31))):
            got = D.columns(T)
            assert got.flags.f_contiguous
            assert got.tobytes(order="C") == row_major[:, T.as_array()].tobytes(order="C")
            assert got.tobytes(order="C") == D.entries[:, T.as_array()].tobytes(order="C")

    def test_trace_bytes_match_a_row_major_copy(self, tmp_path):
        # write_trace reads only m, n_atoms and entries, so a stand-in with
        # row-major entries shows the file does not depend on the layout
        D, res = self._traced_run()
        row_major = types.SimpleNamespace(entries=np.ascontiguousarray(D.entries), m=D.m, n_atoms=D.n_atoms)
        assert row_major.entries.flags.c_contiguous
        ours, theirs = tmp_path / "f.jsonl", tmp_path / "c.jsonl"
        x, e = generate_signal(20, 2, 27), np.zeros(12)
        write_trace(ours, res, D, x_true=x, noise=e)
        write_trace(theirs, res, row_major, x_true=x, noise=e)
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("m", [47, 48, 100])
    def test_dictionary_written_in_row_blocks_is_one_encoding(self, tmp_path, m):
        # a partial block, exactly one block and several with a partial last one,
        # at an n_atoms that is not a multiple of 3
        D = generate_dictionary(m, 103, 28)
        res = subspace_pursuit(D, np.random.default_rng(29).standard_normal(m), PursuitConfig(k=2, halting=FixedIterations(2)))
        path = tmp_path / "t.jsonl"
        write_trace(path, res, D, x_true=generate_signal(103, 2, 30), noise=np.zeros(m))
        header = json.loads(path.read_text().splitlines()[0])
        assert header["dictionary"] == base64.b64encode(np.ascontiguousarray(D.entries, dtype="<f8")).decode("ascii")
        assert np.array_equal(read_trace(path).dictionary.entries, D.entries)


class TestSupportSet:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SupportSet((1, 1, 2))

    def test_unsorted_tuple_rejected(self):
        with pytest.raises(ValueError):
            SupportSet((3, 1))

    def test_set_algebra(self):
        a = SupportSet((0, 2, 4))
        b = SupportSet((2, 3))
        assert a.union(b).indices == (0, 2, 3, 4)
        assert a.difference(b).indices == (0, 4)

    def test_membership_and_len(self):
        s = SupportSet((1, 7))
        assert 7 in s and 2 not in s
        assert len(s) == 2
        assert list(s) == [1, 7]

    @given(st.sets(st.integers(min_value=0, max_value=30), max_size=8))
    @settings(deadline=None, max_examples=50)
    def test_roundtrip_through_array(self, idx):
        s = SupportSet(tuple(sorted(idx)))
        assert SupportSet(s.as_array()) == s

    def test_indices_are_python_ints_and_array_is_read_only(self):
        s = SupportSet(np.array([2, 5, 9], dtype=np.int32))
        assert s.indices == (2, 5, 9) and all(type(i) is int for i in s.indices)
        a = s.as_array()
        assert a.dtype == np.int64 and a.tolist() == [2, 5, 9]
        with pytest.raises(ValueError):
            a[0] = 1

    def test_caller_array_is_not_aliased(self):
        source = np.array([1, 4, 6])
        s = SupportSet(source)
        source[0] = 3
        assert s.indices == (1, 4, 6) and s.as_array()[0] == 1
        assert source.flags.writeable

    def test_pickle_keeps_array_read_only(self):
        s = pickle.loads(pickle.dumps(SupportSet((3, 8))))
        assert s == SupportSet((3, 8))
        assert not s.as_array().flags.writeable

    @pytest.mark.parametrize("bad", [(-1, 2), ((1, 2), (3, 4)), (2**64,)])
    def test_malformed_indices_rejected(self, bad):
        with pytest.raises(ValueError):
            SupportSet(bad)

    @pytest.mark.parametrize(
        "bad",
        [(1.7, 2.2), (1, 2.0), np.array([0.5, 3.9]), np.array([1.0, 2.0]), (2**63,), np.array([True, False])],
    )
    def test_non_integer_indices_rejected(self, bad):
        # floats used to truncate to other indices: (1.7, 2.2) read as (1, 2)
        with pytest.raises(ValueError, match="integers"):
            SupportSet(bad)

    @pytest.mark.parametrize("empty", [(), [], np.array([]), np.array([], dtype=np.int32)])
    def test_empty_support_of_any_dtype_accepted(self, empty):
        s = SupportSet(empty)
        assert s.indices == () and s.as_array().dtype == np.int64


class TestSparseSignal:
    def test_off_support_nonzero_rejected(self):
        v = np.zeros(5)
        v[2] = 1.0
        with pytest.raises(ValueError):
            SparseSignal(v, SupportSet((1,)), 1)

    def test_support_larger_than_k_rejected(self):
        v = np.zeros(5)
        v[[1, 2]] = 1.0
        with pytest.raises(ValueError):
            SparseSignal(v, SupportSet((1, 2)), 1)

    def test_on_support_values(self):
        v = np.zeros(6)
        v[[1, 4]] = [3.0, -2.0]
        x = SparseSignal(v, SupportSet((1, 4)), 2)
        assert np.array_equal(x.on_support(), [3.0, -2.0])


class TestLeastSquares:
    def test_matches_normal_equations(self):
        D = generate_dictionary(8, 12, 4)
        T = SupportSet((0, 3, 9))
        y = np.random.default_rng(5).standard_normal(8)
        A = D.columns(T)
        expected = np.linalg.solve(A.T @ A, A.T @ y)
        got = least_squares_on_support(D, T, y)
        assert np.allclose(got, expected, atol=1e-10)

    def test_empty_support(self):
        D = generate_dictionary(4, 6, 6)
        out = least_squares_on_support(D, SupportSet(()), np.ones(4))
        assert out.shape == (0,)

    def test_duplicate_atom_is_rank_deficient(self):
        A = np.random.default_rng(7).standard_normal((4, 6))
        A[:, 2] = A[:, 1]
        D = Dictionary(A / np.linalg.norm(A, axis=0))
        with pytest.raises(RankDeficient):
            least_squares_on_support(D, SupportSet((1, 2)), np.ones(4))

    def test_support_wider_than_rows_rejected(self):
        D = generate_dictionary(3, 8, 8)
        with pytest.raises(RankDeficient):
            least_squares_on_support(D, SupportSet((0, 1, 2, 3)), np.ones(3))

    def test_residual_orthogonal_to_atoms(self):
        D = generate_dictionary(9, 14, 9)
        T = SupportSet((2, 5, 11))
        y = np.random.default_rng(10).standard_normal(9)
        r = y - D.columns(T) @ least_squares_on_support(D, T, y)
        assert np.allclose(D.columns(T).T @ r, 0.0, atol=1e-10)


def _counting_lstsq(monkeypatch):
    """Patch np.linalg.lstsq to count its calls; returns the list it appends to."""
    calls, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or lstsq(*a, **kw))
    return calls


class TestGramLeastSquares:
    """On D.with_gram(): a certified support is solved by Cholesky, any other one exactly as on D."""

    def test_certified_support_agrees_with_lstsq_without_calling_it(self, monkeypatch):
        D = generate_dictionary(40, 80, 11)
        T = SupportSet((1, 7, 30, 52, 79))
        y = np.random.default_rng(12).standard_normal(40)
        want = least_squares_on_support(D, T, y)
        calls = _counting_lstsq(monkeypatch)
        # z = D^T y is read on T; without it the solve forms D_T^T y itself
        for z in (D.entries.T @ y, None):
            got = least_squares_on_support(D.with_gram(), T, y, z)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert least_squares_on_support(D.with_gram(), SupportSet(()), y).shape == (0,)
        assert calls == []

    def test_support_wider_than_rows_rejected(self):
        D = generate_dictionary(3, 8, 8).with_gram()
        with pytest.raises(RankDeficient, match="exceeds measurement dimension"):
            least_squares_on_support(D, SupportSet((0, 1, 2, 3)), np.ones(3))


class TestGramRankOracle:
    """Brute force: near-duplicate atoms 1e-14 to 1e-1 apart, solved on D.with_gram() and on D."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_decision_and_coefficients_match_the_plain_dictionary(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        calls = _counting_lstsq(monkeypatch)
        T = SupportSet((0, 3, 4, 9, 17))
        outcomes = set()
        # decades, then steps across the floor, where lambda_min ~ separation^2 / 2 = 1e-4
        for separation in np.r_[10.0 ** np.arange(-14, 0), 0.012, 0.014, 0.016, 0.02]:
            A = rng.standard_normal((16, 24))
            atom = A[:, 3] / np.linalg.norm(A[:, 3])
            u = A[:, 4] - (A[:, 4] @ atom) * atom
            A[:, 4] = atom + separation * u / np.linalg.norm(u)
            D = normalize_columns(A)
            y = rng.standard_normal(16)
            z = D.entries.T @ y
            try:
                want = least_squares_on_support(D, T, y)
            except RankDeficient as exc:
                with pytest.raises(RankDeficient) as gram_exc:
                    least_squares_on_support(D.with_gram(), T, y, z)
                assert str(gram_exc.value) == str(exc)
                outcomes.add("rank deficient")
                continue
            before = len(calls)
            got = least_squares_on_support(D.with_gram(), T, y, z)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
            outcomes.add("cholesky" if len(calls) == before else "lstsq")
            # lambda_min(G_TT) <= ||d_3 - d_4||^2 / 2 (interlacing): below the floor
            # the certificate must fail, and the answer is the plain one, bit for bit
            if np.sum((D.entries[:, 3] - D.entries[:, 4]) ** 2) / 2 < GRAM_EIG_FLOOR / 2:
                assert len(calls) == before + 1
                assert got.tobytes() == want.tobytes()
        assert outcomes == {"rank deficient", "lstsq", "cholesky"}


class TestShiftedCholeskyCertificate:
    """Brute force: _cholesky_solve answers exactly where eigvalsh(G_TT).min() >= GRAM_EIG_FLOOR."""

    # an eigenvalue this close to the floor may land on either side through rounding
    BAND = 1e-10

    def test_answers_exactly_above_the_floor_and_agrees_with_lstsq(self):
        rng = np.random.default_rng(2026)
        m, n = 512, 1024
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        fresh = iter(rng.permutation(n).tolist())
        supports = []
        # near-duplicate pairs: atom j of T turned toward atom i until lambda_min(G_TT) is the target;
        # the targets 1e-9 either side of the floor test the certificate's edge
        for target in (1e-6, 1e-5, GRAM_EIG_FLOOR - 1e-9, GRAM_EIG_FLOOR + 1e-9, 1e-3, 1e-2):
            for size in (2, 8, 30):
                T = sorted(next(fresh) for _ in range(size))
                i, j = T[0], T[1]
                u = rng.standard_normal(m)
                u -= (u @ A[:, i]) * A[:, i]
                u /= np.linalg.norm(u)
                lo, hi = 0.0, np.pi / 2
                for _ in range(60):
                    angle = (lo + hi) / 2
                    A[:, j] = np.cos(angle) * A[:, i] + np.sin(angle) * u
                    if np.linalg.eigvalsh(A[:, T].T @ A[:, T])[0] < target:
                        lo = angle
                    else:
                        hi = angle
                supports.append(T)
        D = normalize_columns(A).with_gram()
        supports += [np.sort(rng.choice(n, size, replace=False)) for size in range(1, 41)]
        y = rng.standard_normal(m)
        z = D.entries.T @ y
        answered = []
        for T in map(SupportSet, supports):
            t = T.as_array()
            lam = np.linalg.eigvalsh(D._gram[t[:, None], t])[0]
            assert abs(lam - GRAM_EIG_FLOOR) > self.BAND
            got = _cholesky_solve(D, T, y, z)
            assert (got is None) == (lam < GRAM_EIG_FLOOR)
            if got is not None:
                want = np.linalg.lstsq(D.columns(T), y, rcond=None)[0]
                # the normal equations' error grows with cond(G_TT), at most about 1e4 here
                rtol = 1e-12 if lam >= 1e-3 else 1e-10
                assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)
                answered.append(lam)
        assert 0 < len(answered) < len(supports)
        assert min(answered) < 2 * GRAM_EIG_FLOOR


class TestTopK:
    def test_selects_largest_magnitudes(self):
        v = np.array([0.1, -5.0, 3.0, 0.0, 4.0])
        assert top_k_support(v, 2).indices == (1, 4)

    def test_ties_break_to_lower_index(self):
        v = np.array([1.0, -1.0, 1.0])
        assert top_k_support(v, 2).indices == (0, 1)

    def test_k_zero_and_k_full(self):
        v = np.arange(4.0)
        assert top_k_support(v, 0).indices == ()
        assert top_k_support(v, 4).indices == (0, 1, 2, 3)


def stable_argsort_rule(v, k):
    """Brute-force oracle: a stable sort of -|v| (NaN last), first k, in index order."""
    return tuple(np.sort(np.argsort(-np.abs(np.asarray(v)), kind="stable")[:k]).tolist())


def _every_k(v):
    return [(k, top_k_support(v, k).indices, stable_argsort_rule(v, k)) for k in range(len(v) + 1)]


class TestTopKOracle:
    """top_k_support partitions instead of sorting; it must agree with the stable-argsort rule on every input."""

    NAN = float("nan")
    CASES = {
        "tie_straddles_boundary": [3.0, 1.0, -2.0, 2.0, 0.5, 2.0, -2.0],
        "tie_inside_and_at_boundary": [5.0, -5.0, 1.0, 5.0, 1.0, -1.0],
        "all_equal": [0.7] * 9,
        "all_equal_signs_differ": [-1.0, 1.0, -1.0, 1.0, 1.0],
        "signed_zeros": [0.0, -0.0, 0.0, -0.0, 0.0, 1e-300, -0.0],
        "all_zeros": [-0.0, 0.0, -0.0, 0.0],
        "nan_below_every_number": [NAN, 1.0, NAN, -3.0, 0.0],
        "nan_at_the_boundary": [1.0, NAN, 2.0, NAN, NAN, 0.5],
        "all_nan": [NAN, NAN, NAN, NAN],
        "nan_and_ties": [NAN, 2.0, -2.0, NAN, 2.0, 0.0, -0.0],
        "infinities": [np.inf, -1.0, -np.inf, NAN, np.inf, 0.0],
        "single": [4.0],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_k_matches_the_rule(self, name):
        v = np.array(self.CASES[name])
        for k, got, want in _every_k(v):
            assert got == want, (k, got, want)
            assert len(got) == k

    def test_named_boundary_answers(self):
        # the rule spelled out: ties go to the lower index, NaN only once numbers run out
        assert top_k_support(np.array(self.CASES["tie_straddles_boundary"]), 3).indices == (0, 2, 3)
        assert top_k_support(np.array(self.CASES["all_equal"]), 4).indices == (0, 1, 2, 3)
        assert top_k_support(np.array(self.CASES["nan_at_the_boundary"]), 4).indices == (0, 1, 2, 5)
        assert top_k_support(np.array(self.CASES["all_nan"]), 2).indices == (0, 1)

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 1024])
    def test_k_at_the_extremes(self, n):
        v = np.random.default_rng(n).standard_normal(n).round(1)
        for k in sorted({0, 1, n - 1, n}):
            assert top_k_support(v, k).indices == stable_argsort_rule(v, k)

    @given(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, float("nan"), float("inf"), 1e-3]), min_size=1, max_size=24)
    )
    @settings(deadline=None, max_examples=300)
    def test_few_distinct_values_match_the_rule(self, values):
        # a small pool of values makes ties, zeros and NaNs collide at the boundary
        for k, got, want in _every_k(np.array(values)):
            assert got == want, (k, got, want)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40), st.data())
    @settings(deadline=None, max_examples=200)
    def test_any_floats_match_the_rule(self, values, data):
        v = np.array(values)
        k = data.draw(st.integers(min_value=0, max_value=v.size))
        assert top_k_support(v, k).indices == stable_argsort_rule(v, k)

    def test_integer_input_matches_the_rule(self):
        v = np.array([3, -7, 7, 0, -3, 2])
        for k, got, want in _every_k(v):
            assert got == want


def assert_same_as_checked(support):
    """`support` is what SupportSet builds from its indices, in every way a caller sees it."""
    checked = SupportSet(support.indices)
    assert support == checked and hash(support) == hash(checked)
    assert support.indices == checked.indices and all(type(i) is int for i in support.indices)
    array = support.as_array()
    assert array.dtype == np.int64 and not array.flags.writeable
    assert array.tolist() == checked.as_array().tolist()


class TestDerivedSupports:
    """top_k_support, union and difference skip SupportSet's checks; what they build must pass them unchanged."""

    VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-3, float("nan"), float("inf"), float("-inf")])

    @given(st.lists(VALUES, min_size=1, max_size=24), st.lists(VALUES, min_size=1, max_size=24), st.data())
    @settings(deadline=None, max_examples=200)
    def test_equal_their_checked_rebuilds(self, v, w, data):
        # few distinct values, so ties, infinities and NaNs meet at the top-k boundary
        a = top_k_support(np.array(v), data.draw(st.integers(min_value=0, max_value=len(v))))
        b = top_k_support(np.array(w), data.draw(st.integers(min_value=0, max_value=len(w))))
        for support in (a, b, a.union(b), b.union(a), a.difference(b), b.difference(a)):
            assert_same_as_checked(support)


class TestCsvRoundTrip:
    def test_header_and_exact_values(self, tmp_path):
        D = generate_dictionary(5, 8, 13)
        path = tmp_path / "d.csv"
        export_dictionary_csv(D, path)
        first = path.read_text().splitlines()[0]
        assert first == "5,8"
        back = import_dictionary_csv(path)
        assert np.array_equal(back.entries, D.entries)

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("3,4\n1.0,0.0,0.0,0.0\n")
        with pytest.raises(ValueError):
            import_dictionary_csv(path)


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda tmp: Dictionary(np.ones(3)), ValueError, "must be a 2-d matrix"),
            (lambda tmp: Dictionary(np.full((2, 3), np.nan)), NonFinite, "dictionary entries must be finite"),
            (lambda tmp: SparseSignal(np.zeros((2, 2)), SupportSet(()), 1), ValueError, "must be a 1-d vector"),
            (lambda tmp: SparseSignal([np.inf, 0.0], SupportSet((0,)), 1), NonFinite, "signal values must be finite"),
            (lambda tmp: SparseSignal(np.zeros(3), SupportSet((3,)), 1), ValueError, "support index out of range"),
            (lambda tmp: top_k_support(np.ones(3), 4), ValueError, r"need 0 <= k <= 3, got 4"),
            (lambda tmp: import_dictionary_csv(write(tmp, "3;4\n1,0,0,0\n")), ValueError, "malformed header '3;4'"),
        ],
        ids=[
            "dictionary_1d",
            "dictionary_non_finite",
            "signal_2d",
            "signal_non_finite",
            "signal_support_past_length",
            "top_k_past_length",
            "csv_malformed_header",
        ],
    )
    def test_rejected(self, tmp_path, call, error, message):
        with pytest.raises(error, match=message):
            call(tmp_path)


def write(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_text(text)
    return path
