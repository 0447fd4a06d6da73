import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselab.errors import NonFinite, RankDeficient, ZeroColumn
from sparselab.linalg import (
    Dictionary,
    SparseSignal,
    SupportSet,
    export_dictionary_csv,
    import_dictionary_csv,
    least_squares_on_support,
    normalize_columns,
    top_k_support,
)


def random_dictionary(m, n, seed):
    rng = np.random.default_rng(seed)
    return normalize_columns(rng.standard_normal((m, n)))


class TestNormalizeColumns:
    def test_unit_norms(self):
        D = random_dictionary(7, 13, 0)
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
        D = random_dictionary(4, 6, 1)
        with pytest.raises(ValueError):
            D.entries[0, 0] = 5.0

    def test_pickle_round_trip_stays_read_only(self):
        # pool workers receive the dictionary pickled; a plain unpickled ndarray is writable
        D = random_dictionary(5, 9, 3)
        D2 = pickle.loads(pickle.dumps(D))
        assert D2.entries.tobytes() == D.entries.tobytes()
        assert not D2.entries.flags.writeable
        with pytest.raises(ValueError):
            D2.entries[0, 0] = 2.0

    def test_columns_selects_support(self):
        D = random_dictionary(5, 9, 2)
        T = SupportSet((1, 4, 7))
        assert np.array_equal(D.columns(T), D.entries[:, [1, 4, 7]])

    def test_gram_is_symmetric_unit_diagonal(self):
        D = random_dictionary(6, 10, 3)
        G = D.gram()
        assert np.allclose(G, G.T, atol=1e-14)
        assert np.allclose(np.diag(G), 1.0, atol=1e-12)


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
        D = random_dictionary(8, 12, 4)
        T = SupportSet((0, 3, 9))
        y = np.random.default_rng(5).standard_normal(8)
        A = D.columns(T)
        expected = np.linalg.solve(A.T @ A, A.T @ y)
        got = least_squares_on_support(D, T, y)
        assert np.allclose(got, expected, atol=1e-10)

    def test_empty_support(self):
        D = random_dictionary(4, 6, 6)
        out = least_squares_on_support(D, SupportSet(()), np.ones(4))
        assert out.shape == (0,)

    def test_duplicate_atom_is_rank_deficient(self):
        A = np.random.default_rng(7).standard_normal((4, 6))
        A[:, 2] = A[:, 1]
        D = Dictionary(A / np.linalg.norm(A, axis=0))
        with pytest.raises(RankDeficient):
            least_squares_on_support(D, SupportSet((1, 2)), np.ones(4))

    def test_support_wider_than_rows_rejected(self):
        D = random_dictionary(3, 8, 8)
        with pytest.raises(RankDeficient):
            least_squares_on_support(D, SupportSet((0, 1, 2, 3)), np.ones(3))

    def test_residual_orthogonal_to_atoms(self):
        D = random_dictionary(9, 14, 9)
        T = SupportSet((2, 5, 11))
        y = np.random.default_rng(10).standard_normal(9)
        r = y - D.columns(T) @ least_squares_on_support(D, T, y)
        assert np.allclose(D.columns(T).T @ r, 0.0, atol=1e-10)


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


class TestCsvRoundTrip:
    def test_header_and_exact_values(self, tmp_path):
        D = random_dictionary(5, 8, 13)
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
