"""Dense linear-algebra substrate for sparse recovery.

Dictionaries with unit-norm columns, index supports, restricted least
squares and top-k magnitude selection. All operations are pure functions;
the types are immutable after construction and safe to share across
parallel workers.

A dictionary stores its entries column-major (Fortran order), so each atom
is one contiguous run of m floats and gathering the atoms of a support
copies |T| contiguous blocks instead of striding across every row. A
support holds its indices both as a tuple, the type compared and hashed,
and as a read-only int64 array, the form that indexes and traces store.

A dictionary can also carry its Gram matrix G = D^T D (with_gram). Solvers
then correlate a residual y - D_T c with every atom as z - c G_T, z = D^T y,
reading |T| rows of G instead of all m N entries and never forming the
residual, and solve least squares on T from the normal equations
G_TT c = z_T wherever G_TT - GRAM_EIG_FLOOR I has a Cholesky factor (on D_T
elsewhere), so their coefficients can differ from the plain dictionary's in
the last bits. That pays only when many solves share one dictionary, as a
sweep's trials do, and one z, as the solvers of a sweep trial do.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite, RankDeficient, ZeroColumn

NORMALIZATION_RTOL = 1e-10
RANK_RCOND = 1e-12
# the Gram path's answer stands only where it certifies lambda_min(G_TT) at
# least this: far above G's rounding, and far from lstsq's rank cut, since
# sigma_min(D_T) / sigma_max(D_T) >= sqrt(GRAM_EIG_FLOOR / |T|)
GRAM_EIG_FLOOR = 1e-4
ZERO_COLUMN_TOL = 1e-14
_INT64_MAX = np.iinfo(np.int64).max
# rows per block when copying into column-major order: a whole-matrix
# transposing copy strides through memory, a block stays in cache
_COPY_BLOCK = 32


def _copy_in_blocks(a, norms=None):
    """A column-major (F-contiguous) copy of the 2-d array `a`, each column divided by its entry of `norms` if given."""
    out = np.empty(a.shape, order="F")
    for i in range(0, a.shape[0], _COPY_BLOCK):
        block = a[i : i + _COPY_BLOCK]
        out[i : i + _COPY_BLOCK] = block if norms is None else block / norms
    return out


def _matrix(a):
    """`a` as a float64 array, which must be 2-d."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("dictionary entries must be a 2-d matrix")
    return a


@dataclass(frozen=True, eq=False)
class Dictionary:
    """An m x N measurement matrix with unit-norm columns.

    `entries` is a read-only, column-major (F-contiguous) copy of the matrix
    given, whatever the layout of that matrix.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = _matrix(self.entries)
        if not np.all(np.isfinite(entries)):
            raise NonFinite("dictionary entries must be finite")
        Dictionary._from_atoms(_copy_in_blocks(entries), self)

    @classmethod
    def _from_atoms(cls, atoms, dictionary=None):
        """A dictionary holding `atoms`, a finite 2-d column-major array no caller keeps, with no copy; the
        m <= N and unit-norm checks still run. __post_init__ passes itself as `dictionary` to end in them."""
        dictionary = object.__new__(cls) if dictionary is None else dictionary
        m, n = atoms.shape
        if m > n:
            raise ValueError(f"need m <= N, got m={m}, N={n}")
        # the einsum squares no full-size temporary, as np.linalg.norm would
        norms = np.sqrt(np.einsum("ij,ij->j", atoms, atoms))
        bad = np.where(np.abs(norms - 1.0) > NORMALIZATION_RTOL)[0]
        if bad.size:
            raise ValueError(
                f"column {bad[0]} has norm {norms[bad[0]]!r}; "
                "construct via normalize_columns"
            )
        atoms.setflags(write=False)
        object.__setattr__(dictionary, "entries", atoms)
        object.__setattr__(dictionary, "_gram", None)
        object.__setattr__(dictionary, "_gram_form", None)
        return dictionary

    def __reduce__(self):
        # an unpickled ndarray is writable; rebuilding through __init__ keeps
        # the copy a pool worker receives read-only. The Gram is not sent: a
        # worker that wants one builds it with with_gram.
        return (Dictionary, (self.entries,))

    @property
    def m(self):
        return self.entries.shape[0]

    @property
    def n_atoms(self):
        return self.entries.shape[1]

    def columns(self, support):
        """Submatrix D_T for a SupportSet T."""
        return self.entries[:, support.as_array()]

    def gram(self):
        """D^T D as a new array the caller may change: a copy of the carried Gram matrix, else formed."""
        return self.entries.T @ self.entries if self._gram is None else self._gram.copy()

    def with_gram(self):
        """This dictionary carrying its Gram matrix, read-only and built on the first call only.

        The result has the same entries and is returned again by every later
        call (on it, it returns itself); residual_correlation and
        least_squares_on_support read G.
        """
        if self._gram is not None:
            return self
        if self._gram_form is None:
            gram = self.gram()
            gram.setflags(write=False)
            form = object.__new__(Dictionary)
            object.__setattr__(form, "entries", self.entries)
            object.__setattr__(form, "_gram", gram)
            object.__setattr__(form, "_gram_form", None)
            object.__setattr__(self, "_gram_form", form)
        return self._gram_form

    def residual_correlation(self, y, z, support, coef):
        """D^T (y - D_T coef), given z = D^T y.

        Only a plain dictionary forms the residual y - D_T coef. With a Gram
        this is z - coef G_T, from G's contiguous rows on the support (G is
        symmetric); it agrees with the plain result up to rounding.
        """
        if self._gram is None:
            return self.entries.T @ (y - self.columns(support) @ coef)
        return z - coef @ self._gram[support.as_array()]


@dataclass(frozen=True, order=True)
class SupportSet:
    """A strictly increasing tuple of atom indices in [0, N)."""

    indices: tuple = field(default=())

    def __post_init__(self):
        idx = np.asarray(self.indices)
        # a float would truncate to another index; numpy holds an int past
        # int64 as uint64 or as an object
        kind = idx.dtype.kind
        if idx.size and (kind not in "iu" or (kind == "u" and idx.max() > _INT64_MAX)):
            raise ValueError(f"support indices must be integers that fit in int64, got {idx.dtype} values")
        idx = idx.astype(np.int64)
        if idx.ndim != 1:
            raise ValueError("support indices must be a flat sequence")
        if (idx[1:] <= idx[:-1]).any():
            raise ValueError("support indices must be strictly increasing")
        if idx.size and idx[0] < 0:
            raise ValueError("support indices must be nonnegative")
        SupportSet._from_sorted(idx, self)

    @classmethod
    def _from_sorted(cls, idx, support=None):
        """A support holding `idx`, a strictly increasing nonnegative int64 array no caller keeps, unchecked: only
        for indices derived from checked ones. __post_init__ passes itself as `support` once it has checked."""
        support = object.__new__(cls) if support is None else support
        idx.setflags(write=False)
        object.__setattr__(support, "indices", tuple(idx.tolist()))
        object.__setattr__(support, "_array", idx)
        return support

    def __reduce__(self):
        # rebuild through __init__, so an unpickled support's array is read-only too
        return (SupportSet, (self.indices,))

    @property
    def cardinality(self):
        return len(self.indices)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def as_array(self):
        """The indices as a read-only int64 array."""
        return self._array

    # Python sets, not np.union1d: at a support's size they are faster,
    # and np.union1d's first call imports numpy.ma (about 1.6 MB resident)
    def union(self, other):
        return SupportSet._from_sorted(np.array(sorted(set(self.indices) | set(other.indices)), dtype=np.int64))

    def difference(self, other):
        return SupportSet._from_sorted(np.array(sorted(set(self.indices) - set(other.indices)), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class SparseSignal:
    """A length-N vector, zero off its support; it holds no k, as the k it is read against is a run's."""

    values: np.ndarray
    support: SupportSet

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).copy()
        if values.ndim != 1:
            raise ValueError("signal values must be a 1-d vector")
        if not np.all(np.isfinite(values)):
            raise NonFinite("signal values must be finite")
        if self.support.indices and self.support.indices[-1] >= values.size:
            raise ValueError("support index out of range")
        off = np.ones(values.size, dtype=bool)
        off[self.support.as_array()] = False
        if np.any(values[off] != 0.0):
            raise ValueError("values must be zero off the support")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def _estimate(cls, n, support, values):
        """The length-n signal with `values` on `support`, checking only that they are finite: for an
        estimate whose support the library derived, so each of its indices is below n."""
        if not np.all(np.isfinite(values)):
            raise NonFinite("signal values must be finite")
        dense = np.zeros(n)
        dense[support.as_array()] = values
        dense.setflags(write=False)
        signal = object.__new__(cls)
        vars(signal).update(values=dense, support=support)
        return signal

    def on_support(self):
        return self.values[self.support.as_array()]


def normalize_columns(matrix):
    """Scale every column of `matrix` to unit Euclidean norm.

    Parameters
    ----------
    matrix : array_like, shape (m, N)

    Returns
    -------
    Dictionary

    Raises
    ------
    ZeroColumn
        If any column norm falls below 1e-14.
    NonFinite
        On NaN or Inf entries.
    """
    matrix = _matrix(matrix)
    if not np.all(np.isfinite(matrix)):
        raise NonFinite("input matrix contains NaN or Inf")
    norms = np.linalg.norm(matrix, axis=0)
    small = np.where(norms < ZERO_COLUMN_TOL)[0]
    if small.size:
        raise ZeroColumn(int(small[0]), float(norms[small[0]]))
    return Dictionary._from_atoms(_copy_in_blocks(matrix, norms))


def _cholesky_solve(D, T, y, z):
    """c with G_TT c = D_T^T y, or None unless G_TT - GRAM_EIG_FLOOR I has a Cholesky
    factor, which certifies lambda_min(G_TT) >= GRAM_EIG_FLOOR up to rounding near 1e-14."""
    t = T.as_array()
    g = D._gram[t[:, None], t]
    shifted = g.copy()
    shifted.flat[:: t.size + 1] -= GRAM_EIG_FLOOR
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(g, D.columns(T).T @ y if z is None else z[t])


def least_squares_on_support(D, T, y, z=None):
    """Solve min_c ||y - D_T c||_2.

    Returns the coefficient vector of length |T| (empty T gives an empty
    vector). On a dictionary carrying its Gram (with_gram) the normal
    equations G_TT c = D_T^T y are solved, reading D_T^T y from z = D^T y
    when given, only when G_TT - GRAM_EIG_FLOOR I has a Cholesky factor,
    which certifies lambda_min(G_TT) >= GRAM_EIG_FLOOR. Every other
    support, and every support on a plain dictionary, is solved by
    orthogonal factorization of D_T, which raises RankDeficient when the
    smallest singular value of D_T relative to the largest is below 1e-12,
    or when |T| > m.
    """
    k = T.cardinality
    if k > D.m:
        raise RankDeficient(f"|T| = {k} exceeds measurement dimension m = {D.m}")
    if D._gram is not None:
        coef = _cholesky_solve(D, T, y, z)
        if coef is not None:
            return coef
    sub = D.columns(T)
    coef, _, rank, _ = np.linalg.lstsq(sub, np.asarray(y, dtype=np.float64), rcond=RANK_RCOND)
    if rank < k:
        raise RankDeficient(f"D_T has numerical rank {rank} < |T| = {k}")
    return coef


def top_k_support(v, k):
    """Indices of the k largest-magnitude entries of v.

    Ties are broken toward the lower index, and NaN ranks below every
    number, so the result is np.sort(np.argsort(-np.abs(v), kind="stable")[:k])
    for every input. A partition finds the k-th key in O(N); only keys tied
    at that k-th key need a second pass.
    """
    v = np.asarray(v)
    if not 0 <= k <= v.size:
        raise ValueError(f"need 0 <= k <= {v.size}, got {k}")
    if k == 0:
        return SupportSet(())
    key = -np.abs(v)
    # partition orders keys as sort does, NaN last
    edge = np.partition(key, k - 1)[k - 1]
    chosen = np.flatnonzero(key <= edge)
    if chosen.size != k:
        # keys tied at the edge (or a NaN edge) straddle the cut: keep every
        # key before the edge, then the tied ones from the lowest index up
        if np.isnan(edge):
            tied = np.isnan(key)
            below = ~tied
        else:
            below, tied = key < edge, key == edge
        below[np.flatnonzero(tied)[: k - np.count_nonzero(below)]] = True
        chosen = np.flatnonzero(below)
    return SupportSet._from_sorted(chosen)


def export_dictionary_csv(D, path):
    """Write a dictionary as CSV: header line "m,N", then m row-major rows."""
    with open(path, "w", newline="") as fh:
        fh.write(f"{D.m},{D.n_atoms}\n")
        for row in D.entries:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def import_dictionary_csv(path):
    """Read a dictionary written by export_dictionary_csv; a file that holds no such dictionary raises ValueError naming it."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            try:
                m, n = (int(tok) for tok in header.split(","))
            except ValueError:
                raise ValueError(f"malformed header {header!r}, expected 'm,N'") from None
            entries = np.loadtxt(fh, delimiter=",", ndmin=2)
        if entries.shape != (m, n):
            raise ValueError(f"header says {m}x{n} but body is {entries.shape}")
        return Dictionary(entries)
    except ValueError as exc:  # a UnicodeDecodeError among them
        raise ValueError(f"{path}: {exc}") from None
