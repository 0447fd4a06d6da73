"""Dictionary quality measures.

Mutual coherence, restricted-isometry constants (exact by enumeration or a
sampled lower bound), and the worst-case correlation of a dictionary with a
noise vector. The isometry defect of a support T is

    delta_T = max(lambda_max(G_T) - 1, 1 - lambda_min(G_T)),

the spectral deviation of the Gram submatrix G_T from the identity, and the
order-k constant is the maximum of delta_T over all supports of size k.

Exact enumeration is best-bound-first. The Gershgorin bound of a support,
the largest row sum of |G_T - I| with the diagonal residue included, caps
delta_T. Within each chunk of supports the ones whose bound can still beat
the running maximum are gathered in falling bound order, and the rest of the
chunk is skipped as soon as the next bound cannot. A gathered block A goes to
the eigensolver only if the far tighter bound sqrt(max row sum of |A^2|),
from rho(A)^2 = rho(A^2), can beat the maximum too. For k >= 3 a
support is split into a prefix P (its k - 2 smallest atoms) and a pair a < b
above P, so its row sums follow in O(k) from the prefix's own row sums, its
column sums over P and |E_ab|; support indices are built only for the
supports that reach the eigensolver.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NonFinite
from .linalg import SupportSet, top_k_support

ENUMERATION_BUDGET = 2 * 10**6

# per-chunk gather budget in matrix elements (32 MB of float64); keeps
# memory flat for large k
_CHUNK_ELEMENTS = 4 * 10**6

# slack on the pruning test, so float rounding in a bound never drops the argmax
_BOUND_SLACK = 1e-9

# gathered-block batch sizes of a chunk: the first, doubling up to
# _BATCH_ELEMENTS // k**2 blocks (2 MB of float64 per gather); a chunk of
# sampled supports holds at most _BATCH_ELEMENTS // k**2 of them
_FIRST_BATCH = 256
_BATCH_ELEMENTS = 2**18


@dataclass(frozen=True)
class RipEstimate:
    k: int
    delta: float
    method: str  # "exact_enumeration" or "monte_carlo_lower_bound"
    supports_checked: int
    seed: int | None = None


@dataclass(frozen=True)
class NoiseCorrelation:
    k: int
    value: float
    argmax_support: SupportSet


def mutual_coherence(D):
    """Largest absolute inner product between distinct columns of D."""
    if D.n_atoms < 2:
        raise ValueError("coherence needs at least two atoms")
    g = np.abs(D.gram())
    np.fill_diagonal(g, 0.0)
    return float(g.max())


def _deviation_matrix(D):
    """Gram matrix minus identity; diagonal keeps the tiny normalization residue."""
    E = D.gram()
    E[np.diag_indices_from(E)] -= 1.0
    return E


def _support_deltas(E, idx):
    """Isometry defect of each support row in idx, via batched eigenvalues."""
    return _block_deltas(E[idx[:, :, None], idx[:, None, :]])


def _block_deltas(sub):
    """Spectral radius of each symmetric block E_T; per block, so independent of the batch."""
    w = np.linalg.eigvalsh(sub)
    return np.maximum(w[:, -1], -w[:, 0])


def _square_bounds(sub):
    """Upper bound on the spectral radius of each symmetric block A: rho(A)^2 = rho(A^2) <= max row sum of |A^2|."""
    square = sub @ sub
    return np.sqrt(np.abs(square, out=square).sum(axis=2).max(axis=1))


def _combination_chunks(n, k, chunk):
    it = itertools.combinations(range(n), k)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(it, chunk)), dtype=np.int64
        )
        if flat.size == 0:
            return
        yield flat.reshape(-1, k)


def _chunk_rows(k):
    return max(1024, _CHUNK_ELEMENTS // (k * k))


def _best_first(E, bound, supports, best, k):
    """Raise `best` over candidate supports, evaluated in falling bound order.

    `supports(sel)` builds the sorted support rows of candidate positions
    `sel`. Evaluation stops once the next bound cannot beat `best`; of each
    gathered batch, the eigensolver sees only the blocks whose squared bound
    can beat it.
    """
    order = np.argsort(-bound, kind="stable")
    falling = -bound[order]
    pos, size, cap = 0, _FIRST_BATCH, max(_FIRST_BATCH, _BATCH_ELEMENTS // (k * k))
    while pos < order.size:
        # candidates that can still win: bound > best - slack
        stop = min(int(np.searchsorted(falling, -(best - _BOUND_SLACK))), pos + size)
        if stop <= pos:
            break
        idx = supports(order[pos:stop])
        sub = E[idx[:, :, None], idx[:, None, :]]
        # the squared-block bound is far tighter than Gershgorin's, so few
        # blocks of a batch reach the eigensolver
        sub = sub[_square_bounds(sub) > best - _BOUND_SLACK]
        if len(sub):
            best = max(best, float(_block_deltas(sub).max()))
        pos = stop
        size = min(2 * size, cap)
    return best


def _prefix_chunks(n, p, rows):
    """Lexicographic size-p prefixes of supports of size p + 2, in chunks.

    A prefix's largest atom m is at most n - 3, and it heads C(n - 1 - m, 2)
    supports. A chunk heads at most `rows` supports (or is one prefix), and
    its (p, c, n) row gather stays within _CHUNK_ELEMENTS // 8 elements.
    """
    pairs_above = np.array([math.comb(n - 1 - m, 2) for m in range(n - 2)])
    for block in _combination_chunks(n - 2, p, max(1, _CHUNK_ELEMENTS // (8 * p * n))):
        ends = np.cumsum(pairs_above[block[:, -1]])
        start = 0
        while start < len(block):
            done = ends[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + rows, side="right")))
            yield block[start:stop]
            start = stop


def _pair_candidates(absE, prefixes, floor):
    """Supports P + (a, b), max(P) < a < b, whose Gershgorin bound exceeds `floor`.

    Each row sum of |E_T| follows from the prefix: the row of an atom of P
    is its row sum over P plus |E| to a and to b, and the row of a is its
    column sum over P plus |E_aa| and |E_ab| (b alike). Returns the
    candidates' bounds and a function building the sorted supports of
    chosen candidates.
    """
    n = absE.shape[0]
    prefixes = prefixes[np.argsort(prefixes[:, -1], kind="stable")]
    last = prefixes[:, -1]
    rows = absE[prefixes.T]  # (p, c, n)
    own = absE[prefixes[:, :, None], prefixes[:, None, :]].sum(axis=2).T  # (p, c)
    col = rows.sum(axis=0) + np.diagonal(absE)  # (c, n), diagonal residue included
    found = []
    for a in range(int(last[0]) + 1, n - 1):
        c = int(np.searchsorted(last, a))  # prefixes whose atoms all lie below a
        bound = np.maximum(col[:c, a, None], col[:c, a + 1 :]) + absE[a, a + 1 :]
        for i in range(len(rows)):
            np.maximum(bound, (own[i, :c] + rows[i, :c, a])[:, None] + rows[i, :c, a + 1 :], out=bound)
        x, b = np.nonzero(bound > floor)
        found.append((bound[x, b], x, np.full(x.size, a), b + (a + 1)))
    bound, x, a, b = (np.concatenate(parts) for parts in zip(*found))
    return bound, lambda sel: np.column_stack((prefixes[x[sel]], a[sel], b[sel]))


def rip_exact(D, k, budget=ENUMERATION_BUDGET):
    """Exact order-k restricted-isometry constant by support enumeration.

    Every one of the C(N, k) supports is accounted for, best-bound-first.
    The Gershgorin bound of a support (the largest row sum of |G_T - I|,
    diagonal residue included) is a rigorous upper bound on the spectral
    radius of G_T - I, that is on delta_T. In each chunk of supports, the
    ones whose bound can beat the running maximum are gathered in falling
    bound order, in batches; the rest of the chunk is skipped once the next
    bound cannot beat it. Of a gathered batch, only the blocks whose squared
    bound (see _square_bounds) can beat the maximum reach the eigensolver.
    So the returned
    maximum is exact, and bit-equal to a full enumeration: every evaluated
    block is gathered as E[T, T] for sorted T.

    For k >= 3 the supports are grouped by their prefix P of k - 2 smallest
    atoms, and a support P + (a, b) gets its row sums in O(k) from the
    prefix's own row sums, its column sums over P and |E_ab|. Supports of
    order k <= 2 are enumerated directly.

    Parameters
    ----------
    D : Dictionary
    k : int, 1 <= k <= N
    budget : int or None
        Maximum C(N, k) accepted; None disables the check.

    Raises
    ------
    BudgetExceeded
        When C(N, k) exceeds `budget` (use rip_monte_carlo instead).
    """
    n = D.n_atoms
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    total = math.comb(n, k)
    if budget is not None and total > budget:
        raise BudgetExceeded(
            f"C({n},{k}) = {total} supports exceeds budget {budget}; "
            "use rip_monte_carlo or raise the budget"
        )
    E = _deviation_matrix(D)
    absE = np.abs(E)
    best = 0.0
    if k <= 2:
        for idx in _combination_chunks(n, k, _chunk_rows(k)):
            bound = absE[idx[:, :, None], idx[:, None, :]].sum(axis=2).max(axis=1)
            keep = np.flatnonzero(bound > best - _BOUND_SLACK)
            best = _best_first(E, bound[keep], lambda sel: idx[keep[sel]], best, k)
    else:
        for prefixes in _prefix_chunks(n, k - 2, _chunk_rows(k)):
            bound, supports = _pair_candidates(absE, prefixes, best - _BOUND_SLACK)
            best = _best_first(E, bound, supports, best, k)
    return RipEstimate(k=k, delta=best, method="exact_enumeration", supports_checked=total)


def rip_monte_carlo(D, k, trials, seed):
    """Lower bound on the order-k constant from uniformly sampled supports.

    Evaluates the same per-support defect as rip_exact on `trials` supports
    drawn uniformly (with replacement) from all size-k subsets; the result
    never exceeds the exact constant. Deterministic given `seed`. A chunk
    holds at most _BATCH_ELEMENTS // k**2 supports, which bounds the gather;
    the generator reads its stream in order, so the chunk size leaves the
    result bit-equal.
    """
    n = D.n_atoms
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    E = _deviation_matrix(D)
    best = 0.0
    left = trials
    chunk = min(_chunk_rows(k), max(1, _CHUNK_ELEMENTS // (8 * n)), max(1, _BATCH_ELEMENTS // (k * k)))
    while left > 0:
        b = min(chunk, left)
        keys = rng.random((b, n))
        idx = np.argpartition(keys, kth=k - 1, axis=1)[:, :k]
        idx.sort(axis=1)
        best = max(best, float(_support_deltas(E, idx).max()))
        left -= b
    return RipEstimate(
        k=k,
        delta=best,
        method="monte_carlo_lower_bound",
        supports_checked=trials,
        seed=seed,
    )


def worst_case_noise_correlation(D, e, k, use_enumeration=False):
    """Worst correlation of any size-k column subset with the vector e.

    Returns max over |T| = k of ||D_T* e||_2 together with the maximizing
    support. The maximizer is the set of k largest |<d_i, e>|, so the
    default path sorts squared correlations instead of enumerating; pass
    use_enumeration=True to force the brute-force oracle (subject to
    ENUMERATION_BUDGET).
    """
    e = np.asarray(e, dtype=np.float64)
    if not np.all(np.isfinite(e)):
        raise NonFinite("noise vector must be finite")
    n = D.n_atoms
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got {k}")
    corr = D.entries.T @ e
    if k == 0:
        return NoiseCorrelation(k=0, value=0.0, argmax_support=SupportSet(()))
    if not use_enumeration:
        support = top_k_support(corr, k)
        value = float(np.linalg.norm(corr[support.as_array()]))
        return NoiseCorrelation(k=k, value=value, argmax_support=support)
    total = math.comb(n, k)
    if total > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"C({n},{k}) = {total} supports exceeds budget {ENUMERATION_BUDGET}")
    sq = corr**2
    best = -1.0
    best_support = None
    for idx in _combination_chunks(n, k, _chunk_rows(k)):
        sums = sq[idx].sum(axis=1)
        pos = int(np.argmax(sums))
        # strict comparison keeps the first maximizer in combination order
        if float(sums[pos]) > best:
            best = float(sums[pos])
            best_support = SupportSet(idx[pos])
    return NoiseCorrelation(k=k, value=math.sqrt(best), argmax_support=best_support)
