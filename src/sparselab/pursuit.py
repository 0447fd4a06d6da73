"""Greedy-like sparse recovery with full iteration traces.

Three solvers share the same skeleton: correlate the residual with the
dictionary, grow a candidate support, estimate coefficients, prune back to k
atoms. They differ in how many atoms they add, whether a merged support is
re-solved, and what the final answer is:

  subspace_pursuit  adds k atoms, re-solves least squares on the pruned
                    support each iteration and for the final answer;
  cosamp            adds 2k atoms, keeps the pruned coefficients as they are
                    (no re-solve), final answer is the last pruned vector;
  iht               takes a unit gradient step and hard-thresholds.

One loop runs all three, driven by a per-solver table of those choices.
The asymmetry between the SP and CoSaMP final steps is deliberate.
recurrence_diagnostics replays a trace against the per-iteration error
inequalities that drive each solver's accuracy guarantee.

Each solver takes z = D^T y, its first correlation, as a keyword when the
caller already has it. On a dictionary that carries its Gram matrix
(Dictionary.with_gram) every later correlation is taken from G, forming no
residual, and every least squares on a support T where G_TT - GRAM_EIG_FLOOR I
has a Cholesky factor is solved from the normal equations G_TT c = z_T, so
the results can differ from the plain dictionary's in the last bits: IHT's
values, SP's and CoSaMP's coefficients, and in principle the atoms at a tie.
"""

import enum
import math
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from . import guarantees, metrics
from .errors import Divergence, NonFinite
from .linalg import (
    Dictionary,
    SparseSignal,
    SupportSet,
    least_squares_on_support,
    top_k_support,
)

DIVERGENCE_FACTOR = 1e6
# no halting rule runs more iterations than this
MAX_ITERATIONS = 100


class Algorithm(enum.Enum):
    SP = "sp"
    COSAMP = "cosamp"
    IHT = "iht"
    ORACLE = "oracle"


@dataclass(frozen=True)
class FixedIterations:
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("iteration count must be >= 1")
        if self.count > MAX_ITERATIONS:
            raise ValueError(f"fixed iteration count {self.count} exceeds cap {MAX_ITERATIONS}")

    def iterations(self, y_norm, k):
        return self.count


@dataclass(frozen=True)
class PracticalLogRule:
    """Halt after ceil(log2(||y||_2 / (sqrt(k) sigma))) iterations.

    ||y||_2 stands in for the norm of the signal, the estimate available to
    a solver that does not know the true signal.
    """

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"the log halting rule needs sigma > 0, got {self.sigma!r}")

    def iterations(self, y_norm, k):
        """The count above, clamped to [1, MAX_ITERATIONS]; a non-finite y_norm raises NonFinite."""
        if not math.isfinite(y_norm):
            raise NonFinite(f"signal norm estimate {y_norm!r} is not finite")
        if y_norm <= 0:
            return 1
        # a ratio past the float range (sigma near the smallest subnormal) takes the cap, never ceil(inf)
        raw = min(math.log2(y_norm / (math.sqrt(k) * self.sigma)), MAX_ITERATIONS)
        return int(max(math.ceil(raw), 1))


@dataclass(frozen=True)
class PursuitConfig:
    k: int
    halting: FixedIterations | PracticalLogRule

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True, eq=False)
class IterationRecord:
    """One iteration, numbered by its 1-based position in the trace; the support before it is
    the previous record's pruned_support (empty for the first). SP and CoSaMP add delta_support
    and prune a least-squares solve on the merged support, the support before united with it; IHT
    adds none (None). A trace stores neither the merged support nor estimate_error (None without x_true)."""

    delta_support: SupportSet | None
    pruned_support: SupportSet
    estimate_values: np.ndarray
    estimate_error: float | None


@dataclass(frozen=True, eq=False)
class PursuitResult:
    estimate: SparseSignal
    trace: tuple
    algorithm: Algorithm

    @property
    def iterations_run(self):
        return len(self.trace)


def _check_dims(D, k, algorithm):
    order = guarantees.rip_order(algorithm, k)
    if order > D.m:
        raise ValueError(f"{algorithm.value} needs rip order {order} <= m, got k = {k}, m = {D.m}")


def _prune(merged, coef, k):
    """Atom indices of the k largest-magnitude coefficients on `merged`."""
    keep = top_k_support(coef, k).as_array()
    # keep and merged are both sorted, so merged[keep] is too
    return SupportSet._from_sorted(merged.as_array()[keep]), keep


def _error_vs(x_true, support, values):
    diff = x_true.values.copy()
    diff[support.as_array()] -= values
    return float(np.linalg.norm(diff))


# per solver: atoms added each iteration as a multiple of k (None: a unit
# gradient step instead), and whether the pruned support is re-solved
_RULES = {Algorithm.SP: (1, True), Algorithm.COSAMP: (2, False), Algorithm.IHT: (None, False)}


def _pursue(algorithm, D, y, cfg, x_true, z):
    """The iteration all three solvers share, driven by their _RULES entry; z is D^T y or None."""
    grow, resolve = _RULES[algorithm]
    _check_dims(D, cfg.k, algorithm)
    y = np.asarray(y, dtype=np.float64)
    z = None if z is None else np.asarray(z, dtype=np.float64)
    for name, v, n in (("measurements y", y, D.m), ("z = D^T y", z, D.n_atoms)):
        if v is not None and v.shape != (n,):
            raise ValueError(f"{name} must be of shape ({n},), got {v.shape}")
        if v is not None and not np.all(np.isfinite(v)):
            raise NonFinite(f"{name} must be finite")
    with np.errstate(over="ignore"):
        y_norm = float(np.linalg.norm(y))
    if math.isinf(y_norm):  # the plain norm squares each entry, so past about 1e154 scale y first
        y_norm = float(np.max(np.abs(y))) * float(np.linalg.norm(y / np.max(np.abs(y))))
    n_iters = cfg.halting.iterations(y_norm, cfg.k)
    support = SupportSet(())
    values = np.zeros(0)
    # D^T y is also the first iteration's correlation, with the residual y
    z = corr = D.entries.T @ y if z is None else z
    trace = []
    for ell in range(1, n_iters + 1):
        if ell > 1:
            corr = D.residual_correlation(y, z, support, values)
        if grow is None:
            x_p = corr.copy()
            x_p[support.as_array()] += values
            pruned = top_k_support(x_p, cfg.k)
            delta_support = None
            values = x_p[pruned.as_array()]
            if float(np.linalg.norm(values)) > DIVERGENCE_FACTOR * y_norm:
                raise Divergence(
                    f"iterate norm exceeded {DIVERGENCE_FACTOR:g} * ||y|| at iteration {ell}"
                )
        else:
            delta_support = top_k_support(corr, grow * cfg.k)
            merged = support.union(delta_support)
            coef = least_squares_on_support(D, merged, y, z)
            pruned, kept_positions = _prune(merged, coef, cfg.k)
            values = least_squares_on_support(D, pruned, y, z) if resolve else coef[kept_positions]
        trace.append(
            IterationRecord(
                delta_support=delta_support,
                pruned_support=pruned,
                estimate_values=values,
                estimate_error=None if x_true is None else _error_vs(x_true, pruned, values),
            )
        )
        support = pruned
    # SP's residual step already solved least squares on the final support
    return PursuitResult(
        estimate=SparseSignal._estimate(D.n_atoms, support, values),
        trace=tuple(trace),
        algorithm=algorithm,
    )


def subspace_pursuit(D, y, cfg, x_true=None, *, z=None):
    """Recover a k-sparse representation of y by subspace pursuit.

    Per iteration: pick the k atoms most correlated with the residual, merge
    with the current support, solve least squares on the merged support,
    prune to the k largest coefficients, and recompute the residual by
    projecting onto the pruned support. The final answer re-solves least
    squares on the last support.

    Parameters
    ----------
    D : Dictionary
    y : array_like, shape (m,)
    cfg : PursuitConfig
    x_true : SparseSignal, optional
        Ground truth; when given, traces carry the per-iteration error.
    z : ndarray, shape (N,), optional
        D^T y when the caller already has it.

    Returns
    -------
    PursuitResult
    """
    return _pursue(Algorithm.SP, D, y, cfg, x_true, z)


def cosamp(D, y, cfg, x_true=None, *, z=None):
    """Recover a k-sparse representation of y by compressive sampling MP.

    Per iteration: pick the 2k atoms most correlated with the residual,
    merge, solve least squares on the merged support, prune to the k largest
    coefficients, and keep those coefficient values as the estimate (no
    re-solve). The residual is y minus the estimate's contribution. z is
    D^T y when the caller already has it.
    """
    return _pursue(Algorithm.COSAMP, D, y, cfg, x_true, z)


def iht(D, y, cfg, x_true=None, *, z=None):
    """Recover a k-sparse representation of y by iterative hard thresholding.

    Per iteration: unit-step gradient update x + D*(y - D x), then keep the
    k largest magnitudes. Raises Divergence when the iterate norm exceeds
    1e6 ||y||_2, which signals that the operator-norm precondition of the
    unit step is violated. z is D^T y when the caller already has it.
    """
    return _pursue(Algorithm.IHT, D, y, cfg, x_true, z)


def oracle_estimator(D, y, T):
    """Least squares on the true support; the benchmark every bound targets."""
    coef = least_squares_on_support(D, T, y)
    estimate = SparseSignal._estimate(D.n_atoms, T, coef)
    return PursuitResult(estimate=estimate, trace=(), algorithm=Algorithm.ORACLE)


@dataclass(frozen=True)
class DiagnosticCheck:
    iteration: int
    name: str
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class DiagnosticsReport:
    algorithm: Algorithm
    k: int
    delta: float
    noise_correlation: float
    condition_met: bool
    checks: tuple

    @property
    def all_hold(self):
        return all(c.holds for c in self.checks)


def _holds(lhs, rhs):
    # the inequalities are exact in real arithmetic; allow float rounding only
    return bool(lhs <= rhs + 1e-12 * max(1.0, abs(rhs)))


def _bound(a, prev, b, nc):
    # an infinite coefficient (delta past the pole) bounds nothing: +inf, never inf * 0 = nan
    return math.inf if math.inf in (a, b) else a * prev + b * nc


def recurrence_diagnostics(
    trace,
    x_true,
    e,
    D,
    algorithm,
    delta=None,
    noise_correlation=None,
    budget=metrics.ENUMERATION_BUDGET,
):
    """Check the per-iteration error inequalities against a recorded trace.

    For SP verifies, at every iteration, the merged-support miss bound, the pruned-support miss bound, and
    their composition; for CoSaMP and IHT the estimate-error recurrence. k is the run's: the number of atoms
    the records prune to. A run that breaks a rule write_trace and read_trace hold a trace to, or a negative or
    non-finite noise correlation, raises ValueError naming the field. `delta` is the constant of order
    guarantees.rip_order(algorithm, k); when omitted it is computed exactly by enumeration (subject to
    `budget`), and an omitted noise correlation is the exact worst case, max over |T| = k of ||D_T* e||_2.
    The inequalities are only guarantees when the family's condition holds (see condition_met); checks are
    evaluated and reported regardless. Past the SP/CoSaMP pole (delta >= 1) every rhs is +inf, so those
    checks hold vacuously. Iteration i is the trace's i-th record, the iterate before the first is the empty
    support with value 0, and each merged support is derived from delta_support, so a slice such as
    res.trace[2:] reads exactly as a trace that started from zero.

    Returns
    -------
    DiagnosticsReport
    """
    algorithm = Algorithm(algorithm)
    k = _check_run(algorithm, D, x_true, e, None, trace, lambda name, message: ValueError(message if name is None else f"{name}: {message}"))
    if noise_correlation is None:
        noise_correlation = metrics.worst_case_noise_correlation(D, e, k).value
    nc = float(noise_correlation)
    guarantees._check_noise_correlation(nc)
    if delta is None:
        delta = metrics.rip_exact(D, guarantees.rip_order(algorithm, k), budget=budget).delta
    d = float(delta)
    steps = guarantees.recurrence_coefficients(algorithm, d)

    def miss(support):
        return float(np.linalg.norm(x_true.values[x_true.support.difference(support).as_array()]))

    checks = []
    before = SupportSet(()), np.zeros(0)
    for ell, r in enumerate(trace, start=1):
        if algorithm is Algorithm.SP:
            merged = before[0].union(r.delta_support)
            miss_prev, miss_merged, miss_pruned = map(miss, (before[0], merged, r.pruned_support))
            merge, prune, composed = steps
            inequalities = (
                ("merged_support_miss", miss_merged, merge, miss_prev),
                ("pruned_support_miss", miss_pruned, prune, miss_merged),
                ("composed_recurrence", miss_pruned, composed, miss_prev),
            )
        else:
            err = _error_vs(x_true, r.pruned_support, r.estimate_values)
            inequalities = (("estimate_recurrence", err, steps[0], _error_vs(x_true, *before)),)
        for name, lhs, (a, b), prev in inequalities:
            rhs = _bound(a, prev, b, nc)
            checks.append(DiagnosticCheck(ell, name, lhs, rhs, _holds(lhs, rhs)))
        before = r.pruned_support, r.estimate_values
    return DiagnosticsReport(
        algorithm=algorithm,
        k=k,
        delta=d,
        noise_correlation=nc,
        condition_met=guarantees.condition_check(algorithm.value, d),
        checks=tuple(checks),
    )


def _check_run(algorithm, D, x_true, noise, sigma, records, fault):
    """The run's k, the atom count of record 1 (iteration 1), or fault(field or None, message) raised at the first
    rule the run breaks: write_trace, read_trace and recurrence_diagnostics hold a run to these rules alone."""
    if algorithm not in _RULES:
        raise fault("algorithm", f"{algorithm.value} runs no iterations")
    if not records:
        raise fault(None, "the trace has no iterations")
    k = len(records[0].pruned_support)
    for name, values, size in (("x_true.values", x_true.values, D.n_atoms), ("noise", noise, D.m)):
        if len(values) != size:
            raise fault(name, f"holds {len(values)} values, expected {size}")
    if not np.isfinite(noise).all():
        raise fault("noise", "holds a value that is not finite")
    if len(x_true.support) > k:
        raise fault("x_true.support", f"holds {len(x_true.support)} atoms, more than k = {k}")
    grow = _RULES[algorithm][0]
    widths = {"delta_support": (grow or 0) * k, "pruned_support": k, "estimate_values": k}
    for i, r in enumerate(records, start=1):
        if (r.delta_support is None) != (grow is None):
            raise fault("delta_support", f"{algorithm.value} iteration {i} must hold {'None' if grow is None else 'its added atoms'}")
        for name, size in widths.items():
            held = getattr(r, name)
            if held is not None and len(held) != size:
                raise fault(name, f"iteration {i} holds {len(held)} entries, expected {size}")
            if isinstance(held, SupportSet) and held and held.indices[-1] >= D.n_atoms:
                raise fault(name, f"index {held.indices[-1]} is not below n_atoms = {D.n_atoms}")
    finite = np.isfinite(np.array([r.estimate_values for r in records], dtype=np.float64)).all(axis=1)
    if not finite.all():
        raise fault("estimate_values", f"iteration {np.argmin(finite) + 1} holds a value that is not finite")
    if sigma is not None and not 0 <= sigma < math.inf:
        raise fault("sigma", f"must be finite and nonnegative, got {sigma!r}")
    return k


def _file_fault(path):
    return lambda name, message: ValueError(f"{path}: {message}" if name is None else f"{path}: field {name!r}: {message}")


def write_trace(path, result, D, x_true, noise, sigma=None):
    """Save a traced pursuit run at `path`, as given, as one uncompressed .npz archive of named arrays.

    It holds the whole problem (dictionary, ground truth, noise), so diagnostics can replay the file alone, and
    each stored record field as one row per iteration, so k, m, N and the iteration numbers are shapes and row
    order. Every array reads back bit-exact. A trace read_trace would reject raises before the file is opened.
    """
    sigma = None if sigma is None else float(sigma)
    noise = np.asarray(noise, dtype=np.float64)
    _check_run(result.algorithm, D, x_true, noise, sigma, result.trace, _file_fault(path))
    trace = result.trace
    arrays = {
        "algorithm": result.algorithm.value,
        "sigma": sigma,
        "dictionary": D.entries,
        "x_true.values": x_true.values,
        "x_true.support": x_true.support.as_array(),
        "noise": noise,
        "pruned_support": np.array([r.pruned_support.as_array() for r in trace]),
        "estimate_values": np.array([r.estimate_values for r in trace], dtype=np.float64),
        "delta_support": None if trace[0].delta_support is None else np.array([r.delta_support.as_array() for r in trace]),
    }
    # np.savez appends .npz to a path that lacks it, so it writes to an open file
    with open(path, "wb") as fh:
        np.savez(fh, **{name: a for name, a in arrays.items() if a is not None})


@dataclass(frozen=True, eq=False)
class TraceBundle:
    algorithm: Algorithm
    k: int
    dictionary: Dictionary
    records: tuple
    x_true: SparseSignal
    noise: np.ndarray
    sigma: float | None

    @property
    def iterations_run(self):
        return len(self.records)


def read_trace(path):
    """Load a trace written by write_trace, without pickle, building each part through its checked constructor.

    k is the number of atoms each record prunes to (x_true may hold fewer), and each estimate_error is computed
    from x_true as the solver does. A file that is no such archive (an older JSON-lines trace, a bare .npy, a
    truncated file), a missing or unreadable array (say, of an unknown compression method, or a declared shape too
    large to allocate), one of the wrong dtype or ndim, and any fault write_trace refuses raise ValueError naming
    the file and the field.
    """
    fault = _file_fault(path)
    try:
        archive = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise fault(None, "not a trace archive") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise fault(None, "not a trace archive: it holds one bare array")
    with archive:

        def field(name, dtype, ndim, make=np.asarray):
            """Array `name`, of `dtype` with `ndim` dimensions, through `make`; a fault names the file and field."""
            if name not in archive.files:
                raise ValueError(f"{path}: missing field {name!r}")
            try:
                a = archive[name]
                if not (isinstance(a, np.ndarray) and np.issubdtype(a.dtype, dtype) and a.ndim == ndim):
                    got = f"a {a.ndim}-d {a.dtype} array" if isinstance(a, np.ndarray) else type(a).__name__
                    raise ValueError(f"expected a {ndim}-d {np.dtype(dtype).name} array, got {got}")
                return make(a)
            except (ValueError, NonFinite, zipfile.BadZipFile, NotImplementedError, OSError, MemoryError) as exc:
                raise fault(name, exc) from None

        algorithm = field("algorithm", np.str_, 0, lambda a: Algorithm(a.item()))
        dictionary = field("dictionary", np.float64, 2, Dictionary)
        support = field("x_true.support", np.int64, 1, SupportSet)
        x = field("x_true.values", np.float64, 1, lambda values: SparseSignal(values, support))
        noise = field("noise", np.float64, 1)
        sigma = field("sigma", np.float64, 0, float) if "sigma" in archive.files else None
        pruned = field("pruned_support", np.int64, 2, lambda rows: list(map(SupportSet, rows)))
        values = field("estimate_values", np.float64, 2, list)
        delta = [None] * len(pruned)
        if "delta_support" in archive.files:
            delta = field("delta_support", np.int64, 2, lambda rows: list(map(SupportSet, rows)))
    for name, rows in (("estimate_values", values), ("delta_support", delta)):
        if len(rows) != len(pruned):
            raise fault(name, f"holds {len(rows)} iterations, pruned_support {len(pruned)}")
    records = [IterationRecord(d, p, v, None) for d, p, v in zip(delta, pruned, values)]
    k = _check_run(algorithm, dictionary, x, noise, sigma, records, fault)
    records = tuple(replace(r, estimate_error=_error_vs(x, r.pruned_support, r.estimate_values)) for r in records)
    return TraceBundle(algorithm, k, dictionary, records, x, noise, sigma)
