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
"""

import enum
import json
import math
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import guarantees, metrics
from .errors import Divergence, IterationBudgetExceeded
from .linalg import (
    Dictionary,
    SparseSignal,
    SupportSet,
    least_squares_on_support,
    top_k_support,
)

DIVERGENCE_FACTOR = 1e6


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


@dataclass(frozen=True)
class PracticalLogRule:
    """Halt after ceil(log2(x_norm / (sqrt(k) sigma))) iterations.

    x_norm defaults to ||y||_2 at solve time, the estimate available to a
    solver that does not know the true signal; pass the true norm for
    bound-faithful runs.
    """

    sigma: float
    x_norm: float | None = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("the log halting rule needs sigma > 0")
        if self.x_norm is not None and self.x_norm <= 0:
            raise ValueError("x_norm must be positive when given")


@dataclass(frozen=True)
class PursuitConfig:
    k: int
    halting: FixedIterations | PracticalLogRule
    max_iterations_cap: int = 100
    trace_enabled: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iterations_cap < 1:
            raise ValueError("iteration cap must be >= 1")
        if isinstance(self.halting, FixedIterations) and self.halting.count > self.max_iterations_cap:
            raise IterationBudgetExceeded(
                f"fixed iteration count {self.halting.count} exceeds cap {self.max_iterations_cap}"
            )


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    support_before: SupportSet
    delta_support: SupportSet | None
    merged_support: SupportSet | None
    pruned_support: SupportSet
    coefficients: np.ndarray
    estimate_values: np.ndarray
    residual_norm: float
    estimate_error: float | None


@dataclass(frozen=True)
class PursuitResult:
    estimate: SparseSignal
    iterations_run: int
    trace: tuple | None
    algorithm: Algorithm


def practical_iteration_count(x_norm_estimate, k, sigma, cap=100):
    """ceil(log2(x_norm / (sqrt(k) sigma))), clamped to [1, cap]."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if x_norm_estimate <= 0:
        return 1
    raw = math.ceil(math.log2(x_norm_estimate / (math.sqrt(k) * sigma)))
    return int(min(max(raw, 1), cap))


def _iterations_for(cfg, y):
    h = cfg.halting
    if isinstance(h, FixedIterations):
        return h.count
    x_norm = h.x_norm if h.x_norm is not None else float(np.linalg.norm(y))
    if x_norm <= 0:
        return 1
    return practical_iteration_count(x_norm, cfg.k, h.sigma, cfg.max_iterations_cap)


def _check_dims(D, k, algorithm):
    order = guarantees.rip_order(algorithm, k)
    if order > D.m:
        raise ValueError(f"{algorithm.value} needs rip order {order} <= m, got k = {k}, m = {D.m}")


def _prune(merged, coef, k):
    """Atom indices of the k largest-magnitude coefficients on `merged`."""
    keep = top_k_support(coef, k).as_array()
    arr = merged.as_array()[keep]
    return SupportSet(tuple(int(i) for i in np.sort(arr))), np.sort(keep)


def _dense(n, support, values):
    x = np.zeros(n)
    x[support.as_array()] = values
    return x


def _error_vs(x_true, n, support, values):
    if x_true is None:
        return None
    return float(np.linalg.norm(x_true.values - _dense(n, support, values)))


# per solver: atoms added each iteration as a multiple of k (None: a unit
# gradient step instead), and whether the pruned support is re-solved
_RULES = {Algorithm.SP: (1, True), Algorithm.COSAMP: (2, False), Algorithm.IHT: (None, False)}


def _pursue(algorithm, D, y, cfg, x_true):
    """The iteration all three solvers share, driven by their _RULES entry."""
    grow, resolve = _RULES[algorithm]
    _check_dims(D, cfg.k, algorithm)
    y = np.asarray(y, dtype=np.float64)
    n_iters = _iterations_for(cfg, y)
    n = D.n_atoms
    y_norm = float(np.linalg.norm(y))
    support = SupportSet(())
    values = np.zeros(0)
    y_r = y
    trace = [] if cfg.trace_enabled else None
    for ell in range(1, n_iters + 1):
        if grow is None:
            x_p = _dense(n, support, values)
            x_p += D.entries.T @ y_r
            pruned = top_k_support(x_p, cfg.k)
            delta_support = merged = None
            coefficients = values = x_p[pruned.as_array()]
            if float(np.linalg.norm(values)) > DIVERGENCE_FACTOR * y_norm:
                raise Divergence(
                    f"iterate norm exceeded {DIVERGENCE_FACTOR:g} * ||y|| at iteration {ell}"
                )
        else:
            delta_support = top_k_support(D.entries.T @ y_r, grow * cfg.k)
            merged = support.union(delta_support)
            coefficients = least_squares_on_support(D, merged, y)
            pruned, kept_positions = _prune(merged, coefficients, cfg.k)
            values = least_squares_on_support(D, pruned, y) if resolve else coefficients[kept_positions]
        y_r = y - D.columns(pruned) @ values
        if trace is not None:
            trace.append(
                IterationRecord(
                    iteration=ell,
                    support_before=support,
                    delta_support=delta_support,
                    merged_support=merged,
                    pruned_support=pruned,
                    coefficients=coefficients,
                    estimate_values=values,
                    residual_norm=float(np.linalg.norm(y_r)),
                    estimate_error=_error_vs(x_true, n, pruned, values),
                )
            )
        support = pruned
    # SP's residual step already solved least squares on the final support
    estimate = SparseSignal(_dense(n, support, values), support, cfg.k)
    return PursuitResult(
        estimate=estimate,
        iterations_run=n_iters,
        trace=tuple(trace) if trace is not None else None,
        algorithm=algorithm,
    )


def subspace_pursuit(D, y, cfg, x_true=None):
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

    Returns
    -------
    PursuitResult
    """
    return _pursue(Algorithm.SP, D, y, cfg, x_true)


def cosamp(D, y, cfg, x_true=None):
    """Recover a k-sparse representation of y by compressive sampling MP.

    Per iteration: pick the 2k atoms most correlated with the residual,
    merge, solve least squares on the merged support, prune to the k largest
    coefficients, and keep those coefficient values as the estimate (no
    re-solve). The residual is y minus the estimate's contribution.
    """
    return _pursue(Algorithm.COSAMP, D, y, cfg, x_true)


def iht(D, y, cfg, x_true=None):
    """Recover a k-sparse representation of y by iterative hard thresholding.

    Per iteration: unit-step gradient update x + D*(y - D x), then keep the
    k largest magnitudes. Raises Divergence when the iterate norm exceeds
    1e6 ||y||_2, which signals that the operator-norm precondition of the
    unit step is violated.
    """
    return _pursue(Algorithm.IHT, D, y, cfg, x_true)


def oracle_estimator(D, y, T):
    """Least squares on the true support; the benchmark every bound targets."""
    coef = least_squares_on_support(D, T, y)
    estimate = SparseSignal(_dense(D.n_atoms, T, coef), T, max(T.cardinality, 1))
    return PursuitResult(estimate=estimate, iterations_run=0, trace=None, algorithm=Algorithm.ORACLE)


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
    noise_mode: metrics.CorrelationMode
    condition_met: bool
    checks: tuple

    @property
    def all_hold(self):
        return all(c.holds for c in self.checks)


def _holds(lhs, rhs):
    # the inequalities are exact in real arithmetic; allow float rounding only
    return bool(lhs <= rhs + 1e-12 * max(1.0, abs(rhs)))


def _restricted_norm(x_true, support):
    idx = support.as_array()
    if idx.size == 0:
        return 0.0
    return float(np.linalg.norm(x_true.values[idx]))


def _bound(a, prev, b, nc):
    # an infinite coefficient (delta past the pole) bounds nothing: +inf, never inf * 0 = nan
    return math.inf if math.inf in (a, b) else a * prev + b * nc


def _sp_checks(records, x_true, merge, prune, composed, nc):
    T = x_true.support
    checks = []
    for r in records:
        miss_prev = _restricted_norm(x_true, T.difference(r.support_before))
        miss_merged = _restricted_norm(x_true, T.difference(r.merged_support))
        miss_pruned = _restricted_norm(x_true, T.difference(r.pruned_support))
        inequalities = (
            ("merged_support_miss", miss_merged, merge, miss_prev),
            ("pruned_support_miss", miss_pruned, prune, miss_merged),
            ("composed_recurrence", miss_pruned, composed, miss_prev),
        )
        for name, lhs, (a, b), prev in inequalities:
            rhs = _bound(a, prev, b, nc)
            checks.append(DiagnosticCheck(r.iteration, name, lhs, rhs, _holds(lhs, rhs)))
    return checks


def _estimate_recurrence_checks(records, x_true, rho, tau, nc, n):
    checks = []
    prev = np.zeros(n)
    for r in records:
        cur = _dense(n, r.pruned_support, r.estimate_values)
        lhs = float(np.linalg.norm(x_true.values - cur))
        rhs = _bound(rho, float(np.linalg.norm(x_true.values - prev)), tau, nc)
        checks.append(
            DiagnosticCheck(r.iteration, "estimate_recurrence", lhs, rhs, _holds(lhs, rhs))
        )
        prev = cur
    return checks


def recurrence_diagnostics(
    trace,
    x_true,
    e,
    D,
    algorithm,
    delta=None,
    noise_correlation=None,
    noise_mode=metrics.CorrelationMode.EXACT,
    budget=metrics.ENUMERATION_BUDGET,
):
    """Check the per-iteration error inequalities against a recorded trace.

    For SP verifies, at every iteration, the merged-support miss bound, the
    pruned-support miss bound, and their composition; for CoSaMP and IHT the
    estimate-error recurrence. `delta` is the constant of order
    guarantees.rip_order(algorithm, k); when omitted it is computed exactly
    by enumeration (subject to `budget`), and the worst-case noise
    correlation is computed in the requested mode. The inequalities are only
    guarantees when the family's condition holds (see condition_met); checks
    are evaluated and reported regardless. Past the SP/CoSaMP pole
    (delta >= 1) every rhs is +inf, so those checks hold vacuously.

    Returns
    -------
    DiagnosticsReport
    """
    algorithm = Algorithm(algorithm) if not isinstance(algorithm, Algorithm) else algorithm
    if algorithm is Algorithm.ORACLE:
        raise ValueError("the oracle estimator has no iteration recurrence")
    if not trace:
        raise ValueError("empty trace; record with trace_enabled=True")
    k = x_true.k
    if delta is None:
        delta = metrics.rip_exact(D, guarantees.rip_order(algorithm, k), budget=budget).delta
    if noise_correlation is None:
        noise_correlation = metrics.worst_case_noise_correlation(D, e, k, mode=noise_mode).value
    nc = float(noise_correlation)
    d = float(delta)
    steps = guarantees.recurrence_coefficients(algorithm, d)
    if algorithm is Algorithm.SP:
        checks = _sp_checks(trace, x_true, *steps, nc)
    else:
        checks = _estimate_recurrence_checks(trace, x_true, *steps[0], nc, D.n_atoms)
    return DiagnosticsReport(
        algorithm=algorithm,
        k=k,
        delta=d,
        noise_correlation=nc,
        noise_mode=noise_mode,
        condition_met=guarantees.condition_check(algorithm.value, d),
        checks=tuple(checks),
    )


def _to_json(value):
    if isinstance(value, SupportSet):
        return list(value.indices)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _support_from_json(lst):
    return SupportSet(tuple(int(i) for i in lst))


def _array_from_json(lst):
    return np.asarray(lst, dtype=np.float64)


# every IterationRecord field, in JSON key order, with the reader for its
# annotated type; a None value reads back as None
_READERS = {SupportSet: _support_from_json, np.ndarray: _array_from_json, int: int, float: float}
_ITERATION_FIELDS = {
    f.name: _READERS[(typing.get_args(f.type) or (f.type,))[0]] for f in fields(IterationRecord)
}


def write_trace(path, result, D, x_true=None, noise=None, sigma=None):
    """Serialize a traced pursuit run as JSON lines.

    The first line is a header with the full problem instance (dictionary,
    ground truth, noise) so diagnostics can replay the file standalone; each
    following line is one iteration.
    """
    if result.trace is None:
        raise ValueError("result has no trace; solve with trace_enabled=True")
    header = {
        "record": "header",
        "algorithm": result.algorithm.value,
        "k": result.estimate.k,
        "m": D.m,
        "n_atoms": D.n_atoms,
        "iterations_run": result.iterations_run,
        "dictionary": D.entries.tolist(),
        "x_true": None
        if x_true is None
        else {
            "values": x_true.values.tolist(),
            "support": _to_json(x_true.support),
            "k": x_true.k,
        },
        "noise": None if noise is None else np.asarray(noise, dtype=np.float64).tolist(),
        "sigma": None if sigma is None else float(sigma),
    }
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(header) + "\n")
        for r in result.trace:
            line = {name: _to_json(getattr(r, name)) for name in _ITERATION_FIELDS}
            fh.write(json.dumps({"record": "iteration", **line}) + "\n")


@dataclass(frozen=True)
class TraceBundle:
    algorithm: Algorithm
    k: int
    dictionary: Dictionary
    records: tuple
    x_true: SparseSignal | None
    noise: np.ndarray | None
    sigma: float | None
    iterations_run: int


def read_trace(path):
    """Load a trace file written by write_trace."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or lines[0].get("record") != "header":
        raise ValueError(f"{path}: missing trace header line")
    h = lines[0]
    D = Dictionary(np.asarray(h["dictionary"], dtype=np.float64))
    x_true = None
    if h["x_true"] is not None:
        x_true = SparseSignal(
            np.asarray(h["x_true"]["values"], dtype=np.float64),
            _support_from_json(h["x_true"]["support"]),
            int(h["x_true"]["k"]),
        )
    records = []
    for obj in lines[1:]:
        if obj.get("record") != "iteration":
            raise ValueError(f"{path}: unexpected record {obj.get('record')!r}")
        values = {name: None if obj[name] is None else read(obj[name]) for name, read in _ITERATION_FIELDS.items()}
        records.append(IterationRecord(**values))
    noise = None if h["noise"] is None else np.asarray(h["noise"], dtype=np.float64)
    return TraceBundle(
        algorithm=Algorithm(h["algorithm"]),
        k=int(h["k"]),
        dictionary=D,
        records=tuple(records),
        x_true=x_true,
        noise=noise,
        sigma=None if h["sigma"] is None else float(h["sigma"]),
        iterations_run=int(h["iterations_run"]),
    )
