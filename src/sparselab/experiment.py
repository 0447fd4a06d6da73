"""Seeded Monte-Carlo benchmark harness.

Generates a random dictionary and spike signals, runs the requested solvers
across a cartesian sweep of sparsity levels and noise powers, and aggregates
squared errors against the theoretical bounds and the oracle estimator.

Reproducibility contract: every trial derives its own generator from a
cryptographic digest of (root seed, k, sigma, trial index), so any single
trial can be re-run in isolation and results are byte-identical regardless
of how trials are scheduled across workers. Re-running trial i of a sweep
is run_trial(D, k, sigma, algorithms, trial_seed(seed, k, sigma, i)) on
generate_dictionary(m, n_atoms, dictionary_seed(seed)).

A pooled sweep computes each (algorithm, k) delta as a pool task, queued
ahead of the trials. A sampled delta (delta_mode = monte_carlo) reads only
the dictionary and its own seed, so it has the same bytes at any worker count.
"""

import hashlib
import json
import math
import multiprocessing
import typing
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import guarantees
from .errors import ConfigError, SparseLabError
from .linalg import SparseSignal, SupportSet, normalize_columns
from .metrics import rip_monte_carlo
from .pursuit import (
    Algorithm,
    FixedIterations,
    PracticalLogRule,
    PursuitConfig,
    cosamp,
    iht,
    oracle_estimator,
    subspace_pursuit,
)

_SOLVERS = {Algorithm.SP: subspace_pursuit, Algorithm.COSAMP: cosamp, Algorithm.IHT: iht}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep's settings, checked on construction; the fields are the config file's keys."""

    m: int
    n_atoms: int
    k_values: tuple[int, ...]
    sigma_values: tuple[float, ...]
    trials_per_point: int
    seed: int
    algorithms: tuple[Algorithm, ...]
    a: float = 1.0
    halting: str = "practical"
    workers: int = 1
    delta_mode: str = "threshold"
    delta_mc_trials: int = 2000

    def __post_init__(self):
        if self.m < 1 or self.n_atoms < self.m:
            raise ConfigError(f"need 1 <= m <= n_atoms, got m={self.m}, n_atoms={self.n_atoms}")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ConfigError("k_values must be a nonempty list of positive integers")
        if len(set(self.k_values)) != len(self.k_values):
            raise ConfigError("k_values has duplicate entries")
        kmax = max(self.k_values)
        # k sigma^2 is the oracle MSE, the scale of every squared error and bound the sweep reports
        if not self.sigma_values or not all(s >= 0 and math.isfinite(kmax * s * s) for s in self.sigma_values):
            raise ConfigError("sigma_values must be a nonempty list of finite nonnegative reals, with max(k) * sigma**2 finite")
        if len(set(self.sigma_values)) != len(self.sigma_values):
            raise ConfigError("sigma_values has duplicate entries")
        if self.trials_per_point < 1:
            raise ConfigError("trials_per_point must be >= 1")
        if not self.algorithms:
            raise ConfigError("algorithms list is empty")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError("algorithms has duplicate entries")
        if not (math.isfinite(self.a) and self.a > 0) or guarantees.power_overflows(self.n_atoms, self.a):
            raise ConfigError("probability exponent a must be positive and finite, with n_atoms**a finite")
        order = max(guarantees.rip_order(alg, kmax) for alg in self.algorithms)
        if order > self.m:
            names = "/".join(alg.value for alg in Algorithm if guarantees.rip_order(alg, kmax) == order)
            raise ConfigError(f"rip order {order} of {names} exceeds m = {self.m} (max(k) = {kmax})")
        for sigma in self.sigma_values:
            _halting_rule(self.halting, sigma)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.delta_mode not in ("threshold", "monte_carlo"):
            raise ConfigError(f"unknown delta_mode {self.delta_mode!r}")
        if self.delta_mc_trials < 1:
            raise ConfigError("delta_mc_trials must be >= 1")


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int | None
    k: int
    sigma: float
    algorithm: str
    squared_error: float
    oracle_squared_error: float
    support_recovered: bool
    iterations_run: int
    error: str | None = None


@dataclass(frozen=True)
class AggregateRow:
    k: int
    sigma: float
    algorithm: str
    trials: int
    mse: float
    median_se: float
    p99_se: float
    oracle_mse: float
    prob_bound: float
    bound_violation_rate: float
    condition_met: bool


CSV_COLUMNS = tuple(f.name for f in fields(AggregateRow))
_TRIAL_FIELDS = tuple(f.name for f in fields(TrialRecord))


def _halting_rule(spec, sigma):
    """The halting rule a spec names at noise level sigma: 'practical' or 'fixed:<count>'."""
    try:
        if spec == "practical":
            return PracticalLogRule(sigma)
        if spec.startswith("fixed:"):
            return FixedIterations(int(spec.split(":", 1)[1]))
    except ValueError as exc:
        raise ConfigError(f"bad halting {spec!r}: {exc}") from None
    raise ConfigError(f"unknown halting {spec!r}; expected 'practical' or 'fixed:<count>'")


# the reader of a config value, by the field's annotated type; a tuple is a comma-separated list
_READERS = {int: int, float: float, str: str, Algorithm: lambda t: Algorithm(t.lower())}


def _config_reader(kind):
    if typing.get_origin(kind) is tuple:
        read = _READERS[typing.get_args(kind)[0]]
        return lambda text: tuple(read(tok.strip()) for tok in text.split(","))
    return _READERS[kind]


_CONFIG_KEYS = {f.name: _config_reader(f.type) for f in fields(ExperimentConfig)}
_REQUIRED_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.default is MISSING)


def parse_config(path):
    """Read a flat key = value config file into an ExperimentConfig."""
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (tok.strip() for tok in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                raw[key] = _CONFIG_KEYS[key](value)
            except (ValueError, KeyError):
                raise ConfigError(f"{path}:{lineno}: bad value {value!r} for {key!r}") from None
    missing = [key for key in _REQUIRED_KEYS if key not in raw]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    return ExperimentConfig(**raw)


def _digest_seed(*parts):
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def trial_seed(root_seed, k, sigma, trial_index):
    """Stable per-trial seed; repr of sigma keeps float identity exact."""
    return _digest_seed(root_seed, "trial", k, repr(float(sigma)), trial_index)


def dictionary_seed(root_seed):
    return _digest_seed(root_seed, "dictionary")


def generate_dictionary(m, n_atoms, seed):
    """Random dictionary with i.i.d. standard normal entries, columns normalized."""
    rng = np.random.default_rng(seed)
    return normalize_columns(rng.standard_normal((m, n_atoms)))


def _spikes_from_rng(rng, n_atoms, k):
    support = np.sort(rng.choice(n_atoms, size=k, replace=False))
    eps = rng.integers(0, 2, size=k) * 2 - 1
    magnitudes = 1.0 + np.abs(rng.standard_normal(k))
    values = np.zeros(n_atoms)
    values[support] = 10.0 * eps * magnitudes
    return values, SupportSet(support)


def generate_signal(n_atoms, k, seed):
    """Spike signal: uniform size-k support, entries 10 eps (1 + |n|).

    eps is a fair sign and n a standard normal draw, so every nonzero entry
    has magnitude at least 10.
    """
    values, support = _spikes_from_rng(np.random.default_rng(seed), n_atoms, k)
    return SparseSignal(values, support, k)


def run_trial(D, k, sigma, algorithms, seed, halting="practical"):
    """One signal and noise draw; every requested algorithm sees the same y.

    Returns one TrialRecord per algorithm (in the order given), with
    trial_index None: run_experiment numbers the trials of each (k, sigma)
    point 0..trials_per_point-1. A solver failure (a SparseLabError, or a
    LinAlgError from numpy) is recorded as the error category on that
    record rather than aborting the sweep. The solvers run on D.with_gram():
    trials share a dictionary, so its Gram matrix is built once and reused.
    They share z = D^T y too, computed once per trial.
    """
    D = D.with_gram()
    rng = np.random.default_rng(seed)
    x_values, true_support = _spikes_from_rng(rng, D.n_atoms, k)
    e = sigma * rng.standard_normal(D.m)
    y = D.columns(true_support) @ x_values[true_support.as_array()] + e
    z = D.entries.T @ y

    oracle_result = oracle_estimator(D, y, true_support)
    oracle_sq = float(np.sum((x_values - oracle_result.estimate.values) ** 2))

    cfg = PursuitConfig(k=k, halting=_halting_rule(halting, sigma))
    records = []
    for algorithm in algorithms:
        # the oracle row reports the oracle's own draw: true support, no iterations
        sq, recovered, iterations, error = oracle_sq, True, 0, None
        if algorithm is not Algorithm.ORACLE:
            try:
                result = _SOLVERS[algorithm](D, y, cfg, z=z)
            except (SparseLabError, np.linalg.LinAlgError) as exc:
                sq, recovered = math.nan, False
                error = exc.category if isinstance(exc, SparseLabError) else "LinAlgError"
            else:
                sq = float(np.sum((x_values - result.estimate.values) ** 2))
                recovered = result.estimate.support == true_support
                iterations = result.iterations_run
        records.append(
            TrialRecord(
                trial_index=None,
                k=k,
                sigma=sigma,
                algorithm=algorithm.value,
                squared_error=sq,
                oracle_squared_error=oracle_sq,
                support_recovered=recovered,
                iterations_run=iterations,
                error=error,
            )
        )
    return records


def _trial_records(D, cfg, task):
    trial_index, k, sigma = task
    records = run_trial(D, k, sigma, cfg.algorithms, trial_seed(cfg.seed, k, sigma, trial_index), halting=cfg.halting)
    return [replace(r, trial_index=trial_index) for r in records]


_WORKER_CTX = {}


def _worker_init(D, cfg):
    # the sweep's own matrix, bit for bit: the sampled delta describes the same one
    _WORKER_CTX["D"] = D
    _WORKER_CTX["cfg"] = cfg


def _worker_run(task):
    return _trial_records(_WORKER_CTX["D"], _WORKER_CTX["cfg"], task)


def _worker_delta(pair):
    return _delta_for(_WORKER_CTX["cfg"], _WORKER_CTX["D"], *pair)


def _delta_for(cfg, D, algorithm, k):
    """delta plugged into the bound columns for one (algorithm, k) pair."""
    if cfg.delta_mode == "threshold":
        return 0.0 if algorithm is Algorithm.ORACLE else guarantees.CONDITIONS[algorithm.value]
    order = guarantees.rip_order(algorithm, k)
    # the trials solve on the same Gram form, so D^T D is formed once per process
    est = rip_monte_carlo(
        D.with_gram(), order, trials=cfg.delta_mc_trials, seed=_digest_seed(cfg.seed, "rip", algorithm.value, order)
    )
    return est.delta


def _aggregate_point(cfg, k, sigma, algorithm, delta, records):
    clean = [r for r in records if r.error is None]
    errs = np.asarray([r.squared_error for r in clean])
    oracle = np.asarray([r.oracle_squared_error for r in records])
    if algorithm is Algorithm.ORACLE:
        prob_bound = guarantees.oracle_mse_bound(k, delta, sigma) if delta < 1 else math.inf
        condition_met = delta < 1
    else:
        params = guarantees.GuaranteeParams(
            a=cfg.a, n_atoms=cfg.n_atoms, k=k, sigma=sigma, delta=min(delta, math.nextafter(1, 0))
        )
        report = guarantees.bound_report(algorithm.value, params)
        prob_bound = report.probabilistic_bound
        # clamping delta >= 1 cannot flip the flag: every threshold is below 1
        condition_met = report.condition_met
    if errs.size:
        mse = float(np.mean(errs))
        median_se = float(np.median(errs))
        p99_se = float(np.percentile(errs, 99))
        violation_rate = float(np.mean(errs > prob_bound))
    else:
        mse = median_se = p99_se = violation_rate = math.nan
    return AggregateRow(
        k=k,
        sigma=sigma,
        algorithm=algorithm.value,
        trials=len(clean),
        mse=mse,
        median_se=median_se,
        p99_se=p99_se,
        oracle_mse=float(np.mean(oracle)),
        prob_bound=prob_bound,
        bound_violation_rate=violation_rate,
        condition_met=condition_met,
    )


def run_experiment(cfg):
    """Full sweep over k_values x sigma_values.

    Returns (aggregate rows, trial records), both in a deterministic order
    that does not depend on worker scheduling.
    """
    D = generate_dictionary(cfg.m, cfg.n_atoms, dictionary_seed(cfg.seed))
    points = [(k, sigma) for k in cfg.k_values for sigma in cfg.sigma_values]
    tasks = [(t, k, sigma) for k, sigma in points for t in range(cfg.trials_per_point)]
    # the seed of the Monte-Carlo delta depends on (algorithm, order), never on sigma;
    # the highest order, the longest sample, comes first
    pairs = sorted(
        ((alg, k) for alg in cfg.algorithms for k in cfg.k_values), key=lambda pair: -guarantees.rip_order(*pair)
    )
    if cfg.workers == 1:
        per_trial = [_trial_records(D, cfg, task) for task in tasks]
        deltas = [_delta_for(cfg, D, *pair) for pair in pairs]
    else:
        with multiprocessing.Pool(
            processes=cfg.workers, initializer=_worker_init, initargs=(D, cfg)
        ) as pool:
            # deltas are queued ahead of the trials, so no core idles on them after the sweep
            pending = pool.map_async(_worker_delta, pairs, chunksize=1)
            per_trial = pool.map(_worker_run, tasks, chunksize=8)
            deltas = pending.get()
    deltas = dict(zip(pairs, deltas))
    records = [r for trial in per_trial for r in trial]
    rows = []
    size = cfg.trials_per_point * len(cfg.algorithms)
    for pi, (k, sigma) in enumerate(points):
        point_records = records[pi * size : (pi + 1) * size]
        for algorithm in cfg.algorithms:
            alg_records = [r for r in point_records if r.algorithm == algorithm.value]
            rows.append(_aggregate_point(cfg, k, sigma, algorithm, deltas[algorithm, k], alg_records))
    return rows, records


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_results(rows, format, path):
    """Write aggregate rows as CSV or JSONL with a stable column order."""
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {format!r}")
    with open(path, "w", newline="") as fh:
        if format == "csv":
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in rows:
                fh.write(",".join(_format_cell(getattr(row, col)) for col in CSV_COLUMNS) + "\n")
        else:
            for row in rows:
                fh.write(json.dumps({col: getattr(row, col) for col in CSV_COLUMNS}) + "\n")


def emit_trials(records, path):
    """Write per-trial records as JSON lines."""
    with open(path, "w", newline="") as fh:
        for r in records:
            fh.write(json.dumps({name: getattr(r, name) for name in _TRIAL_FIELDS}) + "\n")
