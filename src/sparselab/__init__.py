"""Sparse recovery laboratory: greedy solvers, isometry diagnostics, benchmarks."""

from .errors import (
    BudgetExceeded,
    ConfigError,
    Divergence,
    NonFinite,
    RankDeficient,
    SparseLabError,
    ZeroColumn,
)
from .guarantees import (
    BoundReport,
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
from .linalg import (
    Dictionary,
    SparseSignal,
    SupportSet,
    export_dictionary_csv,
    import_dictionary_csv,
    least_squares_on_support,
    normalize_columns,
    top_k_support,
)
from .metrics import (
    NoiseCorrelation,
    RipEstimate,
    mutual_coherence,
    rip_exact,
    rip_monte_carlo,
    worst_case_noise_correlation,
)
from .pursuit import (
    Algorithm,
    DiagnosticsReport,
    FixedIterations,
    IterationRecord,
    PracticalLogRule,
    PursuitConfig,
    PursuitResult,
    cosamp,
    iht,
    oracle_estimator,
    read_trace,
    recurrence_diagnostics,
    subspace_pursuit,
    write_trace,
)

# experiment loads multiprocessing and hashlib; it is imported on first use,
# so a command that never sweeps (diagnose, rip, bounds) does not pay for it
_EXPERIMENT_NAMES = (
    "ExperimentConfig",
    "TrialRecord",
    "generate_dictionary",
    "generate_signal",
    "parse_config",
    "run_experiment",
    "run_trial",
    "trial_seed",
)


def __getattr__(name):
    # looked up on every access, never stored here, so a rebinding in
    # experiment (a tracer's wrapper, say) is what the package hands out
    if name in _EXPERIMENT_NAMES:
        from . import experiment

        return getattr(experiment, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted({name for name in dir() if not name.startswith("_")} | {"experiment", *_EXPERIMENT_NAMES})
