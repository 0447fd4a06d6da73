"""Per-layer metrics from the spans of traced passes.

Each traced pass does the same fixed amount of work, so counts are taken
from one pass (the runner checks that every pass agrees) and totals are the
median over passes. Per-call times are medians over every call in every
pass. A layer that does not run on a workload reports 0. Failures are
counted under experiment.failures.<Category>, where Category is the
library's error class, numpy's LinAlgError, ExitCode, CheckFailed, or Other.
"""

import json
import math
import os
import statistics

from tracer import counts, self_times

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def declared():
    """Per-layer metric names, in BENCHMARK.json's order (units live there too)."""
    with open(BENCHMARK) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


SOLVER_SPANS = {
    "pursuit.subspace_pursuit": "pursuit.sp_ms",
    "pursuit.cosamp": "pursuit.cosamp_ms",
    "pursuit.iht": "pursuit.iht_ms",
    "pursuit.oracle_estimator": "pursuit.oracle_ms",
}


def _median(values):
    return statistics.median(values) if values else 0


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]), 0 for no values."""
    if not values:
        return 0
    values = sorted(values)
    return values[max(1, math.ceil(q / 100 * len(values))) - 1]


def _ms(ns):
    return ns / 1e6


def compute(passes, extra):
    """Per-layer metrics from a list of span lists and workload-side values."""
    m = dict.fromkeys(declared(), 0)
    durations = {}
    selfs = {}
    cli = {}  # cli.main subcommand -> [(duration, self time)]
    for spans in passes:
        for span, self_ns in self_times(spans):
            durations.setdefault(span.name, []).append(span.end - span.start)
            selfs.setdefault(span.name, []).append(self_ns)
            if span.name == "cli.main":
                cli.setdefault(span.info, []).append((span.end - span.start, self_ns))

    def per_call(name):
        return _ms(_median(durations.get(name, [])))

    def per_pass(select):
        """Median over passes of a per-pass total in ns."""
        return _median([sum(select(spans)) for spans in passes])

    def total(*names):
        return per_pass(lambda spans: [s.end - s.start for s in spans if s.name in names])

    for span_name, metric in SOLVER_SPANS.items():
        m[metric] = per_call(span_name)
    solver_selfs = [v for name in list(SOLVER_SPANS)[:3] for v in selfs.get(name, [])]
    m["pursuit.self_ms"] = _ms(_median(solver_selfs))
    m["pursuit.diagnostics_ms"] = per_call("pursuit.recurrence_diagnostics")
    m["pursuit.trace_write_ms"] = per_call("pursuit.write_trace")
    m["pursuit.trace_read_ms"] = per_call("pursuit.read_trace")

    first = passes[0]
    n = counts(first)
    m["linalg.lstsq_calls"] = n.get("linalg.least_squares_on_support", 0)
    cols = [s.info for s in first if s.name == "numpy.lstsq" and s.parent is not None
            and s.parent.name == "linalg.least_squares_on_support"]
    m["linalg.lstsq_cols_mean"] = sum(cols) / len(cols) if cols else 0.0
    m["linalg.lstsq_ms"] = per_call("linalg.least_squares_on_support")
    m["linalg.top_k_calls"] = n.get("linalg.top_k_support", 0)
    m["linalg.top_k_ms"] = per_call("linalg.top_k_support")
    m["linalg.columns_ms"] = per_call("linalg.Dictionary.columns")
    m["linalg.normalize_ms"] = per_call("linalg.normalize_columns")
    m["numpy.lstsq_ms"] = per_call("numpy.lstsq")
    m["numpy.eigvalsh_ms"] = _ms(total("numpy.eigvalsh"))

    rip_ns = total("metrics.rip_exact")
    m["metrics.rip_exact_s"] = rip_ns / 1e9
    supports = extra.get("supports", 0)
    if rip_ns:
        m["metrics.rip_supports_per_s"] = supports / (rip_ns / 1e9)
        eig_rows = sum(s.info for s in first if s.name == "numpy.eigvalsh" and s.parent is not None
                       and s.parent.name == "metrics.rip_exact")
        m["metrics.rip_eig_frac"] = eig_rows / supports
    m["metrics.noise_corr_ms"] = per_call("metrics.worst_case_noise_correlation")
    m["metrics.rip_mc_calls"] = n.get("metrics.rip_monte_carlo", 0)
    m["metrics.rip_mc_ms"] = _ms(total("metrics.rip_monte_carlo"))

    trials = durations.get("experiment.run_trial", [])
    m["experiment.trial_ms_p50"] = _ms(percentile(trials, 50))
    m["experiment.trial_ms_p99"] = _ms(percentile(trials, 99))
    m["experiment.trial_self_ms"] = _ms(_median(selfs.get("experiment.run_trial", [])))
    m["experiment.sweep_self_s"] = _median(selfs.get("experiment.run_experiment", [])) / 1e9
    m["experiment.emit_ms"] = _ms(total("experiment.emit_results", "experiment.emit_trials"))
    m["experiment.dictionary_ms"] = per_call("experiment.generate_dictionary")

    def outermost_guarantees(spans):
        return [s.end - s.start for s in spans if s.name.startswith("guarantees.")
                and (s.parent is None or not s.parent.name.startswith("guarantees."))]

    m["guarantees.calls"] = sum(v for k, v in n.items() if k.startswith("guarantees."))
    m["guarantees.ms"] = _ms(per_pass(outermost_guarantees))

    m["cli.run_self_ms"] = _ms(_median([s for _, s in cli.get("run", [])]))
    m["cli.diagnose_ms"] = _ms(_median([d for d, _ in cli.get("diagnose", [])]))

    for key, value in extra.items():
        if key in m:
            m[key] = value
    failures = extra.get("failures", {})
    for category, count in failures.items():
        key = f"experiment.failures.{category}"
        m[key if key in m else "experiment.failures.Other"] += count
    return m
