"""Workload process: set up one workload, measure it, print a JSON result.

Started by run.py with BLAS threads pinned and PYTHONPATH pointing at the
checkout's src/. It prints ``READY <input sha256>`` once set-up is done
(run.py times set-up up to that line) and, unless --setup-only is given,
``RESULT <json>`` at the end.

--trace 0 runs units of the workload until --seconds is used up and
reports the end-to-end metrics. --trace 1 alternates untraced and traced
passes over a fixed amount of work, checks that their outputs are
bit-equal and that every traced pass counts the same calls, and reports
the per-layer metrics and the tracing overhead.
"""

import argparse
import json
import os
import platform
import sys
import time
from statistics import median

import numpy as np

import layers
import tracer
import workloads


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except Exception:  # numpy without dict config; the manifest records unknown
        return "unknown"


def manifest_part():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(w, seconds):
    """End-to-end pass: units until the next one would overrun --seconds."""
    units = []
    t0 = time.perf_counter()
    i = 0
    while True:
        out = w.unit(i)
        w.check(i, out)
        units.append({k: out[k] for k in ("wall", "trials", "error") if k in out})
        i += 1
        elapsed = time.perf_counter() - t0
        if i >= 2 and elapsed + elapsed / i > seconds:
            break
    return w.end_to_end(units)


def traced(w, seconds, out_dir):
    """Traced and untraced passes over the same fixed work, alternating.

    At least two traced passes (their counts must agree) and one untraced
    pass (the base of the tracing overhead) run, then more pairs while they
    fit in `seconds`.
    """
    walls = {False: [], True: []}
    span_passes = []
    first = None
    t0 = time.perf_counter()
    while True:
        trace_on = len(walls[True]) <= len(walls[False])
        start = time.perf_counter()
        if trace_on:
            with tracer.Tracer() as tr:
                units = w.fixed_units()
            span_passes.append(tr.spans)
        else:
            units = w.fixed_units()
        walls[trace_on].append(time.perf_counter() - start)
        if first is None:
            first = units
            for i, out in enumerate(units):
                w.check(i, out)
        elif not w.same(first, units):
            w.outcome.fail("CheckFailed", f"{'traced' if trace_on else 'untraced'} pass outputs differ from the first pass")
        if trace_on and tracer.counts(tr.spans) != tracer.counts(span_passes[0]):
            w.outcome.fail("CheckFailed", "traced passes counted different calls")
        done = len(span_passes) + len(walls[False])
        elapsed = time.perf_counter() - t0
        if len(span_passes) >= 2 and walls[False] and elapsed + elapsed / done > seconds:
            break
    base = median(walls[False])
    extra = w.layer_extra(first, base)
    extra["failures"] = w.outcome.failures
    metrics = layers.compute(span_passes, extra)
    metrics["trace.overhead_ms"] = 1e3 * (median(walls[True]) - base)
    metrics["trace.overhead_frac"] = (median(walls[True]) - base) / base
    tracer.write_spans(span_passes[0], os.path.join(out_dir, f"spans-{w.name}-seed{w.seed}.jsonl"))
    note = (
        f"{len(walls[False])} untraced and {len(span_passes)} traced passes of the same fixed work, "
        f"{base:.3f} s untraced"
    )
    return metrics, "; ".join(filter(None, (note, w.trace_note)))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tmp", required=True, help="scratch directory for configs, outputs and traces")
    p.add_argument("--out", required=True, help="directory for span files")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    w = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    print(f"READY {w.input_hash()}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        metrics, note = traced(w, args.seconds, args.out)
    else:
        metrics, note = measure(w, args.seconds)
    o = w.outcome
    reference_note = (
        f"stored reference for seed {args.seed}" if w.ref is not None
        else f"no stored reference for seed {args.seed}: invariants and repeat-equality only"
    )
    result = {
        "metrics": metrics,
        "attempted": o.attempted,
        "failed": o.failed,
        "failures": dict(o.failures),
        "problems": o.problems,
        "note": note,
        "reference": reference_note,
        "manifest": manifest_part(),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
