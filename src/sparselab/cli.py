"""Command line front end.

Subcommands:
  gen-dict   generate a normalized random dictionary and write it as CSV
  run        execute a benchmark sweep from a config file
  bounds     print guarantee constants and error bounds for one algorithm
  rip        estimate a restricted isometry constant for a stored dictionary
  diagnose   replay a trace file and check the per-iteration recurrences

Errors print one line to stderr in the form `error[Category]: message` and
exit nonzero, so callers can branch on the category without parsing prose.

The sweep layer (and multiprocessing under it) is imported only by gen-dict
and run, so diagnose, rip and bounds start without it.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import guarantees
from .errors import SparseLabError
from .linalg import export_dictionary_csv, import_dictionary_csv
from .metrics import ENUMERATION_BUDGET, rip_exact, rip_monte_carlo
from .pursuit import read_trace, recurrence_diagnostics


def _cmd_gen_dict(args):
    from .experiment import generate_dictionary

    D = generate_dictionary(args.m, args.n, args.seed)
    export_dictionary_csv(D, args.out)
    print(f"wrote {args.m}x{args.n} dictionary to {args.out}")
    return 0


def _cmd_run(args):
    from .experiment import emit_results, emit_trials, parse_config, run_experiment

    cfg = parse_config(args.config)
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)
    rows, records = run_experiment(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "results.csv")
    emit_results(rows, "csv", csv_path)
    emit_results(rows, "jsonl", os.path.join(args.out_dir, "results.jsonl"))
    emit_trials(records, os.path.join(args.out_dir, "trials.jsonl"))
    print(f"wrote {len(rows)} aggregate rows and {len(records)} trial records to {args.out_dir}")
    return 0


def _cmd_bounds(args):
    params = guarantees.GuaranteeParams(
        a=args.a, n_atoms=args.n, k=args.k, sigma=args.sigma, delta=args.delta
    )
    report = guarantees.bound_report(
        args.algorithm,
        params,
        noise_correlation=args.noise_correlation,
        second_delta=args.second_delta,
    )
    payload = {"algorithm": report.algorithm, "delta": args.delta, **dataclasses.asdict(report)}
    print(json.dumps({key: value for key, value in payload.items() if value is not None}, indent=2, allow_nan=False))
    return 0


def _cmd_rip(args):
    D = import_dictionary_csv(getattr(args, "in"))
    if args.mode == "exact":
        est = rip_exact(D, args.k, budget=args.budget)
    else:
        est = rip_monte_carlo(D, args.k, trials=args.trials, seed=args.seed)
    print(json.dumps(dataclasses.asdict(est), indent=2, allow_nan=False))
    return 0


def _cmd_diagnose(args):
    bundle = read_trace(getattr(args, "in"))
    report = recurrence_diagnostics(
        bundle.records, bundle.x_true, bundle.noise, bundle.dictionary, bundle.algorithm,
        delta=args.delta, budget=args.budget,
    )
    for check in report.checks:
        flag = "ok" if check.holds else "FAIL"
        print(f"iter {check.iteration:3d} {check.name:22s} lhs={check.lhs:.6e} rhs={check.rhs:.6e} {flag}")
    payload = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    payload.update(algorithm=report.algorithm.value, checks=len(report.checks), all_hold=report.all_hold)
    print(json.dumps(payload, indent=2, allow_nan=False))
    return 0 if report.all_hold or not report.condition_met else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="sparselab", description="sparse recovery laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dict", help="generate a random unit-norm dictionary")
    p.add_argument("--m", type=int, required=True, help="number of rows (measurements)")
    p.add_argument("--n", type=int, required=True, help="number of atoms (columns)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_gen_dict)

    p = sub.add_parser("run", help="run a benchmark sweep")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=None, help="override workers from the config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bounds", help="print constants and bounds for one algorithm")
    p.add_argument("--algorithm", required=True, choices=["sp", "cosamp", "iht", "ds"])
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="number of atoms")
    p.add_argument("--k", type=int, required=True, help="sparsity level")
    p.add_argument("--sigma", type=float, required=True, help="noise standard deviation")
    p.add_argument("--a", type=float, default=1.0, help="probability exponent")
    p.add_argument("--second-delta", type=float, default=None, dest="second_delta")
    p.add_argument("--noise-correlation", type=float, default=None, dest="noise_correlation")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("rip", help="restricted isometry constant of a stored dictionary")
    p.add_argument("--in", required=True, help="dictionary CSV path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--trials", type=int, default=2000, help="mc mode: number of sampled supports")
    p.add_argument("--seed", type=int, default=0, help="mc mode: sampling seed")
    p.add_argument("--budget", type=int, default=ENUMERATION_BUDGET, help="exact mode: enumeration budget")
    p.set_defaults(func=_cmd_rip)

    p = sub.add_parser("diagnose", help="check recurrences recorded in a trace file")
    p.add_argument("--in", required=True, help="trace .npz path")
    p.add_argument("--delta", type=float, default=None, help="skip enumeration and use this delta")
    p.add_argument("--budget", type=int, default=ENUMERATION_BUDGET, help="enumeration budget without --delta")
    p.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SparseLabError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
