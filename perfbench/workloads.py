"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, runs units of work
through sparselab's public API, and checks every output. Every call into
the package goes through a module attribute looked up at call time, so a
Tracer installed around a pass sees it.

A workload offers:
  unit(i)        one timed unit for the end-to-end pass; returns a dict
                 with "wall" (s) and "trials", plus "error" if it raised
  check(i, out)  correctness of that unit, recorded on self.outcome
  fixed_units()  a fixed amount of work for the traced pass, as a list of
                 unit outputs; same(a, b) says whether two such lists are
                 identical (traced and untraced outputs must be)
  layer_extra(units, untraced_wall)  workload-side per-layer values
  reference(n)   the stored-reference record for this seed
"""

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import astuple
from statistics import median

import numpy as np

import sparselab
import sparselab.cli
import sparselab.experiment
import sparselab.metrics
import sparselab.pursuit
from sparselab.errors import SparseLabError
from sparselab.experiment import ExperimentConfig
from sparselab.pursuit import Algorithm

import reference
from layers import percentile

ALGORITHMS = (Algorithm.SP, Algorithm.COSAMP, Algorithm.IHT, Algorithm.ORACLE)
SOLVER_NAMES = ("sp", "cosamp", "iht")

# Relative tolerance for aggregate rows against the stored reference: far
# above float reordering noise, far below any change in a recovered support.
ROW_RTOL = 1e-6
# criterion 6's exact-recovery bar, used for per-request estimates
VALUE_RTOL = 1e-8


def derive_seed(*parts):
    """64-bit seed from the workload seed and a path of labels."""
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def sha256_of(*arrays_or_text):
    h = hashlib.sha256()
    for item in arrays_or_text:
        if isinstance(item, np.ndarray):
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


def _solvers():
    p = sparselab.pursuit
    return {"sp": p.subspace_pursuit, "cosamp": p.cosamp, "iht": p.iht}


def _close(a, b, rtol):
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
    return a == b


def rows_match(rows, ref_rows, rtol=ROW_RTOL):
    if len(rows) != len(ref_rows):
        return False
    return all(
        len(r) == len(q) and all(_close(a, b, rtol) for a, b in zip(r, q)) for r, q in zip(rows, ref_rows)
    )


class Outcome:
    """Operations attempted and failed, failures by category, first problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.problems = []

    def fail(self, category, message, count=1, ops=None):
        """Record `count` failures of one category, failing `ops` operations (default `count`)."""
        self.failures[category] += count
        self.failed += count if ops is None else ops
        if len(self.problems) < 20:
            self.problems.append(f"{category}: {message}")


def _category(exc):
    if isinstance(exc, SparseLabError):
        return exc.category
    return type(exc).__name__


class Workload:
    name = ""
    unit_name = ""
    trace_note = ""

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = tmp
        self.outcome = Outcome()
        self.ref = reference.load(self.name, seed)

    def end_to_end(self, units):
        """Throughput, latency and job time over the units that did not raise."""
        ok = [u for u in units if "error" not in u]
        walls = [u["wall"] for u in ok]
        if not walls:
            return dict.fromkeys(("trials_per_s", "request_ms_p50", "request_ms_p95", "verify_s"), 0.0), "every unit failed"
        beyond = len(walls) - math.ceil(0.95 * len(walls))
        return {
            "trials_per_s": median([u["trials"] / u["wall"] for u in ok]),
            "request_ms_p50": 1e3 * median(walls),
            "request_ms_p95": 1e3 * percentile(walls, 95),
            "verify_s": median(walls),
        }, f"{len(walls)} {self.unit_name} ({beyond} beyond p95)"


# --------------------------------------------------------------------------
# sweep_full: library run_experiment at paper scale, 1 worker, threshold delta


class SweepFull(Workload):
    name = "sweep_full"
    SETTINGS = dict(
        m=512,
        n_atoms=1024,
        k_values=(5, 10, 15, 20),
        sigma_values=(1.0,),
        trials_per_point=50,
        algorithms=ALGORITHMS,
        halting="practical",
        delta_mode="threshold",
        workers=1,
    )
    FIXED_CALLS = 1
    unit_name = f"run_experiment calls of {len(SETTINGS['k_values']) * SETTINGS['trials_per_point']} trials"

    def config(self, i):
        # each call draws a fresh dictionary, as a user's next sweep would;
        # 200 trials share it, so its set-up is a small part of a call
        return ExperimentConfig(seed=derive_seed(self.seed, self.name, i), **self.SETTINGS)

    def input_hash(self):
        return sha256_of(self.name, self.seed, self.config(0))

    def _call(self, i):
        rows, records = sparselab.experiment.run_experiment(self.config(i))
        return [list(astuple(r)) for r in rows], records

    def unit(self, i):
        t0 = time.perf_counter()
        rows, records = self._call(i)
        wall = time.perf_counter() - t0
        trials = len({(r.k, r.trial_index) for r in records})
        return {"wall": wall, "trials": trials, "rows": rows, "records": records}

    def check(self, i, out):
        o = self.outcome
        o.attempted += out["trials"]
        bad_trials = {(r.k, r.trial_index) for r in out["records"] if r.error is not None}
        for r in out["records"]:
            if r.error is not None:
                o.fail(r.error, f"call {i} k={r.k} trial {r.trial_index} {r.algorithm}", ops=0)
        o.failed += len(bad_trials)
        problems = self.row_problems(out["rows"])
        refs = (self.ref or {}).get("calls", [])
        if i < len(refs) and not rows_match(out["rows"], refs[i]):
            problems.append(f"call {i} rows differ from the stored reference (rtol {ROW_RTOL:g})")
        for p in problems:
            o.fail("CheckFailed", p, ops=0)
        if problems:
            o.failed += out["trials"] - len(bad_trials)

    @staticmethod
    def row_problems(rows):
        # criterion 4's invariants: no bound violations; MSE within 4x the
        # oracle's for k <= 15
        problems = []
        for k, sigma, alg, trials, mse, _, _, oracle_mse, _, viol, _ in rows:
            if alg == "oracle":
                continue
            if viol != 0.0:
                problems.append(f"k={k} {alg}: bound violation rate {viol}")
            if k <= 15 and not mse <= 4.0 * oracle_mse:
                problems.append(f"k={k} {alg}: mse {mse:.4g} > 4 x oracle {oracle_mse:.4g}")
        return problems

    def fixed_units(self):
        return [self.unit(i) for i in range(self.FIXED_CALLS)]

    def same(self, a, b):
        return [u["rows"] for u in a] == [u["rows"] for u in b]

    def layer_extra(self, units, untraced_wall):
        return _record_extra([r for u in units for r in u["records"]])

    def reference(self, n):
        return {"calls": [self._call(i)[0] for i in range(n)]}


def _record_extra(records):
    solved = [r for r in records if r.algorithm != "oracle" and r.error is None]
    return {
        "pursuit.iterations": sum(r.iterations_run for r in solved) / max(1, len(solved)),
        "pursuit.support_recovered_frac": sum(r.support_recovered for r in solved) / max(1, len(solved)),
    }


# --------------------------------------------------------------------------
# sweep_cli: `sparselab run` writing csv + jsonl files, 2 workers, sampled delta


class SweepCli(Workload):
    name = "sweep_cli"
    WORKERS = 2
    POINTS = 9
    TRIALS_PER_POINT = 25
    unit_name = f"`sparselab run` invocations of {POINTS * TRIALS_PER_POINT} trials at {WORKERS} workers"
    trace_note = "traced in-process at 1 worker; the end-to-end pass runs 2 workers in a subprocess"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.config_path = os.path.join(tmp, "sweep_cli.cfg")
        text = (
            "m = 128\n"
            "n_atoms = 256\n"
            "k_values = 5,10,15\n"
            "sigma_values = 0.25,1.0,4.0\n"
            f"trials_per_point = {self.TRIALS_PER_POINT}\n"
            f"seed = {derive_seed(seed, self.name)}\n"
            "algorithms = sp,cosamp,iht,oracle\n"
            "a = 1.0\n"
            "halting = practical\n"
            f"workers = {self.WORKERS}\n"
            "delta_mode = monte_carlo\n"
            "delta_mc_trials = 300\n"
        )
        with open(self.config_path, "w") as fh:
            fh.write(text)
        self.config_text = text
        self.csv_sha = None

    def input_hash(self):
        return sha256_of(self.name, self.seed, self.config_text)

    def _out_dir(self, label):
        path = os.path.join(self.tmp, f"cli_{label}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def unit(self, i):
        out_dir = self._out_dir("run")
        cmd = [sys.executable, "-m", "sparselab.cli", "run", "--config", self.config_path, "--out-dir", out_dir]
        cmd += ["--workers", str(self.WORKERS)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        trials = self.POINTS * self.TRIALS_PER_POINT
        out = {"wall": wall, "trials": trials, "returncode": proc.returncode}
        out["stderr"] = proc.stderr.strip()[-300:]
        out.update(read_cli_outputs(out_dir) if proc.returncode == 0 else {})
        return out

    def check(self, i, out):
        o = self.outcome
        o.attempted += out["trials"]
        if out["returncode"] != 0:
            o.fail("ExitCode", f"invocation {i} exited {out['returncode']}: {out['stderr']}", ops=out["trials"])
            return
        problems = self.output_problems(out)
        if self.csv_sha is None:
            self.csv_sha = out["csv_sha256"]
        elif out["csv_sha256"] != self.csv_sha:
            problems.append(f"invocation {i}: results.csv hash differs from invocation 0")
        errored = Counter(out["errors"])
        for category, n in errored.items():
            o.fail(category, f"invocation {i}: {n} trial records", count=n, ops=0)
        o.failed += min(out["trials"], out["errored_trials"])
        for p in problems:
            o.fail("CheckFailed", p, ops=0)
        if problems:
            o.failed += out["trials"] - min(out["trials"], out["errored_trials"])

    def output_problems(self, out):
        problems = [f"row {r[:3]}: {p}" for r in out["rows"] for p in _cli_row_problems(r, self.TRIALS_PER_POINT)]
        expected_records = self.POINTS * self.TRIALS_PER_POINT * len(ALGORITHMS)
        if out["trial_records"] != expected_records:
            problems.append(f"trials.jsonl has {out['trial_records']} records, expected {expected_records}")
        if len(out["rows"]) != self.POINTS * len(ALGORITHMS):
            problems.append(f"results.csv has {len(out['rows'])} rows")
        if self.ref is not None and not rows_match(out["rows"], self.ref["rows"]):
            problems.append(f"results.csv rows differ from the stored reference (rtol {ROW_RTOL:g})")
        return problems

    def in_process(self, workers):
        """`sparselab run` through cli.main in this process, as a unit output."""
        out_dir = self._out_dir("in_process")
        argv = ["run", "--config", self.config_path, "--out-dir", out_dir, "--workers", str(workers)]
        t0 = time.perf_counter()
        code = sparselab.cli.main(argv)
        wall = time.perf_counter() - t0
        trials = self.POINTS * self.TRIALS_PER_POINT
        out = {"wall": wall, "trials": trials, "returncode": code, "stderr": ""}
        out.update(read_cli_outputs(out_dir) if code == 0 else {})
        return out

    def fixed_units(self):
        # the traced pass runs in-process at 1 worker so every span is seen
        return [self.in_process(1)]

    def same(self, a, b):
        return all(x["returncode"] == y["returncode"] == 0 and x["csv_sha256"] == y["csv_sha256"] for x, y in zip(a, b))

    def layer_extra(self, units, untraced_wall):
        out = units[0]
        # the 2-worker pool's rate against the same sweep at 1 worker
        two = self.in_process(self.WORKERS)
        self.check(len(units), two)
        one_rate = out["trials"] / untraced_wall
        return {
            "pursuit.iterations": out["iterations_mean"],
            "pursuit.support_recovered_frac": out["recovered_frac"],
            "experiment.output_bytes": out["output_bytes"],
            "experiment.parallel_eff": (two["trials"] / two["wall"]) / (self.WORKERS * one_rate),
        }

    def reference(self, n):
        return {"rows": self.in_process(1)["rows"]}


def _cli_row_problems(row, trials_per_point):
    k, sigma, alg, trials, mse, *_ = row
    viol, condition = row[9], row[10]
    problems = []
    if trials != trials_per_point:
        problems.append(f"{trials} clean trials of {trials_per_point}")
    if not math.isfinite(mse):
        problems.append(f"mse {mse}")
    # the oracle's bound is on its expected error, so single trials may
    # exceed it; a solver's probabilistic bound is a guarantee only where
    # its isometry condition holds, and then it must hold on every trial
    if alg != "oracle" and condition and viol != 0.0:
        problems.append(f"bound violation rate {viol} (condition_met={condition})")
    return problems


def read_cli_outputs(out_dir):
    """Parse the three files `sparselab run` writes, independently of the package."""
    paths = [os.path.join(out_dir, f) for f in ("results.csv", "results.jsonl", "trials.jsonl")]
    with open(paths[0], "rb") as fh:
        csv_bytes = fh.read()
    reader = csv.reader(csv_bytes.decode().splitlines())
    header = next(reader)
    rows = []
    for cells in reader:
        rec = dict(zip(header, cells))
        rows.append(
            [int(rec["k"]), float(rec["sigma"]), rec["algorithm"], int(rec["trials"])]
            + [float(rec[c]) for c in ("mse", "median_se", "p99_se", "oracle_mse", "prob_bound", "bound_violation_rate")]
            + [rec["condition_met"] == "true"]
        )
    errors = []
    errored = set()
    iters = []
    recovered = []
    n_records = 0
    with open(paths[2]) as fh:
        for line in fh:
            r = json.loads(line)
            n_records += 1
            if r["error"] is not None:
                errors.append(r["error"])
                errored.add((r["k"], r["sigma"], r["trial_index"]))
            elif r["algorithm"] != "oracle":
                iters.append(r["iterations_run"])
                recovered.append(r["support_recovered"])
    return {
        "rows": rows,
        "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "output_bytes": sum(os.path.getsize(p) for p in paths),
        "trial_records": n_records,
        "errors": errors,
        "errored_trials": len(errored),
        "iterations_mean": sum(iters) / max(1, len(iters)),
        "recovered_frac": sum(recovered) / max(1, len(recovered)),
    }


# --------------------------------------------------------------------------
# solve_fresh: the quickstart path, a new dictionary per request


class SolveFresh(Workload):
    name = "solve_fresh"
    unit_name = "requests"
    M, N, K, SIGMA = 512, 1024, 10, 1.0
    FIXED_REQUESTS = 30
    REF_REQUESTS = 8

    def seeds(self, i):
        return [derive_seed(self.seed, self.name, i, part) for part in ("dictionary", "signal", "noise")]

    def input_hash(self):
        return sha256_of(self.name, self.seed, [self.seeds(i) for i in range(self.REF_REQUESTS)])

    def request(self, i):
        dseed, xseed, eseed = self.seeds(i)
        ex = sparselab.experiment
        D = ex.generate_dictionary(self.M, self.N, dseed)
        x = ex.generate_signal(self.N, self.K, xseed)
        e = self.SIGMA * np.random.default_rng(eseed).standard_normal(self.M)
        y = D.entries @ x.values + e
        cfg = sparselab.pursuit.PursuitConfig(k=self.K, halting=sparselab.pursuit.PracticalLogRule(sigma=self.SIGMA))
        results = {name: solver(D, y, cfg, x_true=x) for name, solver in _solvers().items()}
        results["oracle"] = sparselab.pursuit.oracle_estimator(D, y, x.support)
        return D, x, y, results

    def unit(self, i):
        t0 = time.perf_counter()
        try:
            D, x, y, results = self.request(i)
        except Exception as exc:  # a failed request is counted, never fatal
            return {"wall": time.perf_counter() - t0, "trials": 1, "error": exc}
        wall = time.perf_counter() - t0
        return {"wall": wall, "trials": 1, "problem": (D, x, y), "results": results}

    def check(self, i, out):
        o = self.outcome
        o.attempted += 1
        if "error" in out:
            o.fail(_category(out["error"]), f"request {i}: {out['error']}")
            return
        problems = self.request_problems(i, out["problem"], out["results"])
        if problems:
            o.fail("CheckFailed", f"request {i}: " + "; ".join(problems))

    def request_problems(self, i, problem, results):
        D, x, y = problem
        problems = []
        # SP's final answer and the oracle are least squares on their
        # supports: recompute those directly with numpy
        for name, support in (("sp", results["sp"].estimate.support), ("oracle", x.support)):
            idx = support.as_array()
            coef = np.linalg.lstsq(D.entries[:, idx], y, rcond=None)[0]
            got = results[name].estimate.values[idx]
            if not np.linalg.norm(got - coef) <= VALUE_RTOL * np.linalg.norm(coef):
                problems.append(f"{name} values are not least squares on its support")
        for name, res in results.items():
            if res.estimate.support.cardinality > self.K or not np.all(np.isfinite(res.estimate.values)):
                problems.append(f"{name}: malformed estimate")
        refs = (self.ref or {}).get("requests", [])
        if i < len(refs):
            for name, res in results.items():
                want = refs[i][name]
                if list(res.estimate.support.indices) != want["support"]:
                    problems.append(f"{name} support differs from the stored reference")
                    continue
                got = res.estimate.on_support()
                ref_values = np.asarray(want["values"])
                if not np.linalg.norm(got - ref_values) <= VALUE_RTOL * np.linalg.norm(ref_values):
                    problems.append(f"{name} values differ from the stored reference by more than {VALUE_RTOL:g}")
        return problems

    def fixed_units(self):
        return [self.unit(i) for i in range(self.FIXED_REQUESTS)]

    def same(self, a, b):
        if len(a) != len(b) or any("results" not in u for u in a + b):
            return False
        for ua, ub in zip(a, b):
            for name, res in ua["results"].items():
                ea, eb = res.estimate, ub["results"][name].estimate
                if ea.support != eb.support or not np.array_equal(ea.values, eb.values):
                    return False
        return True

    def layer_extra(self, units, untraced_wall):
        ok = [u for u in units if "results" in u]
        solved = [(u["results"][name], u["problem"][1]) for u in ok for name in SOLVER_NAMES]
        return {
            "pursuit.iterations": sum(r.iterations_run for r, _ in solved) / max(1, len(solved)),
            "pursuit.support_recovered_frac": sum(r.estimate.support == x.support for r, x in solved) / max(1, len(solved)),
        }

    def reference(self, n):
        requests = []
        for i in range(n):
            _, _, _, results = self.request(i)
            requests.append(
                {
                    name: {
                        "support": list(res.estimate.support.indices),
                        "values": [float(v) for v in res.estimate.on_support()],
                    }
                    for name, res in results.items()
                }
            )
        return {"requests": requests}


# --------------------------------------------------------------------------
# verify_exact: criterion 3's pipeline plus a trace-file round trip


class VerifyExact(Workload):
    name = "verify_exact"
    # a request here is one whole pipeline: single instance checks take
    # about 2 ms, too short to time steadily on a shared machine, and their
    # cost shows per layer (pursuit.*, metrics.noise_corr_ms)
    M, N, K = 20, 23, 2
    INSTANCES = 100
    unit_name = f"pipelines of {INSTANCES} instances"
    ITERATIONS = 6
    BIG_M, BIG_N, BIG_K, BIG_ITERATIONS = 512, 1024, 10, 5
    DELTA_MC_TRIALS = 200

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self._inputs = None
        self.trace_path = os.path.join(tmp, "verify_trace.jsonl")

    def orders(self):
        return (3 * self.K, 4 * self.K)

    def supports_per_pipeline(self):
        return sum(math.comb(self.N, order) for order in self.orders())

    def inputs(self, r):
        """Problem instances for pipeline repetition r; the last one is cached, since generating it is set-up."""
        if self._inputs is None or self._inputs[0] != r:
            ex = sparselab.experiment
            D = ex.generate_dictionary(self.M, self.N, derive_seed(self.seed, self.name, r, "dictionary"))
            instances = []
            for j in range(self.INSTANCES):
                x = ex.generate_signal(self.N, self.K, derive_seed(self.seed, self.name, r, "signal", j))
                e = np.random.default_rng(derive_seed(self.seed, self.name, r, "noise", j)).standard_normal(self.M)
                instances.append((x, e, D.entries @ x.values + e))
            big_d = ex.generate_dictionary(self.BIG_M, self.BIG_N, derive_seed(self.seed, self.name, r, "big"))
            big_x = ex.generate_signal(self.BIG_N, self.BIG_K, derive_seed(self.seed, self.name, r, "big_signal"))
            big_e = np.random.default_rng(derive_seed(self.seed, self.name, r, "big_noise")).standard_normal(self.BIG_M)
            # the replay's delta: a sampled lower bound on the order-3k
            # constant, since exact enumeration at 512 x 1024 is out of reach
            big_delta = sparselab.metrics.rip_monte_carlo(
                big_d, 3 * self.BIG_K, trials=self.DELTA_MC_TRIALS, seed=derive_seed(self.seed, self.name, r, "delta")
            ).delta
            big = (big_d, big_x, big_e, big_d.entries @ big_x.values + big_e, big_delta)
            self._inputs = (r, (D, instances, big))
        return self._inputs[1]

    def input_hash(self):
        D, instances, big = self.inputs(0)
        return sha256_of(self.name, self.seed, D.entries, *(e for _, e, _ in instances), big[0].entries, big[2])

    def pipeline(self, r, diagnose_in_process):
        """Exact deltas, per-instance recurrence checks, trace write + replay."""
        D, instances, (big_d, big_x, big_e, big_y, big_delta) = self.inputs(r)
        metrics, pursuit = sparselab.metrics, sparselab.pursuit
        # instance index -> (category, message): at most one failure per instance
        out = {"instance_failures": {}}
        t0 = time.perf_counter()
        deltas = [metrics.rip_exact(D, order, budget=None).delta for order in self.orders()]
        by_alg = {"sp": deltas[0], "iht": deltas[0], "cosamp": deltas[1]}
        cfg = pursuit.PursuitConfig(k=self.K, halting=pursuit.FixedIterations(self.ITERATIONS))
        iters, recovered, held = [], [], 0
        for j, (x, e, y) in enumerate(instances):
            try:
                nc = metrics.worst_case_noise_correlation(D, e, self.K, use_enumeration=True).value
                for name, solver in _solvers().items():
                    res = solver(D, y, cfg, x_true=x)
                    report = pursuit.recurrence_diagnostics(
                        res.trace, x, e, D, name, delta=by_alg[name], noise_correlation=nc
                    )
                    iters.append(res.iterations_run)
                    recovered.append(res.estimate.support == x.support)
                    held += report.all_hold
                    if report.condition_met and not report.all_hold:
                        out["instance_failures"].setdefault(j, ("CheckFailed", f"{name}: condition met but a recurrence fails"))
            except Exception as exc:  # counted per instance, the pipeline goes on
                out["instance_failures"][j] = (_category(exc), str(exc))
        big_cfg = pursuit.PursuitConfig(k=self.BIG_K, halting=pursuit.FixedIterations(self.BIG_ITERATIONS))
        res = pursuit.subspace_pursuit(big_d, big_y, big_cfg, x_true=big_x)
        pursuit.write_trace(self.trace_path, res, big_d, x_true=big_x, noise=big_e, sigma=1.0)
        argv = ["diagnose", "--in", self.trace_path, "--delta", repr(big_delta)]
        if diagnose_in_process:
            code = sparselab.cli.main(argv)
        else:
            code = subprocess.run(
                [sys.executable, "-m", "sparselab.cli"] + argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
            ).returncode
        out["wall"] = time.perf_counter() - t0
        out.update(
            deltas=deltas,
            diagnose_code=code,
            trace_bytes=os.path.getsize(self.trace_path),
            iterations=sum(iters) / max(1, len(iters)),
            recovered=sum(recovered) / max(1, len(recovered)),
            held=held,
            trials=self.INSTANCES,
        )
        # the fast top-k path must equal the enumeration it replaces
        x, e, _ = instances[0]
        fast = metrics.worst_case_noise_correlation(D, e, self.K).value
        slow = metrics.worst_case_noise_correlation(D, e, self.K, use_enumeration=True).value
        if abs(fast - slow) > 1e-12:
            out["instance_failures"].setdefault(0, ("CheckFailed", f"noise correlation fast {fast!r} != enumeration {slow!r}"))
        return out

    def unit(self, i):
        self.inputs(i)
        return self.pipeline(i, diagnose_in_process=False)

    def check(self, i, out):
        o = self.outcome
        # operations: each instance, each enumeration order, the replay
        o.attempted += out["trials"] + len(self.orders()) + 1
        for j, (category, message) in sorted(out["instance_failures"].items()):
            o.fail(category, f"repetition {i} instance {j}: {message}")
        problems = []
        d3, d4 = out["deltas"]
        if not d3 <= d4:
            problems.append(f"delta_{3 * self.K} = {d3!r} exceeds delta_{4 * self.K} = {d4!r}")
        refs = (self.ref or {}).get("deltas", [])
        if i < len(refs) and [float.fromhex(h) for h in refs[i]] != out["deltas"]:
            problems.append(f"deltas {out['deltas']} are not bit-equal to the stored ones")
        if problems:
            o.fail("CheckFailed", f"repetition {i}: " + "; ".join(problems), ops=len(self.orders()))
        if out["diagnose_code"] != 0:
            o.fail("ExitCode", f"repetition {i}: diagnose exited {out['diagnose_code']}")

    def fixed_units(self):
        # in-process replay, so the traced pass sees the diagnose command
        return [self.pipeline(0, diagnose_in_process=True)]

    def same(self, a, b):
        return all(
            x["deltas"] == y["deltas"] and x["held"] == y["held"] and x["diagnose_code"] == y["diagnose_code"] == 0
            for x, y in zip(a, b)
        )

    def layer_extra(self, units, untraced_wall):
        out = units[0]
        return {
            "pursuit.iterations": out["iterations"],
            "pursuit.support_recovered_frac": out["recovered"],
            "pursuit.trace_bytes": out["trace_bytes"],
            "supports": self.supports_per_pipeline(),
        }

    def reference(self, n):
        deltas = []
        for r in range(n):
            D = self.inputs(r)[0]
            deltas.append([sparselab.metrics.rip_exact(D, o, budget=None).delta.hex() for o in self.orders()])
        return {"deltas": deltas}


WORKLOADS = {w.name: w for w in (SweepFull, SweepCli, SolveFresh, VerifyExact)}
