"""sparselab benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload sweep_full --seed 20240817 --seconds 22 --trace 0

Run from the root of a checkout; the package is used from src/ through
PYTHONPATH, not installed. This process only orchestrates: it pins BLAS to
one thread, times set-up by starting the workload process several times up
to its READY line, samples the resident memory of the workload process and
its children, and prints every metric of BENCHMARK.json with its unit. The
last line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every correctness check passed.

Workloads, metric definitions, seeds and predictions: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_full", "sweep_cli", "solve_fresh", "verify_exact")
DEFAULT_SEED = 20240817
# set-up-only starts of the workload process, half before and half after the
# measurement; setup_s is the median of these and the measured process's own
SETUP_PROBES = 16
# BLAS threads per process; with 2 pool workers this keeps workers x threads <= 2
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _tree(pid):
    """pid and all its descendants, from /proc/<pid>/task/<tid>/children."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def _rss_bytes(pids):
    total = 0
    page = os.sysconf("SC_PAGE_SIZE")
    for p in pids:
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
    return total


class RssSampler(threading.Thread):
    """Largest summed resident memory of a process tree, sampled every 10 ms."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak = 0
        self.stop = threading.Event()

    def run(self):
        while not self.stop.wait(0.01):
            self.peak = max(self.peak, _rss_bytes(_tree(self.pid)))


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Child:
    """A workload process in its own session, so it and its children can be stopped together."""

    def __init__(self, cmd, env, timeout):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
        # a workload process that has not finished by then is stopped and the run fails
        self.timer = threading.Timer(timeout, _kill_group, (self.proc,))
        self.timer.start()

    def ready(self):
        """Seconds from start to the READY line, and the input hash it carries."""
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.finish()
            die(f"workload process failed during set-up (exit {self.proc.returncode})")
        return time.perf_counter() - self.t0, line.split()[1]

    def finish(self):
        """Read the rest of stdout, reap the process, stop its group; returns (stdout, max rss bytes)."""
        try:
            rest = self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            self.timer.cancel()
            _kill_group(self.proc)
            self.proc.stdout.close()
        return rest, usage.ru_maxrss * 1024


def _git_sha():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return sha or "unavailable (not a git checkout)"


def _source_sha():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "sparselab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description="sparselab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sparselab", "__init__.py")):
        die(f"no src/sparselab under {ROOT}: run from the root of a sparselab checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update(BLAS_ENV)
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "runner.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp, "--out", out_dir]

    started = []
    # a unit may start just before --seconds runs out, so allow twice that
    timeout = 2 * args.seconds + 60

    def start(extra=()):
        started.append(Child(cmd + list(extra), env, timeout))
        return started[-1]

    def probe():
        child = start(["--setup-only"])
        seconds = child.ready()[0]
        child.finish()
        return seconds

    # a terminated benchmark still stops its workload processes and cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        # set-up probes before and after the measurement, so a slow spell of
        # a shared machine does not decide the median alone
        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        child = start()
        ready_s, input_hash = child.ready()
        setups.append(ready_s)
        sampler = RssSampler(child.proc.pid)
        sampler.start()
        try:
            stdout, max_rss = child.finish()
        finally:
            sampler.stop.set()
            sampler.join()
        setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        for c in started:
            c.timer.cancel()
            _kill_group(c.proc)
        shutil.rmtree(tmp, ignore_errors=True)

    result_lines = [line for line in stdout.splitlines() if line.startswith("RESULT ")]
    if child.proc.returncode != 0 or not result_lines:
        die(f"workload process exited {child.proc.returncode} without a result")
    result = json.loads(result_lines[-1][len("RESULT "):])
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = max(sampler.peak, max_rss) / 1e6
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        die(f"workload produced no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted, failed = max(1, result["attempted"]), result["failed"]
    correct = failed == 0 and not result["failures"]
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
        "inputs_sha256": input_hash,
        "platform": platform.platform(),
        **result["manifest"],
        "setup_samples_s": setups,
        "note": result["note"],
        "reference": result["reference"],
        "failures": result["failures"],
        "problems": result["problems"],
        "metrics": metrics,
    }
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"manifest-{stamp}.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)

    print(f"sparselab benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(
        f"manifest: nproc {manifest['nproc']}, {manifest['blas']} pinned to 1 thread, numpy {manifest['numpy']}, "
        f"python {manifest['python']}, git {manifest['git_sha'][:12]}, inputs sha256 {input_hash[:16]}"
    )
    print(f"measured: {result['note']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {failed}/{attempted} = {failed / attempted:.6g}")
    if result["failures"]:
        print("  failures by category: " + ", ".join(f"{k} {v}" for k, v in sorted(result["failures"].items())))
    print(f"correctness: {'ok' if correct else 'FAILED'} ({result['reference']})")
    for problem in result["problems"]:
        print(f"  {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
