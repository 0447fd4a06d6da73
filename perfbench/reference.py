"""Stored correctness oracles, one JSON file per workload, keyed by seed.

They were computed once, from the seeds listed in SEEDS, by the code the
benchmark was defined on. A run whose seed has a stored record compares
against it; a run on any other seed checks the workload's invariants only,
and says so.

Regenerate (only when a change is meant to alter results):

    PYTHONPATH=src python3 perfbench/reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DIRECTORY = os.path.join(HERE, "reference")

DEFAULT_SEED = 20240817
HELD_OUT_SEED = 7919
SEEDS = (DEFAULT_SEED, HELD_OUT_SEED) + tuple(range(1, 21))

# units per seed with a stored record: sweep_full calls, solve_fresh
# requests, verify_exact repetitions (sweep_cli repeats one config)
UNITS = {"sweep_full": 3, "sweep_cli": 1, "solve_fresh": 8, "verify_exact": 4}


def _path(name):
    return os.path.join(DIRECTORY, f"{name}.json")


def load(name, seed):
    try:
        with open(_path(name)) as fh:
            return json.load(fh).get(str(seed))
    except FileNotFoundError:
        return None


def main(names):
    import tempfile

    from workloads import WORKLOADS

    os.makedirs(DIRECTORY, exist_ok=True)
    for name in names:
        records = {}
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=".") as tmp:
                records[str(seed)] = WORKLOADS[name](seed, tmp).reference(UNITS[name])
            print(f"{name}: seed {seed} done", flush=True)
        with open(_path(name), "w") as fh:
            json.dump(records, fh, separators=(",", ":"))
            fh.write("\n")


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    main(sys.argv[1:] or list(UNITS))
