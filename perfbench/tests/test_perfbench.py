"""Self-tests of the benchmark's tracing: coverage, transparency, exact accounting."""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import sparselab  # noqa: E402
import sparselab.experiment  # noqa: E402
import sparselab.pursuit  # noqa: E402
from sparselab.experiment import ExperimentConfig  # noqa: E402
from sparselab.pursuit import Algorithm  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, counts, self_times  # noqa: E402

SMALL_SWEEP = ExperimentConfig(
    m=48,
    n_atoms=96,
    k_values=(2, 4),
    sigma_values=(0.5,),
    trials_per_point=3,
    seed=11,
    algorithms=(Algorithm.SP, Algorithm.COSAMP, Algorithm.IHT, Algorithm.ORACLE),
)


def _problem(m=64, n=128, k=3, seed=5):
    D = sparselab.generate_dictionary(m, n, seed)
    x = sparselab.generate_signal(n, k, seed)
    y = D.entries @ x.values + 0.1 * np.random.default_rng(seed).standard_normal(m)
    return D, x, y


def test_sp_calls_are_caught_at_every_import_site():
    D, x, y = _problem()
    n_iter = 4
    cfg = sparselab.PursuitConfig(k=3, halting=sparselab.FixedIterations(n_iter))
    with Tracer() as tr:
        sparselab.subspace_pursuit(D, y, cfg, x_true=x)
    n = counts(tr.spans)
    assert n["pursuit.subspace_pursuit"] == 1
    # per iteration: one merged and one pruned solve; one selection and one prune
    assert n["linalg.least_squares_on_support"] == 2 * n_iter
    assert n["linalg.top_k_support"] == 2 * n_iter
    assert n["numpy.lstsq"] == 2 * n_iter


def test_every_public_function_of_every_layer_is_wrapped():
    defined = {}
    for layer in LAYERS:
        module = importlib.import_module(f"sparselab.{layer}")
        defined[layer] = [
            name for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__
        ]
        assert defined[layer], layer
    with Tracer():
        for layer, names in defined.items():
            module = importlib.import_module(f"sparselab.{layer}")
            for name in names:
                assert hasattr(getattr(module, name), "__wrapped__"), f"{layer}.{name}"
        # and where another layer imported it by name
        assert hasattr(sparselab.pursuit.top_k_support, "__wrapped__")
        assert hasattr(sparselab.experiment.rip_monte_carlo, "__wrapped__")


def test_dispatch_table_and_class_methods_are_wrapped():
    D, _, _ = _problem()
    with Tracer() as tr:
        sparselab.experiment.run_trial(D, 3, 0.5, (Algorithm.SP, Algorithm.IHT, Algorithm.ORACLE), 7, halting="fixed:2")
    n = counts(tr.spans)
    # run_trial reaches the solvers through experiment._SOLVERS
    assert n["pursuit.subspace_pursuit"] == 1
    assert n["pursuit.iht"] == 1
    assert n["pursuit.oracle_estimator"] == 1
    assert n["linalg.Dictionary.columns"] > 0


def test_uninstall_restores_every_binding():
    before = dict(vars(sparselab.pursuit)), dict(sparselab.experiment._SOLVERS), np.linalg.lstsq
    with Tracer():
        assert sparselab.pursuit.top_k_support is not before[0]["top_k_support"]
    assert dict(vars(sparselab.pursuit)) == before[0]
    assert dict(sparselab.experiment._SOLVERS) == before[1]
    assert np.linalg.lstsq is before[2]
    assert not hasattr(sparselab.linalg.Dictionary.columns, "__wrapped__")


def test_traced_outputs_are_bit_equal_to_untraced():
    D, x, y = _problem()
    cfg = sparselab.PursuitConfig(k=3, halting=sparselab.PracticalLogRule(sigma=0.1))
    plain = [f(D, y, cfg, x_true=x) for f in (sparselab.subspace_pursuit, sparselab.cosamp, sparselab.iht)]
    rows_plain, _ = sparselab.run_experiment(SMALL_SWEEP)
    with Tracer():
        traced = [f(D, y, cfg, x_true=x) for f in (sparselab.subspace_pursuit, sparselab.cosamp, sparselab.iht)]
        rows_traced, _ = sparselab.run_experiment(SMALL_SWEEP)
    for a, b in zip(plain, traced):
        assert a.estimate.support == b.estimate.support
        assert np.array_equal(a.estimate.values, b.estimate.values)
    assert rows_plain == rows_traced


def test_self_time_is_exact_and_never_negative():
    with Tracer() as tr:
        sparselab.run_experiment(SMALL_SWEEP)
    pairs = self_times(tr.spans)
    assert all(self_ns >= 0 for _, self_ns in pairs)
    # every span's duration is its self time plus its direct children's
    children = {}
    for s in tr.spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    for span, self_ns in pairs:
        covered = sum(c.end - c.start for c in children.get(id(span), []))
        assert self_ns + covered == span.end - span.start


def test_two_traced_runs_count_the_same_calls():
    runs = []
    for _ in range(2):
        with Tracer() as tr:
            sparselab.run_experiment(SMALL_SWEEP)
        runs.append(counts(tr.spans))
    assert runs[0] == runs[1]


def test_layer_metrics_cover_exactly_the_declared_names():
    with Tracer() as tr:
        sparselab.run_experiment(SMALL_SWEEP)
    metrics = layers.compute([tr.spans], {})
    assert list(metrics) == layers.declared()
    assert metrics["linalg.lstsq_calls"] > 0
    assert metrics["metrics.rip_exact_s"] == 0


def test_verify_exact_counts_each_failed_instance_once(tmp_path):
    w = workloads.VerifyExact(seed=12345, tmp=str(tmp_path))
    out = {
        "trials": w.INSTANCES,
        "instance_failures": {0: ("LinAlgError", "SVD did not converge"), 3: ("CheckFailed", "sp: recurrence")},
        "deltas": [0.25, 0.5],
        "diagnose_code": 0,
    }
    w.check(0, out)
    o = w.outcome
    assert o.attempted == w.INSTANCES + len(w.orders()) + 1
    assert o.failed == 2
    assert dict(o.failures) == {"LinAlgError": 1, "CheckFailed": 1}
