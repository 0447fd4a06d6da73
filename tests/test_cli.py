import argparse
import base64
import dataclasses
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest

from sparselab import guarantees
from sparselab.cli import build_parser, main
from sparselab.experiment import generate_dictionary, generate_signal
from sparselab.linalg import Dictionary, import_dictionary_csv
from sparselab.metrics import rip_exact, rip_monte_carlo
from sparselab.pursuit import Algorithm, FixedIterations, PursuitConfig, cosamp, iht, read_trace, subspace_pursuit, write_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _with_first_record(result, **changes):
    first, *rest = result.trace
    return dataclasses.replace(result, trace=(dataclasses.replace(first, **changes), *rest))


def _first_value_nan(header, record):
    """A trace edit: the first record's first estimate value becomes NaN."""
    record.update(estimate_values=floats(np.r_[math.nan, decoded(record["estimate_values"])[1:]]))


class TestGenDict:
    def test_writes_loadable_dictionary(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, stdout, stderr = run_cli(capsys, "gen-dict", "--m", "12", "--n", "20", "--seed", "3", "--out", str(out))
        assert code == 0 and stderr == ""
        assert out.read_text().splitlines()[0] == "12,20"
        D = import_dictionary_csv(out)
        assert np.array_equal(D.entries, generate_dictionary(12, 20, 3).entries)


class TestRip:
    # the payload is derived from RipEstimate's fields; its key order is part of the output
    RIP_KEYS = ["k", "delta", "method", "supports_checked", "seed"]

    @pytest.fixture()
    def dict_path(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        main(["gen-dict", "--m", "10", "--n", "16", "--seed", "4", "--out", str(out)])
        capsys.readouterr()
        return out

    def test_exact_mode(self, dict_path, capsys):
        code, stdout, _ = run_cli(capsys, "rip", "--in", str(dict_path), "--k", "2", "--mode", "exact")
        assert code == 0
        payload = json.loads(stdout)
        D = import_dictionary_csv(dict_path)
        assert payload["delta"] == rip_exact(D, 2).delta
        assert payload["method"] == "exact_enumeration"
        assert list(payload) == self.RIP_KEYS

    def test_mc_mode(self, dict_path, capsys):
        code, stdout, _ = run_cli(
            capsys, "rip", "--in", str(dict_path), "--k", "3", "--mode", "mc", "--trials", "100", "--seed", "5"
        )
        assert code == 0
        payload = json.loads(stdout)
        D = import_dictionary_csv(dict_path)
        assert payload["delta"] == rip_monte_carlo(D, 3, trials=100, seed=5).delta
        assert payload["seed"] == 5
        assert list(payload) == self.RIP_KEYS

    def test_budget_exceeded_is_reported(self, tmp_path, capsys):
        out = tmp_path / "big.csv"
        main(["gen-dict", "--m", "16", "--n", "40", "--seed", "6", "--out", str(out)])
        capsys.readouterr()
        code, _, stderr = run_cli(capsys, "rip", "--in", str(out), "--k", "5", "--budget", "100")
        assert code == 2
        assert stderr.startswith("error[BudgetExceeded]:")

    def test_library_budget_applies_by_default(self, tmp_path, capsys):
        # C(27, 8) = 2,220,075 supports is past the library budget of 2e6
        out = tmp_path / "d.csv"
        main(["gen-dict", "--m", "12", "--n", "27", "--seed", "6", "--out", str(out)])
        capsys.readouterr()
        code, stdout, stderr = run_cli(capsys, "rip", "--in", str(out), "--k", "8")
        assert code == 2 and stdout == ""
        assert stderr.startswith("error[BudgetExceeded]:")

    def test_missing_file(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "rip", "--in", str(tmp_path / "nope.csv"), "--k", "2")
        assert code == 2
        assert stderr.startswith("error[FileNotFoundError]:")


class TestBounds:
    def test_sp_payload_matches_library(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "bounds", "--algorithm", "sp", "--delta", "0.139", "--n", "1024", "--k", "10", "--sigma", "1.0",
        )
        assert code == 0
        payload = json.loads(stdout)
        c = guarantees.sp_constants(0.139)[2]
        assert payload["constant"] == pytest.approx(c, rel=1e-15)
        assert payload["condition_met"] is True
        assert payload["success_probability"] == pytest.approx(guarantees.success_probability(1.0, 1024), rel=1e-15)

    def test_ds_without_second_delta_fails_cleanly(self, capsys):
        code, _, stderr = run_cli(
            capsys, "bounds", "--algorithm", "ds", "--delta", "0.2", "--n", "256", "--k", "4", "--sigma", "1.0"
        )
        assert code == 2
        assert stderr.startswith("error[")

    def test_ds_with_second_delta(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "bounds", "--algorithm", "ds", "--delta", "0.2", "--n", "256", "--k", "4", "--sigma", "1.0",
            "--second-delta", "0.3",
        )
        assert code == 0
        assert json.loads(stdout)["condition_met"] is True

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sigma", "nan"),
            ("--sigma", "inf"),
            ("--a", "nan"),
            ("--a", "inf"),
            ("--noise-correlation", "nan"),
            ("--noise-correlation", "inf"),
            ("--noise-correlation", "-1"),
            ("--second-delta", "nan"),
            ("--second-delta", "-5"),
        ],
    )
    def test_non_finite_input_rejected(self, capsys, flag, value):
        # each used to print a NaN or Infinity bound (or a negative one), or a ds verdict, and exit 0
        algorithm = "ds" if flag == "--second-delta" else "sp"  # only ds reads a second delta
        argv = {"--algorithm": algorithm, "--delta": "0.1", "--n": "1024", "--k": "10", "--sigma": "1.0", flag: value}
        code, stdout, stderr = run_cli(capsys, "bounds", *(tok for pair in argv.items() for tok in pair))
        assert code == 2 and stdout == ""
        assert stderr.startswith("error[ValueError]:")

    def test_ds_past_its_pole_is_a_value_error(self, capsys):
        code, stdout, stderr = run_cli(
            capsys,
            "bounds", "--algorithm", "ds", "--delta", "0.6", "--n", "1024", "--k", "10", "--sigma", "1",
            "--second-delta", "0.1",
        )
        assert code == 2 and stdout == ""
        assert stderr.startswith(r"error[ValueError]: delta must lie in [0, 0.5), got 0.6")

    def test_invalid_delta(self, capsys):
        code, _, stderr = run_cli(
            capsys, "bounds", "--algorithm", "sp", "--delta", "1.5", "--n", "64", "--k", "2", "--sigma", "1.0"
        )
        assert code == 2
        assert stderr.startswith("error[")


class TestRun:
    def test_full_pipeline(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "m = 32\nn_atoms = 64\nk_values = 3\nsigma_values = 0.5\n"
            "trials_per_point = 5\nseed = 9\nalgorithms = sp,oracle\n"
        )
        out_dir = tmp_path / "out"
        code, stdout, stderr = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0 and stderr == ""
        lines = (out_dir / "results.csv").read_text().splitlines()
        assert lines[0].startswith("k,sigma,algorithm")
        assert len(lines) == 3  # header + sp + oracle
        assert (out_dir / "results.jsonl").exists()
        trial_lines = (out_dir / "trials.jsonl").read_text().splitlines()
        assert len(trial_lines) == 10

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m = 32\nbogus = 1\n")
        code, _, stderr = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert stderr.startswith("error[ConfigError]:")

    def test_workers_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "m = 32\nn_atoms = 64\nk_values = 2\nsigma_values = 1.0\n"
            "trials_per_point = 4\nseed = 2\nalgorithms = sp\n"
        )
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(out1), "--workers", "1")[0] == 0
        assert run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(out2), "--workers", "2")[0] == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_zero_workers_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "m = 32\nn_atoms = 64\nk_values = 2\nsigma_values = 1.0\n"
            "trials_per_point = 4\nseed = 2\nalgorithms = sp\n"
        )
        code, _, stderr = run_cli(capsys, "run", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), "--workers", "0")
        assert code == 2
        assert stderr.startswith("error[ConfigError]: workers must be >= 1")


# a 32 x 64 sweep that validates whenever its sigma_values and halting lines do
SMALL_RUN = "m = 32\nn_atoms = 64\nk_values = 2\ntrials_per_point = 3\nseed = 1\nalgorithms = sp, oracle\n"
BOUNDS_SP = ("bounds", "--algorithm", "sp", "--delta", "0.1", "--n", "1024", "--k", "10")


@pytest.mark.parametrize(
    "argv, config, category",
    [
        (BOUNDS_SP + ("--sigma", "1e200"), None, "ValueError"),
        (BOUNDS_SP + ("--sigma", "1", "--a", "1e300"), None, "ValueError"),
        # 1024**103 = 2**1030 is past the float range
        (BOUNDS_SP + ("--sigma", "1", "--a", "103"), None, "ValueError"),
        # k sigma^2 is finite, but the probabilistic bound is not
        (BOUNDS_SP + ("--sigma", "1e153"), None, "ValueError"),
        (("run",), "sigma_values = 1e200\n", "ConfigError"),
        # sigma^2 is finite, but ||y||_2 and 2 sigma^2 (the oracle MSE at k = 2) are not
        (("run",), "sigma_values = 1e154\n", "ConfigError"),
        (("run",), "sigma_values = 1e200\nhalting = fixed:3\n", "ConfigError"),
    ],
    ids=["bounds-sigma", "bounds-a", "bounds-a-103", "bounds-infinite-bound", "run-practical", "run-norm-overflow", "run-fixed"],
)
def test_huge_finite_sigma_or_a_rejected_without_traceback(tmp_path, capsys, argv, config, category):
    # each used to end in an OverflowError traceback and exit 1, or print an Infinity bound and exit 0
    if config is not None:
        path = tmp_path / "exp.cfg"
        path.write_text(SMALL_RUN + config)
        argv += ("--config", str(path), "--out-dir", str(tmp_path / "out"))
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith(f"error[{category}]:")


def test_readme_command_line_block_parses():
    # every example in README's "Command line" block parses, and every subcommand has one
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.strip()]
    parser = build_parser()
    assert all(line.startswith("sparselab ") for line in lines)
    shown = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert shown == set(subcommands.choices)


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _fresh_python(code, cwd=None):
    """Run `code` in a new interpreter on this checkout's src/; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_readme_quickstart_runs(tmp_path):
    # README's python block is run as written, so a deleted or renamed name it uses fails here
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    _fresh_python(block, cwd=tmp_path)


class TestLazyImport:
    """The sweep layer loads only when a sweep needs it; the package still exports it."""

    def test_cli_import_leaves_the_sweep_layer_unloaded(self):
        out = _fresh_python(
            "import sys, sparselab.cli\n"
            "print(sorted(m for m in ('sparselab.experiment', 'multiprocessing') if m in sys.modules))"
        )
        assert out.strip() == "[]"

    def test_package_still_exports_the_sweep_layer(self):
        out = _fresh_python(
            "import sparselab\n"
            "from sparselab import run_experiment, ExperimentConfig\n"
            "import sparselab.experiment as ex\n"
            "assert run_experiment is ex.run_experiment and ExperimentConfig is ex.ExperimentConfig\n"
            "assert {'experiment', 'run_experiment', 'trial_seed', 'subspace_pursuit'} <= set(sparselab.__all__)\n"
            "assert all(hasattr(sparselab, name) for name in sparselab.__all__)\n"
            "ns = {}\n"
            "exec('from sparselab import *', ns)\n"
            "assert ns['run_trial'] is ex.run_trial\n"
            "print(len(sparselab.__all__))"
        )
        assert int(out) > 0

    def test_package_attribute_follows_a_rebinding(self):
        # nothing is cached in the package, so a wrapper bound in experiment is what callers get
        import sparselab
        import sparselab.experiment as ex

        original = ex.run_trial
        try:
            ex.run_trial = marker = lambda *a, **k: None
            assert sparselab.run_trial is marker
        finally:
            ex.run_trial = original
        assert sparselab.run_trial is original
        with pytest.raises(AttributeError):
            sparselab.no_such_name


class TestDiagnose:
    def make_trace(self, tmp_path, well_conditioned=False, solver=subspace_pursuit):
        if well_conditioned:
            # perturbed orthonormal basis: exact delta_6 ~ 0.077 meets the
            # subspace-pursuit condition, so all checks must hold
            from sparselab.linalg import normalize_columns

            rng = np.random.default_rng(5)
            Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
            D = normalize_columns(Q + 0.01 * rng.standard_normal((12, 12)))
            n = 12
        else:
            D = generate_dictionary(12, 18, 44)
            n = 18
        x = generate_signal(n, 2, 45)
        e = 0.1 * np.random.default_rng(46).standard_normal(12)
        y = D.entries @ x.values + e
        res = solver(D, y, PursuitConfig(k=2, halting=FixedIterations(3)), x_true=x)
        path = tmp_path / "trace.jsonl"
        write_trace(path, res, D, x_true=x, noise=e, sigma=0.1)
        return path

    def test_reports_checks_and_exit_zero_when_condition_unmet(self, tmp_path, capsys):
        # explicit delta far above the threshold: checks are evaluated and
        # reported but the run is not considered a failure
        path = self.make_trace(tmp_path)
        code, stdout, _ = run_cli(capsys, "diagnose", "--in", str(path), "--delta", "0.9")
        assert code == 0
        assert "merged_support_miss" in stdout
        payload = json.loads(stdout[stdout.index("{"):])
        assert payload["condition_met"] is False

    def test_exit_zero_when_all_hold(self, tmp_path, capsys):
        path = self.make_trace(tmp_path, well_conditioned=True)
        code, stdout, _ = run_cli(capsys, "diagnose", "--in", str(path))
        assert code == 0
        payload = json.loads(stdout[stdout.index("{"):])
        assert payload["algorithm"] == "sp"
        assert payload["checks"] == 9
        assert payload["condition_met"] is True
        assert payload["all_hold"] is True

    @pytest.mark.parametrize("delta", ["1.0", "1.5"])
    def test_exit_zero_past_the_pole(self, tmp_path, capsys, delta):
        # every sp coefficient is +inf at delta >= 1: the checks hold vacuously, never nan
        path = self.make_trace(tmp_path)
        code, stdout, _ = run_cli(capsys, "diagnose", "--in", str(path), "--delta", delta)
        assert code == 0
        assert "rhs=inf ok" in stdout and "nan" not in stdout
        payload = json.loads(stdout[stdout.index("{"):])
        assert payload["condition_met"] is False
        assert payload["all_hold"] is True

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("noise", lambda h, r: h.pop("noise")),
            ("x_true.support", lambda h, r: h["x_true"].pop("support")),
            ("k", lambda h, r: h.update(k="2")),
            ("pruned_support", lambda h, r: r.update(pruned_support="0,1")),
            ("estimate_values", lambda h, r: r.update(estimate_values=None)),
            # arrays as lists of floats: the format of older sparselab traces
            ("dictionary", lambda h, r: h.update(dictionary=np.eye(12, 18).tolist())),
            # 7 and 12 bytes: not a whole number of float64 values
            ("noise", lambda h, r: h.update(noise=base64.b64encode(bytes(7)).decode())),
            ("x_true.values", lambda h, r: h["x_true"].update(values=base64.b64encode(bytes(12)).decode())),
            ("dictionary", lambda h, r: h.update(dictionary="not base64!")),
            ("dictionary", lambda h, r: h.update(m=11)),
        ],
    )
    def test_malformed_trace_exits_2_naming_the_field(self, tmp_path, capsys, field, edit):
        # a missing key or a wrong type used to escape read_trace as a KeyError or
        # TypeError traceback with exit 1, the code for "conditions met and a check fails"
        self.assert_rejected_naming(tmp_path, capsys, field, edit)

    def test_index_past_int64_exits_2_naming_the_field(self, tmp_path, capsys):
        # an index past int64 used to read fine, then crash diagnostics with an OverflowError
        self.assert_rejected_naming(
            tmp_path, capsys, "pruned_support", lambda h, r: r.update(pruned_support=[0, 2**64])
        )

    def test_stored_estimate_error_is_ignored(self, tmp_path, capsys):
        # older traces store each record's error; it is computed from x_true now, so a value
        # that is no float, which used to exit 2, is ignored like any unknown key
        self.assert_ignored(tmp_path, capsys, lambda h, records: records[0].update(estimate_error=[1.0]))

    def test_stored_truth_k_is_ignored(self, tmp_path, capsys):
        # k is stored once, in the header; an x_true.k other than it used to exit 2
        self.assert_ignored(tmp_path, capsys, lambda h, records: h["x_true"].update(k=3))

    @pytest.mark.parametrize("solver", [subspace_pursuit, cosamp], ids=["sp", "cosamp"])
    def test_null_merge_field_exits_2_naming_it(self, tmp_path, capsys, solver):
        # SP and CoSaMP records must carry delta_support; a null one in record 1
        # used to crash diagnostics with an AttributeError traceback and exit 1
        self.assert_rejected_naming(tmp_path, capsys, "delta_support", lambda h, r: r.update(delta_support=None), solver)

    @pytest.mark.parametrize(
        "stored",
        [lambda: [0.5, 0.25], lambda: None, lambda: floats(np.ones(5)), lambda: floats(np.ones(4))],
        ids=["list_of_floats", "null", "wrong_length", "base64"],
    )
    @pytest.mark.parametrize("solver", [subspace_pursuit, cosamp], ids=["sp", "cosamp"])
    def test_stored_coefficients_are_ignored(self, tmp_path, capsys, solver, stored):
        # older traces store each record's merged least-squares solve, which nothing reads; a bad,
        # missing or null one used to exit 2, and now any is ignored like an unknown key
        self.assert_ignored(tmp_path, capsys, lambda h, records: [r.update(coefficients=stored()) for r in records], solver)

    def test_iht_trace_that_stores_coefficients_reads_the_same(self, tmp_path, capsys):
        # older IHT traces store each record's estimate again as coefficients, and x_true.k
        def older(header, records):
            header["x_true"]["k"] = header["k"]
            for record in records:
                record["coefficients"] = record["estimate_values"]

        self.assert_ignored(tmp_path, capsys, older, solver=iht)
        records = read_trace(tmp_path / "trace.jsonl").records
        assert all(r.delta_support is None for r in records)

    @pytest.mark.parametrize(
        "field, edit, solver",
        [(field, edit, subspace_pursuit) for field, edit in [
            ("x_true.values", lambda h, r: h["x_true"].update(values=floats(np.zeros(20)))),
            ("x_true", lambda h, r: h["x_true"].update(support=[0, 18])),
            ("noise", lambda h, r: h.update(noise=floats(np.zeros(10)))),
            ("pruned_support", lambda h, r: r.update(pruned_support=[1, 99])),
            ("delta_support", lambda h, r: r.update(delta_support=[18, 19])),
            ("estimate_values", lambda h, r: r.update(estimate_values=floats(np.ones(3)))),
            ("noise", lambda h, r: h.update(noise=floats(np.r_[math.nan, decoded(h["noise"])[1:]]))),
            ("k", lambda h, r: h.update(k=3)),
            ("sigma", lambda h, r: h.update(sigma=-0.1)),
            ("sigma", lambda h, r: h.update(sigma=math.nan)),
            ("dictionary", lambda h, r: h.update(dictionary=floats(np.r_[math.nan, decoded(h["dictionary"])[1:]]))),
            ("dictionary", lambda h, r: h.update(dictionary=floats(2 * decoded(h["dictionary"])))),
            ("sigma", lambda h, r: h.update(sigma=10**400)),
            ("m", lambda h, r: h.update(m=-12)),
            ("n_atoms", lambda h, r: h.update(n_atoms=-20)),
            # the SP records under an IHT header: each holds the atoms SP added
            ("delta_support", lambda h, r: h.update(algorithm="iht")),
            ("algorithm", lambda h, r: h.update(algorithm="oracle")),
            # SP's checks read only supports, so diagnose used to print the clean file's output
            ("estimate_values", _first_value_nan),
        ]]
        # diagnose used to print lhs=nan ... FAIL for the first iteration
        + [("estimate_values", _first_value_nan, iht)],
        ids=[
            "truth_length",
            "truth_support_past_n_atoms",
            "noise_length",
            "pruned_support_past_n_atoms",
            "delta_support_past_n_atoms",
            "estimate_values_length",
            "noise_non_finite",
            "header_k",
            "sigma_negative",
            "sigma_nan",
            "dictionary_nan",
            "dictionary_not_normalized",
            "sigma_past_float",
            "m_negative",
            "n_atoms_negative",
            "iht_delta_support",
            "oracle_header",
            "sp_estimate_values_nan",
            "iht_estimate_values_nan",
        ],
    )
    def test_inconsistent_trace_exits_2_naming_the_field(self, tmp_path, capsys, field, edit, solver):
        # each used to exit 0, exit 1 with a traceback, or exit 2 with a message that named no file or field
        self.assert_rejected_naming(tmp_path, capsys, field, edit, solver)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("noise", lambda a: a.update(noise=np.zeros(5))),
            ("x_true.values", lambda a: a.update(x_true=generate_signal(30, 2, 45))),
            ("sigma", lambda a: a.update(sigma=-0.1)),
            ("sigma", lambda a: a.update(sigma=math.nan)),
            ("noise", lambda a: a.update(noise=np.r_[math.nan, a["noise"][1:]])),
            # SP's first delta_support on the 20-atom dictionary holds atom 17
            ("delta_support", lambda a: a.update(D=Dictionary(a["D"].entries[:, :15]), x_true=generate_signal(15, 2, 45))),
            ("delta_support", lambda a: a.update(result=_with_first_record(a["result"], delta_support=None))),
            # SP's records, each holding the atoms SP added, as an IHT result
            ("delta_support", lambda a: a.update(result=dataclasses.replace(a["result"], algorithm=Algorithm.IHT))),
            ("estimate_values", lambda a: a.update(result=_with_first_record(a["result"], estimate_values=np.r_[math.nan, a["result"].trace[0].estimate_values[1:]]))),
        ],
        ids=[
            "noise_length",
            "truth_length",
            "sigma_negative",
            "sigma_nan",
            "noise_non_finite",
            "result_past_n_atoms",
            "sp_null_delta_support",
            "iht_delta_support",
            "estimate_values_nan",
        ],
    )
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, field, edit):
        # write_trace used to write each of these, and only read_trace or diagnose refused the file
        D = generate_dictionary(12, 20, 44)
        x = generate_signal(20, 2, 45)
        e = 0.1 * np.random.default_rng(46).standard_normal(12)
        res = subspace_pursuit(D, D.entries @ x.values + e, PursuitConfig(k=2, halting=FixedIterations(3)), x_true=x)
        assert 17 in res.trace[0].delta_support
        args = {"result": res, "D": D, "x_true": x, "noise": e, "sigma": 0.1}
        edit(args)
        path = tmp_path / "trace.jsonl"
        with pytest.raises(ValueError) as info:
            write_trace(path, **args)
        assert str(info.value).startswith(f"{path}: field {field!r}: ")
        assert not path.exists()

    def test_header_only_trace_exits_2_naming_the_file(self, tmp_path, capsys):
        # a trace with no iteration line used to read as 0 records, then stop diagnostics with no path
        path = self.make_trace(tmp_path)
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        code, stdout, stderr = run_cli(capsys, "diagnose", "--in", str(path), "--delta", "0.9")
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error[ValueError]: {path}: ")

    def test_stored_merged_support_is_ignored(self, tmp_path, capsys):
        # the merged support is derived from the previous pruned support and delta_support;
        # a stored one that leaves out every true atom used to fail merged_support_miss
        def forge(header, records):
            records[1]["merged_support"] = sorted(set(range(12)) - set(header["x_true"]["support"]))[:4]

        assert "merged_support_miss" in self.assert_ignored(tmp_path, capsys, forge)

    def test_trace_without_truth_rejected(self, tmp_path, capsys):
        # older sparselab wrote a null x_true when given no truth; diagnose used to exit 2 with a ConfigError
        self.assert_rejected_naming(tmp_path, capsys, "x_true", lambda h, r: h.update(x_true=None))

    def assert_ignored(self, tmp_path, capsys, edit, solver=subspace_pursuit):
        """diagnose --delta 0.1 prints the untampered output and exits 0 after `edit`; returns that output."""
        path = self.make_trace(tmp_path, well_conditioned=True, solver=solver)
        argv = ("diagnose", "--in", str(path), "--delta", "0.1")
        clean = run_cli(capsys, *argv)
        header, *records = (json.loads(line) for line in path.read_text().splitlines())
        edit(header, records)
        path.write_text("".join(json.dumps(obj) + "\n" for obj in (header, *records)))
        assert run_cli(capsys, *argv) == clean
        assert clean[0] == 0
        return clean[1]

    def assert_rejected_naming(self, tmp_path, capsys, field, edit, solver=subspace_pursuit):
        path = self.make_trace(tmp_path, solver=solver)
        header, record, *rest = (json.loads(line) for line in path.read_text().splitlines())
        edit(header, record)
        path.write_text("".join(json.dumps(obj) + "\n" for obj in (header, record, *rest)))
        code, stdout, stderr = run_cli(capsys, "diagnose", "--in", str(path), "--delta", "0.9")
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error[ValueError]: {path}: ")
        assert repr(field) in stderr

    @pytest.mark.parametrize(
        "number, edit, message",
        [
            (1, lambda line: line[:40], "is not JSON"),
            (4, lambda line: line[:40], "is not JSON"),
            (4, lambda line: "[1, 2]", "is not an iteration record"),
        ],
    )
    def test_bad_line_exits_2_naming_the_line(self, tmp_path, capsys, number, edit, message):
        # line numbers count every line of the file, the blank one at line 2 too
        path = self.make_trace(tmp_path)
        lines = path.read_text().splitlines()
        lines.insert(1, "")
        lines[number - 1] = edit(lines[number - 1])
        path.write_text("".join(line + "\n" for line in lines))
        code, stdout, stderr = run_cli(capsys, "diagnose", "--in", str(path), "--delta", "0.9")
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error[ValueError]: {path}: line {number} {message}")

    def test_library_budget_applies_by_default(self, tmp_path, capsys):
        # without --delta, sp at k = 3 reads delta_9 of 26 atoms: C(26, 9) = 3,124,550 supports
        D = generate_dictionary(12, 26, 49)
        x = generate_signal(26, 3, 50)
        e = 0.1 * np.random.default_rng(51).standard_normal(12)
        res = subspace_pursuit(D, D.entries @ x.values + e, PursuitConfig(k=3, halting=FixedIterations(2)), x_true=x)
        path = tmp_path / "t.jsonl"
        write_trace(path, res, D, x_true=x, noise=e, sigma=0.1)
        code, stdout, stderr = run_cli(capsys, "diagnose", "--in", str(path))
        assert code == 2 and stdout == ""
        assert stderr.startswith("error[BudgetExceeded]:")

    def test_trace_without_noise_rejected(self, tmp_path, capsys):
        # older sparselab wrote a null noise when given none; diagnose used to exit 2 with a ConfigError
        self.assert_rejected_naming(tmp_path, capsys, "noise", lambda h, r: h.update(noise=None))


def floats(a):
    """An array in a trace's form: base64 of its little-endian float64 bytes."""
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def decoded(encoded):
    return np.frombuffer(base64.b64decode(encoded), dtype="<f8")
