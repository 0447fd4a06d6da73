import json

import numpy as np
import pytest

from sparselab import guarantees
from sparselab.cli import main
from sparselab.experiment import generate_dictionary, generate_signal
from sparselab.linalg import import_dictionary_csv
from sparselab.metrics import rip_exact, rip_monte_carlo
from sparselab.pursuit import FixedIterations, PursuitConfig, subspace_pursuit, write_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenDict:
    def test_writes_loadable_dictionary(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, stdout, stderr = run_cli(capsys, "gen-dict", "--m", "12", "--n", "20", "--seed", "3", "--out", str(out))
        assert code == 0 and stderr == ""
        assert out.read_text().splitlines()[0] == "12,20"
        D = import_dictionary_csv(out)
        assert np.array_equal(D.entries, generate_dictionary(12, 20, 3).entries)


class TestRip:
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

    def test_mc_mode(self, dict_path, capsys):
        code, stdout, _ = run_cli(
            capsys, "rip", "--in", str(dict_path), "--k", "3", "--mode", "mc", "--trials", "100", "--seed", "5"
        )
        assert code == 0
        payload = json.loads(stdout)
        D = import_dictionary_csv(dict_path)
        assert payload["delta"] == rip_monte_carlo(D, 3, trials=100, seed=5).delta
        assert payload["seed"] == 5

    def test_budget_exceeded_is_reported(self, tmp_path, capsys):
        out = tmp_path / "big.csv"
        main(["gen-dict", "--m", "16", "--n", "40", "--seed", "6", "--out", str(out)])
        capsys.readouterr()
        code, _, stderr = run_cli(capsys, "rip", "--in", str(out), "--k", "5", "--budget", "100")
        assert code == 2
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


class TestDiagnose:
    def make_trace(self, tmp_path, well_conditioned=False):
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
        res = subspace_pursuit(D, y, PursuitConfig(k=2, halting=FixedIterations(3)), x_true=x)
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

    def test_trace_without_noise_rejected(self, tmp_path, capsys):
        D = generate_dictionary(12, 18, 47)
        x = generate_signal(18, 2, 48)
        res = subspace_pursuit(
            D, D.entries @ x.values, PursuitConfig(k=2, halting=FixedIterations(2)), x_true=x
        )
        path = tmp_path / "t.jsonl"
        write_trace(path, res, D, x_true=x)
        code, _, stderr = run_cli(capsys, "diagnose", "--in", str(path))
        assert code == 2
        assert stderr.startswith("error[ConfigError]:")
