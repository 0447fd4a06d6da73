import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselab import experiment
from sparselab.errors import ConfigError
from sparselab.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    dictionary_seed,
    emit_results,
    emit_trials,
    generate_dictionary,
    generate_signal,
    parse_config,
    read_results_csv,
    run_experiment,
    run_trial,
    trial_seed,
)
from sparselab import guarantees
from sparselab.metrics import mutual_coherence, rip_monte_carlo
from sparselab.pursuit import Algorithm


def small_config(**overrides):
    base = dict(
        m=32,
        n_atoms=64,
        k_values=(3,),
        sigma_values=(0.5,),
        trials_per_point=10,
        seed=7,
        algorithms=(Algorithm.SP, Algorithm.COSAMP, Algorithm.IHT, Algorithm.ORACLE),
    )
    base.update(overrides)
    return ExperimentConfig(**base).validate()


class TestConfigParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return path

    def test_full_parse(self, tmp_path):
        path = self.write(
            tmp_path,
            """
            # sweep description
            m = 64
            n_atoms = 128
            k_values = 2,4
            sigma_values = 0.5,1.0
            trials_per_point = 5
            seed = 11
            algorithms = sp,iht   # oracle omitted on purpose
            a = 2.0
            halting = fixed:6
            workers = 2
            """,
        )
        cfg = parse_config(path)
        assert cfg.m == 64 and cfg.n_atoms == 128
        assert cfg.k_values == (2, 4)
        assert cfg.sigma_values == (0.5, 1.0)
        assert cfg.algorithms == (Algorithm.SP, Algorithm.IHT)
        assert cfg.a == 2.0
        assert cfg.halting == "fixed:6"
        assert cfg.workers == 2

    def test_missing_required_key(self, tmp_path):
        path = self.write(tmp_path, "m = 8\nn_atoms = 16\n")
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(path)

    def test_unknown_key(self, tmp_path):
        path = self.write(tmp_path, "m = 8\nwat = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = self.write(tmp_path, "m = 8\nm = 9\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_bad_value(self, tmp_path):
        path = self.write(tmp_path, "m = eight\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(path)

    def test_bad_algorithm_name(self, tmp_path):
        path = self.write(
            tmp_path,
            "m = 32\nn_atoms = 64\nk_values = 2\nsigma_values = 1.0\n"
            "trials_per_point = 2\nseed = 1\nalgorithms = omp\n",
        )
        with pytest.raises(ConfigError):
            parse_config(path)


@st.composite
def valid_settings(draw):
    """Keyword arguments of an ExperimentConfig that validates; optional keys may be absent."""
    algorithms = draw(st.lists(st.sampled_from(list(Algorithm)), min_size=1, max_size=4, unique=True))
    m = draw(st.integers(min_value=4, max_value=64))
    k_max = m // max(guarantees.rip_order(alg, 1) for alg in algorithms)
    cap = draw(st.none() | st.integers(min_value=1, max_value=1000))
    fixed = st.integers(min_value=1, max_value=cap or 100).map(lambda n: f"fixed:{n}")
    halting = draw(st.none() | st.just("practical") | fixed)
    sigma = st.floats(min_value=0.0, max_value=1e6, exclude_min=halting in (None, "practical"))
    optional = dict(
        a=draw(st.none() | st.floats(min_value=0.0, max_value=1e6, exclude_min=True)),
        halting=halting,
        max_iterations_cap=cap,
        workers=draw(st.none() | st.integers(min_value=1, max_value=64)),
        delta_mode=draw(st.none() | st.sampled_from(["threshold", "monte_carlo"])),
        delta_mc_trials=draw(st.none() | st.integers(min_value=1, max_value=10**6)),
    )
    return dict(
        m=m,
        n_atoms=draw(st.integers(min_value=m, max_value=4 * m)),
        k_values=tuple(draw(st.lists(st.integers(min_value=1, max_value=k_max), min_size=1, max_size=4, unique=True))),
        sigma_values=tuple(draw(st.lists(sigma, min_size=1, max_size=4, unique=True))),
        trials_per_point=draw(st.integers(min_value=1, max_value=10**6)),
        seed=draw(st.integers(min_value=0, max_value=2**64)),
        algorithms=tuple(algorithms),
        **{key: value for key, value in optional.items() if value is not None},
    )


def config_text(settings_):
    def cell(value):
        if isinstance(value, tuple):
            return ", ".join(cell(v) for v in value)
        if isinstance(value, Algorithm):
            return value.value
        return repr(value) if isinstance(value, float) else str(value)

    return "".join(f"{key} = {cell(value)}\n" for key, value in settings_.items())


# values no valid config may hold, per key
MALFORMED = {
    "m": ["0", "-3", "eight", "1.5", ""],
    "n_atoms": ["0", "2.0", "many"],
    "k_values": ["0", "-1", "2.5", "", "1,,2", "1, 1", "100000"],
    "sigma_values": ["nan", "inf", "-1.0", "", "x", "0.5, 0.5"],
    "trials_per_point": ["0", "-2", "1e3"],
    "seed": ["s", "1.0", ""],
    "algorithms": ["omp", "", "sp,,iht"],
    "a": ["0", "-1.0", "nan", "inf", "x"],
    "halting": ["fixed:0", "fixed:x", "fixed:", "sometimes", "", "fixed:100000"],
    "max_iterations_cap": ["0", "-1", "x"],
    "workers": ["0", "-1", "x"],
    "delta_mode": ["exact", ""],
    "delta_mc_trials": ["0", "x"],
}


class TestConfigProperties:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cfg") / "exp.cfg"

    def write_with(self, path, settings_, key, value):
        """The config of settings_ with key's line (added if absent) holding value."""
        others = {k: v for k, v in settings_.items() if k != key}
        path.write_text(config_text(others) + f"{key} = {value}\n", encoding="utf-8")

    @given(valid_settings())
    @settings(deadline=None, max_examples=150)
    def test_valid_configs_round_trip(self, path, settings_):
        path.write_text(config_text(settings_), encoding="utf-8")
        cfg = parse_config(path)
        want = ExperimentConfig(**settings_)
        for f in fields(ExperimentConfig):
            assert getattr(cfg, f.name) == getattr(want, f.name), f.name

    @given(valid_settings(), st.sampled_from(sorted(MALFORMED)), st.data())
    @settings(deadline=None, max_examples=150)
    def test_one_malformed_value_is_a_config_error(self, path, settings_, key, data):
        self.write_with(path, settings_, key, data.draw(st.sampled_from(MALFORMED[key])))
        with pytest.raises(ConfigError):
            parse_config(path)

    @given(
        valid_settings(),
        st.sampled_from(sorted(MALFORMED)),
        st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\r")),
    )
    @settings(deadline=None, max_examples=300)
    def test_any_one_value_parses_or_is_a_config_error(self, path, settings_, key, value):
        # any exception type other than ConfigError fails the test
        self.write_with(path, settings_, key, value)
        try:
            parse_config(path)
        except ConfigError:
            pass


class TestConfigValidation:
    def test_cosamp_needs_4k_measurements(self):
        with pytest.raises(ConfigError, match="cosamp"):
            small_config(k_values=(9,))

    def test_sp_needs_3k_measurements(self):
        with pytest.raises(ConfigError, match="sp/iht"):
            small_config(k_values=(11,), algorithms=(Algorithm.SP,))

    @pytest.mark.parametrize(
        "alg, k_max", [(Algorithm.SP, 10), (Algorithm.IHT, 10), (Algorithm.COSAMP, 8), (Algorithm.ORACLE, 32)]
    )
    def test_rip_order_must_fit_in_m(self, alg, k_max):
        # m = 32: sp/iht need 3k <= m, cosamp 4k <= m, the oracle k <= m
        small_config(k_values=(k_max,), algorithms=(alg,), halting="fixed:2")
        with pytest.raises(ConfigError, match=f"rip order {guarantees.rip_order(alg, k_max + 1)} of .*{alg.value}"):
            small_config(k_values=(k_max + 1,), algorithms=(alg,), halting="fixed:2")

    def test_practical_halting_rejects_zero_sigma(self):
        with pytest.raises(ConfigError, match="practical"):
            small_config(sigma_values=(0.0,))
        # fixed halting is fine with zero noise
        small_config(sigma_values=(0.0,), halting="fixed:5")

    def test_fixed_halting_over_the_cap(self):
        # caught here, not by the first trial's IterationBudgetExceeded mid-sweep
        with pytest.raises(ConfigError, match="fixed halting count 150 exceeds max_iterations_cap 100"):
            small_config(halting="fixed:150")
        small_config(halting="fixed:150", max_iterations_cap=150)

    def test_empty_algorithms(self):
        with pytest.raises(ConfigError, match="empty"):
            small_config(algorithms=())

    def test_bad_delta_mode(self):
        with pytest.raises(ConfigError, match="delta_mode"):
            small_config(delta_mode="exact")

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_non_finite_a(self, a):
        # a = nan used to give prob_bound = nan and a silent 0.0 violation rate
        with pytest.raises(ConfigError, match="exponent a"):
            small_config(a=a)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ConfigError, match="sigma_values"):
            small_config(sigma_values=(0.5, sigma))

    def test_duplicate_k_values(self):
        with pytest.raises(ConfigError, match="k_values has duplicate"):
            small_config(k_values=(3, 2, 3))

    def test_duplicate_sigma_values(self):
        with pytest.raises(ConfigError, match="sigma_values has duplicate"):
            small_config(sigma_values=(0.5, 1.0, 0.5))


class TestSeeding:
    def test_trial_seeds_distinct_and_stable(self):
        seen = {
            trial_seed(7, k, sigma, t)
            for k in (1, 2, 3)
            for sigma in (0.5, 1.0)
            for t in range(50)
        }
        assert len(seen) == 300
        assert trial_seed(7, 2, 0.5, 3) == trial_seed(7, 2, 0.5, 3)
        assert trial_seed(7, 2, 0.5, 3) != trial_seed(8, 2, 0.5, 3)

    def test_sigma_identity_uses_repr(self):
        # 1.0 and 1 must hash identically, 1.0 and 1.5 must not
        assert trial_seed(1, 1, 1.0, 0) == trial_seed(1, 1, 1, 0)
        assert trial_seed(1, 1, 1.0, 0) != trial_seed(1, 1, 1.5, 0)

    def test_dictionary_seed_differs_from_trial_seeds(self):
        assert dictionary_seed(7) != trial_seed(7, 1, 1.0, 0)


class TestGeneration:
    def test_dictionary_is_deterministic_and_normalized(self):
        a = generate_dictionary(16, 32, 5)
        b = generate_dictionary(16, 32, 5)
        assert np.array_equal(a.entries, b.entries)
        assert np.allclose(np.linalg.norm(a.entries, axis=0), 1.0, atol=1e-12)

    def test_full_scale_dictionary_coherence_in_expected_band(self):
        D = generate_dictionary(512, 1024, dictionary_seed(20240817))
        assert 0.1 < mutual_coherence(D) < 0.25

    def test_signal_support_and_magnitudes(self):
        x = generate_signal(64, 4, 9)
        assert len(x.support) == 4
        nz = x.on_support()
        assert np.all(np.abs(nz) >= 10.0)

    def test_signal_magnitude_statistics(self):
        # |nonzero| = 10 (1 + |normal|), so the mean magnitude tends to
        # 10 (1 + sqrt(2/pi)) ~ 17.979
        total, count = 0.0, 0
        for seed in range(2000):
            x = generate_signal(32, 5, seed)
            total += float(np.sum(np.abs(x.on_support())))
            count += 5
        expected = 10.0 * (1.0 + math.sqrt(2.0 / math.pi))
        assert total / count == pytest.approx(expected, rel=0.02)

    def test_signal_deterministic(self):
        a = generate_signal(64, 4, 10)
        b = generate_signal(64, 4, 10)
        assert np.array_equal(a.values, b.values)


class TestRunTrial:
    def test_all_algorithms_share_the_draw(self):
        D = generate_dictionary(32, 64, 1)
        algs = (Algorithm.SP, Algorithm.COSAMP, Algorithm.IHT, Algorithm.ORACLE)
        records = run_trial(D, 3, 0.5, algs, seed=123, halting="fixed:5")
        assert [r.algorithm for r in records] == ["sp", "cosamp", "iht", "oracle"]
        oracle_ses = {r.oracle_squared_error for r in records}
        assert len(oracle_ses) == 1
        oracle_rec = records[-1]
        assert oracle_rec.squared_error == oracle_rec.oracle_squared_error
        assert oracle_rec.iterations_run == 0

    def test_failure_recorded_not_raised(self):
        # coherent near-rank-one dictionary makes the thresholding iteration
        # diverge; the sweep must keep going and record the category
        rng = np.random.default_rng(0)
        u = rng.standard_normal((6, 1))
        from sparselab.linalg import normalize_columns

        D = normalize_columns(u + 0.01 * rng.standard_normal((6, 18)))
        records = run_trial(D, 2, 0.0, (Algorithm.IHT,), seed=3, halting="fixed:100")
        assert records[0].error == "Divergence"
        assert math.isnan(records[0].squared_error)

    def test_linalg_error_recorded_not_raised(self, monkeypatch):
        def failing_solver(D, y, cfg):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(experiment._SOLVERS, Algorithm.SP, failing_solver)
        D = generate_dictionary(32, 64, 1)
        records = run_trial(D, 3, 0.5, (Algorithm.SP, Algorithm.IHT), seed=9, halting="fixed:5")
        assert records[0].error == "LinAlgError"
        assert math.isnan(records[0].squared_error)
        # the other solver on the same draw is unaffected
        assert records[1].error is None
        assert math.isfinite(records[1].squared_error)

    def test_deterministic_given_seed(self):
        D = generate_dictionary(32, 64, 2)
        a = run_trial(D, 3, 1.0, (Algorithm.SP,), seed=55, halting="fixed:4")
        b = run_trial(D, 3, 1.0, (Algorithm.SP,), seed=55, halting="fixed:4")
        assert a[0].squared_error == b[0].squared_error


class TestRunExperiment:
    def test_row_grid_and_columns(self):
        cfg = small_config(k_values=(2, 3), sigma_values=(0.5, 1.0), trials_per_point=4)
        rows, records = run_experiment(cfg)
        assert len(rows) == 2 * 2 * 4
        assert len(records) == 2 * 2 * 4 * 4
        assert all(r.trials == 4 for r in rows)
        grid = {(r.k, r.sigma, r.algorithm) for r in rows}
        assert ("2", 0.5, "sp") not in grid  # k stays an int
        assert (2, 0.5, "sp") in grid and (3, 1.0, "oracle") in grid

    def test_rerun_identical(self):
        cfg = small_config()
        a_rows, a_recs = run_experiment(cfg)
        b_rows, b_recs = run_experiment(cfg)
        assert a_rows == b_rows
        assert a_recs == b_recs

    def test_workers_do_not_change_results(self):
        cfg = small_config(trials_per_point=6)
        rows1, recs1 = run_experiment(cfg, workers=1)
        rows2, recs2 = run_experiment(cfg, workers=2)
        assert rows1 == rows2
        assert recs1 == recs2

    def test_workers_override_is_validated(self):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            run_experiment(small_config(), workers=0)

    def test_threshold_bounds_match_direct_computation(self):
        cfg = small_config(trials_per_point=3)
        rows, _ = run_experiment(cfg)
        sp_row = next(r for r in rows if r.algorithm == "sp")
        params = guarantees.GuaranteeParams(
            a=1.0, n_atoms=64, k=3, sigma=0.5, delta=guarantees.SP_CONDITION
        )
        c = guarantees.sp_constants(guarantees.SP_CONDITION)[2]
        assert sp_row.prob_bound == pytest.approx(guarantees.near_oracle_bound(c, params), rel=1e-12)
        assert sp_row.condition_met
        oracle_row = next(r for r in rows if r.algorithm == "oracle")
        assert oracle_row.prob_bound == pytest.approx(3 * 0.25, rel=1e-12)

    def test_monte_carlo_delta_once_per_algorithm_and_k(self, monkeypatch):
        calls = []

        def counting(D, order, **kwargs):
            calls.append(order)
            return rip_monte_carlo(D, order, **kwargs)

        monkeypatch.setattr(experiment, "rip_monte_carlo", counting)
        cfg = small_config(
            k_values=(2, 3), sigma_values=(0.5, 1.0, 2.0), trials_per_point=1, delta_mode="monte_carlo", delta_mc_trials=20
        )
        run_experiment(cfg)
        assert len(calls) == len(cfg.algorithms) * len(cfg.k_values)

    def test_monte_carlo_delta_mode_runs(self):
        cfg = small_config(trials_per_point=2, delta_mode="monte_carlo", delta_mc_trials=50)
        rows, _ = run_experiment(cfg)
        # 32x64 deltas at order 3k are far above every threshold
        assert not any(r.condition_met for r in rows if r.algorithm != "oracle")


class TestEmission:
    def test_csv_round_trip(self, tmp_path):
        cfg = small_config(trials_per_point=3)
        rows, records = run_experiment(cfg)
        path = tmp_path / "results.csv"
        emit_results(rows, "csv", path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header == "k,sigma,algorithm,trials,mse,median_se,p99_se,oracle_mse,prob_bound,bound_violation_rate,condition_met"
        back = read_results_csv(path)
        assert back == rows

    def test_jsonl_emission(self, tmp_path):
        cfg = small_config(trials_per_point=2)
        rows, records = run_experiment(cfg)
        jpath = tmp_path / "results.jsonl"
        emit_results(rows, "jsonl", jpath)
        lines = [json.loads(line) for line in jpath.read_text().splitlines()]
        assert len(lines) == len(rows)
        assert lines[0]["algorithm"] == rows[0].algorithm
        tpath = tmp_path / "trials.jsonl"
        emit_trials(records, tpath)
        tlines = [json.loads(line) for line in tpath.read_text().splitlines()]
        assert len(tlines) == len(records)
        assert tlines[0]["trial_index"] == 0

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], "xml", tmp_path / "x")
