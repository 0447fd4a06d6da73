import json
import math
import pathlib
from dataclasses import MISSING, asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparselab import experiment, pursuit
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
    run_experiment,
    run_trial,
    trial_seed,
)
from sparselab import guarantees
from sparselab.linalg import Dictionary, normalize_columns
from sparselab.metrics import mutual_coherence, rip_monte_carlo
from sparselab.pursuit import MAX_ITERATIONS, Algorithm, IterationRecord


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
    return ExperimentConfig(**base)


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

    def test_readme_config_block_lists_the_fields(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Config files", 1)[1].split("```", 2)[1]
        lines = [line for line in block.splitlines() if line.strip()]
        assert [line.split("=", 1)[0].strip() for line in lines] == [f.name for f in fields(ExperimentConfig)]
        for f, line in zip(fields(ExperimentConfig), lines):
            value = line.split("=", 1)[1].split("#", 1)[0].strip()
            assert ("# required" in line) == (f.default is MISSING), f.name
            shown = experiment._CONFIG_KEYS[f.name](value)
            assert f.default is MISSING or shown == f.default, f.name

    def test_readme_names_the_csv_columns_and_record_fields(self):
        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = readme.split("\nColumns: `", 1)[1].split("`", 1)[0]
        assert [name.strip() for name in listed.split(",")] == list(CSV_COLUMNS)
        for f in fields(IterationRecord):
            assert f"`{f.name}`" in readme, f.name

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
    fixed = st.integers(min_value=1, max_value=MAX_ITERATIONS).map(lambda n: f"fixed:{n}")
    halting = draw(st.none() | st.just("practical") | fixed)
    sigma = st.floats(min_value=0.0, max_value=1e6, exclude_min=halting in (None, "practical"))
    optional = dict(
        # n_atoms**a stays finite: n_atoms <= 256 and 256**100 = 2**800
        a=draw(st.none() | st.floats(min_value=0.0, max_value=100.0, exclude_min=True)),
        halting=halting,
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
    "sigma_values": ["nan", "inf", "-1.0", "", "x", "0.5, 0.5", "1e200"],
    "trials_per_point": ["0", "-2", "1e3"],
    "seed": ["s", "1.0", ""],
    "algorithms": ["omp", "", "sp,,iht", "sp, sp"],
    "a": ["0", "-1.0", "nan", "inf", "x", "1e300"],
    "halting": ["fixed:0", "fixed:x", "fixed:", "sometimes", "", "fixed:101", "fixed:100000"],
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
        # caught here, not by the first trial's FixedIterations mid-sweep
        with pytest.raises(ConfigError, match="bad halting 'fixed:150': fixed iteration count 150 exceeds cap 100"):
            small_config(halting="fixed:150")
        small_config(halting=f"fixed:{MAX_ITERATIONS}")

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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"sigma_values": (0.5, math.nan)}, "sigma_values"),
            ({"sigma_values": (0.5, math.inf)}, "sigma_values"),
            ({"m": 0}, "need 1 <= m <= n_atoms, got m=0"),
            ({"n_atoms": 31}, "need 1 <= m <= n_atoms, got m=32, n_atoms=31"),
            ({"k_values": ()}, "k_values must be a nonempty list of positive integers"),
            ({"k_values": (2, 0)}, "k_values must be a nonempty list of positive integers"),
        ],
        ids=["sigma_nan", "sigma_inf", "m_zero", "n_atoms_below_m", "k_values_empty", "k_values_zero"],
    )
    def test_value_out_of_range(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            small_config(**overrides)

    def test_duplicate_k_values(self):
        with pytest.raises(ConfigError, match="k_values has duplicate"):
            small_config(k_values=(3, 2, 3))

    def test_duplicate_sigma_values(self):
        with pytest.raises(ConfigError, match="sigma_values has duplicate"):
            small_config(sigma_values=(0.5, 1.0, 0.5))

    def test_duplicate_algorithms(self):
        # each copy's row used to pool every copy's records: trials = 8 from 4 draws
        with pytest.raises(ConfigError, match="algorithms has duplicate entries"):
            small_config(algorithms=(Algorithm.SP, Algorithm.SP))


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

    @pytest.mark.parametrize("m, n, seed", [(4, 6, 1), (12, 20, 39), (64, 128, 4)])
    def test_dictionary_is_the_normalized_standard_normal_draw(self, m, n, seed):
        # the tests build their random dictionaries by generate_dictionary, on exactly this draw
        want = normalize_columns(np.random.default_rng(seed).standard_normal((m, n)))
        assert generate_dictionary(m, n, seed).entries.tobytes() == want.entries.tobytes()

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
        def failing_solver(D, y, cfg, *, z=None):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(experiment._SOLVERS, Algorithm.SP, failing_solver)
        D = generate_dictionary(32, 64, 1)
        records = run_trial(D, 3, 0.5, (Algorithm.SP, Algorithm.IHT), seed=9, halting="fixed:5")
        assert records[0].error == "LinAlgError"
        assert math.isnan(records[0].squared_error)
        # the other solver on the same draw is unaffected
        assert records[1].error is None
        assert math.isfinite(records[1].squared_error)

    def test_non_finite_estimate_recorded_not_raised(self, monkeypatch):
        # an estimate skips SparseSignal's checks but its finite check; an inf fails that solver only
        D = generate_dictionary(32, 64, 1)
        algs = (Algorithm.SP, Algorithm.IHT, Algorithm.ORACLE)
        clean = run_trial(D, 3, 0.5, algs, seed=9, halting="fixed:5")
        solve = pursuit.least_squares_on_support
        # the solvers pass z = D^T y and the oracle does not, so only SP's solves return inf
        monkeypatch.setattr(pursuit, "least_squares_on_support", lambda D, T, y, z=None: solve(D, T, y) if z is None else np.full(len(T), np.inf))
        with np.errstate(invalid="ignore"):
            records = run_trial(D, 3, 0.5, algs, seed=9, halting="fixed:5")
        assert records[0].error == "NonFinite"
        assert math.isnan(records[0].squared_error)
        # the other solver and the oracle on the same draw are unaffected
        assert records[1:] == clean[1:]

    def test_record_carries_no_trial_index(self):
        # a direct call has no sweep to number it in; the seed is not an index
        D = generate_dictionary(32, 64, 1)
        records = run_trial(D, 3, 0.5, (Algorithm.SP, Algorithm.ORACLE), 123456789012345, halting="fixed:2")
        assert [r.trial_index for r in records] == [None, None]

    def test_overflowing_measurements_recorded_not_raised(self):
        # y is finite but its plain 2-norm overflows; the practical rule used to raise OverflowError
        # from ceil(inf), then SP failed as NonFinite on that inf, though the scaled norm is finite
        D = generate_dictionary(32, 64, 1)
        with np.errstate(over="ignore"):
            sp, co, it, oracle = run_trial(D, 2, 1e154, tuple(Algorithm), seed=4, halting="practical")
        for record in (sp, co, oracle):
            assert (record.error, record.squared_error) == (None, math.inf)
        assert it.error == "Divergence"

    def test_deterministic_given_seed(self):
        D = generate_dictionary(32, 64, 2)
        a = run_trial(D, 3, 1.0, (Algorithm.SP,), seed=55, halting="fixed:4")
        b = run_trial(D, 3, 1.0, (Algorithm.SP,), seed=55, halting="fixed:4")
        assert a[0].squared_error == b[0].squared_error

    def test_well_conditioned_sweep_never_calls_lstsq(self, monkeypatch):
        # every solve on a certified support takes the Cholesky path; a silent fall-through
        # to lstsq would keep every result right and lose the speed-up
        def no_lstsq(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called on a well-conditioned support")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        D = generate_dictionary(128, 256, dictionary_seed(20240817))
        algs = (Algorithm.SP, Algorithm.COSAMP, Algorithm.IHT, Algorithm.ORACLE)
        for k in (5, 10, 15):
            for i in range(4):
                records = run_trial(D, k, 1.0, algs, trial_seed(20240817, k, 1.0, i))
                assert [r.error for r in records] == [None] * len(algs)

    def test_well_conditioned_trial_gathers_two_column_blocks(self, monkeypatch):
        # the clean signal D_T x_T and the oracle's D_T^T y; on the Gram path no solver
        # forms a residual, and no certified least squares falls through to D_T
        gathered = []
        columns = Dictionary.columns
        monkeypatch.setattr(Dictionary, "columns", lambda self, support: gathered.append(1) or columns(self, support))
        D = generate_dictionary(128, 256, dictionary_seed(20240817))
        algs = (Algorithm.SP, Algorithm.COSAMP, Algorithm.IHT, Algorithm.ORACLE)
        for k in (5, 10, 15):
            for i in range(4):
                gathered.clear()
                records = run_trial(D, k, 1.0, algs, trial_seed(20240817, k, 1.0, i))
                assert [r.error for r in records] == [None] * len(algs)
                assert len(gathered) == 2

    def test_gram_built_once_per_dictionary(self, monkeypatch):
        built = []
        gram = Dictionary.gram
        monkeypatch.setattr(Dictionary, "gram", lambda self: built.append(1) or gram(self))
        D = generate_dictionary(32, 64, 2)
        for seed in range(3):
            run_trial(D, 3, 1.0, (Algorithm.SP, Algorithm.IHT), seed=seed, halting="fixed:4")
        assert len(built) == 1


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
        rows1, recs1 = run_experiment(replace(cfg, workers=1))
        rows2, recs2 = run_experiment(replace(cfg, workers=2))
        assert rows1 == rows2
        assert recs1 == recs2

    def test_workers_do_not_change_monte_carlo_results(self):
        # each (algorithm, k) samples its own delta below 1, so a delta read from
        # the wrong pool task moves that pair's prob_bound
        cfg = small_config(
            m=64, n_atoms=96, k_values=(1, 2), sigma_values=(0.5, 1.0), trials_per_point=6,
            delta_mode="monte_carlo", delta_mc_trials=50,
        )
        rows1, recs1 = run_experiment(replace(cfg, workers=1))
        rows2, recs2 = run_experiment(replace(cfg, workers=2))
        bounds = [r.prob_bound for r in rows1 if r.sigma == 0.5]
        assert len(set(bounds)) == len(bounds) and all(math.isfinite(b) for b in bounds)
        assert any(r.condition_met for r in rows1) and not all(r.condition_met for r in rows1)
        assert rows1 == rows2
        assert recs1 == recs2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_trial_reproduces_every_sweep_record(self, workers):
        # the module docstring's contract, bit for bit: IHT's values depend on
        # the correlation's rounding, so run_trial must take it as trials do
        cfg = small_config(k_values=(2, 3), sigma_values=(0.5, 1.0), trials_per_point=4, workers=workers)
        _, records = run_experiment(cfg)
        D = generate_dictionary(cfg.m, cfg.n_atoms, dictionary_seed(cfg.seed))
        rerun = [
            replace(r, trial_index=t)
            for k in cfg.k_values
            for sigma in cfg.sigma_values
            for t in range(cfg.trials_per_point)
            for r in run_trial(D, k, sigma, cfg.algorithms, trial_seed(cfg.seed, k, sigma, t), halting=cfg.halting)
        ]
        assert all(r.error is None for r in records)
        assert repr(rerun) == repr(records)

    def test_serial_sweep_leaves_no_worker_context(self):
        # the context held the sweep's dictionary, and now its Gram, until the next sweep
        run_experiment(small_config(trials_per_point=2))
        assert experiment._WORKER_CTX == {}
        run_experiment(small_config(trials_per_point=2, delta_mode="monte_carlo", delta_mc_trials=20))
        assert experiment._WORKER_CTX == {}

    def test_workers_override_is_validated(self):
        # replace re-runs __post_init__, as the CLI's --workers override does
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            replace(small_config(), workers=0)

    def test_records_number_the_trials_of_each_point(self):
        cfg = small_config(k_values=(2, 3), sigma_values=(0.5, 1.0), trials_per_point=4)
        _, records = run_experiment(cfg)
        for k in cfg.k_values:
            for sigma in cfg.sigma_values:
                for alg in cfg.algorithms:
                    got = [r.trial_index for r in records if (r.k, r.sigma, r.algorithm) == (k, sigma, alg.value)]
                    assert got == [0, 1, 2, 3]

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

    def test_serial_sweep_forms_the_gram_once(self, monkeypatch):
        # the sampled deltas read the Gram form the trials built; each used to form D^T D again
        formed = []
        gram = Dictionary.gram

        def counting(D):
            formed.append(D._gram is None)
            return gram(D)

        monkeypatch.setattr(Dictionary, "gram", counting)
        cfg = small_config(k_values=(2, 3), trials_per_point=1, delta_mode="monte_carlo", delta_mc_trials=20)
        run_experiment(cfg)
        assert formed.count(True) == 1
        assert formed.count(False) == len(cfg.algorithms) * len(cfg.k_values)

    def test_trials_solve_on_the_matrix_delta_is_sampled_on(self, monkeypatch):
        sampled, solved = [], []

        def sampling(D, order, **kwargs):
            sampled.append(D.entries)
            return rip_monte_carlo(D, order, **kwargs)

        def trial(D, *args, **kwargs):
            solved.append(D.entries)
            return run_trial(D, *args, **kwargs)

        monkeypatch.setattr(experiment, "rip_monte_carlo", sampling)
        monkeypatch.setattr(experiment, "run_trial", trial)
        run_experiment(small_config(trials_per_point=2, delta_mode="monte_carlo", delta_mc_trials=20))
        assert sampled and solved
        assert all(np.array_equal(D, sampled[0]) for D in sampled + solved)

    def test_monte_carlo_delta_mode_runs(self):
        cfg = small_config(trials_per_point=2, delta_mode="monte_carlo", delta_mc_trials=50)
        rows, _ = run_experiment(cfg)
        # 32x64 deltas at order 3k are far above every threshold
        assert not any(r.condition_met for r in rows if r.algorithm != "oracle")


class TestEmission:
    def test_csv_round_trip(self, tmp_path):
        cfg = small_config(trials_per_point=3)
        rows, records = run_experiment(cfg)
        # a solver that fails every trial writes nan cells; an unmet condition writes false
        nan = math.nan
        failed = replace(rows[0], trials=0, mse=nan, median_se=nan, p99_se=nan, bound_violation_rate=nan)
        unmet = replace(rows[1], condition_met=False)
        path = tmp_path / "results.csv"
        emit_results([*rows, failed, unmet], "csv", path)
        header, *lines = path.read_text().splitlines()
        assert header == ",".join(CSV_COLUMNS)
        assert header == "k,sigma,algorithm,trials,mse,median_se,p99_se,oracle_mse,prob_bound,bound_violation_rate,condition_met"
        for row, line in zip([*rows, failed, unmet], lines, strict=True):
            values = [getattr(row, col) for col in CSV_COLUMNS]
            want = [str(v).lower() if isinstance(v, bool) else repr(v) if isinstance(v, float) else str(v) for v in values]
            assert line.split(",") == want
        assert lines[-2].split(",")[3:7] == ["0", "nan", "nan", "nan"]
        assert lines[-1].endswith(",false") and lines[-3].endswith(",true")

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

    def test_trial_lines_are_the_json_of_each_record(self, tmp_path):
        _, records = run_experiment(small_config(trials_per_point=2))
        failed = replace(records[0], squared_error=math.nan, support_recovered=False, error="RankDeficient")
        records = [*records, failed]
        path = tmp_path / "trials.jsonl"
        emit_trials(records, path)
        assert path.read_text() == "".join(json.dumps(asdict(r)) + "\n" for r in records)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], "xml", tmp_path / "x")


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda tmp: small_config(trials_per_point=0), "trials_per_point must be >= 1"),
            (lambda tmp: small_config(delta_mc_trials=0), "delta_mc_trials must be >= 1"),
            (lambda tmp: parse_config(write(tmp, "m = 32\nn_atoms 64\n")), r":2: expected 'key = value', got 'n_atoms 64'"),
        ],
        ids=["no_trials", "no_delta_samples", "line_without_equals"],
    )
    def test_rejected(self, tmp_path, call, message):
        with pytest.raises(ConfigError, match=message):
            call(tmp_path)

    def test_point_whose_trials_all_fail_reports_nan_not_zero_violations(self):
        failed = [
            experiment.TrialRecord(t, 3, 0.5, "sp", math.nan, 0.75, False, 0, error="RankDeficient") for t in range(4)
        ]
        row = experiment._aggregate_point(small_config(), 3, 0.5, Algorithm.SP, guarantees.SP_CONDITION, failed)
        assert (row.trials, row.oracle_mse, row.condition_met) == (0, 0.75, True)
        assert math.isfinite(row.prob_bound)
        for value in (row.mse, row.median_se, row.p99_se, row.bound_violation_rate):
            assert math.isnan(value)


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path
