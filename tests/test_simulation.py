"""Tests for scenario generation and the Monte Carlo harness."""

import numpy as np
import pytest

import gofboot.bootstrap as bootstrap
import gofboot.simulation as simulation
from gofboot import (
    BootstrapConfig,
    DegenerateFitError,
    ExclusionLimitError,
    ModelSpec,
    ScenarioSpec,
    generate,
    run_monte_carlo,
)
from conftest import count_fit_mle, fake_process_pools

# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


class TestGenerate:
    @pytest.mark.parametrize("scenario,columns", [
        (1, {"y", "x1", "x2"}),
        (2, {"y", "x1"}),
        (3, {"y", "x1", "x2"}),
        (4, {"y", "x1", "x2"}),
    ])
    def test_exposed_columns(self, scenario, columns):
        data = generate(ScenarioSpec(scenario, 50), np.random.default_rng(0))
        assert set(data.columns) == columns
        assert data.n == 50

    def test_hidden_variance_driver_never_leaks(self):
        data = generate(ScenarioSpec(3, 200), np.random.default_rng(1))
        assert "x3" not in data.columns

    @pytest.mark.parametrize("scenario", [1, 2, 3, 4])
    def test_covariates_live_on_zero_five(self, scenario):
        data = generate(ScenarioSpec(scenario, 4000), np.random.default_rng(2))
        for name, col in data.columns.items():
            if name.startswith("x"):
                assert col.min() >= 0.0
                assert col.max() <= 5.0
                assert abs(col.mean() - 2.5) < 0.1

    def test_mean_structure(self):
        # residual scatter around 2 + 2 x1 + 2 x2 has variance near 4
        data = generate(ScenarioSpec(1, 50_000), np.random.default_rng(3))
        eps = data.columns["y"] - (
            2.0 + 2.0 * data.columns["x1"] + 2.0 * data.columns["x2"]
        )
        assert abs(eps.mean()) < 0.05
        assert abs(eps.var() - 4.0) < 0.15

    def test_observed_heteroskedasticity_scales_with_x2(self):
        data = generate(ScenarioSpec(4, 200_000), np.random.default_rng(4))
        eps = data.columns["y"] - (
            2.0 + 2.0 * data.columns["x1"] + 2.0 * data.columns["x2"]
        )
        x2 = data.columns["x2"]
        low = eps[x2 < 1.0].std()
        high = eps[x2 > 4.0].std()
        # sd is 2 + 0.5 x2: about 2.25 on the low slice, 4.25 on the high one
        assert abs(low - 2.25) < 0.15
        assert abs(high - 4.25) < 0.2

    def test_deterministic_given_stream(self):
        a = generate(ScenarioSpec(2, 30), np.random.default_rng(7))
        b = generate(ScenarioSpec(2, 30), np.random.default_rng(7))
        for name in a.columns:
            assert np.array_equal(a.columns[name], b.columns[name])

    @pytest.mark.parametrize(
        "scenario,n", [(0, 50), (5, 50), (1, 9), (1, 10.5), (1.0, 50), (True, 50)]
    )
    def test_spec_validation(self, scenario, n):
        with pytest.raises(ValueError):
            ScenarioSpec(scenario, n)

    def test_spec_stores_python_ints(self):
        spec = ScenarioSpec(np.int64(3), np.int32(50))
        assert (type(spec.scenario), type(spec.n)) == (int, int)


class TestFittedModel:
    def test_replicates_fit_y_on_the_generated_covariates(self, monkeypatch):
        # scenario 2 withholds x2, so its replicates fit the reduced model
        specs = {}
        real_run_test = simulation.run_test

        def recording_run_test(data, spec, cfg):
            specs[scenario].add(spec)
            return real_run_test(data, spec, cfg)

        monkeypatch.setattr(simulation, "run_test", recording_run_test)
        cfg = BootstrapConfig(n_boot=20, alpha=0.05, seed=47)
        for scenario in (1, 2, 3, 4):
            specs[scenario] = set()
            run_monte_carlo(ScenarioSpec(scenario, 40), 3, cfg)
        full = ModelSpec(response="y", covariates=("x1", "x2"))
        reduced = ModelSpec(response="y", covariates=("x1",))
        assert specs == {1: {full}, 2: {reduced}, 3: {full}, 4: {full}}


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------


class TestRunMonteCarlo:
    def test_single_replicate_report(self):
        cfg = BootstrapConfig(n_boot=50, alpha=0.05, seed=40)
        report = run_monte_carlo(ScenarioSpec(1, 60), 1, cfg)
        for name in ("bootstrap", "white", "breusch_pagan"):
            assert report.rates[name] in (0.0, 1.0)
            assert report.mc_stderr[name] == 0.0
        assert report.excluded == 0
        assert report.reps == 1

    def test_parallel_report_is_identical(self):
        cfg = BootstrapConfig(n_boot=60, alpha=0.05, seed=41)
        serial = run_monte_carlo(ScenarioSpec(2, 50), 12, cfg)
        parallel = run_monte_carlo(ScenarioSpec(2, 50), 12, cfg, threads=3)
        assert serial == parallel

    def test_binomial_standard_errors(self):
        cfg = BootstrapConfig(n_boot=60, alpha=0.05, seed=42)
        report = run_monte_carlo(ScenarioSpec(4, 80), 25, cfg)
        for name, p in report.rates.items():
            expected = np.sqrt(p * (1.0 - p) / 25)
            assert report.mc_stderr[name] == pytest.approx(expected, rel=1e-12)

    def test_fit_failures_abort_when_frequent(self, monkeypatch):
        # each replicate fits its data once, inside run_test
        calls = {"k": 0}
        real_fit = bootstrap.fit_mle

        def flaky_fit(data, spec):
            calls["k"] += 1
            if calls["k"] % 2 == 0:
                raise DegenerateFitError("synthetic failure")
            return real_fit(data, spec)

        monkeypatch.setattr(bootstrap, "fit_mle", flaky_fit)
        cfg = BootstrapConfig(n_boot=50, alpha=0.05, seed=43)
        with pytest.raises(ExclusionLimitError):
            run_monte_carlo(ScenarioSpec(1, 40), 6, cfg)

    def test_fits_each_replicate_once(self, monkeypatch):
        calls = count_fit_mle(monkeypatch)
        cfg = BootstrapConfig(n_boot=20, alpha=0.05, seed=45)
        run_monte_carlo(ScenarioSpec(4, 40), 5, cfg)
        assert calls == [40] * 5

    def test_worker_processes_capped_at_cpu_count(self, monkeypatch):
        cfg = BootstrapConfig(n_boot=20, alpha=0.05, seed=46)
        serial = run_monte_carlo(ScenarioSpec(1, 40), 6, cfg)
        pools = fake_process_pools(monkeypatch, cpus=2)
        assert run_monte_carlo(ScenarioSpec(1, 40), 6, cfg, threads=64) == serial
        assert pools == [2]
        pools = fake_process_pools(monkeypatch, cpus=None)
        assert run_monte_carlo(ScenarioSpec(1, 40), 6, cfg, threads=64) == serial
        assert pools == []  # unknown CPU count: one worker, no pool

    @pytest.mark.parametrize("reps", [0, 2.5, 20.0, True])
    def test_reps_validation(self, reps):
        cfg = BootstrapConfig(n_boot=50, alpha=0.05, seed=44)
        with pytest.raises(ValueError):
            run_monte_carlo(ScenarioSpec(1, 40), reps, cfg)

    def test_exported_by_star_import(self):
        namespace = {}
        exec("from gofboot import *", namespace)
        assert namespace["run_monte_carlo"] is run_monte_carlo


# ---------------------------------------------------------------------------
# published operating characteristics
# ---------------------------------------------------------------------------


class TestPublishedRates:
    def test_omitted_covariate_power_at_thousand(self):
        cfg = BootstrapConfig(n_boot=500, alpha=0.05, seed=1729)
        report = run_monte_carlo(ScenarioSpec(2, 1000), 500, cfg)
        assert abs(report.rates["bootstrap"] - 0.997) <= 0.04
        assert abs(report.rates["white"] - 0.063) <= 0.04
        assert report.excluded == 0

    @pytest.mark.slow
    def test_type_one_error_at_twenty_five_hundred(self):
        cfg = BootstrapConfig(n_boot=500, alpha=0.05, seed=1729)
        report = run_monte_carlo(ScenarioSpec(1, 2500), 500, cfg)
        assert abs(report.rates["bootstrap"] - 0.069) <= 0.04
