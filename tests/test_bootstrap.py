"""Tests for the bootstrap goodness-of-fit test and its resampling engine."""

import numpy as np
import pytest

from gofboot import (
    BootstrapConfig,
    Dataset,
    DegenerateFitError,
    ModelSpec,
    RedrawLimitError,
    fit_mle,
    iteration_stream,
    percentile_interval,
    run_monte_carlo,
    run_test,
    theoretical_var_gof,
    var_gof,
)
from gofboot.bootstrap import (
    _chunk_worker,
    _stream_positioner,
    _variance_bound,
    map_chunks,
)
from gofboot.regression import build_design
from conftest import fake_process_pools, scenario1_dataset
from oracle import resample, sandwich

# ---------------------------------------------------------------------------
# percentile interval
# ---------------------------------------------------------------------------


class TestPercentileInterval:
    def test_thousand_integers_at_five_percent(self):
        values = np.arange(1.0, 1001.0)
        assert percentile_interval(values, 0.05) == (25.0, 975.0)

    def test_five_hundred_values_order_statistics(self):
        rng = np.random.default_rng(12)
        values = rng.permutation(np.arange(1.0, 501.0))
        # ceil(500 * 0.025) = 13, ceil(500 * 0.975) = 488
        assert percentile_interval(values, 0.05) == (13.0, 488.0)

    def test_endpoints_are_elements(self):
        rng = np.random.default_rng(3)
        values = rng.gamma(2.0, 50.0, size=333)
        low, high = percentile_interval(values, 0.10)
        assert low in values and high in values
        assert low <= high

    def test_shrinking_alpha_widens_interval(self):
        rng = np.random.default_rng(4)
        values = rng.normal(1000.0, 80.0, size=800)
        spans = [percentile_interval(values, a) for a in (0.10, 0.05, 0.01)]
        for (lo_narrow, hi_narrow), (lo_wide, hi_wide) in zip(spans, spans[1:]):
            assert lo_wide <= lo_narrow
            assert hi_wide >= hi_narrow

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            percentile_interval(np.arange(10.0), alpha)


class TestDecisionRule:
    def test_reference_outside_interval_rejects(self):
        values = np.linspace(150.0, 190.0, 41)
        low, high = percentile_interval(values, 0.05)
        assert 150.0 <= low <= high <= 190.0
        assert not low <= 200.0 <= high  # reject

    def test_reference_inside_interval_accepts(self):
        values = np.linspace(150.0, 190.0, 41)
        low, high = percentile_interval(values, 0.05)
        assert low <= 170.0 <= high


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


class TestResample:
    def test_same_stream_same_resample(self):
        data, _ = scenario1_dataset(seed=2, n=40)
        a = resample(data, iteration_stream(7, 3))
        b = resample(data, iteration_stream(7, 3))
        for name in data.columns:
            assert np.array_equal(a.columns[name], b.columns[name])

    def test_rows_stay_paired(self):
        data, _ = scenario1_dataset(seed=2, n=25)
        original = {
            tuple(row)
            for row in zip(*(data.columns[c] for c in ("y", "x1", "x2")))
        }
        boot = resample(data, iteration_stream(11, 0))
        for row in zip(*(boot.columns[c] for c in ("y", "x1", "x2"))):
            assert tuple(row) in original

    def test_single_row_dataset_is_fixed_point(self):
        data = Dataset({"y": np.array([4.2]), "x": np.array([1.3])})
        boot = resample(data, iteration_stream(5, 0))
        assert boot.columns["y"][0] == 4.2
        assert boot.columns["x"][0] == 1.3

    def test_row_selection_frequencies_are_uniform(self):
        # 25000 resamples of 4 rows = 1e5 index draws
        data = Dataset({"y": np.array([1.0, 2.0, 3.0, 4.0])})
        rng = iteration_stream(99, 0)
        counts = np.zeros(4)
        for _ in range(25_000):
            drawn = resample(data, rng).columns["y"]
            for value in drawn:
                counts[int(value) - 1] += 1
        freq = counts / 100_000.0
        assert np.all(np.abs(freq - 0.25) <= 0.01 * 0.25)


class TestIterationStream:
    def test_reproducible_per_index(self):
        a = iteration_stream(123, 9).integers(0, 1000, 16)
        b = iteration_stream(123, 9).integers(0, 1000, 16)
        assert np.array_equal(a, b)

    def test_distinct_indices_give_distinct_draws(self):
        a = iteration_stream(123, 0).integers(0, 2**63, 8)
        b = iteration_stream(123, 1).integers(0, 2**63, 8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("iteration", [0, 1, 4095])
    def test_matches_jumped_philox(self, seed, iteration):
        jumped = np.random.Generator(np.random.Philox(key=seed).jumped(iteration))
        assert np.array_equal(
            iteration_stream(seed, iteration).integers(0, 2**63, 64),
            jumped.integers(0, 2**63, 64),
        )

    @pytest.mark.parametrize("iteration", [0, 1, 4095])
    @pytest.mark.parametrize(
        "previous", [(7,), (7, 7), (7, 7, 7)], ids=["odd", "redraw", "two-redraws"]
    )
    def test_repositioned_stream_equals_fresh_stream(self, iteration, previous):
        # the bootstrap reuses one generator, moving it to each iteration
        seek = _stream_positioner(77)
        rng = seek(3)
        for size in previous:
            rng.integers(0, 80, size=size)
        rng = seek(iteration)
        fresh = iteration_stream(77, iteration)
        moved, expected = rng.bit_generator.state, fresh.bit_generator.state
        for key in ("counter", "key"):
            assert np.array_equal(moved["state"][key], expected["state"][key])
        assert np.array_equal(moved["buffer"], expected["buffer"])
        for key in ("buffer_pos", "has_uint32", "uinteger"):
            assert moved[key] == expected[key]
        assert np.array_equal(
            rng.integers(0, 80, size=81), fresh.integers(0, 80, size=81)
        )


# ---------------------------------------------------------------------------
# run_test
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_case():
    data, spec = scenario1_dataset(seed=21, n=80)
    cfg = BootstrapConfig(n_boot=150, alpha=0.05, seed=77)
    return data, spec, cfg, run_test(data, spec, cfg)


class TestRunTest:
    def test_result_shape_and_consistency(self, small_case):
        data, spec, cfg, result = small_case
        assert result.boot_values.shape == (cfg.n_boot,)
        assert np.all(result.boot_values >= 0.0)
        assert result.interval_low in result.boot_values
        assert result.interval_high in result.boot_values
        assert result.reference == theoretical_var_gof(data.n)
        assert result.reject == (
            not result.interval_low <= result.reference <= result.interval_high
        )

    def test_observed_value_matches_sandwich(self, small_case):
        data, spec, _, result = small_case
        model = fit_mle(data, spec)
        assert result.var_gof_observed == var_gof(model.residuals, model.sigma2_hat)
        assert result.var_gof_observed == pytest.approx(
            sandwich(model, data).var_gof, rel=1e-12
        )

    def test_rerun_is_bit_identical(self, small_case):
        data, spec, cfg, result = small_case
        again = run_test(data, spec, cfg)
        assert np.array_equal(result.boot_values, again.boot_values)
        assert (result.interval_low, result.interval_high, result.reject) == (
            again.interval_low,
            again.interval_high,
            again.reject,
        )

    def test_parallel_execution_is_bit_identical(self, small_case):
        data, spec, cfg, result = small_case
        parallel = run_test(data, spec, cfg, threads=3)
        assert np.array_equal(result.boot_values, parallel.boot_values)
        assert parallel.redraw_count == result.redraw_count
        assert parallel.reject == result.reject

    def test_first_iteration_reproducible_from_public_pieces(self, small_case):
        data, spec, cfg, result = small_case
        boot_data = resample(data, iteration_stream(cfg.seed, 0))
        model = fit_mle(boot_data, spec)
        assert var_gof(model.residuals, model.sigma2_hat) == result.boot_values[0]
        assert result.boot_values[0] == pytest.approx(
            sandwich(model, boot_data).var_gof, rel=1e-12
        )

    def test_every_iteration_reproducible_from_public_pieces(self, small_case):
        data, spec, cfg, result = small_case
        assert result.redraw_count == 0
        for b, value in enumerate(result.boot_values):
            model = fit_mle(resample(data, iteration_stream(cfg.seed, b)), spec)
            assert value == var_gof(model.residuals, model.sigma2_hat)

    def test_result_carries_the_original_fit(self, small_case):
        data, spec, _, result = small_case
        model = fit_mle(data, spec)
        assert np.array_equal(result.model.beta_hat, model.beta_hat)
        assert np.array_equal(result.model.residuals, model.residuals)
        assert result.model.sigma2_hat == model.sigma2_hat

    def test_worker_processes_capped_at_cpu_count(self, small_case, monkeypatch):
        data, spec, cfg, result = small_case
        pools = fake_process_pools(monkeypatch, cpus=2)
        capped = run_test(data, spec, cfg, threads=64)
        assert pools == [2]
        assert np.array_equal(capped.boot_values, result.boot_values)
        pools = fake_process_pools(monkeypatch, cpus=1)
        assert np.array_equal(
            run_test(data, spec, cfg, threads=64).boot_values, result.boot_values
        )
        assert pools == []  # one CPU: no pool

    def test_invariant_to_units_of_response(self):
        data, spec = scenario1_dataset(seed=1, n=500)
        scaled = Dataset({**data.columns, "y": 1e5 * data.columns["y"]})
        cfg = BootstrapConfig(n_boot=200, alpha=0.05, seed=3)
        base, moved = run_test(data, spec, cfg), run_test(scaled, spec, cfg)
        assert moved.reject == base.reject
        assert moved.boot_values == pytest.approx(base.boot_values, rel=1e-12)

    def test_rejection_monotone_in_alpha(self):
        data, spec = scenario1_dataset(seed=33, n=60)
        flags = []
        for alpha in (0.01, 0.05, 0.20, 0.60):
            cfg = BootstrapConfig(n_boot=200, alpha=alpha, seed=5)
            flags.append(run_test(data, spec, cfg).reject)
        # once rejected at a small alpha, every larger alpha rejects too
        assert flags == sorted(flags)

    def test_degenerate_resamples_are_redrawn_and_counted(self):
        data = Dataset({"y": np.array([0.0, 0.0, 1.0])})
        spec = ModelSpec(response="y", covariates=())
        cfg = BootstrapConfig(n_boot=50, alpha=0.05, seed=1, max_redraws=100)
        result = run_test(data, spec, cfg)
        assert result.redraw_count == 28
        assert np.all(np.isfinite(result.boot_values))

    def test_redraw_limit_exhaustion_raises(self):
        data = Dataset({"y": np.array([0.0, 0.0, 1.0])})
        spec = ModelSpec(response="y", covariates=())
        cfg = BootstrapConfig(n_boot=5, alpha=0.05, seed=0, max_redraws=0)
        with pytest.raises(RedrawLimitError):
            run_test(data, spec, cfg)

    def test_original_fit_errors_propagate(self):
        x = np.arange(20.0)
        data = Dataset({"x": x, "y": 1.0 + 2.0 * x})
        spec = ModelSpec(response="y", covariates=("x",))
        with pytest.raises(DegenerateFitError):
            run_test(data, spec, BootstrapConfig(n_boot=10, seed=3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_boot": 1},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"seed": -1},
            {"seed": 2**64},
            {"max_redraws": -1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            BootstrapConfig(**kwargs)


class TestChunkWorker:
    @pytest.mark.parametrize("case", ["scenario1", "degenerate"])
    def test_uneven_splits_concatenate_bitwise(self, case):
        if case == "scenario1":
            data, spec = scenario1_dataset(seed=6, n=40)
        else:  # many resamples are constant and get redrawn
            data = Dataset({"y": np.array([0.0, 0.0, 1.0])})
            spec = ModelSpec(response="y", covariates=())
        X, y = build_design(data, spec)
        bounds = [0, 1, 2, 9, 40, 97]
        whole, redraws = _chunk_worker((X, y, 12, 100, 0, 97))
        parts = [_chunk_worker((X, y, 12, 100, a, b)) for a, b in zip(bounds, bounds[1:])]
        assert [v.size for v, _ in parts] == np.diff(bounds).tolist()
        assert np.array_equal(np.concatenate([v for v, _ in parts]), whole)
        assert sum(r for _, r in parts) == redraws
        assert (redraws > 0) == (case == "degenerate")


class TestMapChunks:
    @pytest.mark.parametrize("total", [1, 2, 3, 7, 97, 10_000])
    @pytest.mark.parametrize("threads", range(1, 9))
    def test_chunks_are_nonempty_contiguous_and_in_order(
        self, monkeypatch, total, threads
    ):
        pools = fake_process_pools(monkeypatch, cpus=8)
        chunks = map_chunks(lambda payload: payload, total, threads, ("x", 5))
        workers = min(threads, total, 8)
        assert len(chunks) == workers
        assert all(chunk[:2] == ("x", 5) for chunk in chunks)
        starts, stops = [c[2] for c in chunks], [c[3] for c in chunks]
        assert starts[0] == 0 and stops[-1] == total
        assert starts[1:] == stops[:-1]
        assert all(a < b for a, b in zip(starts, stops))
        assert pools == ([] if workers == 1 else [workers])


class TestVarianceBound:
    def test_bounds_np_var_of_every_resample(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 300))
            y = 2.0 + 2.0 * rng.standard_normal(n)
            bound = _variance_bound(y)
            for _ in range(25):
                assert np.var(y[rng.integers(0, n, size=n)]) <= bound

    def test_bounds_np_var_when_values_differ_by_ulps(self):
        # np.var's rounded mean of a resample then moves its value by as much
        # as the spread itself; max((y - mean(y))**2) alone fails here
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 300))
            offset = rng.uniform(1.0, 2.0) * 2.0 ** int(rng.integers(-20, 40))
            y = offset + np.spacing(offset) * rng.integers(0, 3, size=n)
            bound = _variance_bound(y)
            for _ in range(25):
                assert np.var(y[rng.integers(0, n, size=n)]) <= bound

    def test_constant_response(self):
        y = np.full(7, 0.1)
        assert np.var(y) <= _variance_bound(y)


# ---------------------------------------------------------------------------
# operating characteristics under the correct model
# ---------------------------------------------------------------------------


class TestTypeOneError:
    def test_rejection_rate_near_nominal_under_correct_model(self):
        # 500 replicates of scenario 1 at n = 500 with B = 1000
        cfg = BootstrapConfig(n_boot=1000, alpha=0.05, seed=1729)
        report = run_monte_carlo(1, 500, 500, cfg)
        assert report.excluded == 0
        assert abs(report.rates["bootstrap"] - 0.088) <= 0.04
