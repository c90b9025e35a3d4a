"""Tests for the bootstrap goodness-of-fit test and its resampling engine."""

import tracemalloc

import numpy as np
import pytest

import gofboot.bootstrap
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
    _block_length,
    _chunk_worker,
    _refit_columns,
    _stream_positioner,
    map_chunks,
)
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
        assert result.boot_values[0] == pytest.approx(
            var_gof(model.residuals, model.sigma2_hat), rel=1e-12
        )
        assert result.boot_values[0] == pytest.approx(
            sandwich(model, boot_data).var_gof, rel=1e-12
        )

    def test_every_iteration_reproducible_from_public_pieces(self, small_case):
        data, spec, cfg, result = small_case
        assert result.redraw_count == 0
        for b, value in enumerate(result.boot_values):
            model = fit_mle(resample(data, iteration_stream(cfg.seed, b)), spec)
            assert value == pytest.approx(
                var_gof(model.residuals, model.sigma2_hat), rel=1e-12
            )

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

    def test_invariant_to_moving_a_covariate(self):
        # x1 + 3e5 rounds x1 to about 6e-11 of its spread, hence 1e-10
        data, spec = scenario1_dataset(seed=1, n=500)
        moved = Dataset({**data.columns, "x1": data.columns["x1"] + 3e5})
        cfg = BootstrapConfig(n_boot=200, alpha=0.05, seed=3)
        base, shifted = run_test(data, spec, cfg), run_test(moved, spec, cfg)
        assert (shifted.reject, shifted.redraw_count) == (base.reject, base.redraw_count)
        assert shifted.boot_values == pytest.approx(base.boot_values, rel=1e-10)

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
        cfg = BootstrapConfig(n_boot=50, alpha=0.05, seed=1)
        result = run_test(data, spec, cfg)
        assert result.redraw_count == 28
        assert np.all(np.isfinite(result.boot_values))

    def test_redraw_limit_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(gofboot.bootstrap, "MAX_REDRAWS", 0)
        data = Dataset({"y": np.array([0.0, 0.0, 1.0])})
        spec = ModelSpec(response="y", covariates=())
        cfg = BootstrapConfig(n_boot=5, alpha=0.05, seed=0)
        with pytest.raises(RedrawLimitError):
            run_test(data, spec, cfg, threads=1)

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
            {"n_boot": 10.5},
            {"seed": 1.7},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            BootstrapConfig(**kwargs)


def degenerate_case():
    # intercept-only on three rows: many resamples are constant and redrawn
    data = Dataset({"y": np.array([0.0, 0.0, 1.0])})
    return data, ModelSpec(response="y", covariates=())


class TestChunkWorker:
    @pytest.mark.parametrize("case", ["scenario1", "degenerate"])
    def test_block_splits_concatenate_bitwise(self, case):
        if case == "scenario1":
            data, spec = scenario1_dataset(seed=6, n=40)
        else:
            data, spec = degenerate_case()
        columns = _refit_columns(fit_mle(data, spec))
        n_boot = 197  # the last block is short
        m = _block_length(data.n)
        blocks = -(-n_boot // m)
        bounds = [0, 1, 2, blocks - 1, blocks]
        whole, redraws = _chunk_worker((columns, 12, n_boot, 0, blocks))
        parts = [
            _chunk_worker((columns, 12, n_boot, a, b)) for a, b in zip(bounds, bounds[1:])
        ]
        sizes = [min(b * m, n_boot) - a * m for a, b in zip(bounds, bounds[1:])]
        assert [v.size for v, _ in parts] == sizes
        assert whole.size == n_boot
        assert np.array_equal(np.concatenate([v for v, _ in parts]), whole)
        assert sum(r for _, r in parts) == redraws
        assert (redraws > 0) == (case == "degenerate")

    def test_redraws_continue_on_the_iteration_stream(self):
        # the reference refits whole rows and redraws on a degenerate fit
        data, spec = degenerate_case()
        cfg = BootstrapConfig(n_boot=150, alpha=0.05, seed=4)
        result = run_test(data, spec, cfg)
        redraws = 0
        for b, value in enumerate(result.boot_values):
            rng = iteration_stream(cfg.seed, b)
            while True:
                try:
                    model = fit_mle(resample(data, rng), spec)
                except DegenerateFitError:
                    redraws += 1
                    continue
                break
            assert value == pytest.approx(
                var_gof(model.residuals, model.sigma2_hat), rel=1e-12
            )
        assert result.redraw_count == redraws > 0

    def test_degenerate_run_is_bit_identical_across_threads(self):
        data, spec = degenerate_case()
        cfg = BootstrapConfig(n_boot=150, alpha=0.05, seed=9)
        assert -(-cfg.n_boot // _block_length(data.n)) == 3
        one = run_test(data, spec, cfg, threads=1)
        two = run_test(data, spec, cfg, threads=2)
        assert one.boot_values.tobytes() == two.boot_values.tobytes()
        assert one.redraw_count == two.redraw_count > 0

    @pytest.mark.parametrize(
        "n,m",
        [(1, 64), (3, 64), (200, 64), (4096, 64), (4097, 63), (5000, 52),
         (2**17, 2), (2**17 + 1, 1), (200_000, 1)],
    )
    def test_block_length_depends_on_n_alone(self, n, m):
        # at most 64 iterations, and one m x n float64 buffer within 2 MB
        assert _block_length(n) == m
        assert m * n <= 2**18 or m == 1

    @pytest.mark.parametrize("case", ["scenario1", "degenerate"])
    @pytest.mark.parametrize("form", ["refilled tables", "scaled tiles"])
    def test_every_gram_form_gives_the_same_run(self, case, form, monkeypatch):
        # shrink the buffers so that small data take the forms meant for
        # large q n, each over several row tiles with a short last one
        if case == "scenario1":
            data, spec = scenario1_dataset(seed=21, n=80)
            cfg = BootstrapConfig(n_boot=150, alpha=0.05, seed=77)
        else:
            data, spec = degenerate_case()
            cfg = BootstrapConfig(n_boot=50, alpha=0.05, seed=1)
        whole = run_test(data, spec, cfg, threads=1)
        n, p = data.n, whole.model.basis.shape[1] + 1
        q = p * (p + 1) // 2
        module = gofboot.bootstrap
        monkeypatch.setattr(module, "_PAIRS_ELEMENTS", 0)
        if form == "refilled tables":  # m p >= q and tiles of fewer than n rows
            monkeypatch.setattr(module, "_BUFFER_ELEMENTS", n * -(-q // p))
        else:  # m = 1 and tiles of two rows
            monkeypatch.setattr(module, "_BUFFER_ELEMENTS", n)
            monkeypatch.setattr(module, "_TILE_ELEMENTS", 2 * p)
        tiled = run_test(data, spec, cfg, threads=1)
        assert tiled.boot_values == pytest.approx(whole.boot_values, rel=1e-12)
        assert tiled.redraw_count == whole.redraw_count
        assert (case == "degenerate") == (whole.redraw_count == 28)

    @pytest.mark.parametrize("p,n", [(7, 5000), (22, 10_000), (22, 2**17 + 1)])
    def test_worker_memory_does_not_grow_with_the_gram_table(self, p, n):
        # a table of all q n per-row products would take 265 MB at the last
        # shape; the count and residual buffers and the draws take about n
        # floats each
        module = gofboot.bootstrap
        columns = np.random.default_rng(p).standard_normal((p, n)) / np.sqrt(n)
        m = _block_length(n)
        tracemalloc.start()
        try:
            _chunk_worker((columns, 3, 2 * m, 0, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (module._PAIRS_ELEMENTS + 6 * max(n, module._BUFFER_ELEMENTS))


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
