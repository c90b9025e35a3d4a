"""Tests for MLE fitting, the fit statistic, and information criteria."""

import math

import numpy as np
import pytest

from gofboot import (
    Dataset,
    DegenerateFitError,
    FittedModel,
    InsufficientDataError,
    ModelSpec,
    RankDeficientError,
    aic,
    bic,
    fit_mle,
    gof_term,
)
from gofboot.regression import least_squares
from conftest import random_regression, scenario1_dataset
from oracle import take_rows

# ---------------------------------------------------------------------------
# worked example
# ---------------------------------------------------------------------------


class TestWorkedExample:
    def test_coefficients(self, three_point):
        data, spec = three_point
        model = fit_mle(data, spec)
        assert model.beta_hat == pytest.approx([-1.0 / 6.0, 1.5], rel=1e-12)

    def test_sigma2_uses_mle_divisor_n(self, three_point):
        data, spec = three_point
        model = fit_mle(data, spec)
        # RSS / n = (1/6) / 3, not RSS / (n - r)
        assert model.sigma2_hat == pytest.approx(1.0 / 18.0, rel=1e-12)
        assert model.sigma2_hat == pytest.approx(
            float(np.mean(model.residuals**2)), rel=1e-15
        )

    def test_gof_term_value(self, three_point):
        # n log(2 pi) + n + n log(1/18), evaluated at 40-digit precision
        data, spec = three_point
        model = fit_mle(data, spec)
        assert gof_term(model) == pytest.approx(-0.15748407446045763, rel=1e-10)


# ---------------------------------------------------------------------------
# gof_term scalar cases
# ---------------------------------------------------------------------------


def synthetic_model(n, sigma2, r=1):
    return FittedModel(
        beta_hat=np.zeros(r),
        sigma2_hat=sigma2,
        residuals=np.zeros(n),
        n=n,
        r=r,
        spec=ModelSpec(response="y", covariates=()),
    )


class TestGofTermFormula:
    def test_unit_variance_single_observation(self):
        assert gof_term(synthetic_model(1, 1.0)) == pytest.approx(
            math.log(2.0 * math.pi) + 1.0, rel=1e-14
        )

    def test_log_sigma2_equal_one(self):
        assert gof_term(synthetic_model(10, math.e)) == pytest.approx(
            10.0 * math.log(2.0 * math.pi) + 20.0, rel=1e-14
        )


# ---------------------------------------------------------------------------
# information criteria
# ---------------------------------------------------------------------------


class TestInformationCriteria:
    def test_penalties_count_sigma2_as_a_parameter(self):
        data, _ = scenario1_dataset(seed=5, n=100)
        model = fit_mle(data, ModelSpec(response="y", covariates=("x1",)))
        assert model.r == 2
        g = gof_term(model)
        assert aic(model) == pytest.approx(g + 6.0, rel=1e-12)
        assert bic(model) == pytest.approx(g + 3.0 * math.log(100.0), rel=1e-12)

    @pytest.mark.parametrize("n,aic_larger", [(7, True), (8, False)])
    def test_ordering_flips_at_n_equal_e_squared(self, n, aic_larger):
        # aic - bic = (2 - log n)(r + 1) changes sign between n = 7 and 8
        data, spec = random_regression(seed=11, n=n, r=2)
        model = fit_mle(data, spec)
        gap = aic(model) - bic(model)
        assert gap == pytest.approx((2.0 - math.log(n)) * (model.r + 1), abs=1e-10)
        assert (gap > 0) == aic_larger

    def test_nested_model_never_fits_better(self):
        data, full = scenario1_dataset(seed=23, n=150)
        sub = ModelSpec(response="y", covariates=("x1",))
        assert gof_term(fit_mle(data, full)) <= gof_term(fit_mle(data, sub))


# ---------------------------------------------------------------------------
# fit invariants
# ---------------------------------------------------------------------------


class TestFitInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_residuals_orthogonal_to_design(self, seed):
        data, spec = random_regression(seed)
        model = fit_mle(data, spec)
        X = np.column_stack(
            [np.ones(data.n)] + [data.columns[c] for c in spec.covariates]
        )
        gram = X.T @ model.residuals
        scale = np.linalg.norm(X, axis=0) * np.linalg.norm(model.residuals)
        assert np.all(np.abs(gram) <= 1e-8 * scale)

    @pytest.mark.parametrize("seed", [3, 17, 99])
    def test_row_permutation_invariance(self, seed):
        data, spec = random_regression(seed)
        rng = np.random.default_rng(seed + 1000)
        perm = rng.permutation(data.n)
        permuted = take_rows(data, perm)
        a = fit_mle(data, spec)
        b = fit_mle(permuted, spec)
        assert a.beta_hat == pytest.approx(b.beta_hat, rel=1e-10)
        assert a.sigma2_hat == pytest.approx(b.sigma2_hat, rel=1e-10)
        assert gof_term(a) == pytest.approx(gof_term(b), rel=1e-10)

    def test_recovers_true_coefficients_on_average(self):
        # scenario 1 draws with beta = (2, 2, 2)
        reps, n = 200, 200
        estimates = np.empty((reps, 3))
        for j in range(reps):
            data, spec = scenario1_dataset(seed=10_000 + j, n=n)
            estimates[j] = fit_mle(data, spec).beta_hat
        mean = estimates.mean(axis=0)
        stderr = estimates.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - 2.0) <= 3.0 * stderr)


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


class TestFitErrors:
    def test_exact_linear_data_is_degenerate(self):
        x = np.arange(12.0)
        data = Dataset({"x": x, "y": 3.0 + 0.5 * x})
        with pytest.raises(DegenerateFitError):
            fit_mle(data, ModelSpec(response="y", covariates=("x",)))

    @pytest.mark.parametrize("covariates", [1, 2])
    @pytest.mark.parametrize("n", [12, 200, 20_000])
    @pytest.mark.parametrize("level", [5.0, 0.1, 1234.5678, -7.25e6, 3e-9])
    def test_constant_response_is_degenerate(self, level, n, covariates):
        # rounding leaves residuals of about eps * level; centering y first
        # scales the rule to them rather than to Var(y) = 0
        rng = np.random.default_rng(n + covariates)
        columns = {"y": np.full(n, level)}
        names = tuple(f"x{k}" for k in range(covariates))
        for name in names:
            columns[name] = 5.0 * rng.random(n)
        with pytest.raises(DegenerateFitError):
            fit_mle(Dataset(columns), ModelSpec(response="y", covariates=names))

    @pytest.mark.parametrize("n", [200, 200_000])
    @pytest.mark.parametrize(
        "level,sd", [(0.0, 1.0), (1e6, 1e-3), (1e9, 1e-3), (-3e6, 1.0)]
    )
    def test_small_noise_on_a_large_level_still_fits(self, level, sd, n):
        rng = np.random.default_rng(n)
        x = 5.0 * rng.random(n)
        y = level + 2.0 * x + sd * rng.standard_normal(n)
        model = fit_mle(Dataset({"x": x, "y": y}), ModelSpec("y", ("x",)))
        # within about four standard errors at n = 200
        assert model.sigma2_hat == pytest.approx(sd**2, rel=0.4)
        assert model.beta_hat[1] == pytest.approx(2.0, abs=0.3)

    def test_duplicated_covariate_column_reports_rank(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(30)
        data = Dataset({"a": x, "b": x.copy(), "y": rng.standard_normal(30)})
        with pytest.raises(RankDeficientError) as info:
            fit_mle(data, ModelSpec(response="y", covariates=("a", "b")))
        assert info.value.rank == 2  # intercept, a, b collapse to rank 2

    def test_too_few_rows(self):
        data = Dataset(
            {
                "x1": np.array([1.0, 2.0, 3.0]),
                "x2": np.array([4.0, 6.0, 5.0]),
                "y": np.array([1.0, 0.0, 2.0]),
            }
        )
        with pytest.raises(InsufficientDataError):
            fit_mle(data, ModelSpec(response="y", covariates=("x1", "x2")))

    def test_unknown_columns_are_named(self):
        data = Dataset({"x": np.arange(5.0), "y": np.arange(5.0) ** 2})
        with pytest.raises(ValueError, match="theta"):
            fit_mle(data, ModelSpec(response="y", covariates=("theta",)))


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------


class TestContainers:
    def test_dataset_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="length"):
            Dataset({"a": np.arange(3.0), "b": np.arange(4.0)})

    def test_dataset_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset({"a": np.array([1.0, math.nan])})

    def test_dataset_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset({})
        with pytest.raises(ValueError):
            Dataset({"a": np.array([])})

    def test_dataset_rejects_bad_names(self):
        with pytest.raises(ValueError, match="nonempty"):
            Dataset({"": np.arange(3.0)})

    def test_modelspec_rejects_duplicate_covariates(self):
        with pytest.raises(ValueError, match="unique"):
            ModelSpec(response="y", covariates=("x", "x"))

    def test_modelspec_rejects_response_among_covariates(self):
        with pytest.raises(ValueError, match="covariate"):
            ModelSpec(response="y", covariates=("y",))

    def test_modelspec_requires_some_mean_structure(self):
        with pytest.raises(ValueError):
            ModelSpec(response="y", covariates=(), intercept=False)


# ---------------------------------------------------------------------------
# least-squares kernel
# ---------------------------------------------------------------------------


def _rank_deficient_design():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 4))
    X[:, 3] = X[:, 1] - 2.0 * X[:, 2]
    return X


class TestLeastSquaresKernel:
    @pytest.mark.parametrize(
        "X,rank",
        [
            (np.random.default_rng(1).standard_normal((3, 1)), 1),
            (np.column_stack([np.ones(80), np.random.default_rng(2).random((80, 2))]), 3),
            (np.column_stack([np.ones(200), np.random.default_rng(3).random((200, 2))]), 3),
            (np.column_stack([np.ones(5000), np.random.default_rng(4).random((5000, 5))]), 6),
            # an auxiliary design wider than its row count
            (np.random.default_rng(5).standard_normal((3, 6)), 3),
            (_rank_deficient_design(), 3),
        ],
        ids=["3x1", "80x3", "200x3", "5000x6", "aux-3x6", "rank-deficient"],
    )
    def test_agrees_with_numpy_lstsq(self, X, rank):
        y = np.random.default_rng(X.shape[0]).standard_normal(X.shape[0])
        beta, residuals, got_rank, _, _ = least_squares(X, y)
        expected, _, expected_rank, _ = np.linalg.lstsq(X, y, rcond=None)
        assert residuals == pytest.approx(y - X @ expected, rel=1e-10)
        assert got_rank == expected_rank == rank
        # the minimum-norm beta of a wide or rank-deficient design depends on
        # the column scaling, so only a full-column-rank beta is unique
        if rank == X.shape[1]:
            assert beta == pytest.approx(expected, rel=1e-10)

    def test_fit_is_not_a_view_of_reused_buffers(self):
        data, spec = random_regression(seed=17, n=30, r=3)
        model = fit_mle(data, spec)
        beta, residuals = model.beta_hat.copy(), model.residuals.copy()
        rng = np.random.default_rng(18)
        for _ in range(3):
            least_squares(rng.standard_normal((30, 3)), rng.standard_normal(30))
        assert np.array_equal(model.beta_hat, beta)
        assert np.array_equal(model.residuals, residuals)

    def test_repeated_wide_solves_each_agree_with_numpy_lstsq(self):
        rng = np.random.default_rng(19)
        for _ in range(3):
            X, y = rng.standard_normal((3, 6)), rng.standard_normal(3)
            _, residuals, rank, _, _ = least_squares(X, y)
            expected, _, expected_rank, _ = np.linalg.lstsq(X, y, rcond=None)
            assert residuals == pytest.approx(y - X @ expected, rel=1e-10)
            assert rank == expected_rank == 3
