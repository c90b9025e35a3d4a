"""Tests for the sandwich variance of the fit statistic.

The central check: the full matrix construction
n * I_n^{-1} (sum U_i U_i') I_n^{-1} must reproduce the closed form
sum_i (e_i^2 - sigma2_hat)^2 / sigma2_hat^2, which one obtains by hand
because the information matrix is block diagonal at the MLE.
"""

import math

import numpy as np
import pytest

from gofboot import (
    Dataset,
    ModelSpec,
    SingularInformationError,
    exact_var_gof,
    fit_mle,
    theoretical_var_gof,
    trigamma,
    var_gof,
)
from gofboot.regression import build_design
from conftest import INVARIANT_TRANSFORMS, random_regression, scenario1_dataset
from oracle import observed_information, sandwich, score_components

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def closed_form_var_gof(model):
    """Hand-derived value of the sandwich variance at the MLE."""
    e2 = model.residuals**2
    return float(np.sum((e2 - model.sigma2_hat) ** 2)) / model.sigma2_hat**2


def loglik_at(theta, X, y):
    """Normal linear model log-likelihood at arbitrary theta = (beta, sigma2)."""
    beta, sigma2 = theta[:-1], theta[-1]
    resid = y - X @ beta
    n = y.size
    return -0.5 * n * math.log(2.0 * math.pi * sigma2) - 0.5 * float(
        resid @ resid
    ) / sigma2


def finite_difference_hessian(theta, X, y):
    """Central mixed second differences of the log-likelihood."""
    p = theta.size
    h = 1e-4 * np.maximum(np.abs(theta), 0.1)
    H = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            tpp = theta.copy(); tpp[i] += h[i]; tpp[j] += h[j]
            tpm = theta.copy(); tpm[i] += h[i]; tpm[j] -= h[j]
            tmp = theta.copy(); tmp[i] -= h[i]; tmp[j] += h[j]
            tmm = theta.copy(); tmm[i] -= h[i]; tmm[j] -= h[j]
            value = (
                loglik_at(tpp, X, y)
                - loglik_at(tpm, X, y)
                - loglik_at(tmp, X, y)
                + loglik_at(tmm, X, y)
            ) / (4.0 * h[i] * h[j])
            H[i, j] = value
            H[j, i] = value
    return H


def finite_difference_scores(model, X, y):
    """Per-observation central-difference gradients of the log density."""
    theta = np.append(model.beta_hat, model.sigma2_hat)
    h = 1e-5 * np.abs(theta)

    def logdens(t, i):
        beta, sigma2 = t[:-1], t[-1]
        e = y[i] - X[i] @ beta
        return -0.5 * math.log(2.0 * math.pi * sigma2) - 0.5 * e * e / sigma2

    n = y.size
    U = np.empty((n, theta.size))
    for i in range(n):
        for k in range(theta.size):
            plus = theta.copy(); plus[k] += h[k]
            minus = theta.copy(); minus[k] -= h[k]
            U[i, k] = (logdens(plus, i) - logdens(minus, i)) / (2.0 * h[k])
    return U


# ---------------------------------------------------------------------------
# score components
# ---------------------------------------------------------------------------


class TestScoreComponents:
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_sum_to_zero_at_mle(self, seed):
        data, spec = random_regression(seed)
        model = fit_mle(data, spec)
        U = score_components(model, data)
        total = U.sum(axis=0)
        scale = np.abs(U).sum(axis=0) + 1.0
        assert np.all(np.abs(total) <= 1e-8 * scale)

    def test_matches_finite_difference_gradients(self, three_point):
        data, spec = three_point
        model = fit_mle(data, spec)
        X, y = build_design(data, spec)
        U = score_components(model, data)
        U_fd = finite_difference_scores(model, X, y)
        assert U == pytest.approx(U_fd, rel=1e-6, abs=1e-6)

    def test_residual_equal_to_sigma_hat_zeroes_variance_component(self, sign_flip):
        # y = (1, -1, 1, -1) fit on an intercept: every |e_i| = sigma_hat = 1
        data, spec = sign_flip
        model = fit_mle(data, spec)
        U = score_components(model, data)
        assert np.all(U[:, -1] == 0.0)


# ---------------------------------------------------------------------------
# observed information
# ---------------------------------------------------------------------------


class TestObservedInformation:
    @pytest.mark.parametrize("seed", range(6))
    def test_blocks_at_mle(self, seed):
        data, spec = random_regression(seed)
        model = fit_mle(data, spec)
        X, _ = build_design(data, spec)
        info = observed_information(model, data)
        r, s2 = model.r, model.sigma2_hat
        assert info[:r, :r] == pytest.approx((X.T @ X) / s2, rel=1e-10)
        # cross block X'e / sigma4 vanishes at the MLE
        scale = np.linalg.norm(info[:r, :r])
        assert np.all(np.abs(info[:r, r]) <= 1e-7 * scale)
        assert info[r, r] == pytest.approx(model.n / (2.0 * s2 * s2), rel=1e-8)
        assert info == pytest.approx(info.T)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    def test_matches_finite_difference_hessian(self, seed):
        data, spec = random_regression(seed)
        model = fit_mle(data, spec)
        X, y = build_design(data, spec)
        theta = np.append(model.beta_hat, model.sigma2_hat)
        H = finite_difference_hessian(theta, X, y)
        info = observed_information(model, data)
        err = np.linalg.norm(info - (-H)) / np.linalg.norm(info)
        assert err <= 1e-5


# ---------------------------------------------------------------------------
# sandwich estimate
# ---------------------------------------------------------------------------


class TestSandwich:
    @pytest.mark.parametrize("seed", range(25))
    def test_matrix_path_equals_closed_form(self, seed):
        data, spec = random_regression(seed)
        model = fit_mle(data, spec)
        est = sandwich(model, data)
        assert est.var_gof == pytest.approx(closed_form_var_gof(model), rel=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_c_n_symmetric_and_psd(self, seed):
        data, spec = random_regression(seed)
        model = fit_mle(data, spec)
        c = sandwich(model, data).c_n
        assert np.abs(c - c.T).max() <= 1e-9 * np.abs(c).max()
        eigenvalues = np.linalg.eigvalsh(0.5 * (c + c.T))
        assert eigenvalues.min() >= -1e-8 * np.trace(c)

    def test_var_gof_ties_out_from_s_n(self, three_point):
        data, spec = three_point
        model = fit_mle(data, spec)
        est = sandwich(model, data)
        assert est.var_gof == pytest.approx(
            model.n / model.sigma2_hat**2 * est.s_n, rel=1e-12
        )
        assert est.var_gof == pytest.approx(1.5, rel=1e-8)  # exact by hand

    def test_constant_squared_residuals_give_zero_variance(self, sign_flip):
        data, spec = sign_flip
        model = fit_mle(data, spec)
        assert sandwich(model, data).var_gof == pytest.approx(0.0, abs=1e-12)

    def test_near_two_n_under_correct_specification(self):
        n = 5000
        data, spec = scenario1_dataset(seed=314, n=n)
        model = fit_mle(data, spec)
        ratio = sandwich(model, data).var_gof / theoretical_var_gof(n)
        assert 0.9 <= ratio <= 1.1

    def test_singular_information_raises(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(40)
        # a nearly duplicated covariate passes the rank check but leaves
        # the equilibrated design Gram with condition number above 1e12
        data = Dataset(
            {
                "a": x,
                "b": x + 1e-7 * rng.standard_normal(40),
                "y": rng.standard_normal(40),
            }
        )
        with pytest.raises(SingularInformationError):
            fit_mle(data, ModelSpec(response="y", covariates=("a", "b")))


class TestClosedForm:
    @pytest.mark.parametrize("seed", range(25))
    def test_equals_matrix_path(self, seed):
        data, spec = random_regression(seed)
        model = fit_mle(data, spec)
        assert var_gof(model.residuals, model.sigma2_hat) == pytest.approx(
            sandwich(model, data).var_gof, rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "transform",
        INVARIANT_TRANSFORMS.values(),
        ids=list(INVARIANT_TRANSFORMS),
    )
    def test_invariant_to_units_affine_maps_and_row_order(self, transform, seed):
        data, spec = scenario1_dataset(seed=seed, n=500)
        moved = Dataset(transform(data.columns))
        base = fit_mle(data, spec)
        model = fit_mle(moved, spec)
        assert var_gof(model.residuals, model.sigma2_hat) == pytest.approx(
            var_gof(base.residuals, base.sigma2_hat), rel=1e-10
        )


# ---------------------------------------------------------------------------
# reference variances
# ---------------------------------------------------------------------------


class TestReferenceVariances:
    def test_theoretical_values(self):
        assert theoretical_var_gof(200) == 400.0
        assert theoretical_var_gof(5000) == 10000.0
        with pytest.raises(ValueError):
            theoretical_var_gof(0)

    def test_exact_small_sample_value(self):
        # n = 4, r = 2: 16 * trigamma(1) = 16 pi^2 / 6
        assert exact_var_gof(4, 2) == pytest.approx(
            16.0 * math.pi**2 / 6.0, rel=1e-10
        )

    def test_exact_agrees_with_trigamma_at_half_integer(self):
        assert exact_var_gof(100, 3) == pytest.approx(1e4 * trigamma(48.5), rel=1e-12)

    def test_exact_exceeds_asymptotic(self):
        for n, r in [(10, 1), (25, 3), (100, 3), (1000, 2), (10_000, 3)]:
            assert exact_var_gof(n, r) > theoretical_var_gof(n)

    def test_ratio_decreases_toward_one(self):
        ratios = [exact_var_gof(n, 3) / theoretical_var_gof(n) for n in (50, 100, 500, 5000)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert exact_var_gof(10_000, 3) / theoretical_var_gof(10_000) <= 1.001

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exact_var_gof(3, 3)
        with pytest.raises(ValueError):
            exact_var_gof(10, 0)
