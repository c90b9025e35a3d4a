"""Misspecification-robust variance of the goodness-of-fit term.

The fit statistic is -2 loglik = n log(2 pi) + n + n log(sigma2_hat). Its
variance under possible misspecification is estimated by the delta method
from the sandwich covariance of the MLE: with theta = (beta, sigma2),

    C_n = n * I_n^{-1} (sum_i U_i U_i') I_n^{-1}

where I_n is the observed information and U_i the per-observation score.
The bottom-right element s_n of C_n estimates n Var(sigma2_hat), and

    Var[-2 loglik] ~= (n / sigma2_hat**2) * s_n.

Under a correctly specified model this is close to 2n, which is what the
bootstrap test uses as its reference value.

At the MLE X'e = 0 makes the information block diagonal, so this reduces
to the closed form ``var_gof``; ``sandwich`` keeps the matrix derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regression import Dataset, FittedModel, build_design
from .special import trigamma

__all__ = [
    "SandwichEstimate",
    "score_components",
    "observed_information",
    "sandwich",
    "var_gof",
    "theoretical_var_gof",
    "exact_var_gof",
]


@dataclass(frozen=True)
class SandwichEstimate:
    """Sandwich variance artifacts for one fitted model.

    Attributes
    ----------
    observed_info : np.ndarray
        I_n(theta_hat), shape (r + 1, r + 1), parameter order (beta, sigma2).
    score_outer_sum : np.ndarray
        sum_i U_i U_i', same shape.
    c_n : np.ndarray
        n * I_n^{-1} score_outer_sum I_n^{-1}.
    s_n : float
        Bottom-right element of ``c_n``.
    var_gof : float
        (n / sigma2_hat**2) * s_n, the robust variance of -2 loglik.
    """

    observed_info: np.ndarray
    score_outer_sum: np.ndarray
    c_n: np.ndarray
    s_n: float
    var_gof: float


def score_components(model: FittedModel, data: Dataset) -> np.ndarray:
    """Per-observation score vectors at the MLE.

    Row i is U_i = (e_i x_i' / sigma2, -1/(2 sigma2) + e_i**2 / (2 sigma2**2))
    with e_i the i-th residual. The rows sum to zero at the MLE.

    Returns
    -------
    np.ndarray of shape (n, r + 1)
    """
    X, _ = build_design(data, model.spec)
    return _score_matrix(X, model.residuals, model.sigma2_hat)


def observed_information(model: FittedModel, data: Dataset) -> np.ndarray:
    """Observed information I_n(theta_hat), negative Hessian of the log-likelihood.

    Blocks: X'X / sigma2 (beta), X'e / sigma2**2 (cross, numerically zero at
    the MLE), and -n / (2 sigma2**2) + e'e / sigma2**3 (sigma2).
    """
    X, _ = build_design(data, model.spec)
    return _information_matrix(X, model.residuals, model.sigma2_hat)


def sandwich(model: FittedModel, data: Dataset) -> SandwichEstimate:
    """Robust sandwich estimate of Var[-2 loglik] for a fitted model.

    This is the matrix derivation of ``var_gof``; the two agree at the MLE.
    """
    X, _ = build_design(data, model.spec)
    residuals, sigma2 = model.residuals, model.sigma2_hat
    n, r = X.shape
    info = _information_matrix(X, residuals, sigma2)
    info_inv = np.linalg.inv(info)
    U = _score_matrix(X, residuals, sigma2)
    outer = U.T @ U
    c_n = n * (info_inv @ outer @ info_inv)
    s_n = float(c_n[r, r])
    return SandwichEstimate(
        observed_info=info,
        score_outer_sum=outer,
        c_n=c_n,
        s_n=s_n,
        var_gof=n / (sigma2 * sigma2) * s_n,
    )


def var_gof(residuals: np.ndarray, sigma2: float) -> float:
    """Robust variance of -2 loglik at the MLE, in closed form.

    Returns sum_i (e_i**2 - sigma2)**2 / sigma2**2, the statistic the
    bootstrap test resamples. For the residuals and ``sigma2_hat`` of an MLE
    fit it equals ``sandwich(model, data).var_gof`` and n (m4 / sigma2**2 - 1),
    with m4 the fourth residual moment, so the units of y do not matter.
    """
    d = residuals * residuals - sigma2
    return float(d @ d) / (sigma2 * sigma2)


def theoretical_var_gof(n: int) -> float:
    """Large-sample variance of -2 loglik under correct specification: 2n."""
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    return 2.0 * n


def exact_var_gof(n: int, r: int) -> float:
    """Finite-sample variance of -2 loglik under a correct normal model.

    Since n sigma2_hat / sigma2 is chi-squared with n - r degrees of
    freedom, the variance of n log(sigma2_hat) is exactly
    n**2 * trigamma((n - r) / 2).

    Parameters
    ----------
    n : int
        Sample size, must exceed ``r``.
    r : int
        Number of mean parameters.
    """
    if r < 1:
        raise ValueError(f"parameter count must be positive, got {r}")
    if n <= r:
        raise ValueError(f"sample size must exceed parameter count, got n={n}, r={r}")
    return n * n * trigamma(0.5 * (n - r))


def _score_matrix(X: np.ndarray, residuals: np.ndarray, sigma2: float) -> np.ndarray:
    n, r = X.shape
    U = np.empty((n, r + 1))
    U[:, :r] = X * (residuals / sigma2)[:, None]
    U[:, r] = residuals**2 / (2.0 * sigma2 * sigma2) - 1.0 / (2.0 * sigma2)
    return U


def _information_matrix(
    X: np.ndarray, residuals: np.ndarray, sigma2: float
) -> np.ndarray:
    n, r = X.shape
    rss = float(residuals @ residuals)
    info = np.empty((r + 1, r + 1))
    info[:r, :r] = (X.T @ X) / sigma2
    cross = (X.T @ residuals) / sigma2**2
    info[:r, r] = cross
    info[r, :r] = cross
    info[r, r] = -0.5 * n / sigma2**2 + rss / sigma2**3
    return info
