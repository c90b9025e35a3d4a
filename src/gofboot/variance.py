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
to the closed form ``var_gof``. The matrix construction is kept in
``tests/oracle.py`` as the reference the tests compare against.
"""

from __future__ import annotations

import numpy as np

from .special import trigamma

__all__ = [
    "var_gof",
    "theoretical_var_gof",
    "exact_var_gof",
]


def var_gof(residuals: np.ndarray, sigma2: float) -> float:
    """Robust variance of -2 loglik at the MLE, in closed form.

    Returns sum_i (e_i**2 - sigma2)**2 / sigma2**2, the statistic the
    bootstrap test resamples. For the residuals and ``sigma2_hat`` of an MLE
    fit it equals (n / sigma2_hat**2) * s_n from the sandwich above and
    n (m4 / sigma2**2 - 1), with m4 the fourth residual moment, so the
    units of y do not matter.
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
