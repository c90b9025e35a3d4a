"""Reference implementations that the tests compare the package against.

The package computes var_gof in closed form and gathers bootstrap rows
itself. These are the routes it no longer takes: the full sandwich matrix
n * I_n^{-1} (sum_i U_i U_i') I_n^{-1} at theta = (beta, sigma2), and a
case resample built from whole dataset rows.
"""

from dataclasses import dataclass

import numpy as np

from gofboot import Dataset
from gofboot.regression import build_design


@dataclass(frozen=True)
class SandwichEstimate:
    """observed_info is I_n, score_outer_sum is sum_i U_i U_i', c_n the
    sandwich, s_n its bottom-right element and var_gof (n / sigma2**2) s_n."""

    observed_info: np.ndarray
    score_outer_sum: np.ndarray
    c_n: np.ndarray
    s_n: float
    var_gof: float


def score_components(model, data):
    """Row i is U_i = (e_i x_i' / sigma2, -1/(2 sigma2) + e_i**2 / (2 sigma2**2))."""
    X, _ = build_design(data, model.spec)
    return _score_matrix(X, model.residuals, model.sigma2_hat)


def observed_information(model, data):
    """Negative Hessian of the log-likelihood at the MLE, shape (r + 1, r + 1)."""
    X, _ = build_design(data, model.spec)
    return _information_matrix(X, model.residuals, model.sigma2_hat)


def sandwich(model, data):
    """The matrix derivation of var_gof."""
    X, _ = build_design(data, model.spec)
    residuals, sigma2 = model.residuals, model.sigma2_hat
    n, r = X.shape
    info = _information_matrix(X, residuals, sigma2)
    info_inv = np.linalg.inv(info)
    U = _score_matrix(X, residuals, sigma2)
    outer = U.T @ U
    c_n = n * (info_inv @ outer @ info_inv)
    s_n = float(c_n[r, r])
    return SandwichEstimate(info, outer, c_n, s_n, n / (sigma2 * sigma2) * s_n)


def take_rows(data, indices):
    """A new dataset formed from whole rows at ``indices``."""
    return Dataset({name: col[indices] for name, col in data.columns.items()})


def resample(data, rng):
    """Case resample: draw n whole rows with replacement."""
    return take_rows(data, rng.integers(0, data.n, size=data.n))


def _score_matrix(X, residuals, sigma2):
    n, r = X.shape
    U = np.empty((n, r + 1))
    U[:, :r] = X * (residuals / sigma2)[:, None]
    U[:, r] = residuals**2 / (2.0 * sigma2 * sigma2) - 1.0 / (2.0 * sigma2)
    return U


def _information_matrix(X, residuals, sigma2):
    n, r = X.shape
    rss = float(residuals @ residuals)
    info = np.empty((r + 1, r + 1))
    info[:r, :r] = (X.T @ X) / sigma2
    cross = (X.T @ residuals) / sigma2**2
    info[:r, r] = cross
    info[r, :r] = cross
    info[r, r] = -0.5 * n / sigma2**2 + rss / sigma2**3
    return info
