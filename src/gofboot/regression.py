"""Maximum likelihood fitting of the normal linear regression model.

The model is y_i = x_i' beta + eps_i with eps_i ~ N(0, sigma2). Note that
the MLE of the error variance divides the residual sum of squares by n,
not by n - r; the goodness-of-fit machinery in this package depends on
that convention throughout, so ``sigma2_hat`` here is biased relative to
the usual OLS variance estimate reported by most regression software.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._lapack import dgelsy as _gelsy
from ._lapack import dgelsy_lwork as _gelsy_lwork
from .errors import (
    DegenerateFitError,
    InsufficientDataError,
    RankDeficientError,
    SingularInformationError,
)

__all__ = ["Dataset", "ModelSpec", "FittedModel", "fit_mle", "gof_term", "aic", "bic"]

# Relative tolerance for rank detection in the pivoted orthogonal solve.
RANK_TOLERANCE = 1e-10

# sigma2_hat below this multiple of Var(y) counts as a perfect fit.
DEGENERATE_TOLERANCE = 1e-12

# Near-singular limit on the condition number of the equilibrated design Gram.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class Dataset:
    """A named-column table of float64 observations.

    Parameters
    ----------
    columns : dict[str, np.ndarray]
        Mapping from column name to value vector. All vectors must have
        the same length n >= 1, names must be unique (guaranteed by the
        dict) and nonempty, and every value must be finite. The response
        is just another column; a :class:`ModelSpec` designates it.
    """

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("dataset must contain at least one column")
        clean = {}
        length = None
        for name, values in self.columns.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"column names must be nonempty strings, got {name!r}")
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise ValueError(
                    f"column {name!r} has length {arr.size}, expected {length}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"column {name!r} contains non-finite values")
            clean[name] = arr
        if length == 0:
            raise ValueError("dataset must contain at least one row")
        object.__setattr__(self, "columns", clean)

    @property
    def n(self) -> int:
        """Number of rows."""
        return next(iter(self.columns.values())).size


@dataclass(frozen=True)
class ModelSpec:
    """Which columns enter the regression.

    Parameters
    ----------
    response : str
        Name of the outcome column.
    covariates : tuple[str, ...]
        Ordered names of the covariate columns. May be empty for an
        intercept-only model.
    intercept : bool
        Whether to prepend a column of ones to the design matrix.
    """

    response: str
    covariates: tuple[str, ...] = ()
    intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if not self.response:
            raise ValueError("response name must be nonempty")
        if len(set(self.covariates)) != len(self.covariates):
            raise ValueError("covariate names must be unique")
        if self.response in self.covariates:
            raise ValueError(f"response {self.response!r} also listed as a covariate")
        if not self.intercept and not self.covariates:
            raise ValueError("model must have an intercept or at least one covariate")


@dataclass(frozen=True)
class FittedModel:
    """MLE fit artifacts for a normal linear regression.

    Attributes
    ----------
    beta_hat : np.ndarray
        Coefficients, intercept first when present, shape (r,).
    sigma2_hat : float
        MLE error variance, residual sum of squares divided by n.
    residuals : np.ndarray
        y - X beta_hat, shape (n,).
    n : int
        Sample size.
    r : int
        Number of mean parameters (columns of the design matrix).
    loglik : float
        Maximized log-likelihood.
    spec : ModelSpec
        The specification that produced the design matrix.
    """

    beta_hat: np.ndarray
    sigma2_hat: float
    residuals: np.ndarray
    n: int
    r: int
    loglik: float
    spec: ModelSpec = field(repr=False)


def build_design(data: Dataset, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the design matrix and response vector for ``spec``.

    Returns
    -------
    (X, y) : tuple of np.ndarray
        X has shape (n, r) with the intercept column first when present,
        followed by the covariates in specification order.
    """
    missing = [c for c in (spec.response, *spec.covariates) if c not in data.columns]
    if missing:
        raise ValueError(f"columns not in dataset: {', '.join(sorted(missing))}")
    y = data.columns[spec.response]
    pieces = []
    if spec.intercept:
        pieces.append(np.ones(data.n))
    pieces.extend(data.columns[c] for c in spec.covariates)
    X = np.column_stack(pieces)
    return X, y


def least_squares(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Rank-revealing least-squares solve via column-pivoted QR.

    Returns (beta, residuals, rank). Never forms the normal equations;
    rank is detected at relative tolerance ``RANK_TOLERANCE``. Calls LAPACK
    ``dgelsy`` with the arguments ``scipy.linalg.lstsq(X, y,
    cond=RANK_TOLERANCE, lapack_driver="gelsy")`` passes it, so the results
    are bit for bit those of that call, without its per-call validation
    and workspace query.

    X and y are copied into Fortran-order buffers kept per shape, which
    gelsy overwrites, so a solve allocates nothing of the size of X. That
    makes this function not reentrant across threads; gofboot runs in
    parallel only in separate processes.
    """
    m, r = X.shape
    a, b, pivots, lwork = _gelsy_buffers(m, r)
    a[...] = X
    # gelsy reads the first m rows of b and writes the r-row solution there
    b[:m] = y
    pivots.fill(0)
    _, x, _, rank, info = _gelsy(
        a, b, pivots, RANK_TOLERANCE, lwork, overwrite_a=True, overwrite_b=True
    )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gelsy")
    beta = x[:r].copy()
    return beta, y - X @ beta, rank


# a run solves at a few shapes: the data, and the White and Breusch-Pagan designs
@lru_cache(maxsize=8)
def _gelsy_buffers(m: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    # the optimal lwork for one right-hand side, as scipy.linalg.lstsq takes it
    work, info = _gelsy_lwork(m, r, 1, RANK_TOLERANCE)
    if info != 0:
        raise ValueError(f"gelsy workspace query failed: {info}")
    a = np.empty((m, r), order="F")
    b = np.zeros(max(m, r))
    pivots = np.empty(r, dtype=np.int32)
    return a, b, pivots, int(work)


def fit_mle(data: Dataset, spec: ModelSpec) -> FittedModel:
    """Fit the normal linear model by maximum likelihood.

    The variance estimate uses the MLE divisor n (not n - r).

    Parameters
    ----------
    data : Dataset
    spec : ModelSpec

    Returns
    -------
    FittedModel

    Raises
    ------
    InsufficientDataError
        If n <= r.
    RankDeficientError
        If the design matrix is numerically rank deficient.
    DegenerateFitError
        If the fit is perfect, sigma2_hat <= 1e-12 * Var(y).
    SingularInformationError
        If D^{-1} X'X D^{-1}, D = sqrt(diag(X'X)), has condition number
        above 1e12; unlike that of X'X, it does not change with units.
    """
    X, y = build_design(data, spec)
    n, r = X.shape
    if n <= r:
        raise InsufficientDataError(
            f"need more observations than parameters, got n={n} with r={r}"
        )
    beta, residuals, rank = least_squares(X, y)
    if rank < r:
        raise RankDeficientError(
            f"design matrix has rank {rank}, expected {r}", rank=rank
        )
    sigma2 = float(residuals @ residuals) / n
    if sigma2 <= DEGENERATE_TOLERANCE * float(np.var(y)):
        raise DegenerateFitError(
            f"residual variance {sigma2:.3e} is zero within tolerance"
        )
    gram = X.T @ X
    scale = np.sqrt(np.diag(gram))
    cond = np.linalg.cond(gram / np.outer(scale, scale))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularInformationError(
            f"equilibrated design Gram condition number {cond:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}"
        )
    loglik = -0.5 * n * (math.log(2.0 * math.pi) + 1.0 + math.log(sigma2))
    return FittedModel(
        beta_hat=beta,
        sigma2_hat=sigma2,
        residuals=residuals,
        n=n,
        r=r,
        loglik=loglik,
        spec=spec,
    )


def gof_term(model: FittedModel) -> float:
    """The goodness-of-fit term -2 loglik = n log(2 pi) + n + n log(sigma2_hat)."""
    n = model.n
    return n * math.log(2.0 * math.pi) + n + n * math.log(model.sigma2_hat)


def aic(model: FittedModel) -> float:
    """Akaike information criterion, counting sigma2 as a parameter (p = r + 1)."""
    return gof_term(model) + 2.0 * (model.r + 1)


def bic(model: FittedModel) -> float:
    """Bayesian information criterion with the same parameter count as ``aic``."""
    return gof_term(model) + math.log(model.n) * (model.r + 1)
