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

import numpy as np

from .errors import (
    DegenerateFitError,
    InsufficientDataError,
    RankDeficientError,
    SingularInformationError,
)

__all__ = ["Dataset", "ModelSpec", "FittedModel", "fit_mle", "gof_term", "aic", "bic"]

# Singular values at or below this multiple of the largest do not count to the rank.
RANK_TOLERANCE = 1e-10

# sigma2_hat below this multiple of the mean square of the response the solve
# used (centered when the model has an intercept) counts as a perfect fit.
DEGENERATE_TOLERANCE = 1e-12

# Near-singular limit on the condition number of the unit-norm design's Gram.
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
    spec : ModelSpec
        The specification that produced the design matrix.
    basis : np.ndarray or None
        Orthonormal basis of the design's column span, shape (n, r), from
        the fit's own decomposition; the bootstrap refits in it.
    """

    beta_hat: np.ndarray
    sigma2_hat: float
    residuals: np.ndarray
    n: int
    r: int
    spec: ModelSpec = field(repr=False)
    basis: np.ndarray | None = field(default=None, repr=False, compare=False)


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


def least_squares(
    X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, float, np.ndarray]:
    """Least-squares solve by one thin SVD of X with unit-norm columns.

    Returns (beta, residuals, rank, cond, basis). Two rules decide on the
    scaled design, so neither changes with the units of a column:

    - rank counts the singular values above ``RANK_TOLERANCE`` times the
      largest, and beta is the minimum-norm solution in the scaled columns;
    - cond is (s_max / s_min)**2, the condition number of the scaled
      design's Gram, infinite when s_min is zero.

    ``basis`` holds the left singular vectors of the counted values, an
    orthonormal basis of the span of X. An all-zero column stays zero and
    adds nothing to the rank.
    """
    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0.0] = 1.0
    u, s, vt = np.linalg.svd(X / norms, full_matrices=False)
    rank = int(np.count_nonzero(s > RANK_TOLERANCE * s[0]))
    cond = (s[0] / s[-1]) ** 2 if s[-1] > 0.0 else math.inf
    basis = u[:, :rank]
    beta = vt[:rank].T @ ((basis.T @ y) / s[:rank]) / norms
    return beta, y - X @ beta, rank, float(cond), basis


def fit_mle(data: Dataset, spec: ModelSpec) -> FittedModel:
    """Fit the normal linear model by maximum likelihood.

    The variance estimate uses the MLE divisor n (not n - r). With an
    intercept the covariates and the response are centered before the
    solve, and the intercept is restored afterwards, so moving a column
    changes none of the rules below.

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
        If the centered, unit-norm design has a singular value at or below
        ``RANK_TOLERANCE`` (1e-10) times its largest.
    DegenerateFitError
        If the fit is perfect, sigma2_hat <= 1e-12 * mean(y**2) on the
        response the solve used: Var(y) with an intercept, so a constant
        response is refused, and the uncentered mean square without one.
    SingularInformationError
        If the Gram of the centered, unit-norm design has condition number
        above ``CONDITION_LIMIT`` (1e12).
    """
    X, y = build_design(data, spec)
    n, r = X.shape
    if n <= r:
        raise InsufficientDataError(
            f"need more observations than parameters, got n={n} with r={r}"
        )
    if spec.intercept:
        shift = X[:, 1:].mean(axis=0)
        X[:, 1:] -= shift
        y_mean = y.mean()
        y = y - y_mean
    beta, residuals, rank, cond, basis = least_squares(X, y)
    if rank < r:
        raise RankDeficientError(
            f"design matrix has rank {rank}, expected {r}", rank=rank
        )
    sigma2 = float(residuals @ residuals) / n
    if sigma2 <= DEGENERATE_TOLERANCE * float(y @ y) / n:
        raise DegenerateFitError(
            f"residual variance {sigma2:.3e} is zero within tolerance"
        )
    if not cond <= CONDITION_LIMIT:
        raise SingularInformationError(
            f"centered, unit-norm design Gram condition number {cond:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}"
        )
    if spec.intercept:
        beta[0] += y_mean - shift @ beta[1:]
    return FittedModel(
        beta_hat=beta,
        sigma2_hat=sigma2,
        residuals=residuals,
        n=n,
        r=r,
        spec=spec,
        basis=basis,
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
