"""Classical heteroskedasticity tests used as comparators.

Both tests regress the squared residuals of a fitted model on an auxiliary
design and refer n R**2 to a chi-squared distribution whose df is the rank
of that design, intercept included, minus one. The Breusch-Pagan
statistic is the studentized (Koenker) form, which is what the n R**2
expression computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ArgumentError, RankDeficientError, check_alpha
from .regression import Dataset, FittedModel, ModelSpec, least_squares
from .special import chi_squared_sf

__all__ = ["AuxTestResult", "breusch_pagan", "white_test"]


@dataclass(frozen=True)
class AuxTestResult:
    """Result of an auxiliary-regression chi-squared test.

    Attributes
    ----------
    statistic : float
        n R**2 from the auxiliary regression, in [0, n].
    df : int
        Rank of the auxiliary design, intercept included, minus one.
    p_value : float
        Upper tail of the chi-squared distribution with ``df`` degrees of
        freedom at ``statistic``.
    """

    statistic: float
    df: int
    p_value: float

    def reject_at(self, alpha: float) -> bool:
        """Whether the test rejects at level ``alpha``."""
        check_alpha(alpha)
        return self.p_value < alpha


def breusch_pagan(model: FittedModel, data: Dataset) -> AuxTestResult:
    """Breusch-Pagan test in the studentized n R**2 form.

    Regresses squared residuals on the model's own covariates, centered,
    plus an intercept. Degrees of freedom are the rank of that design,
    intercept included, minus one, as for :func:`white_test`.

    Raises
    ------
    ArgumentError
        If the model has no non-intercept covariates.
    RankDeficientError
        If the auxiliary design has rank one, with ``rank`` set to 0.
    """
    return _nr2_test(model, _centered_covariates(model, data))


def white_test(model: FittedModel, data: Dataset) -> AuxTestResult:
    """White test with squares and pairwise products of the covariates.

    The design holds the covariates, centered, their squares and their
    pairwise products; centering keeps its span and stops a large offset
    from making it collinear. Degrees of freedom are the rank of the design,
    intercept included, minus one, so a column that adds nothing to the
    span (the square of a binary covariate, say) does not count.

    Raises
    ------
    ArgumentError
        If the model has no non-intercept covariates.
    RankDeficientError
        If the auxiliary design has rank one, with ``rank`` set to 0.
    """
    base = _centered_covariates(model, data)
    squares = [col * col for col in base]
    products = [a * b for a, b in combinations(base, 2)]
    return _nr2_test(model, base + squares + products)


def check_covariates(spec: ModelSpec) -> None:
    """ArgumentError unless ``spec`` has a covariate, which both tests need."""
    if not spec.covariates:
        raise ArgumentError(
            "White and Breusch-Pagan tests require at least one covariate"
        )


def _centered_covariates(model: FittedModel, data: Dataset) -> list[np.ndarray]:
    check_covariates(model.spec)
    return [data.columns[c] - data.columns[c].mean() for c in model.spec.covariates]


def _nr2_test(model: FittedModel, regressors: list[np.ndarray]) -> AuxTestResult:
    aux = np.column_stack([np.ones(model.n), *regressors])
    z = model.residuals**2
    _, residuals, rank, _, _ = least_squares(aux, z)
    df = rank - 1
    if df == 0:
        raise RankDeficientError(
            "no auxiliary regressor is independent of the intercept", rank=0
        )
    tss = float(np.sum((z - z.mean()) ** 2))
    # z is constant within FP noise when its coefficient of variation is ~0
    if tss <= 1e-24 * model.n * float(z.mean()) ** 2:
        r_squared = 0.0
    else:
        r_squared = max(0.0, min(1.0, 1.0 - float(residuals @ residuals) / tss))
    statistic = model.n * r_squared
    p_value = chi_squared_sf(statistic, df)
    return AuxTestResult(statistic=statistic, df=df, p_value=p_value)
