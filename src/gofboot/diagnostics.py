"""Classical heteroskedasticity tests used as comparators.

Both tests regress the squared residuals of a fitted model on an auxiliary
design and refer n R**2 to a chi-squared distribution. The Breusch-Pagan
statistic is the studentized (Koenker) form, which is what the n R**2
expression computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import RankDeficientError
from .regression import Dataset, FittedModel, least_squares
from .special import chi_squared_sf

__all__ = ["AuxTestResult", "breusch_pagan", "white_test"]

# Columns whose residual norm falls below this fraction of their own norm
# after projection on the kept columns are dropped as collinear.
COLLINEARITY_TOLERANCE = 1e-8


@dataclass(frozen=True)
class AuxTestResult:
    """Result of an auxiliary-regression chi-squared test.

    Attributes
    ----------
    statistic : float
        n R**2 from the auxiliary regression, in [0, n].
    df : int
        Non-intercept regressors in the auxiliary design.
    p_value : float
        Upper tail of the chi-squared distribution with ``df`` degrees of
        freedom at ``statistic``.
    """

    statistic: float
    df: int
    p_value: float

    def reject_at(self, alpha: float) -> bool:
        """Whether the test rejects at level ``alpha``."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        return self.p_value < alpha


def breusch_pagan(model: FittedModel, data: Dataset) -> AuxTestResult:
    """Breusch-Pagan test in the studentized n R**2 form.

    Regresses squared residuals on the model's own covariates plus an
    intercept.

    Raises
    ------
    ValueError
        If the model has no non-intercept covariates.
    RankDeficientError
        If the auxiliary design is rank deficient.
    """
    names = model.spec.covariates
    if not names:
        raise ValueError("Breusch-Pagan requires at least one covariate")
    columns = [data.columns[c] for c in names]
    aux = np.column_stack([np.ones(data.n), *columns])
    return _nr2_test(model, aux)


def white_test(model: FittedModel, data: Dataset) -> AuxTestResult:
    """White test with squares and pairwise products of the covariates.

    The auxiliary design holds the covariates, their squares, and their
    pairwise products, after dropping duplicated or collinear columns (a
    binary covariate, for instance, equals its own square). Degrees of
    freedom equal the surviving non-intercept column count.

    Raises
    ------
    ValueError
        If the model has no non-intercept covariates.
    RankDeficientError
        If no auxiliary column survives deduplication.
    """
    names = model.spec.covariates
    if not names:
        raise ValueError("White test requires at least one covariate")
    base = [data.columns[c] for c in names]
    candidates = list(base)
    candidates.extend(col * col for col in base)
    candidates.extend(base[i] * base[j] for i, j in combinations(range(len(base)), 2))

    kept = _drop_collinear(np.ones(data.n), candidates)
    if not kept:
        raise RankDeficientError(
            "no auxiliary regressor survives deduplication", rank=0
        )
    aux = np.column_stack([np.ones(data.n), *kept])
    return _nr2_test(model, aux)


def _drop_collinear(intercept: np.ndarray, candidates: list[np.ndarray]):
    """Greedy pass keeping candidates independent of those already kept."""
    kept: list[np.ndarray] = []
    basis = [intercept / np.linalg.norm(intercept)]
    for col in candidates:
        if any(np.array_equal(col, prev) for prev in kept):
            continue
        w = col.astype(np.float64, copy=True)
        for q in basis:  # two Gram-Schmidt sweeps for numerical safety
            w -= (q @ w) * q
        for q in basis:
            w -= (q @ w) * q
        norm = np.linalg.norm(w)
        if norm <= COLLINEARITY_TOLERANCE * np.linalg.norm(col):
            continue
        kept.append(col)
        basis.append(w / norm)
    return kept


def _nr2_test(model: FittedModel, aux: np.ndarray) -> AuxTestResult:
    n, cols = aux.shape
    df = cols - 1
    z = model.residuals**2
    # unit-norm columns make the rank decision independent of their units
    _, residuals, rank = least_squares(aux / np.linalg.norm(aux, axis=0), z)
    if rank < cols:
        raise RankDeficientError(
            f"auxiliary design has rank {rank}, expected {cols}", rank=rank
        )
    tss = float(np.sum((z - z.mean()) ** 2))
    # z is constant within FP noise when its coefficient of variation is ~0
    if tss <= 1e-24 * n * float(z.mean()) ** 2:
        r_squared = 0.0
    else:
        r_squared = max(0.0, min(1.0, 1.0 - float(residuals @ residuals) / tss))
    statistic = n * r_squared
    p_value = chi_squared_sf(statistic, df)
    return AuxTestResult(statistic=statistic, df=df, p_value=p_value)
