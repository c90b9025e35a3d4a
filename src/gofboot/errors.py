"""Exceptions of this package, and the argument rules its entry points share."""

import operator


class GofbootError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(GofbootError, ValueError):
    """An argument breaks a rule that holds whatever the data; CLI exit 1."""


class InsufficientDataError(GofbootError):
    """Fewer observations than mean parameters (n <= r)."""


class RankDeficientError(GofbootError):
    """Design matrix is numerically rank deficient.

    Attributes
    ----------
    rank : int
        Detected numerical rank.
    """

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank

    def __reduce__(self):
        # keeps the two-argument constructor picklable across worker processes
        return (RankDeficientError, (str(self), self.rank))


class DegenerateFitError(GofbootError):
    """Residual variance is zero within tolerance (perfect fit)."""


class SingularInformationError(GofbootError):
    """The design is near singular: centered, unit-norm Gram condition above 1e12."""


class RedrawLimitError(GofbootError):
    """A bootstrap iteration exhausted its degenerate-resample redraws."""


class ExclusionLimitError(GofbootError):
    """Too many Monte Carlo replicates failed to fit."""


class DataFormatError(GofbootError):
    """CSV input is malformed (bad header, ragged row, non-numeric cell)."""


def as_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as a Python int of at least ``minimum``, else ArgumentError.

    Accepts anything ``operator.index`` does, numpy integers included, and
    so refuses a float rather than truncating it. A bool is refused too.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ArgumentError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ArgumentError(f"{name} must be at least {minimum}, got {number}")
    return number


def check_alpha(alpha) -> None:
    """ArgumentError unless the test level ``alpha`` lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ArgumentError(f"alpha must be in (0, 1), got {alpha}")
