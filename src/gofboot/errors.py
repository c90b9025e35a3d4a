"""Exceptions raised by fitting, variance estimation, and resampling."""


class GofbootError(Exception):
    """Base class for all errors raised by this package."""


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
