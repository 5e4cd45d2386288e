"""Exception types shared across the package.

The CLI maps these onto stable exit codes: every class derives from
exactly one of InvalidConfigError (configuration and parsing problems,
status 2) and DegenerateDataError (degenerate data, status 3).
"""


class LatescoreError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfigError(LatescoreError):
    """A parameter or flag combination violates a precondition."""


class CsvParseError(InvalidConfigError):
    """A data file could not be parsed; the message names row and column."""


class DegenerateDataError(LatescoreError):
    """A statistic is undefined: a second moment is zero or a computed value non-finite."""


class DegenerateFoldError(DegenerateDataError):
    """A cross-fitting training set contains only one instrument level."""


class WeakDenominatorError(DegenerateDataError):
    """The ratio estimator's denominator is numerically zero.

    The score confidence set remains well defined in this situation and
    should be used instead of the Wald interval.
    """


class DecompositionError(InvalidConfigError):
    """A covariance matrix is not symmetric positive semidefinite."""
