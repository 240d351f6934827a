"""Exception types raised by weibrec."""

from __future__ import annotations


class WeibullRecordsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDataError(WeibullRecordsError):
    """Input data violates a structural requirement.

    Raised for non-positive values, non-increasing record sequences,
    malformed input files, and out-of-range parameters.
    """


class DegenerateDataError(InvalidDataError):
    """Data is structurally valid but leaves a quantity undefined.

    The canonical case is a record series with a single value, for which
    the shape estimate has a zero-valued denominator.
    """


class SingularInformationError(WeibullRecordsError):
    """The observed information matrix is not positive definite.

    Standard errors cannot be extracted by inverting the curvature at
    the reported optimum.
    """


class BracketError(WeibullRecordsError):
    """The pivotal equation has no finite positive root.

    That happens only when the exponential target log W_exp(1) is not
    positive in float arithmetic, e.g. for nearly tied exponential
    records.  ``replicate`` identifies the offending Monte Carlo
    replicate when there is one.
    """

    def __init__(self, message: str, *, replicate: int | None = None):
        super().__init__(message)
        self.replicate = replicate


class FloatRangeError(WeibullRecordsError):
    """An estimate of valid data lies outside the range of a float.

    The closed-form scale estimate can round to zero, and its standard
    error can overflow; the message gives the estimate's logarithm.
    """


class InsufficientDrawsError(InvalidDataError):
    """Too few Monte Carlo draws for the requested percentile bounds."""
