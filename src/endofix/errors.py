"""Exception types shared across the package."""
from __future__ import annotations


class EndofixError(Exception):
    """Base class for all errors raised by this package."""


class DataError(EndofixError):
    """Malformed input data or configuration (missing columns, bad schema)."""


class DomainError(EndofixError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class RankDeficiencyError(EndofixError):
    """A design matrix is (numerically) rank deficient.

    ``column`` names the first offending column as identified by the
    pivoted QR factorization.
    """

    def __init__(self, message: str, column: str | None = None):
        super().__init__(message)
        self.column = column


class ConstantInputError(EndofixError):
    """A vector that must vary is constant (ranks are degenerate)."""


class NonFiniteError(EndofixError):
    """A computed statistic is not finite: it overflowed double precision
    (or is undefined)."""


class QuadratureError(EndofixError):
    """The asymptotic constants' grid did not stabilize by its last
    doubling, or rounding erased the centered quantiles (c2 <= 0)."""


class IdentificationError(EndofixError):
    """The model is not identified (normal-scores regressor is collinear).

    ``schur_margin`` carries the smallest singular value of the offending
    block, so callers can report how close to singular the system is.
    """

    def __init__(self, message: str, schur_margin: float | None = None):
        super().__init__(message)
        self.schur_margin = schur_margin


class BootstrapError(EndofixError):
    """Bootstrap resampling failed (too few replications or too many
    degenerate resamples)."""
