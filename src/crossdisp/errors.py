"""Exception hierarchy for the package.

Callers usually only need the two broad families: DataError for bad or
insufficient input (CLI exit code 2) and NumericalError for computations
that have no valid result, such as infeasible correlation structures or
degenerate tails (CLI exit code 3).
"""

from __future__ import annotations


class CrossdispError(Exception):
    """Base class for all errors raised by this package."""


class DataError(CrossdispError):
    """Invalid, malformed or insufficient input data."""


class NumericalError(CrossdispError):
    """No valid numerical result exists for the given inputs."""


class RefDateAbsent(DataError):
    """A requested date, or any date of a requested year, is not present in the panel."""

    def __init__(self, when: object, message: str | None = None) -> None:
        super().__init__(message or f"date not in panel: {when}")
        self.when = when


class TooFewStocks(DataError):
    """Fewer stocks available than the operation requires."""

    def __init__(self, found: int, required: int) -> None:
        super().__init__(f"need at least {required} stocks, found {found}")
        self.found = found
        self.required = required


class EmptyCrossSection(DataError):
    """A cross-section holds no values."""


class BadK(DataError):
    """Order-statistic count outside the valid range."""

    def __init__(self, k: int, n: int) -> None:
        super().__init__(f"k={k} outside valid range 1 <= k < n={n}")
        self.k = k
        self.n = n


class DegenerateTail(NumericalError):
    """The upper tail carries no spread, so no exponent is defined."""


class NonFiniteVariance(NumericalError):
    """The Pareto variance diverges for exponents at or below 2."""

    def __init__(self, alpha: float) -> None:
        super().__init__(f"variance is infinite for tail exponent {alpha} <= 2")
        self.alpha = alpha


class WindowTooLarge(DataError):
    """The extreme-detection window does not fit inside the series."""

    def __init__(self, window: int, length: int) -> None:
        super().__init__(
            f"window half-width {window} needs a series longer than "
            f"{2 * window}, got {length}"
        )
        self.window = window
        self.length = length


class DimensionMismatch(DataError):
    """Vector or matrix sizes disagree with the declared universe size."""


class NotPSD(NumericalError):
    """The correlation structure is not positive semidefinite."""


class ZeroReps(DataError):
    """A simulation was requested with no replications."""

    def __init__(self, reps: int) -> None:
        super().__init__(f"need at least 1 replication, got {reps}")
        self.reps = reps


class NoLimit(DataError):
    """No large-universe limit can be derived for the given family."""


class ParseError(DataError):
    """A cell of an input file could not be parsed."""

    def __init__(self, line: int, column: int, reason: str) -> None:
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class DuplicateDate(DataError):
    """The same date occurs more than once in an input file."""

    def __init__(self, when: object) -> None:
        super().__init__(f"duplicate date: {when}")
        self.when = when


class NonPositivePrice(DataError):
    """Prices must be strictly positive."""

    def __init__(self, line: int, column: int, value: float) -> None:
        super().__init__(f"line {line}, column {column}: non-positive price {value}")
        self.line = line
        self.column = column
        self.value = value


class IoError(DataError):
    """Filesystem failure while reading or writing."""
