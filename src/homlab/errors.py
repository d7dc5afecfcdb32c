"""Exception hierarchy shared across the package.

Every error raised on purpose by this package derives from ``HomlabError``,
so callers can catch one base class. Subclasses also derive from the closest
builtin (``ValueError``, ``ArithmeticError``, ``RuntimeError``) so generic
handlers keep working.
"""


class HomlabError(Exception):
    """Base class for all errors raised by this package."""


class TableError(HomlabError, ValueError):
    """A contingency table violates its construction invariants."""


class ShapeError(HomlabError, ValueError):
    """An operation received a table of the wrong dimensions."""


class PartitionError(HomlabError, ValueError):
    """A category merge was given a non-contiguous or non-covering partition."""


class DegenerateInputError(HomlabError, ValueError):
    """An input is degenerate for the requested operation (e.g. zero total)."""


class EnumerationCapError(HomlabError, RuntimeError):
    """A brute-force enumeration would exceed its resource guard."""


class UndefinedIndicatorError(HomlabError, ArithmeticError):
    """An indicator is undefined on the given table (zero denominator etc.)."""


class GllUndefinedError(UndefinedIndicatorError):
    """One or more splits of the matrix-valued indicator are undefined.

    Carries ``entries``, a list of ``(j, k, reason)`` tuples for every
    undefined split, and ``partial``, the value matrix with NaN at the
    undefined positions, so a single bad split does not hide the rest.
    """

    def __init__(self, entries, partial):
        self.entries = list(entries)
        self.partial = partial
        spots = ", ".join(f"({j},{k}): {reason}" for j, k, reason in self.entries)
        super().__init__(f"undefined at splits {spots}")


class UndefinedWeightError(UndefinedIndicatorError):
    """The projection weight is undefined because the two anchor tables coincide."""


class ConvergenceError(HomlabError, RuntimeError):
    """An iterative fit did not reach its tolerance within the iteration cap."""


class InfeasibilityError(HomlabError, RuntimeError):
    """The requested counterfactual does not exist as a nonnegative table.

    Carries ``context``, a dict with the offending cell/value and any
    method-specific detail (e.g. the unclamped projection weight).
    """

    def __init__(self, message, context=None):
        self.context = dict(context) if context else {}
        super().__init__(message)


class DataError(HomlabError, ValueError):
    """A data file failed validation; the message names the offending line."""
