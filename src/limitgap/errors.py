"""Exception hierarchy shared by all limitgap modules.

Every domain error raised by the library derives from LimitGapError so the
CLI can map "domain error" to a single exit code.
"""

from __future__ import annotations


class LimitGapError(Exception):
    """Base class for all domain errors raised by limitgap."""


class NegativeMassError(LimitGapError):
    """An atom was given a negative mass."""


class TotalExceedsOneError(LimitGapError):
    """Atom masses sum to more than 1; the exact offending sum is reported."""

    def __init__(self, total) -> None:
        self.total = total
        super().__init__(f"total mass {total} exceeds 1")


class NTooLargeError(LimitGapError):
    """Exhaustive enumeration was asked for more than 2**24 outcomes, or
    `enumerate_outcomes` for a list past MAX_LIST_N = 20 flips."""


class KRangeError(LimitGapError):
    """Escape-profile offset k is outside [0, n)."""


class IndexOutOfRangeError(LimitGapError):
    """An event predicate references a coordinate index beyond the horizon."""


class EventParseError(LimitGapError):
    """Event expression is malformed; carries position and expectations."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...]) -> None:
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"{message} at line {line}, column {col}")


class BadEpsilonError(LimitGapError):
    """Tightness epsilon must satisfy 0 < epsilon < 1."""


class InconclusiveError(LimitGapError):
    """A finite-horizon scan produced no defensible limit value."""


class NoWeakLimitError(LimitGapError):
    """The measure family has no identifiable weak limit."""


class NoSetLimitError(LimitGapError):
    """The set family is neither constant nor monotone, so it has no limit."""


class BadRationalError(LimitGapError, ValueError):
    """Text is not an exact rational; a ValueError too, so argparse types fail cleanly."""


class BadSequenceSpecError(LimitGapError):
    """A real-sequence spec is not one of the supported monotone forms."""


class NRangeError(LimitGapError):
    """A walkthrough or plot horizon n_max, the n of a printed member, or
    the n of a printed enumeration lies outside its allowed range."""


class DomainError(LimitGapError):
    """Argument lies outside the mathematical domain of the operation."""


class EvaluationError(LimitGapError):
    """A test function could not be evaluated at a required point."""
