"""Semantic exception hierarchy for cspace.

Every error raised by the library derives from :class:`CspaceError`, so
callers (most importantly the CLI) can distinguish contract violations from
genuine bugs with a single ``except`` clause.
"""

from __future__ import annotations

__all__ = [
    "CspaceError",
    "DegenerateClassError",
    "EmptyLevelsError",
    "GridMismatchError",
    "InsufficientSamplesError",
    "InvalidGridError",
    "InvalidRatioError",
    "InvalidToleranceError",
    "MetricMismatchError",
    "ScheduleMismatchError",
    "UnknownMetricError",
    "UsageError",
]


class CspaceError(Exception):
    """Base class for all cspace errors."""


class DegenerateClassError(CspaceError, ValueError):
    """A confusion matrix has an empty positive or negative class."""


class InvalidRatioError(CspaceError, ValueError):
    """An imbalance ratio (or ratio schedule) is not a finite positive real."""


class InvalidToleranceError(CspaceError, ValueError):
    """An agnostic tolerance is not a positive number (NaN, zero or negative)."""


class InvalidGridError(CspaceError, ValueError):
    """A sampling grid violates its invariants (e.g. resolution < 2)."""


class GridMismatchError(CspaceError, ValueError):
    """Two surfaces that must share a grid do not."""


class MetricMismatchError(CspaceError, ValueError):
    """Two surfaces that must belong to the same metric do not."""


class UnknownMetricError(CspaceError, KeyError):
    """A metric id is not in the catalog."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message plain
        return self.args[0] if self.args else ""


class EmptyLevelsError(CspaceError, ValueError):
    """Contour extraction was asked for an empty set of levels."""


class ScheduleMismatchError(CspaceError, ValueError):
    """Curves passed to a combined plot do not share a ratio schedule."""


class InsufficientSamplesError(CspaceError, ValueError):
    """A growth diagnostic needs more (distinct) samples than were given."""


class UsageError(CspaceError, ValueError):
    """Command-line arguments violate a command's contract."""
