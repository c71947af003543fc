"""Exception types shared across the package."""

from __future__ import annotations

from fractions import Fraction


class ShiftLabError(Exception):
    """Base class for all package errors."""


class ConfigError(ShiftLabError):
    """Invalid configuration, measure, or input file."""


class HorizonExceededError(ShiftLabError):
    """A stopping time or local-time level was not reached within the horizon.

    Carries enough context that callers can treat the event as a
    right-censored observation instead of a failure.
    """

    def __init__(self, message: str, *, horizon: int | None = None,
                 attained: Fraction | int | None = None):
        super().__init__(message)
        self.horizon = horizon
        self.attained = attained


class TruncationError(ShiftLabError):
    """A finite point configuration is too short to answer the query."""


class InvariantError(ShiftLabError):
    """An internal invariant of the package failed; a bug, not bad input."""


class FeasibilityError(ShiftLabError):
    """A transport matrix violates a polytope constraint.

    ``violations`` lists (constraint-name, index, amount) triples.
    """

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = violations or []
