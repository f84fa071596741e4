"""Exceptions shared across the package."""

from __future__ import annotations


class WeylkitError(Exception):
    """Base class for all package-specific errors."""


class ParseError(WeylkitError):
    """Raised on malformed expression or word input; carries a position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ResourceLimitError(WeylkitError):
    """Raised when a value would pass a resource cap.

    The caps, both kept in bipoly and checked by the parser's products and
    every substitution, are the degree cap WEYL_MAX_DEGREE and a budget on
    coefficient size under the interpreter's integer-string digit limit.
    """


class NotAWeylPairError(WeylkitError):
    """Raised when an operation requires [z, w] = 1 and the input fails it."""


class InvariantViolation(WeylkitError):
    """A theorem-backed guarantee failed at runtime.

    This always indicates a bug in the implementation (or a precondition
    that was not actually checked), never a legitimate analysis outcome.
    """


class ReplayError(WeylkitError):
    """A certificate did not replay to its recorded final pair."""
