"""Exception types shared across the package, and a helper for their messages."""

from __future__ import annotations


class SplineAlgebraError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(SplineAlgebraError):
    """An element does not belong to the ring an operation expected."""


class ParseError(SplineAlgebraError):
    """A text expression could not be parsed.

    ``position`` is the 0-based character offset of the offending input;
    the message reports it as a 1-based column. ``reason`` is the message
    without that column.
    """

    def __init__(self, message: str, position: int):
        self.position = position
        self.reason = message
        super().__init__(f"{message} (column {position + 1})")


class GraphError(SplineAlgebraError):
    """A graph document failed validation, or is outside what a command decides.

    ``code`` is a stable machine-readable tag, e.g. ``ZERO_LABEL`` or
    ``DISCONNECTED``, or ``UNDECIDABLE`` for a graph the command has no
    decision procedure for.
    """

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


def excerpt(text: str, limit: int = 40) -> str:
    """``repr(text)`` for messages; longer text is cut to a prefix plus its length."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"
