"""Exception taxonomy shared across the package.

Callers can rely on the split: bad input raises ``PreconditionError`` (or a
subclass), an exceeded guard raises ``CapacityError``, and
``InvariantViolationError`` always means an internal bug, never bad input.
"""


class Graph6Error(ValueError):
    """Malformed graph6 text. ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedFormatError(ValueError):
    """Input or graph outside what the format supports (e.g. graph6 output
    for a multigraph, or the long graph6 form with n > 62)."""


class PreconditionError(ValueError):
    """An operation's documented precondition does not hold for the input."""


class CapacityError(RuntimeError):
    """A configured guard (the cycle-space dimension or the time budget)
    was exceeded before the search could reach a definitive answer."""

    def __init__(self, message: str, candidates_tried: int = 0):
        super().__init__(message)
        self.candidates_tried = candidates_tried


class InvariantViolationError(RuntimeError):
    """A mathematically guaranteed postcondition failed; this is a bug in
    the engine, not a property of the input."""
