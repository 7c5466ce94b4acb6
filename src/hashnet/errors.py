"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """An argument violates an operation's contract."""


class NumericalFailure(RuntimeError):
    """A numerical routine failed to produce a usable result."""


class FormatError(ValueError):
    """A file does not conform to its declared binary or JSON format."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite or exploding loss, or a step or code
    refresh overflowed.  `outer` and `inner` name the step; a code refresh
    is named by the last step of its round."""

    def __init__(self, message: str, outer: int, inner: int):
        super().__init__(message)
        self.outer = outer
        self.inner = inner


class UndefinedMetric(ValueError):
    """A metric has no defined value (e.g. no query has any relevant item)."""
