"""Exception types shared across the package."""

__all__ = ["UnigraphError", "InputError", "CapacityError", "ParseError", "InternalError"]


class UnigraphError(Exception):
    """Base class for all package errors."""


class InputError(UnigraphError):
    """A value violates an operation's documented precondition."""


class CapacityError(UnigraphError):
    """An input is structurally valid but exceeds a documented size cap."""


class ParseError(UnigraphError):
    """A digraph/matrix/group file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InternalError(UnigraphError):
    """A constructed certificate failed its own verification; a bug, never silent."""
