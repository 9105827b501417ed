"""Exceptions shared across the package."""


class ParseError(ValueError):
    """Malformed framework input; carries the offending line and column (1-based)."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnknownArgumentError(ValueError):
    """An argument name the framework does not declare."""


class BoundExceededError(Exception):
    """An exhaustive computation was asked to go beyond its configured bound."""
