"""Exception types shared across the package.

CLI exit-code mapping: ContractError / ParseError / ValidationError are
user-input problems (exit 1); NumericError and anything unexpected are
runtime failures (exit 2).
"""

from contextlib import contextmanager


class ContractError(ValueError):
    """A documented precondition of an operation was violated."""


def _located(message, unit, number, path):
    """Prefix `message` with "path: unit number: " for the parts given."""
    if number is not None:
        message = f"{unit} {number}: {message}"
    if path is not None:
        message = f"{path}: {message}"
    return message


class ParseError(ValueError):
    """A file could not be parsed; carries the file and the offending line."""

    def __init__(self, message, line=None, path=None):
        super().__init__(_located(message, "line", line, path))
        self.message = message
        self.line = line
        self.path = path


class ValidationError(ValueError):
    """Parsed data violates a corpus/schema invariant."""

    def __init__(self, message, row=None, path=None):
        super().__init__(_located(message, "row", row, path))
        self.message = message
        self.row = row
        self.path = path


@contextmanager
def in_file(path):
    """Re-raise a ParseError or ValidationError of the block naming `path`,
    keeping its line or row: row parsers know the line, not the file."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(exc.message, exc.line, path) from None
    except ValidationError as exc:
        raise ValidationError(exc.message, exc.row, path) from None


class IntegrityError(ValueError):
    """Cross-file consistency check failed (e.g. token/vector count mismatch)."""


class NumericError(ArithmeticError):
    """A non-finite value appeared during numeric computation."""


class UndefinedCorrelationError(ValueError):
    """Pearson correlation requested for a series with zero variance."""
