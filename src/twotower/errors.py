"""Exception hierarchy for the package.

The CLI maps these onto process exit codes (see ``twotower.cli``); library
callers catch them like any other exception.
"""

import contextlib


class TwoTowerError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(TwoTowerError):
    """Incompatible operand shapes; the message names both shapes."""


class DegenerateRowError(TwoTowerError):
    """A row that must be scaled to unit norm has a norm that is zero or not finite."""

    def __init__(self, message, row=None, row_id=None):
        super().__init__(message)
        self.row = row
        self.row_id = row_id


class DataFormatError(TwoTowerError):
    """A file does not conform to its format; ``line`` is set for a JSON-lines fault."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class BadMagicError(DataFormatError):
    """File does not start with the expected magic bytes."""


class FormatVersionError(DataFormatError):
    """File declares a format version this code does not read."""


class TruncatedFileError(DataFormatError):
    """File ends in the middle of a declared structure."""


class IdCountMismatchError(DataFormatError):
    """The id block holds fewer ids than the header declares."""


class ManifestError(DataFormatError):
    """A caption manifest line is malformed; ``line`` is its 1-based number."""


class ConfigError(TwoTowerError):
    """A run-configuration key is unknown or a value is out of range."""


class DivergenceError(TwoTowerError):
    """Training produced a non-finite loss or parameter value."""


class FingerprintMismatchError(TwoTowerError):
    """An index was queried with a model other than the one that built it."""


@contextlib.contextmanager
def value_errors_as(kind, prefix=""):
    """Re-raise a ValueError from the block as ``kind``, its message after ``prefix``.

    For outside values a constructor rejects: config values, file contents
    (with the file's name as ``prefix``).
    """
    try:
        yield
    except ValueError as e:
        raise kind(f"{prefix}{e}") from e
