"""Exception types shared across the command-line surface.

Each maps to a process exit code: configuration problems exit 1, missing or
corrupt data exits 2, numeric failures during training exit 3, and a failed
gradient check exits 4.
"""

from contextlib import contextmanager

__all__ = ["ConfigError", "DataError", "NumericError", "GradcheckFailure", "reading"]


class ConfigError(Exception):
    """Invalid or infeasible configuration."""


class DataError(Exception):
    """Missing or corrupt dataset / checkpoint on disk."""


class NumericError(Exception):
    """Non-finite values encountered during optimization."""


class GradcheckFailure(Exception):
    """Analytic gradients disagree with central differences."""


@contextmanager
def reading(path):
    """Report a malformed artifact met while reading ``path`` as a DataError.

    A missing key (KeyError), an unknown key or a wrong type (TypeError)
    and a bad value or corrupt blob (ValueError) all mean the file is not
    what this program wrote; the DataError names it.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed {path}: {type(e).__name__}: {e}") from e
