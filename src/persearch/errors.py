"""Exception types shared across the command-line surface.

Each maps to a process exit code: configuration problems exit 1, missing or
corrupt data exits 2, numeric failures during training exit 3, and a failed
gradient check exits 4.
"""

import json
from contextlib import contextmanager

__all__ = [
    "ConfigError", "DataError", "NumericError", "GradcheckFailure", "reading", "read_manifest", "write_manifest"
]


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


def read_manifest(path, kind: str) -> dict:
    """The JSON object in ``path``, whose ``kind`` entry must be ``kind``;
    a missing or unreadable file, invalid JSON, a root that is not an object
    and a wrong ``kind`` each raise a DataError that names the file."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as e:
        raise DataError(f"cannot read {path}: {e}") from e
    if not isinstance(manifest, dict) or manifest.get("kind") != kind:
        raise DataError(f"{path} is not a {kind} manifest")
    return manifest


def write_manifest(path, payload: dict) -> None:
    """Write ``payload`` to ``path`` as JSON with sorted keys, one-space
    indents and a final newline: the layout of every manifest and summary
    this program writes, so equal payloads give equal bytes."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
