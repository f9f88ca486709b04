"""Exception types shared across the command-line surface.

Each maps to a process exit code: configuration problems exit 1, missing or
corrupt data exits 2, numeric failures during training exit 3, and a failed
gradient check exits 4.
"""

import json
import typing
from contextlib import contextmanager

__all__ = [
    "ConfigError", "DataError", "NumericError", "GradcheckFailure", "reading", "read_manifest", "stored_config",
    "write_manifest",
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


def read_manifest(path, kind: str, version: int) -> dict:
    """The JSON object in ``path``, whose ``kind`` entry must be ``kind``
    and whose ``format_version`` must be ``version``; a missing or
    unreadable file, invalid JSON, a root that is not an object, a wrong
    ``kind`` and another version each raise a DataError that names the
    file."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as e:
        raise DataError(f"cannot read {path}: {e}") from e
    if not isinstance(manifest, dict) or manifest.get("kind") != kind:
        raise DataError(f"{path} is not a {kind} manifest")
    with reading(path):
        found = manifest.get("format_version")
        if found != version:
            raise ValueError(f"format_version {found!r} is not supported (expected {version})")
    return manifest


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string", type(None): "null"}


def _accepts(hint, value) -> bool:
    """Whether a JSON ``value`` has the field type ``hint``: a bool is
    neither an integer nor a number, and an integer is a number."""
    if isinstance(value, bool):
        return hint is bool
    if hint is int:
        return isinstance(value, int)
    if hint is float:
        return isinstance(value, (int, float))
    if hint is str:
        return isinstance(value, str)
    if hint is type(None):
        return value is None
    return any(_accepts(h, value) for h in typing.get_args(hint))


def _type_name(hint) -> str:
    return " or ".join(_TYPE_NAMES[h] for h in typing.get_args(hint) or (hint,))


def stored_config(cls, section):
    """The config dataclass ``cls`` from a manifest's ``section``, which
    must list every field, each value of its field's type, as a
    ``--config`` file's must be: a manifest records the whole config it
    was written with, so a missing key is a damaged file, not a default."""
    hints = typing.get_type_hints(cls)
    missing = [name for name in hints if name not in section]
    if missing:
        raise ValueError(f"config lacks {', '.join(missing)}")
    for key, value in section.items():
        if key in hints and not _accepts(hints[key], value):
            raise ValueError(f"config.{key} must be {_type_name(hints[key])}, got {value!r}")
    return cls(**section)


def write_manifest(path, payload: dict) -> None:
    """Write ``payload`` to ``path`` as JSON with sorted keys, one-space
    indents and a final newline: the layout of every manifest and summary
    this program writes, so equal payloads give equal bytes."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
