"""Exception types shared across the command-line surface.

Each maps to a process exit code: configuration problems exit 1, missing or
corrupt data exits 2, numeric failures during training exit 3, and a failed
gradient check exits 4.
"""

import dataclasses
import json
import math
import typing
from contextlib import contextmanager

__all__ = [
    "ConfigError", "DataError", "NumericError", "GradcheckFailure", "reading", "read_manifest", "read_section",
    "stored_config", "write_manifest",
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

    A missing key (KeyError), an unknown key or a wrong type (TypeError),
    a bad value or corrupt blob (ValueError) and a stored config that
    ``read_section`` refuses (ConfigError) all mean the file is not what
    this program wrote; the DataError names it.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError, ConfigError) as e:
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
    neither an integer nor a number, an integer is a number, and NaN and
    the infinities are not numbers."""
    if isinstance(value, bool):
        return hint is bool
    if hint is int:
        return isinstance(value, int)
    if hint is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    if hint is str:
        return isinstance(value, str)
    if hint is type(None):
        return value is None
    return any(_accepts(h, value) for h in typing.get_args(hint))


def _type_name(hint) -> str:
    return " or ".join(_TYPE_NAMES[h] for h in typing.get_args(hint) or (hint,))


def read_section(cls, section, path: str):
    """The config dataclass ``cls`` built from the JSON object ``section``
    found at ``path`` (empty for the root of a ``--config`` file).

    A field ``section`` omits keeps its default, and a dataclass field is
    read the same way at ``path.key``.  A root that is not an object, an
    unknown key, a value not of its field's type and a value that the
    built section's ``validate()`` refuses each raise a ConfigError that
    names the key.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{path or 'config root'} must be an object")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in section.items():
        where = f"{path}.{key}" if path else key
        if key not in hints:
            raise ConfigError(f"unknown config key {where}")
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            value = read_section(hint, value, where)
        elif not _accepts(hint, value):
            raise ConfigError(f"{where} must be {_type_name(hint)}, got {value!r}")
        kwargs[key] = value
    built = cls(**kwargs)
    built.validate()
    return built


def stored_config(cls, section):
    """The config dataclass ``cls`` from a manifest's ``section``, read as
    a ``--config`` file's section is (``read_section``), which must also
    list every field: a manifest records the whole config it was written
    with, so a missing key is a damaged file, not a default."""
    missing = [name for name in typing.get_type_hints(cls) if name not in section]
    if missing:
        raise ValueError(f"config lacks {', '.join(missing)}")
    return read_section(cls, section, "config")


def write_manifest(path, payload: dict) -> None:
    """Write ``payload`` to ``path`` as JSON with sorted keys, one-space
    indents and a final newline: the layout of every manifest and summary
    this program writes, so equal payloads give equal bytes.  A NaN or an
    infinity, which JSON cannot hold, raises ValueError."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
