"""Run configuration: one JSON file driving data, model and training.

Every section is optional and falls back to defaults, but unknown keys are
rejected with their full path so typos cannot silently revert a setting to
its default.  The resolved configuration echoes into each run's summary,
making outputs self-describing.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field

from .data import BenchmarkConfig
from .errors import ConfigError, _accepts, _type_name
from .training import TrainSettings
from .transformer import ReIDConfig

__all__ = ["RunConfig", "read_config_file", "run_config_from_dict", "load_run_config"]


@dataclass
class RunConfig:
    seed: int = 0
    data: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    model: ReIDConfig = field(default_factory=ReIDConfig)
    train: TrainSettings = field(default_factory=TrainSettings)

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        try:
            self.data.validate()
            self.model.validate()
            self.train.validate()
        except (ValueError, ConfigError) as e:
            raise ConfigError(str(e)) from None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _build_section(cls, section, path):
    """Instantiate a config dataclass from a dict, rejecting unknown keys
    and values whose JSON type does not match their field's."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in section.items():
        if key not in hints:
            raise ConfigError(f"unknown config key {path}.{key}")
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            value = _build_section(hint, value, f"{path}.{key}")
        elif not _accepts(hint, value):
            raise ConfigError(f"{path}.{key} must be {_type_name(hint)}, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


_SECTIONS = {
    "data": BenchmarkConfig,
    "model": ReIDConfig,
    "train": TrainSettings,
}


def run_config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    cfg = RunConfig()
    for key, value in raw.items():
        if key == "seed":
            if not _accepts(int, value):
                raise ConfigError(f"seed must be an integer, got {value!r}")
            cfg.seed = value
        elif key in _SECTIONS:
            setattr(cfg, key, _build_section(_SECTIONS[key], value, key))
        else:
            raise ConfigError(f"unknown config key {key}")
    cfg.validate()
    return cfg


def read_config_file(path):
    """The JSON value in ``path``, unchecked; ``run_config_from_dict``
    checks it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None


def load_run_config(path) -> RunConfig:
    return run_config_from_dict(read_config_file(path))
