"""Run configuration: one JSON file driving data, model and training.

Every section is optional and falls back to defaults, but unknown keys are
rejected with their full path so typos cannot silently revert a setting to
its default.  The resolved configuration echoes into each run's summary,
making outputs self-describing.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .data import BenchmarkConfig
from .errors import ConfigError
from .losses import LossWeights
from .training import TrainSettings
from .transformer import ReIDConfig

__all__ = ["RunConfig", "load_run_config"]


@dataclass
class RunConfig:
    seed: int = 0
    data: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    model: ReIDConfig = field(default_factory=ReIDConfig)
    train: TrainSettings = field(default_factory=TrainSettings)

    def validate(self) -> None:
        try:
            self.data.validate()
            self.model.validate()
            self.train.validate()
        except (ValueError, ConfigError) as e:
            raise ConfigError(str(e)) from None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _build_section(cls, section, path):
    """Instantiate a config dataclass from a dict, rejecting unknown keys."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in section.items():
        if key not in known:
            raise ConfigError(f"unknown config key {path}.{key}")
        if key == "weights":
            value = _build_section(LossWeights, value, f"{path}.weights")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"bad value in {path}: {e}") from None


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
            if not isinstance(value, int):
                raise ConfigError("seed must be an integer")
            cfg.seed = value
        elif key in _SECTIONS:
            setattr(cfg, key, _build_section(_SECTIONS[key], value, key))
        else:
            raise ConfigError(f"unknown config key {key}")
    cfg.validate()
    return cfg


def load_run_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    return run_config_from_dict(raw)
