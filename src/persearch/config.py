"""Run configuration: one JSON file driving data, model and training.

Every section is optional and falls back to defaults, but unknown keys are
rejected with their full path so typos cannot silently revert a setting to
its default.  ``errors.read_section`` reads the file, as it reads the
configs that dataset and model manifests store.  The resolved
configuration echoes into each run's summary, making outputs
self-describing.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .data import BenchmarkConfig
from .errors import ConfigError, read_section
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
        # Each section validates itself as ``read_section`` builds it.
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_config_from_dict(raw) -> RunConfig:
    return read_section(RunConfig, raw, "")


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
