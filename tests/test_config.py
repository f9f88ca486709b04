"""Run-config parsing: defaults, strict keys, validation, round-trips."""

import json

import pytest

from persearch.config import RunConfig, load_run_config, run_config_from_dict
from persearch.errors import ConfigError


class TestDefaults:
    def test_default_config_validates(self):
        cfg = RunConfig()
        cfg.validate()
        assert cfg.seed == 0
        assert cfg.model.dim == 32
        assert cfg.data.num_train == 200
        assert cfg.train.steps == 2000

    def test_empty_dict_gives_defaults(self):
        cfg = run_config_from_dict({})
        assert cfg.to_dict() == RunConfig().to_dict()


class TestParsing:
    def test_sections_apply(self):
        cfg = run_config_from_dict(
            {
                "seed": 7,
                "model": {"dim": 16, "heads": 2, "scheme": "parallel"},
                "data": {"num_train": 10, "feature_dim": 16},
                "train": {"steps": 50, "weights": {"oim": 1.0}},
            }
        )
        assert cfg.seed == 7
        assert cfg.model.scheme == "parallel"
        assert cfg.data.num_train == 10
        assert cfg.train.steps == 50
        assert cfg.train.weights.oim == 1.0
        assert cfg.train.weights.cls == 2.0

    def test_unknown_root_key_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key trian"):
            run_config_from_dict({"trian": {}})
        # eval and sweep take their settings as flags; there is no section.
        with pytest.raises(ConfigError, match="unknown config key eval"):
            run_config_from_dict({"eval": {"cbgm": True}})

    def test_unknown_nested_key_names_its_path(self):
        with pytest.raises(ConfigError, match="model.dims"):
            run_config_from_dict({"model": {"dims": 16}})
        with pytest.raises(ConfigError, match="train.weights.l2"):
            run_config_from_dict({"train": {"weights": {"l2": 1.0}}})
        with pytest.raises(ConfigError, match="model.dropout"):
            run_config_from_dict({"model": {"dropout": 0.1}})
        with pytest.raises(ConfigError, match="model.track_reference_gradients"):
            run_config_from_dict({"model": {"track_reference_gradients": True}})

    def test_non_object_section_is_rejected(self):
        with pytest.raises(ConfigError, match="must be an object"):
            run_config_from_dict({"model": 3})
        with pytest.raises(ConfigError, match="seed must be an integer"):
            run_config_from_dict({"seed": "zero"})

    def test_validation_failures_become_config_errors(self):
        for raw in (
            {"model": {"dim": 10, "heads": 4}},
            {"model": {"scheme": "stacked"}},
            {"train": {"optimizer": "lbfgs"}},
            {"data": {"num_train": 0}},
        ):
            with pytest.raises(ConfigError):
                run_config_from_dict(raw)


class TestFiles:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3, "train": {"steps": 9}}))
        cfg = load_run_config(path)
        assert cfg.seed == 3 and cfg.train.steps == 9

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "nope.json")

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(path)


class TestEcho:
    def test_to_dict_is_json_ready_and_complete(self):
        d = RunConfig().to_dict()
        json.dumps(d)
        assert set(d) == {"seed", "data", "model", "train"}
        assert d["train"]["weights"] == {"cls": 2.0, "iou": 5.0, "l1": 2.0, "oim": 0.5}
