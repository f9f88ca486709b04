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

    @pytest.mark.parametrize("key", ["cls", "iou", "l1"])
    def test_detection_loss_weights_are_unknown(self, key):
        # The detector stub learns nothing, so the objective has no
        # detection terms to weigh.
        with pytest.raises(ConfigError, match=f"^unknown config key train.weights.{key}$"):
            run_config_from_dict({"train": {"weights": {key: 1.0}}})

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


class TestStrictValues:
    """Each value must have its field's JSON type, and seeds must be
    non-negative; the error names the key."""

    @pytest.mark.parametrize(
        "raw, named",
        [
            ({"seed": -1}, "seed must be non-negative"),
            ({"seed": True}, "seed must be an integer"),
            ({"seed": 2.5}, "seed must be an integer"),
            ({"data": {"seed": -1}}, "data.seed must be non-negative"),
            ({"data": {"seed": "abc"}}, "data.seed must be an integer"),
            ({"data": {"seed": 2.5}}, "data.seed must be an integer"),
            ({"data": {"seed": False}}, "data.seed must be an integer"),
            ({"train": {"steps": 2.5}}, "train.steps must be an integer"),
            ({"train": {"learning_rate": "0.1"}}, "train.learning_rate must be a number"),
            ({"train": {"grad_clip": True}}, "train.grad_clip must be a number or null"),
            ({"train": {"weights": {"oim": None}}}, "train.weights.oim must be a number"),
            ({"train": {"weights": [1.0]}}, "train.weights must be an object"),
            ({"model": {"scheme": 3}}, "model.scheme must be a string"),
            ({"model": {"use_self_attention": 1}}, "model.use_self_attention must be true or false"),
            ({"data": {"co_travellers": "yes"}}, "data.co_travellers must be true or false"),
            ({"train": {"oim_tau": 0}}, "train.oim_tau must be positive, got 0"),
            ({"train": {"oim_tau": -0.5}}, "train.oim_tau must be positive"),
            ({"train": {"oim_momentum": 1.0}}, r"train.oim_momentum must be in \[0, 1\), got 1.0"),
            ({"train": {"oim_momentum": -0.1}}, r"train.oim_momentum must be in \[0, 1\)"),
            ({"train": {"weight_decay": float("nan")}}, "train.weight_decay must be a number, got nan"),
            ({"train": {"focal_gamma": float("nan")}}, "train.focal_gamma must be a number, got nan"),
            ({"train": {"learning_rate": float("nan")}}, "train.learning_rate must be a number, got nan"),
            ({"train": {"oim_tau": float("inf")}}, "train.oim_tau must be a number, got inf"),
            ({"train": {"grad_clip": float("-inf")}}, "train.grad_clip must be a number or null, got -inf"),
            ({"data": {"sigma_bg": float("nan")}}, "data.sigma_bg must be a number, got nan"),
            ({"train": {"weights": {"oim": -1.0}}}, "train.weights.oim must be non-negative, got -1.0"),
        ],
    )
    def test_bad_value_names_its_key(self, raw, named):
        with pytest.raises(ConfigError, match=named):
            run_config_from_dict(raw)

    def test_integers_are_numbers_and_null_clears_an_optional(self):
        cfg = run_config_from_dict(
            {"seed": 0, "data": {"seed": 4, "sigma_bg": 0}, "train": {"learning_rate": 1, "grad_clip": None}}
        )
        assert (cfg.seed, cfg.data.seed, cfg.data.sigma_bg) == (0, 4, 0)
        assert cfg.train.learning_rate == 1 and cfg.train.grad_clip is None
        assert run_config_from_dict({"train": {"grad_clip": 0.5}}).train.grad_clip == 0.5


class TestFiles:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3, "train": {"steps": 9}}))
        cfg = load_run_config(path)
        assert cfg.seed == 3 and cfg.train.steps == 9

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_is_config_error_naming_the_key(self, tmp_path, literal):
        # json.load accepts these literals; the type rule refuses them.
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"train": {{"weight_decay": {literal}}}}}')
        with pytest.raises(ConfigError, match="^train.weight_decay must be a number, got "):
            load_run_config(path)

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
        assert d["train"]["weights"] == {"oim": 0.5}
