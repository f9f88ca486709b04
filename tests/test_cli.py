"""Command-line behavior: artifacts, exit codes, reproducibility."""

import json
import re
import shutil

import pytest

import persearch.cli as cli
from persearch.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset and one short training run, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "seed": 5,
        "data": {
            "num_train": 8,
            "num_gallery": 10,
            "num_queries": 4,
            "labeled_identities": 4,
            "unlabeled_identities": 2,
            "feature_dim": 8,
            "image_size": 64,
            "seed": 3,
        },
        "model": {"dim": 8, "heads": 2, "points": 2, "num_queries": 3},
        "train": {"steps": 6, "learning_rate": 0.01, "queue_size": 4},
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert (
        main(
            ["train", "--config", str(cfg_path), "--data", str(data), "--out", str(run)]
        )
        == 0
    )
    return {"root": root, "cfg": cfg_path, "data": data, "run": run}


class TestArtifacts:
    def test_train_writes_curve_checkpoint_summary(self, workspace):
        run = workspace["run"]
        assert (run / "loss_curve.csv").exists()
        assert (run / "checkpoint" / "checkpoint.json").exists()
        assert (run / "checkpoint" / "model" / "model.json").exists()
        summary = json.loads((run / "summary.json").read_text())
        assert summary["command"] == "train"
        assert summary["config"]["train"]["steps"] == 6
        assert summary["final"]["step"] == 5

    def test_eval_writes_results_and_metrics(self, workspace, tmp_path):
        out = tmp_path / "eval"
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(workspace["run"] / "checkpoint"),
                "--data",
                str(workspace["data"]),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["map"] <= 1.0
        assert set(summary["cmc"]) == {"1", "5", "10"}
        header = (out / "results.csv").read_text().split("\n")[0]
        assert header == "query,identity,rank,scene,score,correct"

    def test_cbgm_with_zero_context_matches_plain_eval(self, workspace, tmp_path):
        args = [
            "--checkpoint",
            str(workspace["run"] / "checkpoint"),
            "--data",
            str(workspace["data"]),
        ]
        a, b = tmp_path / "plain", tmp_path / "ctx0"
        assert main(["eval", *args, "--out", str(a)]) == 0
        assert main(["eval", *args, "--out", str(b), "--cbgm", "--k2", "0"]) == 0
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        assert sa["map"] == sb["map"]
        assert sa["cmc"] == sb["cmc"]
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_sweep_writes_one_row_per_size(self, workspace, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--checkpoint",
                str(workspace["run"] / "checkpoint"),
                "--data",
                str(workspace["data"]),
                "--out",
                str(out),
                "--gallery-sizes",
                "6,9",
            ]
        )
        assert rc == 0
        lines = (out / "results.csv").read_text().strip().split("\n")
        assert lines[0] == "size,map,cmc1,cmc5,cmc10"
        assert len(lines) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["results"]) == {"6", "9"}

    def test_seeded_sweep_at_full_size_matches_eval(self, workspace, tmp_path):
        # --seed picks the sweep's distractors only: with every scene in the
        # gallery, the sweep ranks the boxes eval ranks, whatever the seed.
        common = [
            "--checkpoint",
            str(workspace["run"] / "checkpoint"),
            "--data",
            str(workspace["data"]),
        ]
        assert main(["eval", *common, "--out", str(tmp_path / "e")]) == 0
        rc = main(
            [
                "sweep", *common, "--out", str(tmp_path / "s"),
                "--seed", "123", "--gallery-sizes", "9",
            ]
        )
        assert rc == 0
        evaluated = json.loads((tmp_path / "e" / "summary.json").read_text())
        swept = json.loads((tmp_path / "s" / "summary.json").read_text())
        assert swept["results"]["9"]["map"] == evaluated["map"]

    def test_train_steps_override_zero_gives_single_row(self, workspace, tmp_path):
        out = tmp_path / "run0"
        rc = main(
            [
                "train",
                "--config",
                str(workspace["cfg"]),
                "--data",
                str(workspace["data"]),
                "--out",
                str(out),
                "--steps",
                "0",
            ]
        )
        assert rc == 0
        lines = (out / "loss_curve.csv").read_text().strip().split("\n")
        assert len(lines) == 2


class TestDeterminism:
    def test_gen_data_is_byte_identical(self, workspace, tmp_path):
        again = tmp_path / "data2"
        assert (
            main(["gen-data", "--config", str(workspace["cfg"]), "--out", str(again)])
            == 0
        )
        a = (workspace["data"] / "manifest.json").read_bytes()
        b = (again / "manifest.json").read_bytes()
        assert a == b

    def test_training_is_byte_identical(self, workspace, tmp_path):
        again = tmp_path / "run2"
        rc = main(
            [
                "train",
                "--config",
                str(workspace["cfg"]),
                "--data",
                str(workspace["data"]),
                "--out",
                str(again),
            ]
        )
        assert rc == 0
        run = workspace["run"]
        for rel in ("loss_curve.csv", "summary.json", "checkpoint/checkpoint.json"):
            assert (run / rel).read_bytes() == (again / rel).read_bytes(), rel
        model_dir = run / "checkpoint" / "model"
        for blob in sorted(model_dir.iterdir()):
            twin = again / "checkpoint" / "model" / blob.name
            assert blob.read_bytes() == twin.read_bytes(), blob.name


class TestExitCodes:
    def test_config_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"dims": 8}}))
        rc = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_data_exits_2(self, workspace, tmp_path):
        rc = main(
            [
                "train",
                "--config",
                str(workspace["cfg"]),
                "--data",
                str(tmp_path / "absent"),
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert rc == 2

    def test_truncated_scene_blob_exits_2(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        for blob in data.rglob("*.sqt"):
            blob.write_bytes(blob.read_bytes()[:7])
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(workspace["run"] / "checkpoint"),
                "--data",
                str(data),
                "--out",
                str(tmp_path / "e"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:"), err

    @pytest.mark.parametrize(
        "artifact, edit, named",
        [
            ("checkpoint/model/model.json", lambda m: m["config"].update(bogus=1), "model.json"),
            ("checkpoint/model/model.json", lambda m: m.update(kind="other"), "model.json"),
            ("checkpoint/model/t0000.sqt", None, "t0000.sqt"),
            (
                "checkpoint/model/model.json",
                lambda m: m.update(format_version=1),
                "model.json: ValueError: format_version 1 ",
            ),
            (
                # a format-2 model still echoes the removed config keys
                "checkpoint/model/model.json",
                lambda m: (
                    m.update(format_version=2),
                    m["config"].update(dropout=0.0, track_reference_gradients=False),
                ),
                "model.json: ValueError: format_version 2 ",
            ),
            (
                "checkpoint/model/model.json",
                lambda m: m["tensors"].pop("stack.layer0.cross0.w_out"),
                "model.json: ValueError: tensors missing: ['stack.layer0.cross0.w_out']",
            ),
            (
                # queries read from another tensor's blob, of another shape
                "checkpoint/model/model.json",
                lambda m: m["tensors"].update(queries=m["tensors"]["stack.layer0.cross0.b_weight"]),
                "model.json: ValueError: tensor queries has shape (4,)",
            ),
            ("checkpoint/checkpoint.json", lambda m: m.pop("oim"), "checkpoint.json"),
            ("data/manifest.json", lambda m: m["config"].update(bogus=1), "manifest.json"),
            # a string edit is the whole new file
            ("checkpoint/model/model.json", "[1, 2]", "model.json"),
            ("checkpoint/checkpoint.json", "[1, 2]", "checkpoint.json"),
            ("data/manifest.json", '"x"', "manifest.json"),
        ],
        ids=["model-unknown-key", "model-wrong-kind", "model-blob-corrupt", "model-v1", "model-v2",
             "model-missing-tensor", "model-wrong-shape", "checkpoint-missing-oim",
             "manifest-unknown-key", "model-root-array", "checkpoint-root-array",
             "manifest-root-array"],
    )
    def test_malformed_artifact_exits_2(self, workspace, tmp_path, capsys, artifact, edit, named):
        shutil.copytree(workspace["run"] / "checkpoint", tmp_path / "checkpoint")
        shutil.copytree(workspace["data"], tmp_path / "data")
        target = tmp_path / artifact
        if edit is None:
            target.write_bytes(target.read_bytes()[:20])
        elif isinstance(edit, str):
            target.write_text(edit)
        else:
            manifest = json.loads(target.read_text())
            edit(manifest)
            target.write_text(json.dumps(manifest))
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(tmp_path / "checkpoint"),
                "--data",
                str(tmp_path / "data"),
                "--out",
                str(tmp_path / "e"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert named in err[0]

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path):
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(tmp_path / "absent"),
                "--data",
                str(workspace["data"]),
                "--out",
                str(tmp_path / "e"),
            ]
        )
        assert rc == 2

    def test_numeric_error_exits_3(self, monkeypatch, workspace, tmp_path):
        from persearch.errors import NumericError

        def boom(*a, **kw):
            raise NumericError("non-finite loss at step 0")

        monkeypatch.setattr(cli, "train", boom)
        rc = main(
            [
                "train",
                "--config",
                str(workspace["cfg"]),
                "--data",
                str(workspace["data"]),
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert rc == 3

    def test_gradcheck_failure_exits_4(self, monkeypatch, capsys):
        from persearch.errors import GradcheckFailure
        from persearch.gradcheck import CheckResult

        monkeypatch.setattr(
            cli,
            "run_gradcheck",
            lambda corrupt=False, progress=None: [CheckResult("x", 1.0, 1e-6)],
        )
        rc = main(["gradcheck"])
        assert rc == 4

    def test_gradcheck_prints_seconds_and_count_per_block(self, monkeypatch, capsys):
        import persearch.gradcheck as gradcheck
        from persearch.gradcheck import CheckResult

        stub = [CheckResult("full_model.x", 0.0, 1e-4)] * 2
        monkeypatch.setattr(gradcheck, "check_full_model", lambda corrupt=False: stub)
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out.splitlines()
        counts = {"primitives": len(gradcheck.check_primitives()),
                  "attention": len(gradcheck.check_attention()), "full model": 2}
        for line, (block, count) in zip(out, counts.items()):
            assert re.fullmatch(rf"{block}: {count} checks in \d+\.\d\ds", line), line
        assert out[-1].startswith(f"{sum(counts.values())} checks in ")

    def test_unexpected_exception_exits_5(self, monkeypatch, capsys):
        def boom(*a, **kw):
            raise RuntimeError("index drifted")

        monkeypatch.setattr(cli, "run_gradcheck", boom)
        rc = main(["gradcheck"])
        assert rc == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().split("\n") == ["error: internal error: RuntimeError: index drifted"]

    @pytest.mark.parametrize("exc", [SystemExit(7), KeyboardInterrupt()])
    def test_exit_and_interrupt_pass_through(self, monkeypatch, exc):
        def stop(*a, **kw):
            raise exc

        monkeypatch.setattr(cli, "run_gradcheck", stop)
        with pytest.raises(type(exc)):
            main(["gradcheck"])

    def test_bench_without_steps_exits_1(self, tmp_path, capsys):
        # Zero steps would time nothing and write nan for every scheme.
        rc = main(["bench", "--out", str(tmp_path / "b"), "--steps", "0"])
        assert rc == 1
        assert "--steps" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_bad_gallery_sizes_exit_1(self, workspace, tmp_path):
        rc = main(
            [
                "sweep",
                "--checkpoint",
                str(workspace["run"] / "checkpoint"),
                "--data",
                str(workspace["data"]),
                "--out",
                str(tmp_path / "s"),
                "--gallery-sizes",
                "ten",
            ]
        )
        assert rc == 1
