"""Command-line behavior: artifacts, exit codes, reproducibility."""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

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
        assert (summary["cbgm"], summary["k1"], summary["k2"]) == (False, 30, 3)
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

    def test_cbgm_rescoring_no_scene_matches_plain_eval(self, workspace, tmp_path):
        args = [
            "--checkpoint",
            str(workspace["run"] / "checkpoint"),
            "--data",
            str(workspace["data"]),
        ]
        a, b = tmp_path / "plain", tmp_path / "k1_0"
        assert main(["eval", *args, "--out", str(a)]) == 0
        assert main(["eval", *args, "--out", str(b), "--cbgm", "--k1", "0"]) == 0
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

    def test_bench_prints_faults_per_step_and_keeps_its_columns(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["bench", "--out", str(tmp_path / "b"), "--steps", "2"]) == 0
        line = re.compile(r"(\w+) +\d+\.\d\d ms/step +\d+\.\d minor faults/step  \d+ transformer params")
        schemes = [line.fullmatch(text)[1] for text in capsys.readouterr().out.strip().split("\n")]
        csv = (tmp_path / "b" / "bench.csv").read_text().split("\n")
        assert csv[0] == "scheme,median_ms_per_step,steps,transformer_params,total_params"
        assert schemes == [row.split(",")[0] for row in csv[1:-1]] and len(schemes) == 4


class TestTrainProgress:
    @pytest.mark.parametrize(
        "steps, shown",
        [(20, list(range(2, 21, 2))), (7, list(range(1, 8))), (13, [2, 3, 4, 6, 7, 8, 10, 11, 12, 13])],
    )
    def test_one_stderr_line_per_tenth_of_the_run(self, workspace, tmp_path, capsys, steps, shown):
        out = tmp_path / "r"
        args = ["train", "--config", str(workspace["cfg"]), "--data", str(workspace["data"]), "--out", str(out)]
        assert main([*args, "--steps", str(steps)]) == 0
        captured = capsys.readouterr()
        lines = captured.err.strip().split("\n")
        assert len(lines) == len(shown) <= 10, lines
        totals = [float(row.split(",")[-1]) for row in (out / "loss_curve.csv").read_text().splitlines()[1:]]
        line = re.compile(r"step (\d+)/(\d+)  (\d+\.\d) steps/s  total loss (-?\d+\.\d{4})")
        # Each line shows the mean total of the steps since the line before.
        means = [sum(totals[a:b]) / (b - a) for a, b in zip([0, *shown], shown)]
        for text, step, mean in zip(lines, shown, means):
            m = line.fullmatch(text)
            assert m, text
            assert (int(m[1]), int(m[2])) == (step, steps)
            assert float(m[3]) > 0.0
            assert m[4] == f"{mean:.4f}"
        assert "steps/s" not in captured.out
        # The summary compares the first window's mean with the last one's.
        assert captured.out.endswith(f"total loss {means[0]:.4f} -> {means[-1]:.4f}\n"), captured.out


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

    def test_blas_thread_count_leaves_training_byte_identical(self, tmp_path):
        # Two child processes, one and two OpenBLAS threads, train the same
        # few steps of the default model width; their loss curves agree.
        cfg = {
            "data": {"num_train": 4, "num_gallery": 6, "num_queries": 2, "labeled_identities": 4, "image_size": 64},
            "train": {"steps": 5, "queue_size": 4},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["gen-data", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "data")]) == 0
        src = os.path.dirname(os.path.dirname(cli.__file__))
        children = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            argv = ["train", "--config", "cfg.json", "--data", "data", "--out", f"run{threads}"]
            children[threads] = subprocess.Popen(
                [sys.executable, "-m", "persearch", *argv], cwd=tmp_path, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
        try:
            for child in children.values():
                _, err = child.communicate(timeout=60)
                assert child.returncode == 0, err
        finally:
            for child in children.values():
                child.kill()
        curve = lambda threads: (tmp_path / f"run{threads}" / "loss_curve.csv").read_bytes()
        assert curve("1") == curve("2")


def _first_person(manifest, labeled: bool) -> dict:
    """The first person record of a dataset manifest whose bank row is a
    labeled identity's (or, with ``labeled`` false, an unlabeled one's)."""
    num_labeled = manifest["config"]["labeled_identities"]
    return next(p for s in manifest["scenes"] for p in s["persons"] if (p["bank"] < num_labeled) == labeled)


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
                lambda m: m.update(format_version=3),
                "model.json: ValueError: format_version 3 ",
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
            ("checkpoint/checkpoint.json", lambda m: m.update(meta=[1]), "checkpoint.json"),
            (
                "data/manifest.json",
                lambda m: m["queries"][0].update(scene=99999),
                "manifest.json: ValueError: query person ",
            ),
            (
                "data/manifest.json",
                lambda m: m["queries"][0].update(person=99),
                "manifest.json: ValueError: query person 99 of scene ",
            ),
            (
                "data/manifest.json",
                lambda m: m["queries"][0].update(identity=-7),
                "manifest.json: ValueError: query identity -7 ",
            ),
            (
                "data/manifest.json",
                lambda m: m["config"].pop("seed"),
                "manifest.json: ValueError: config lacks seed",
            ),
            (
                "checkpoint/checkpoint.json",
                lambda m: m.update(format_version=0),
                "checkpoint.json: ValueError: format_version 0 ",
            ),
            (
                "checkpoint/checkpoint.json",
                lambda m: m["meta"].pop("run_seed"),
                "checkpoint.json: KeyError: 'run_seed'",
            ),
            *(
                (
                    "checkpoint/checkpoint.json",
                    lambda m, seed=seed: m["meta"].update(run_seed=seed),
                    f"checkpoint.json: ValueError: meta.run_seed must be a non-negative integer, got {seed!r}",
                )
                for seed in ("seven", -3, True)
            ),
            (
                # the format-1 layout: one entry per scale, blobs oim{i}_*.sqt
                "checkpoint/checkpoint.json",
                lambda m: m.update(format_version=1, oim=[
                    {"momentum": 0.5, "tau": 1 / 30, "num_labeled": 4, "queue_capacity": 4, "queue_len": 0}
                ] * 3),
                "checkpoint.json: ValueError: format_version 1 is not supported (expected 2)",
            ),
            (
                "data/manifest.json",
                lambda m: m["scenes"][0]["persons"][0].update(label=99),
                "manifest.json: ValueError: person label 99 of scene 0 ",
            ),
            (
                "data/manifest.json",
                lambda m: m["scenes"][0]["persons"][0].update(bank=99),
                "manifest.json: ValueError: person bank 99 of scene 0 is not a row of bank.sqt",
            ),
            (
                "data/manifest.json",
                lambda m: _first_person(m, labeled=True).update(label=-1),
                "manifest.json: ValueError: person label -1 of scene ",
            ),
            (
                "data/manifest.json",
                lambda m: (p := _first_person(m, labeled=False)).update(label=p["bank"]),
                "manifest.json: ValueError: person label ",
            ),
            (
                "data/manifest.json",
                lambda m: m["config"].update(detector_sigma="x"),
                "manifest.json: ValueError: config.detector_sigma must be a number, got 'x'",
            ),
            (
                "data/manifest.json",
                lambda m: m["config"].update(num_train=True),
                "manifest.json: ValueError: config.num_train must be an integer, got True",
            ),
            (
                "checkpoint/model/model.json",
                lambda m: m["config"].update(dim="8"),
                "model.json: ValueError: config.dim must be an integer, got '8'",
            ),
        ],
        ids=["model-unknown-key", "model-wrong-kind", "model-blob-corrupt", "model-v1", "model-v2", "model-v3",
             "model-missing-tensor", "model-wrong-shape", "checkpoint-missing-oim",
             "manifest-unknown-key", "model-root-array", "checkpoint-root-array",
             "manifest-root-array", "checkpoint-meta-array", "manifest-query-scene",
             "manifest-query-person", "manifest-query-identity", "manifest-config-missing-key",
             "checkpoint-v0", "checkpoint-run-seed-missing", "checkpoint-run-seed-string",
             "checkpoint-run-seed-negative", "checkpoint-run-seed-bool", "checkpoint-v1",
             "manifest-label-outside-table", "manifest-bank-outside-bank", "manifest-labeled-as-unlabeled",
             "manifest-unlabeled-given-label", "manifest-config-string-number", "manifest-config-bool-integer",
             "model-config-string-integer"],
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

    # (the manifest's oim entry updates, the blobs to write as
    # {file: shape} or None to delete, and the file the error must name).
    # The workspace model is 8 wide with 3 scales, 4 labeled identities and
    # queues of capacity 4; every blob written is well formed.
    @pytest.mark.parametrize(
        "oim, blobs, named",
        [
            ({}, {"oim_queue.sqt": (3, 5, 8)}, "checkpoint.json"),
            ({}, {"oim_queue.sqt": (3, 2, 5)}, "oim_queue.sqt"),
            ({}, {"oim_lut.sqt": (3, 4, 9)}, "oim_lut.sqt"),
            ({}, {"oim_lut.sqt": (3, 0, 8)}, "checkpoint.json"),
            ({"capacity": 1}, {"oim_queue.sqt": (3, 2, 8)}, "checkpoint.json"),
            ({}, {"oim_lut.sqt": (2, 4, 8)}, "oim_lut.sqt"),
            ({}, {"oim_queue.sqt": (2, 2, 8)}, "oim_queue.sqt"),
            ({}, {"oim_queue.sqt": (2, 8)}, "oim_queue.sqt"),
            ({}, {"oim_queue.sqt": None}, "oim_queue.sqt"),
        ],
        ids=["queue-rows-past-capacity", "queue-width", "lut-width", "lut-rows",
             "capacity-below-queue-rows", "one-state-short", "queue-scales", "queue-rank", "queue-missing"],
    )
    def test_oim_state_of_the_wrong_shape_exits_2(self, workspace, tmp_path, capsys, oim, blobs, named):
        from persearch.tensor import Tensor, write_blob

        ckpt = tmp_path / "checkpoint"
        shutil.copytree(workspace["run"] / "checkpoint", ckpt)
        manifest = json.loads((ckpt / "checkpoint.json").read_text())
        manifest["oim"].update(oim)
        (ckpt / "checkpoint.json").write_text(json.dumps(manifest))
        rng = np.random.default_rng(0)
        for name, shape in blobs.items():
            if shape is None:
                (ckpt / name).unlink()
            else:
                write_blob(ckpt / name, Tensor(rng.standard_normal(shape)))
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"]), "--out", str(tmp_path / "e")])
        assert rc == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert str(ckpt / named) in err[0], err

    @pytest.mark.parametrize(
        "key, value",
        [("momentum", 1.0), ("momentum", -0.5), ("tau", 0.0), ("tau", "x"),
         ("capacity", -1), ("capacity", 4.0), ("capacity", True), ("capacity", None)],
    )
    def test_oim_scalar_out_of_range_exits_2(self, workspace, tmp_path, capsys, key, value):
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(workspace["run"] / "checkpoint", ckpt)
        manifest = json.loads((ckpt / "checkpoint.json").read_text())
        manifest["oim"][key] = value
        (ckpt / "checkpoint.json").write_text(json.dumps(manifest))
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace["data"]), "--out", str(tmp_path / "e")])
        assert rc == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert str(ckpt / "checkpoint.json") in err[0], err
        assert key in err[0], err

    def test_stacked_oim_queue_loads(self, workspace, tmp_path):
        from persearch.tensor import Tensor, write_blob
        from persearch.training import load_checkpoint

        ckpt = tmp_path / "checkpoint"
        shutil.copytree(workspace["run"] / "checkpoint", ckpt)
        queue = np.repeat(np.arange(3.0)[:, None, None], 3, axis=1) * np.ones(8)
        write_blob(ckpt / "oim_queue.sqt", Tensor(queue))
        _, state, _ = load_checkpoint(ckpt)
        assert state.queue.tolist() == [[[float(i)] * 8] * 3 for i in range(3)]
        assert state.capacity == 4

    def test_numeric_error_exits_3(self, monkeypatch, workspace, tmp_path, capsys):
        from persearch.tensor import Tensor

        init = cli.ReIDTransformer.init

        def poisoned(*a, **kw):
            # A nan in two tensors, w_value created before w_out: the report
            # names the first in sorted order.
            model = init(*a, **kw)
            for name in ("stack.layer0.cross1.w_value", "stack.layer0.cross1.w_out"):
                data = model.params[name].data.copy()
                data.flat[1] = np.nan
                model.params[name] = Tensor(data)
            return model

        monkeypatch.setattr(cli.ReIDTransformer, "init", poisoned)
        rc = main(
            ["train", "--config", str(workspace["cfg"]), "--data", str(workspace["data"]), "--out", str(tmp_path / "r")]
        )
        assert rc == 3
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "at step 0" in err[0]
        assert err[0].endswith("first non-finite parameter stack.layer0.cross1.w_out"), err

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

    @pytest.mark.parametrize("flags", [["--k1", "1"], ["--k2", "0"], ["--k1", "30", "--k2", "3"]])
    def test_context_flags_without_cbgm_exit_1(self, workspace, tmp_path, capsys, flags):
        rc = main(
            [
                "eval",
                "--checkpoint",
                str(workspace["run"] / "checkpoint"),
                "--data",
                str(workspace["data"]),
                "--out",
                str(tmp_path / "e"),
                *flags,
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert err == ["error: --k1 and --k2 act only with --cbgm"]
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "eval", "sweep"])
    def test_negative_seed_flag_exits_1(self, workspace, tmp_path, capsys, command):
        ckpt = ["--checkpoint", str(workspace["run"] / "checkpoint")]
        extra = {
            "gen-data": [],
            "train": ["--data", str(workspace["data"])],
            "eval": [*ckpt, "--data", str(workspace["data"])],
            "sweep": [*ckpt, "--data", str(workspace["data"]), "--gallery-sizes", "9"],
        }[command]
        rc = main([command, *extra, "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.strip().split("\n") == ["error: --seed must be non-negative, got -1"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "raw, named",
        [
            ({"seed": -1}, "seed"),
            ({"seed": True}, "seed"),
            ({"data": {"seed": "abc"}}, "data.seed"),
            ({"data": {"seed": 2.5}}, "data.seed"),
            ({"train": {"steps": 2.5}}, "train.steps"),
            ({"train": {"oim_tau": 0}}, "train.oim_tau"),
            ({"train": {"oim_momentum": 1.0}}, "train.oim_momentum"),
        ],
    )
    def test_bad_config_value_exits_1_naming_the_key(self, workspace, tmp_path, capsys, raw, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        for argv in (
            ["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")],
            ["train", "--config", str(bad), "--data", str(workspace["data"]), "--out", str(tmp_path / "r")],
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err.strip().split("\n")
            assert len(err) == 1 and err[0].startswith(f"error: {named} must be "), err
        assert not (tmp_path / "d").exists() and not (tmp_path / "r").exists()

    def test_repeated_gallery_size_exits_1(self, workspace, tmp_path, capsys):
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
                "9,5,9",
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.strip().split("\n") == ["error: --gallery-sizes names a size twice: '9,5,9'"]
        assert not (tmp_path / "s").exists()

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


class TestFeatureDimMismatch:
    """A dataset whose feature maps are not as deep as the model is wide
    exits 2 before any compute, naming the dataset's manifest and where
    the model's width comes from."""

    @pytest.fixture(scope="class")
    def deep_data(self, workspace, tmp_path_factory):
        cfg = json.loads(workspace["cfg"].read_text())
        cfg["data"]["feature_dim"] = 16
        path = tmp_path_factory.mktemp("deep") / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["gen-data", "--config", str(path), "--out", str(path.parent / "data")]) == 0
        return path.parent / "data"

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    def test_mismatched_dataset_exits_2(self, workspace, deep_data, tmp_path, capsys, monkeypatch, command):
        # Nothing is embedded: the check comes first.
        monkeypatch.setattr(cli.ReIDTransformer, "forward", None)
        ckpt = workspace["run"] / "checkpoint"
        source, argv = {
            "train": ("model.dim", ["--config", str(workspace["cfg"])]),
            "eval": (str(ckpt / "model" / "model.json"), ["--checkpoint", str(ckpt)]),
            "sweep": (str(ckpt / "model" / "model.json"), ["--checkpoint", str(ckpt), "--gallery-sizes", "5"]),
        }[command]
        capsys.readouterr()
        rc = main([command, *argv, "--data", str(deep_data), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert str(deep_data / "manifest.json") in err[0] and source in err[0], err
        assert "feature_dim 16" in err[0] and " is 8;" in err[0], err
        assert not (tmp_path / "out").exists()


class TestTrainDataSection:
    """``train --config`` runs on the dataset as generated: a data key the
    file sets to another value than the dataset stores exits 1 naming the
    key, and the run records the dataset's own data section."""

    def train(self, workspace, tmp_path, edit):
        cfg = json.loads(workspace["cfg"].read_text())
        edit(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return main(["train", "--config", str(path), "--data", str(workspace["data"]), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "key, value",
        [("num_train", 5), ("sigma_bg", 0.7), ("seed", 0), ("co_travellers", True), ("image_size", 128), ("feature_dim", 16)],
    )
    def test_differing_key_exits_1_naming_it(self, workspace, tmp_path, capsys, key, value):
        capsys.readouterr()
        assert self.train(workspace, tmp_path, lambda cfg: cfg["data"].update({key: value})) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith(f"error: config key data.{key} is {value!r}, "), err
        assert str(workspace["data"] / "manifest.json") in err[0], err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["none", "part", "whole"])
    def test_records_hold_the_datasets_data_section(self, workspace, tmp_path, section):
        def edit(cfg):
            if section == "none":
                del cfg["data"]
            elif section == "part":
                cfg["data"] = {"num_train": 8, "sigma_bg": 0.1}

        assert self.train(workspace, tmp_path, edit) == 0
        stored = json.loads((workspace["data"] / "manifest.json").read_text())["config"]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        meta = json.loads((tmp_path / "out" / "checkpoint" / "checkpoint.json").read_text())["meta"]
        assert summary["config"]["data"] == meta["run_config"]["data"] == stored


class TestModuleEntryPoint:
    """``python -m persearch`` from a source tree that is not installed."""

    def run(self, tmp_path, *argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        return subprocess.run(
            [sys.executable, "-m", "persearch", *argv], cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )

    def test_help_exits_0(self, tmp_path):
        done = self.run(tmp_path, "--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: persearch")

    def test_corrupt_gradcheck_exits_4_with_one_line_error(self, tmp_path):
        done = self.run(tmp_path, "gradcheck", "--corrupt")
        assert done.returncode == 4, done.stderr
        err = done.stderr.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: 1 gradient check(s) failed"), err


# Blob byte ranges (start, stop) of the fields a flipped bit can corrupt;
# the dims run from byte 10 for 8 bytes per dimension.
_BLOB_FIELDS = {"magic": (0, 4), "version": (4, 8), "dtype": (8, 9), "ndim": (9, 10)}


@st.composite
def _blob_faults(draw, raw: bytes):
    """A corrupted copy of the blob ``raw``: truncated, with trailing
    bytes, or with one bit flipped in the magic, version, dtype code, ndim
    or dims."""
    kind = draw(st.sampled_from(["truncate", "trailing", *_BLOB_FIELDS, "dims"]))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "trailing":
        return raw + draw(st.binary(min_size=1, max_size=16))
    start, stop = _BLOB_FIELDS.get(kind) or (10, 10 + 8 * raw[9])
    at, bit = draw(st.integers(start, stop - 1)), draw(st.integers(0, 7))
    return raw[:at] + bytes([raw[at] ^ (1 << bit)]) + raw[at + 1 :]


@pytest.fixture(scope="module")
def corruptible(workspace, tmp_path_factory):
    """A private copy of the dataset and checkpoint whose blobs a test may
    overwrite, as long as it puts each one back."""
    root = tmp_path_factory.mktemp("corrupt")
    shutil.copytree(workspace["data"], root / "data")
    shutil.copytree(workspace["run"] / "checkpoint", root / "checkpoint")
    return root


class TestCorruptBlobs:
    """Every kind of blob the commands read, corrupted at random: the
    command exits 2 with one error line that names the file."""

    # (blob, the command that reads it first)
    BLOBS = [
        ("data/scenes/scene_00008_l0.sqt", "eval"),  # the first gallery scene
        ("data/scenes/scene_00008_l2.sqt", "eval"),
        ("data/bank.sqt", "train"),
        ("checkpoint/model/t0003.sqt", "eval"),
        ("checkpoint/oim_lut.sqt", "eval"),
        ("checkpoint/oim_queue.sqt", "eval"),
    ]

    @seed(20240611)
    @settings(
        max_examples=120,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_corrupt_blob_exits_2_naming_the_file(self, workspace, corruptible, data):
        blob, command = data.draw(st.sampled_from(self.BLOBS))
        path = corruptible / blob
        inputs = {
            "train": ["--config", str(workspace["cfg"])],
            "eval": ["--checkpoint", str(corruptible / "checkpoint")],
        }[command]
        _exits_2_naming(corruptible, path, lambda raw: data.draw(_blob_faults(raw)), [command, *inputs])


@st.composite
def _json_faults(draw, raw: bytes):
    """A corrupted copy of the JSON file ``raw``: cut to a strict prefix of
    its document, or without one key that the loader requires, drawn at
    any depth.  Nothing reads the run config that a checkpoint's ``meta``
    echoes, so neither it nor anything in it is dropped."""
    text = raw.decode()
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text.rstrip()) - 1))].encode()
    doc = node = json.loads(text)
    while True:
        key = draw(st.sampled_from(sorted(k for k in node if k != "run_config")))
        inner = node[key]
        if isinstance(inner, list) and inner and isinstance(inner[0], dict):
            inner = inner[draw(st.integers(0, len(inner) - 1))]
        if not isinstance(inner, dict) or draw(st.booleans()):
            del node[key]
            return json.dumps(doc).encode()
        node = inner


class TestCorruptManifests:
    """Each JSON file that ``eval`` reads, cut short or missing a key at
    random: the command exits 2 with one error line that names the file."""

    FILES = ["data/manifest.json", "checkpoint/model/model.json", "checkpoint/checkpoint.json"]

    @seed(20261019)
    @settings(
        max_examples=100,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_corrupt_manifest_exits_2_naming_the_file(self, corruptible, data):
        path = corruptible / data.draw(st.sampled_from(self.FILES))
        argv = ["eval", "--checkpoint", str(corruptible / "checkpoint")]
        _exits_2_naming(corruptible, path, lambda raw: data.draw(_json_faults(raw)), argv)


def _exits_2_naming(root, path, corrupt, argv):
    """Run ``argv`` on the data under ``root`` with ``path`` replaced by
    ``corrupt(its bytes)``, then put the file back: the command must exit 2
    with one ``error:`` line that names the file, no traceback and no
    output directory."""
    raw = path.read_bytes()
    err = io.StringIO()
    try:
        path.write_bytes(corrupt(raw))
        with contextlib.redirect_stderr(err):
            rc = main([*argv, "--data", str(root / "data"), "--out", str(root / "out")])
    finally:
        path.write_bytes(raw)
    lines = err.getvalue().strip().split("\n")
    assert rc == 2, lines
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert str(path) in lines[0]
    assert "Traceback" not in err.getvalue()
    assert not (root / "out").exists()


def _data_files(directory):
    """Every file under ``directory`` but the JSON ones: summaries,
    manifests and checkpoint metadata echo the flags they were run with."""
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.suffix != ".json"
    }


class TestFlags:
    """Every command-line flag changes what the command writes, as the
    config-key tests show for keys: a run with the flag and one without
    (or with another value) differ in some output file that is not JSON."""

    @pytest.mark.parametrize(
        "command, base, flagged",
        [
            ("train", [], ["--steps", "3"]),
            ("train", [], ["--seed", "9"]),
            ("eval", [], ["--seed", "9"]),
            ("eval", [], ["--cbgm"]),
            ("eval", ["--cbgm"], ["--cbgm", "--k1", "1"]),
            ("eval", ["--cbgm"], ["--cbgm", "--k2", "1"]),
            ("sweep", ["--gallery-sizes", "6"], ["--gallery-sizes", "6", "--seed", "9"]),
            ("sweep", ["--gallery-sizes", "6"], ["--gallery-sizes", "9"]),
            ("gen-data", [], ["--seed", "9"]),
        ],
        ids=[
            "train--steps", "train--seed", "eval--seed", "eval--cbgm", "eval--k1", "eval--k2",
            "sweep--seed", "sweep--gallery-sizes", "gen-data--seed",
        ],
    )
    def test_flag_changes_an_output_file(self, workspace, tmp_path, command, base, flagged):
        inputs = {
            "train": ["--config", str(workspace["cfg"]), "--data", str(workspace["data"])],
            "eval": ["--checkpoint", str(workspace["run"] / "checkpoint"), "--data", str(workspace["data"])],
            "gen-data": ["--config", str(workspace["cfg"])],
        }
        inputs["sweep"] = inputs["eval"]
        outputs = []
        for name, extra in (("base", base), ("flagged", flagged)):
            assert main([command, *inputs[command], "--out", str(tmp_path / name), *extra]) == 0
            outputs.append(_data_files(tmp_path / name))
        assert outputs[0] and outputs[0] != outputs[1]
