"""Training loop, checkpointing, and the retrieval pipeline."""

import dataclasses
import json

import numpy as np
import pytest

from persearch import losses, training
from persearch.attention import DeformAttnParams, MultiHeadAttnParams
from persearch.data import BenchmarkConfig, make_benchmark
from persearch.errors import ConfigError, NumericError
from persearch.evaluation import evaluate
from persearch.losses import BACKGROUND, UNLABELED, LossWeights
from persearch.tensor import GradTape, Tensor
from persearch.training import (
    TrainSettings,
    build_gallery,
    build_query_entries,
    detect_scene,
    detection_losses,
    load_checkpoint,
    save_checkpoint,
    slot_labels,
    train,
    write_loss_curve,
)
from persearch.transformer import ReIDConfig, ReIDTransformer


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    cfg = BenchmarkConfig(
        num_train=8,
        num_gallery=10,
        num_queries=4,
        labeled_identities=4,
        unlabeled_identities=2,
        feature_dim=8,
        image_size=64,
        sigma_bg=0.05,
        seed=3,
    )
    return make_benchmark(cfg, tmp_path_factory.mktemp("bench"))


def tiny_model(seed=1, **overrides):
    cfg = ReIDConfig(
        dim=8, heads=2, points=2, m_layers=1, k_cross=1, num_queries=3, **overrides
    )
    return ReIDTransformer.init(cfg, seed=seed, style="train")


def tiny_settings(**overrides):
    kw = dict(steps=4, learning_rate=0.01, queue_size=4)
    kw.update(overrides)
    return TrainSettings(**kw)


# One valid value per TrainSettings field (LossWeights fields under
# "weights") that differs from the short run's in tiny_settings.
NON_DEFAULT = {
    "steps": 26,
    "learning_rate": 0.02,
    "optimizer": "adam",
    "weight_decay": 1e-3,
    "grad_clip": 0.01,
    "queue_size": 1,
    "oim_momentum": 0.9,
    "oim_tau": 0.1,
    "focal_gamma": 1.0,
    "weights": {"cls": 1.0, "iou": 1.0, "l1": 1.0, "oim": 1.0},
}


def run_outputs(bench, settings):
    """Loss curve, final parameters and OIM state of a short run."""
    res = train(tiny_model(), bench, settings, run_seed=5)
    params = {n: t.data for n, t in res.model.params.items()}
    return res.curve, params, (res.oim_state.lut, res.oim_state.queue)


def same_outputs(a, b) -> bool:
    (curve_a, params_a, (lut_a, queue_a)), (curve_b, params_b, (lut_b, queue_b)) = a, b
    return (
        curve_a == curve_b
        and all(np.array_equal(params_a[n], params_b[n]) for n in params_a)
        and np.array_equal(lut_a, lut_b)
        and np.array_equal(queue_a, queue_b)
    )


class TestSceneSetup:
    def test_detections_are_deterministic_per_run_seed(self, bench):
        sid = bench.train_ids[0]
        a = detect_scene(bench, sid, 3, run_seed=5)
        b = detect_scene(bench, sid, 3, run_seed=5)
        c = detect_scene(bench, sid, 3, run_seed=6)
        assert [x.as_array().tolist() for x in a.boxes] == [
            x.as_array().tolist() for x in b.boxes
        ]
        assert [x.as_array().tolist() for x in a.boxes] != [
            x.as_array().tolist() for x in c.boxes
        ]

    def test_slot_labels_cover_person_unlabeled_background(self, bench):
        for sid in bench.train_ids:
            det = detect_scene(bench, sid, 4, run_seed=5)
            labels = slot_labels(det, bench, sid)
            persons = bench.scenes[sid].persons
            assert len(labels) == 4
            assert labels.count(BACKGROUND) == 4 - len(persons)
            assigned = [l for l in labels if l != BACKGROUND]
            assert sorted(assigned) == sorted(p.label for p in persons)

    def test_detection_losses_are_finite_floats(self, bench):
        sid = bench.train_ids[0]
        det = detect_scene(bench, sid, 3, run_seed=5)
        l_cls, l_iou, l_l1 = detection_losses(det, bench, sid)
        for v in (l_cls, l_iou, l_l1):
            assert isinstance(v, float) and np.isfinite(v)
        assert 0.0 <= l_iou <= 1.0


class TestOimStates:
    def test_state_scales_and_width_per_scheme(self, bench):
        expect = {
            "shared": (3, 8),
            "parallel": (3, 8),
            "multi_scale_d": (1, 8),
            "multi_scale_3d": (1, 24),
        }
        settings = tiny_settings(steps=0)
        for scheme, (scales, width) in expect.items():
            state = train(tiny_model(scheme=scheme), bench, settings, run_seed=5).oim_state
            assert state.lut.shape == (scales, bench.config.labeled_identities, width)
            assert state.queue.shape[0::2] == (scales, width)
            assert state.capacity == settings.queue_size


class TestTrainLoop:
    def test_curve_has_one_row_per_step(self, bench):
        res = train(tiny_model(), bench, tiny_settings(steps=5), run_seed=5)
        assert [r["step"] for r in res.curve] == list(range(5))
        for row in res.curve:
            assert all(np.isfinite(row[k]) for k in ("l_cls", "l_iou", "l_l1", "l_oim", "total"))

    @pytest.mark.parametrize("scheme", ["shared", "parallel"])
    def test_default_shared_step_tape_budget(self, bench, monkeypatch, scheme):
        # The three scales stay one stacked tensor from the queries' tiling
        # to the loss: 1 tiling node, 3 per sublayer for its attention,
        # residual add and layer norm (15), one l2 normalization and one
        # focal-OIM node for all scales, then one node that weights the
        # OIM term and adds the constant detection terms, so a default
        # shared step records exactly 19 nodes.  Weighting and adding as
        # two generic nodes took 20, and splitting the scales into three
        # blocks, each with its own normalization, 25.  Widths do not
        # change the count.  The parallel scheme stores each tensor with
        # one slice per level, which the sublayers read as they are, so
        # its step records the same 19; stacking its three stacks' tensors
        # on every forward took 57.
        counts = []
        replay = GradTape.gradients

        def counting(tape, loss, sources):
            counts.append(len(tape._nodes))
            return replay(tape, loss, sources)

        monkeypatch.setattr(GradTape, "gradients", counting)
        model = ReIDTransformer.init(ReIDConfig(dim=bench.config.feature_dim, scheme=scheme), seed=1)
        train(model, bench, tiny_settings(steps=3), run_seed=5)
        assert len(counts) == 3
        assert counts == [19] * 3, counts

    @pytest.mark.parametrize("scheme", ["shared", "parallel"])
    def test_each_sublayer_view_is_built_once_per_run(self, bench, monkeypatch, scheme):
        # The model keeps its layer views while its parameter Tensors stay
        # the same objects, as they do for a whole run, so a 5-step run
        # builds each deformable and self-attention parameter view once:
        # 4 and 1 under the default config, not 4 and 1 a step.
        built = []
        for cls in (DeformAttnParams, MultiHeadAttnParams):
            post = cls.__post_init__

            def counting(params, post=post):
                built.append(type(params).__name__)
                post(params)

            monkeypatch.setattr(cls, "__post_init__", counting)
        cfg = ReIDConfig(dim=bench.config.feature_dim, scheme=scheme)
        train(ReIDTransformer.init(cfg, seed=1), bench, tiny_settings(steps=5), run_seed=5)
        assert built.count("DeformAttnParams") == cfg.m_layers * cfg.k_cross == 4
        assert built.count("MultiHeadAttnParams") == 1
        assert len(built) == 5

    @pytest.mark.parametrize("scheme", ["shared", "parallel"])
    def test_model_params_are_the_same_tensors_at_every_step(self, bench, scheme):
        # The run points ``model.params`` at its Tensors once and updates
        # their memory in place: every step sees the same objects, with new
        # values.
        model = ReIDTransformer.init(ReIDConfig(dim=bench.config.feature_dim, scheme=scheme), seed=1)
        seen = []

        def progress(step, row):
            seen.append((dict(model.params), {n: t.data.copy() for n, t in model.params.items()}))

        train(model, bench, tiny_settings(steps=5), run_seed=5, progress=progress)
        assert len(seen) == 5
        first = seen[0][0]
        for tensors, _ in seen:
            assert tensors.keys() == first.keys()
            assert all(tensors[n] is first[n] for n in first)
            assert all(not t.data.flags.writeable for t in tensors.values())
        for (_, a), (_, b) in zip(seen, seen[1:]):
            assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_default_shared_step_tape_width(self, bench, monkeypatch):
        # The shared scheme passes its one parameter set once for all three
        # level blocks and each distinct map once, so the deformable node
        # takes z, its 6 parameter tensors and the 3 maps (10 inputs) and
        # the self-attention node y and its 4 projections (5).  The
        # focal-OIM node takes the stacked rows of all scales (1).
        replays, widths = [], {}
        replay = GradTape.gradients

        def recording(tape, loss, sources):
            replays.append(len(tape._nodes))
            for node in tape._nodes:
                op = node.vjp.__qualname__.split(".")[0]
                widths[op] = max(widths.get(op, 0), len(node.inputs))
            return replay(tape, loss, sources)

        monkeypatch.setattr(GradTape, "gradients", recording)
        model = ReIDTransformer.init(ReIDConfig(dim=bench.config.feature_dim), seed=1)
        train(model, bench, tiny_settings(steps=3), run_seed=5)
        assert len(replays) == 3
        assert widths["_deform_core"] == 10, widths
        assert widths["multi_head_self_attention"] == 5, widths
        assert widths["focal_oim_loss"] == 1, widths
        assert max(widths.values()) <= 10, widths

    def test_every_train_setting_has_an_effect(self, bench):
        base = tiny_settings(steps=25)
        want = run_outputs(bench, base)
        cases = []
        for f in dataclasses.fields(TrainSettings):
            assert f.name in NON_DEFAULT, f"no non-default value for TrainSettings.{f.name}"
            if f.name != "weights":
                cases.append((f.name, {f.name: NON_DEFAULT[f.name]}))
        for f in dataclasses.fields(LossWeights):
            assert f.name in NON_DEFAULT["weights"], f"no non-default value for LossWeights.{f.name}"
            weights = LossWeights(**{f.name: NON_DEFAULT["weights"][f.name]})
            cases.append((f"weights.{f.name}", {"weights": weights}))
        for name, change in cases:
            settings = dataclasses.replace(base, **change)
            assert settings != base, name
            settings.validate()
            assert not same_outputs(run_outputs(bench, settings), want), name

    def test_zero_steps_still_evaluates_once(self, bench):
        model = tiny_model()
        before = {n: t.data.copy() for n, t in model.params.items()}
        res = train(model, bench, tiny_settings(steps=0), run_seed=5)
        assert len(res.curve) == 1 and res.curve[0]["step"] == 0
        for n, t in model.params.items():
            assert np.array_equal(t.data, before[n])

    def test_training_reduces_identity_loss(self, bench):
        res = train(tiny_model(), bench, tiny_settings(steps=120), run_seed=5)
        head = np.mean([r["l_oim"] for r in res.curve[:10]])
        tail = np.mean([r["l_oim"] for r in res.curve[-10:]])
        assert tail < head

    def test_same_seeds_reproduce_curve_and_params(self, bench):
        r1 = train(tiny_model(seed=2), bench, tiny_settings(steps=6), run_seed=5)
        r2 = train(tiny_model(seed=2), bench, tiny_settings(steps=6), run_seed=5)
        assert r1.curve == r2.curve
        for n in r1.model.params:
            assert np.array_equal(r1.model.params[n].data, r2.model.params[n].data)
        assert np.array_equal(r1.oim_state.lut, r2.oim_state.lut)
        assert np.array_equal(r1.oim_state.queue, r2.oim_state.queue)

    def test_adam_and_weight_decay_run(self, bench):
        settings = tiny_settings(
            steps=4, optimizer="adam", learning_rate=1e-3, weight_decay=1e-4
        )
        res = train(tiny_model(), bench, settings, run_seed=5)
        assert len(res.curve) == 4

    def test_grad_clip_bounds_the_update(self, bench):
        model = tiny_model()
        before = {n: t.data.copy() for n, t in model.params.items()}
        limit = 1e-3
        settings = tiny_settings(steps=1, learning_rate=1.0, grad_clip=limit)
        train(model, bench, settings, run_seed=5)
        moved = np.sqrt(
            sum(
                float(((model.params[n].data - before[n]) ** 2).sum())
                for n in before
            )
        )
        assert moved <= limit + 1e-12

    def test_non_finite_loss_raises_numeric_error(self, bench):
        model = tiny_model()
        poisoned = "stack.layer0.cross0.w_out"
        model.params[poisoned] = Tensor(
            np.full(model.params[poisoned].shape, np.nan)
        )
        with pytest.raises(NumericError, match="step 0; first non-finite parameter stack.layer0.cross0.w_out$"):
            train(model, bench, tiny_settings(steps=2), run_seed=5)

    def test_non_finite_loss_with_finite_parameters_says_so(self, bench, monkeypatch):
        monkeypatch.setattr(training, "total_loss", lambda *a: Tensor(np.nan))
        with pytest.raises(NumericError, match="non-finite loss nan at step 0; every parameter is finite$"):
            train(tiny_model(), bench, tiny_settings(steps=2), run_seed=5)

    def test_settings_validation(self):
        for bad in (
            dict(steps=-1),
            dict(learning_rate=0.0),
            dict(optimizer="lbfgs"),
            dict(weight_decay=-1.0),
            dict(grad_clip=0.0),
            dict(queue_size=-1),
        ):
            with pytest.raises(ConfigError):
                TrainSettings(**bad).validate()


class ReferenceOptimizer:
    """The earlier per-tensor optimizer, kept as the oracle of the flat one:
    gradient clipping with per-tensor sums in name order, then weight decay
    and an SGD or Adam step for each tensor on its own."""

    def __init__(self, names, settings):
        self.names, self.settings, self.step_count, self.clipped = names, settings, 0, 0
        self.m = {n: 0.0 for n in names}
        self.v = {n: 0.0 for n in names}

    def apply(self, params, grads):
        s = self.settings
        if s.grad_clip is not None:
            norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
            if not (norm <= s.grad_clip or norm == 0.0):
                grads = [g * (s.grad_clip / norm) for g in grads]
                self.clipped += 1
        self.step_count += 1
        for name, g in zip(self.names, grads):
            p = params[name]
            if s.weight_decay > 0.0:
                g = g + s.weight_decay * p
            if s.optimizer == "sgd":
                step = s.learning_rate * g
            else:
                b1, b2, eps = 0.9, 0.999, 1e-8
                self.m[name] = b1 * self.m[name] + (1 - b1) * g
                self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
                m_hat = self.m[name] / (1 - b1**self.step_count)
                v_hat = self.v[name] / (1 - b2**self.step_count)
                step = s.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            params[name] = p - step


class TestFlatOptimizer:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"optimizer": "adam", "learning_rate": 1e-3},
            {"weight_decay": 1e-2},
            {"grad_clip": 1e-3},
            {"optimizer": "adam", "learning_rate": 1e-3, "weight_decay": 1e-2, "grad_clip": 1e-3},
        ],
        ids=["sgd", "adam", "sgd-decay", "sgd-clip", "adam-decay-clip"],
    )
    def test_matches_the_per_tensor_update_byte_for_byte(self, bench, monkeypatch, overrides):
        model = tiny_model()
        # Signed zeros must come through as the per-tensor update leaves them.
        zeros = "stack.layer0.cross0.b_weight"
        model.params[zeros] = Tensor(np.full(model.params[zeros].shape, -0.0))
        initial = dict(model.params)
        initial_bytes = {n: t.data.tobytes() for n, t in initial.items()}
        recorded = []
        replay = GradTape.gradients

        def recording(tape, loss, sources):
            grads = replay(tape, loss, sources)
            recorded.append([np.array(g) for g in grads])
            return grads

        monkeypatch.setattr(GradTape, "gradients", recording)
        settings = tiny_settings(steps=12, **overrides)
        res = train(model, bench, settings, run_seed=5)

        # Each step's gradients were taken at the parameters the reference
        # holds at that step, as long as the two updates agree.
        names = sorted(initial)
        want = {n: initial[n].data for n in names}
        oracle = ReferenceOptimizer(names, settings)
        for grads in recorded:
            oracle.apply(want, grads)
        assert len(recorded) == 12
        assert (oracle.clipped > 0) == (settings.grad_clip is not None)
        assert any(np.signbit(want[zeros]).ravel())
        for n in names:
            got = res.model.params[n].data
            assert got.tobytes() == want[n].tobytes(), n
            assert not got.flags.writeable, n
            with pytest.raises(ValueError):
                got[...] = 0.0
        # The caller's tensors are left as they were.
        assert all(initial[n].data.tobytes() == initial_bytes[n] for n in names)

    def test_runs_from_shallow_copies_repeat(self, bench):
        # A benchmark pass restarts from a shallow copy of one model's
        # parameter dict, so training must leave that model's tensors alone.
        model = tiny_model()
        before = {n: t.data.tobytes() for n, t in model.params.items()}
        first, second = (
            train(ReIDTransformer(model.config, dict(model.params)), bench, tiny_settings(steps=5), run_seed=5)
            for _ in range(2)
        )
        assert first.curve == second.curve
        for n, t in first.model.params.items():
            assert t.data.tobytes() == second.model.params[n].data.tobytes()
            assert model.params[n].data.tobytes() == before[n]


class TestOIMClassMatrices:
    def test_each_update_builds_the_matrix_a_fresh_build_gives(self, bench, monkeypatch):
        # Over a run whose queue wraps, every state's class matrices equal
        # the build from each scale's lookup table and queue rows, byte
        # for byte.
        update, made = losses.OIMState.update, []

        def recording(state, x, labels):
            made.append(update(state, x, labels))
            return made[-1]

        monkeypatch.setattr(losses.OIMState, "update", recording)
        train(tiny_model(), bench, tiny_settings(steps=40, queue_size=4), run_seed=5)
        assert len(made) == 40
        for st in made:
            assert st.classes.flags.c_contiguous and not st.classes.flags.writeable
            for lut, queue, classes in zip(st.lut, st.queue, st.classes, strict=True):
                fresh = np.concatenate([lut.reshape(-1), *queue]).reshape(-1, st.dim).T
                assert classes.tobytes() == np.ascontiguousarray(fresh).tobytes()
        # The queue wrapped: it is full, and more rows entered it than it holds.
        assert made[-1].queue.shape[1] == 4
        assert len({row.tobytes() for st in made for row in st.queue[0]}) > 4


class TestDetectionReuse:
    def test_each_scene_is_detected_once_per_run(self, bench, monkeypatch):
        detected, visits = [], []
        detect, pyramid = training.detect_scene, type(bench).pyramid

        def counting(b, scene_id, *args):
            detected.append(scene_id)
            return detect(b, scene_id, *args)

        def visiting(b, scene_id):
            visits.append(scene_id)
            return pyramid(b, scene_id)

        monkeypatch.setattr(training, "detect_scene", counting)
        monkeypatch.setattr(type(bench), "pyramid", visiting)
        steps = 2 * len(bench.train_ids) + 3
        res = train(tiny_model(), bench, tiny_settings(steps=steps), run_seed=5)
        assert len(visits) == steps and len(set(visits)) < steps
        assert sorted(detected) == sorted(set(visits))
        first = {}
        for scene_id, row in zip(visits, res.curve):
            losses = (row["l_cls"], row["l_iou"], row["l_l1"])
            assert first.setdefault(scene_id, losses) == losses
        for scene_id, losses in first.items():
            det = detect(bench, scene_id, 3, 5)
            assert detection_losses(det, bench, scene_id) == losses


class TestLossCurveFile:
    def test_round_trips_exactly(self, bench, tmp_path):
        res = train(tiny_model(), bench, tiny_settings(steps=3), run_seed=5)
        path = tmp_path / "loss_curve.csv"
        write_loss_curve(path, res.curve)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,l_cls,l_iou,l_l1,l_oim,total"
        assert len(lines) == 4
        for line, row in zip(lines[1:], res.curve):
            parts = line.split(",")
            assert int(parts[0]) == row["step"]
            assert float(parts[5]) == row["total"]

    def test_byte_identical_across_runs(self, bench, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            res = train(tiny_model(seed=4), bench, tiny_settings(steps=3), run_seed=9)
            write_loss_curve(p, res.curve)
        assert p1.read_bytes() == p2.read_bytes()


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, bench, tmp_path):
        res = train(tiny_model(), bench, tiny_settings(steps=6), run_seed=5)
        meta = {"run_seed": 5, "steps": 6}
        save_checkpoint(tmp_path / "ckpt", res.model, res.oim_state, meta)
        model, state, loaded_meta = load_checkpoint(tmp_path / "ckpt")
        assert loaded_meta == meta
        for n in res.model.params:
            assert np.array_equal(model.params[n].data, res.model.params[n].data)
        want = res.oim_state
        assert state.lut.tobytes() == want.lut.tobytes() and state.lut.shape == want.lut.shape
        assert state.queue.tobytes() == want.queue.tobytes() and state.queue.shape == want.queue.shape
        assert (state.capacity, state.momentum, state.tau) == (want.capacity, want.momentum, want.tau)

    @pytest.mark.parametrize("scheme, scales", [("shared", 3), ("multi_scale_d", 1)])
    @pytest.mark.parametrize("queue_size", [0, 4], ids=["empty-queue", "filled-queue"])
    def test_load_then_save_reproduces_every_file(self, bench, tmp_path, scheme, scales, queue_size):
        # The benchmark has unlabeled identities, so queues fill during training.
        res = train(tiny_model(scheme=scheme), bench, tiny_settings(steps=30, queue_size=queue_size), run_seed=5)
        want = res.oim_state
        assert want.scales == scales and (want.queue.shape[1] > 0) == (queue_size > 0)
        save_checkpoint(tmp_path / "a", res.model, want, {"run_seed": 5})
        model, state, meta = load_checkpoint(tmp_path / "a")
        for got, expected in ((state.lut, want.lut), (state.queue, want.queue)):
            assert got.shape == expected.shape and np.array_equal(got, expected)
        save_checkpoint(tmp_path / "b", model, state, meta)

        def files(root):
            return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        saved = files(tmp_path / "a")
        assert saved == files(tmp_path / "b")
        assert sorted(f for f in saved if f.startswith("oim")) == ["oim_lut.sqt", "oim_queue.sqt"]
        manifest = json.loads(saved["checkpoint.json"])
        assert manifest["format_version"] == 2
        assert manifest["oim"] == {"capacity": queue_size, "momentum": want.momentum, "tau": want.tau}

    def test_loaded_model_scores_identically(self, bench, tmp_path):
        res = train(tiny_model(), bench, tiny_settings(steps=6), run_seed=5)
        save_checkpoint(tmp_path / "ckpt", res.model, res.oim_state, {"run_seed": 5})
        model, _, _ = load_checkpoint(tmp_path / "ckpt")
        e1, t1, p1 = build_gallery(res.model, bench, run_seed=5)
        e2, t2, p2 = build_gallery(model, bench, run_seed=5)
        for a, b in zip(e1, e2):
            assert np.array_equal(a.embedding, b.embedding)


class TestNoEinsum:
    def test_a_training_step_and_a_multi_scale_forward_call_no_einsum(self, bench, monkeypatch):
        # The deformable contractions are BLAS products, not np.einsum.
        calls, einsum = [], np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args, **kw: calls.append(args[0]) or einsum(*args, **kw))
        assert tiny_model().config.scheme == "shared"
        train(tiny_model(), bench, tiny_settings(steps=1), run_seed=5)
        build_gallery(tiny_model(scheme="multi_scale_3d"), bench, run_seed=5)
        assert calls == []


class TestRetrievalPipeline:
    def test_gallery_covers_every_scene_and_slot(self, bench):
        model = tiny_model()
        entries, truth, per_scene = build_gallery(model, bench, run_seed=5)
        n = model.config.num_queries
        assert len(entries) == n * len(bench.gallery_ids)
        assert set(truth) == set(bench.gallery_ids)
        for sid, (start, det, emb) in per_scene.items():
            for i in range(n):
                e = entries[start + i]
                assert e.scene_id == sid
                assert np.array_equal(e.embedding, emb[i])

    def test_query_entries_point_at_their_own_detection(self, bench):
        model = tiny_model()
        entries, truth, per_scene = build_gallery(model, bench, run_seed=5)
        queries = build_query_entries(bench, per_scene)
        assert len(queries) == len(bench.queries)
        for q, meta in zip(queries, bench.queries):
            assert q.scene_id == meta["scene"]
            assert q.identity == meta["identity"]
            src = entries[q.source_index]
            assert src.scene_id == q.scene_id
            assert np.array_equal(src.embedding, q.embedding)

    def test_pipeline_feeds_the_protocol(self, bench):
        model = tiny_model()
        entries, truth, per_scene = build_gallery(model, bench, run_seed=5)
        queries = build_query_entries(bench, per_scene)
        result = evaluate(queries, entries, truth)
        assert 0.0 <= result.mean_ap <= 1.0
        assert set(result.cmc) == {1, 5, 10}
