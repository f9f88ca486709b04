"""Transformer assembly: schemes, structure, determinism, checkpoints."""

import dataclasses

import numpy as np
import pytest

from persearch import tensor as T
from persearch import transformer
from persearch.attention import ReferencePoint
from persearch.tensor import GradTape, Tensor
from persearch.transformer import (
    SCHEMES,
    ReIDConfig,
    ReIDEmbeddings,
    ReIDTransformer,
    concat_inference_embeddings,
    reid_layer_forward,
)


def tiny_config(**kw):
    base = dict(
        dim=8, heads=2, points=2, m_layers=2, k_cross=2, num_queries=3,
        scheme="shared",
    )
    base.update(kw)
    return ReIDConfig(**base)


def make_pyramid(rng, dim=8):
    return [
        Tensor(rng.standard_normal((dim, 8, 8))),
        Tensor(rng.standard_normal((dim, 4, 4))),
        Tensor(rng.standard_normal((dim, 2, 2))),
    ]


def make_refs(rng, n):
    return [ReferencePoint(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)) for _ in range(n)]


# One valid value other than the default for every ReIDConfig field.
NON_DEFAULT = {
    "dim": 16,
    "heads": 2,
    "points": 2,
    "m_layers": 1,
    "k_cross": 1,
    "num_queries": 2,
    "scheme": "parallel",
    "skip_first_self_attention": False,
    "use_self_attention": False,
}


def build_effect(cfg):
    """The (name, shape) set a config builds, and its embeddings of a fixed
    scene drawn for its width and query count."""
    model = ReIDTransformer.init(cfg, seed=0, style="random")
    rng = np.random.default_rng(47)
    emb = model.matching_embeddings(make_pyramid(rng, cfg.dim), make_refs(rng, cfg.num_queries))
    return {(name, t.shape) for name, t in model.params.items()}, emb.data


class TestStructure:
    def test_parallel_params_are_three_times_shared(self):
        shared = ReIDTransformer.init(tiny_config(scheme="shared"), seed=0)
        parallel = ReIDTransformer.init(tiny_config(scheme="parallel"), seed=0)
        assert parallel.transformer_param_count() == 3 * shared.transformer_param_count()

    def test_multi_scale_3d_width(self):
        cfg = tiny_config(scheme="multi_scale_3d")
        model = ReIDTransformer.init(cfg, seed=0)
        assert model.params["queries"].shape == (3, 24)
        assert cfg.query_width == 3 * cfg.dim
        assert cfg.match_dim == 3 * cfg.dim

    def test_every_config_field_has_an_effect(self):
        default_shapes, default_emb = build_effect(ReIDConfig())
        for f in dataclasses.fields(ReIDConfig):
            assert f.name in NON_DEFAULT, f"no non-default value for ReIDConfig.{f.name}"
            assert NON_DEFAULT[f.name] != f.default
            shapes, emb = build_effect(ReIDConfig(**{f.name: NON_DEFAULT[f.name]}))
            assert shapes != default_shapes or not np.array_equal(emb, default_emb), f.name

    def test_match_dims_per_scheme(self):
        dims = {s: tiny_config(scheme=s).match_dim for s in SCHEMES}
        assert dims == {
            "shared": 24,
            "parallel": 24,
            "multi_scale_d": 8,
            "multi_scale_3d": 24,
        }

    def test_first_layer_has_no_self_attention_by_default(self):
        model = ReIDTransformer.init(tiny_config(), seed=0)
        assert not any(".layer0.sa." in k for k in model.params)
        assert any(".layer1.sa." in k for k in model.params)

    def test_skip_flag_configurable(self):
        model = ReIDTransformer.init(
            tiny_config(skip_first_self_attention=False), seed=0
        )
        assert any(".layer0.sa." in k for k in model.params)

    def test_self_attention_disable_flag(self):
        model = ReIDTransformer.init(tiny_config(use_self_attention=False), seed=0)
        assert not any(".sa." in k for k in model.params)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_all_layer_grids_construct_and_run(self, m, k):
        rng = np.random.default_rng(m * 10 + k)
        cfg = tiny_config(m_layers=m, k_cross=k)
        model = ReIDTransformer.init(cfg, seed=1)
        emb = model.forward(make_pyramid(rng), make_refs(rng, 3))
        assert len(emb.per_scale) == 3
        for t in emb.per_scale:
            assert t.shape == (3, 8)
            assert np.all(np.isfinite(t.data))

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError):
            tiny_config(dim=9, heads=2).validate()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(scheme="pyramid").validate()


class TestForward:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_schemes_run_and_shapes(self, scheme):
        rng = np.random.default_rng(40)
        cfg = tiny_config(scheme=scheme)
        model = ReIDTransformer.init(cfg, seed=2, style="random")
        emb = model.forward(make_pyramid(rng), make_refs(rng, 3))
        assert isinstance(emb, ReIDEmbeddings) and emb.scales == cfg.output_scales
        # The scales stay stacked; the per-scale blocks are cut on demand.
        assert emb.rows.shape == (cfg.output_scales * 3, cfg.query_width)
        assert np.array_equal(np.vstack([t.data for t in emb.per_scale]), emb.rows.data)
        if scheme in ("shared", "parallel"):
            assert len(emb.per_scale) == 3
            assert all(t.shape == (3, 8) for t in emb.per_scale)
        else:
            assert len(emb.per_scale) == 1
            assert emb.per_scale[0].shape == (3, cfg.query_width)
        match = concat_inference_embeddings(emb)
        assert match.shape == (3, cfg.match_dim)
        np.testing.assert_allclose(
            np.linalg.norm(match.data, axis=1), np.ones(3), atol=1e-12
        )

    def test_deterministic_init_and_forward(self):
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        a = ReIDTransformer.init(tiny_config(), seed=9)
        b = ReIDTransformer.init(tiny_config(), seed=9)
        assert sorted(a.params) == sorted(b.params)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)
        pa, pb = make_pyramid(rng1), make_pyramid(rng2)
        ra, rb = make_refs(rng1, 3), make_refs(rng2, 3)
        ea = concat_inference_embeddings(a.forward(pa, ra)).data
        eb = concat_inference_embeddings(b.forward(pb, rb)).data
        np.testing.assert_array_equal(ea, eb)

    def test_untrained_model_is_scene_agnostic(self):
        # Zero-init residual branches: the untrained embedding depends only
        # on the query slot, not on scene content.
        rng = np.random.default_rng(41)
        model = ReIDTransformer.init(tiny_config(), seed=3)
        e1 = model.matching_embeddings(make_pyramid(rng), make_refs(rng, 3)).data
        e2 = model.matching_embeddings(make_pyramid(rng), make_refs(rng, 3)).data
        np.testing.assert_allclose(e1, e2, atol=1e-12)

    def test_trained_style_random_responds_to_scene(self):
        rng = np.random.default_rng(42)
        model = ReIDTransformer.init(tiny_config(), seed=3, style="random")
        e1 = model.matching_embeddings(make_pyramid(rng), make_refs(rng, 3)).data
        e2 = model.matching_embeddings(make_pyramid(rng), make_refs(rng, 3)).data
        assert not np.allclose(e1, e2)

    def test_locality_without_self_attention(self):
        # With self-attention off, output row q ignores other rows' refs.
        rng = np.random.default_rng(43)
        cfg = tiny_config(use_self_attention=False)
        model = ReIDTransformer.init(cfg, seed=4, style="random")
        pyramid = make_pyramid(rng)
        refs = make_refs(rng, 3)
        moved = list(refs)
        moved[0] = ReferencePoint(0.95, 0.05)
        e1 = model.matching_embeddings(pyramid, refs).data
        e2 = model.matching_embeddings(pyramid, moved).data
        np.testing.assert_array_equal(e1[1:], e2[1:])
        assert not np.allclose(e1[0], e2[0])

    def test_joint_permutation_equivariance_with_self_attention(self):
        # Permuting query rows together with their reference points permutes
        # the output rows, even when self-attention mixes the rows.
        rng = np.random.default_rng(44)
        cfg = tiny_config(skip_first_self_attention=False)
        model = ReIDTransformer.init(cfg, seed=5, style="random")
        pyramid = make_pyramid(rng)
        refs = make_refs(rng, 3)
        out = model.matching_embeddings(pyramid, refs).data

        perm = [2, 0, 1]
        permuted = ReIDTransformer(cfg, dict(model.params))
        permuted.params["queries"] = Tensor(model.params["queries"].data[perm])
        out_p = permuted.matching_embeddings(pyramid, [refs[i] for i in perm]).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)


def per_level_reference(model, pyramid, refs):
    """Each level through its own stack alone, one layer call at a time:
    the per-scale embeddings, in level order."""
    cfg = model.config
    per_scale = []
    for lvl, fmap in enumerate(pyramid):
        stack = "stack" if cfg.scheme == "shared" else f"stack{lvl}"
        y = model.params["queries"]
        for m in range(cfg.m_layers):
            y = reid_layer_forward(y, refs, [fmap], model._layer_view(stack, m))
        per_scale.append(y)
    return tuple(per_scale)


class TestLevelBatching:
    """The per-level schemes run their three levels as one batch of rows."""

    @pytest.mark.parametrize("skip_first", [True, False])
    @pytest.mark.parametrize("scheme", ["shared", "parallel"])
    def test_forward_bit_identical_to_per_level_reference(self, scheme, skip_first):
        rng = np.random.default_rng(48)
        cfg = tiny_config(scheme=scheme, skip_first_self_attention=skip_first)
        model = ReIDTransformer.init(cfg, seed=10, style="random")
        pyramid, refs = make_pyramid(rng), make_refs(rng, 3)
        got = model.forward(pyramid, refs).per_scale
        want = per_level_reference(model, pyramid, refs)
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("scheme", ["shared", "parallel"])
    def test_gradients_match_per_level_reference(self, scheme):
        rng = np.random.default_rng(49)
        cfg = tiny_config(scheme=scheme, skip_first_self_attention=False)
        model = ReIDTransformer.init(cfg, seed=11, style="random")
        pyramid, refs = make_pyramid(rng), make_refs(rng, 3)
        weigh = Tensor(rng.standard_normal((3, cfg.match_dim)))
        names = sorted(model.params)
        grads = []
        reference = lambda: T.l2_normalize_rows(T.concat_cols(per_level_reference(model, pyramid, refs)))
        for embed in (lambda: concat_inference_embeddings(model.forward(pyramid, refs)), reference):
            with GradTape() as tape:
                emb = embed()
                loss = T.sum_all(T.mul(emb, weigh))
                grads.append(tape.gradients(loss, [model.params[n] for n in names]))
        for name, got, want in zip(names, *grads):
            assert np.abs(want).max() > 0, name
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel <= 1e-12, (name, rel)


def set_rows(emb, sets):
    """Each set's per-scale rows in a ``forward(variants=...)`` result,
    whose ``per_scale[s]`` holds the rows of every set in turn."""
    n = emb.per_scale[0].shape[0] // sets
    return [[t.data[b * n : (b + 1) * n] for t in emb.per_scale] for b in range(sets)]


class TestParameterSets:
    """``forward(variants=...)`` runs several parameter sets as one batch."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_batched_forward_bit_identical_to_each_sets_own(self, scheme):
        rng = np.random.default_rng(50)
        cfg = tiny_config(scheme=scheme, skip_first_self_attention=False)
        model = ReIDTransformer.init(cfg, seed=12, style="random")
        pyramid, refs = make_pyramid(rng), make_refs(rng, 3)
        stack = sorted(model.params)[-1].split(".")[0]  # stack2 for parallel
        nudged = lambda name: {
            **model.params,
            name: Tensor(model.params[name].data + 0.1 * rng.standard_normal(model.params[name].shape)),
        }
        sets = [
            model.params,
            nudged("queries"),
            nudged(f"{stack}.layer1.cross0.w_offset"),
            nudged(f"{stack}.layer1.sa.wq"),
        ]
        names = ["queries", f"{stack}.layer1.cross0.w_offset", f"{stack}.layer1.sa.wq"]
        variants = {n: Tensor(np.array([ps[n].data for ps in sets])) for n in names}
        batched = model.forward(pyramid, refs, variants=variants)
        assert batched.scheme == scheme
        assert all(t.shape[0] == len(sets) * cfg.num_queries for t in batched.per_scale)
        per_set = set_rows(batched, len(sets))
        for params, rows in zip(sets, per_set):
            own = ReIDTransformer(cfg, params).forward(pyramid, refs)
            assert len(rows) == len(own.per_scale) == cfg.output_scales
            for a, b in zip(rows, own.per_scale):
                assert np.array_equal(a, b.data)
        base = per_set[0][-1]
        for rows in per_set[1:]:
            assert not np.array_equal(rows[-1], base)

    # Each name with the index of the first sublayer that reads it, counting
    # layer0.sa (when the config has it), layer0.cross0, layer0.cross1,
    # layer1.sa (when it has it), ...
    @pytest.mark.parametrize(
        "attn, name, first",
        [
            ({"skip_first_self_attention": False}, "layer0.sa_norm.beta", 0),
            ({"skip_first_self_attention": False}, "layer0.cross1.w_out", 2),
            ({"skip_first_self_attention": False}, "layer1.cross0_norm.gamma", 4),
            ({"skip_first_self_attention": True}, "layer0.cross1.w_out", 1),
            ({"skip_first_self_attention": True}, "layer1.sa_norm.beta", 2),
            ({"skip_first_self_attention": True}, "layer1.cross0_norm.gamma", 3),
            ({"use_self_attention": False}, "layer1.cross0_norm.gamma", 2),
        ],
    )
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sets_run_from_the_first_sublayer_they_vary(self, scheme, attn, name, first, monkeypatch):
        rng = np.random.default_rng(51)
        cfg = tiny_config(scheme=scheme, **attn)
        total = cfg.m_layers * cfg.k_cross + sum(map(cfg.has_self_attention, range(cfg.m_layers)))
        model = ReIDTransformer.init(cfg, seed=13, style="random")
        pyramid, refs = make_pyramid(rng), make_refs(rng, 3)
        name = ("stack1." if scheme == "parallel" else "stack.") + name
        values = model.params[name].data + 0.1 * rng.standard_normal((3, *model.params[name].shape))
        blocks = []
        norm = transformer.residual_layernorm

        def counting(y, sub, gamma, beta, g):
            blocks.append(g)
            return norm(y, sub, gamma, beta, g)

        with monkeypatch.context() as patch:
            patch.setattr(transformer, "residual_layernorm", counting)
            batched = model.forward(pyramid, refs, variants={name: Tensor(values)})
        scales = cfg.output_scales
        assert blocks == [scales] * first + [3 * scales] * (total - first)
        for value, rows in zip(values, set_rows(batched, 3)):
            own = ReIDTransformer(cfg, {**model.params, name: Tensor(value)}).forward(pyramid, refs)
            for a, b in zip(rows, own.per_scale, strict=True):
                assert np.array_equal(a, b.data)


class TestValueTable:
    """The pyramid's value table is built once per forward and every
    deformable sublayer samples that one table."""

    @pytest.mark.parametrize("variants", [None, "layer0.cross1.w_out", "layer1.sa.wq", "queries"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_table_per_forward_read_by_every_kernel_call(self, scheme, variants, monkeypatch):
        rng = np.random.default_rng(52)
        cfg = tiny_config(scheme=scheme)
        model = ReIDTransformer.init(cfg, seed=14, style="random")
        pyramid, refs = make_pyramid(rng), make_refs(rng, 3)
        named = {}
        if variants:
            name = variants if variants == "queries" else ("stack1." if scheme == "parallel" else "stack.") + variants
            named = {name: Tensor(model.params[name].data + rng.standard_normal((2, *model.params[name].shape)))}
        build, kernel = T.value_table, T._bilinear_forward
        built, read = [], []

        def counting_build(maps):
            built.append(build(maps))
            return built[-1]

        def recording_kernel(table, pts):
            read.append(table)
            return kernel(table, pts)

        monkeypatch.setattr(T, "value_table", counting_build)
        monkeypatch.setattr(T, "_bilinear_forward", recording_kernel)
        for _ in range(2):
            model.forward(pyramid, refs, variants=named)
        assert len(built) == 2
        assert [list(t.maps) for t in built] == [pyramid] * 2
        per_forward = cfg.m_layers * cfg.k_cross
        assert len(read) == 2 * per_forward
        assert all(t is built[i // per_forward] for i, t in enumerate(read))


class TestCheckpoint:
    def test_save_load_bit_exact(self, tmp_path):
        model = ReIDTransformer.init(tiny_config(scheme="parallel"), seed=7, style="random")
        model.save(tmp_path / "ckpt")
        back = ReIDTransformer.load(tmp_path / "ckpt")
        assert back.config == model.config
        assert sorted(back.params) == sorted(model.params)
        for k in model.params:
            assert back.params[k].data.tobytes() == model.params[k].data.tobytes()

    def test_save_deterministic_bytes(self, tmp_path):
        a = ReIDTransformer.init(tiny_config(), seed=8)
        b = ReIDTransformer.init(tiny_config(), seed=8)
        a.save(tmp_path / "a")
        b.save(tmp_path / "b")
        ma = (tmp_path / "a" / "model.json").read_bytes()
        mb = (tmp_path / "b" / "model.json").read_bytes()
        assert ma == mb

    def test_round_trip_forward_identical(self, tmp_path):
        rng = np.random.default_rng(47)
        model = ReIDTransformer.init(tiny_config(), seed=9, style="random")
        pyramid, refs = make_pyramid(rng), make_refs(rng, 3)
        before = model.matching_embeddings(pyramid, refs).data
        model.save(tmp_path / "m")
        after = ReIDTransformer.load(tmp_path / "m").matching_embeddings(pyramid, refs).data
        np.testing.assert_array_equal(before, after)
