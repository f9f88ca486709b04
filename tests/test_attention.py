"""Attention sublayers vs brute-force oracles and gradient checks."""

import dataclasses

import numpy as np
import pytest

from persearch import attention as att
from persearch import tensor as T
from persearch.attention import (
    DeformAttnParams,
    MultiHeadAttnParams,
    ReferencePoint,
    deform_attn,
    multi_head_self_attention,
    multiscale_deform_attn,
    residual_layernorm,
    ring_offset_bias,
)
from persearch.tensor import GradTape, Tensor
from persearch.transformer import SCHEMES, ReIDConfig, ReIDTransformer

from oracles import deform_oracle, mha_oracle


def random_mha_params(rng, d, heads, dk=None):
    dk = dk or d // heads
    mk = lambda *s: Tensor(rng.standard_normal(s) * 0.5)
    return MultiHeadAttnParams(
        wq=mk(heads, d, dk),
        wk=mk(heads, d, dk),
        wv=mk(heads, d, dk),
        wo=mk(heads * dk, d),
    )


def random_deform_params(rng, d, c, heads, points, levels=1):
    mk = lambda *s: Tensor(rng.standard_normal(s) * 0.5)
    return DeformAttnParams(
        w_offset=mk(d, 2 * heads * points * levels),
        b_offset=mk(2 * heads * points * levels),
        w_weight=mk(d, heads * points * levels),
        b_weight=mk(heads * points * levels),
        w_value=mk(heads, c, d // heads),
        w_out=mk(d, d),
        num_points=points,
        num_levels=levels,
    )


class TestMultiHeadSelfAttention:
    def test_mean_pool_identity_case(self):
        # Zero Q/K projections make attention uniform; identity V and O
        # then average the input rows.
        d = 3
        params = MultiHeadAttnParams(
            wq=Tensor(np.zeros((1, d, d))),
            wk=Tensor(np.zeros((1, d, d))),
            wv=Tensor(np.eye(d)[None]),
            wo=Tensor(np.eye(d)),
        )
        y = Tensor([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [2.0, 2.0, 2.0]])
        out = multi_head_self_attention(y, params).data
        np.testing.assert_allclose(out, np.tile([2.0, 2.0, 2.0], (3, 1)), atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            heads = int(rng.integers(1, 4))
            dk = int(rng.integers(1, 4))
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, 6))
            params = random_mha_params(rng, d, heads, dk)
            y = rng.standard_normal((n, d))
            got = multi_head_self_attention(Tensor(y), params).data
            want = mha_oracle(
                y,
                params.wq.data,
                params.wk.data,
                params.wv.data,
                params.wo.data,
            )
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        params = random_mha_params(rng, 4, 2)
        y = rng.standard_normal((5, 4))
        perm = rng.permutation(5)
        out = multi_head_self_attention(Tensor(y), params).data
        out_p = multi_head_self_attention(Tensor(y[perm]), params).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(22)
        params = random_mha_params(rng, 4, 2)
        y = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((3, 4)))
        leaves = {"y": y, "wq": params.wq, "wk": params.wk, "wv": params.wv, "wo": params.wo}

        def loss_with(name, t):
            p = params if name == "y" else dataclasses.replace(params, **{name: t})
            yy = t if name == "y" else y
            return multi_head_self_attention(yy, p)

        for name, leaf in leaves.items():
            err = T.central_diff_gradcheck(lambda t, n=name: loss_with(n, t), leaf, w)
            assert err < 1e-6, f"{name}: {err:.2e}"


class TestResidualLayerNorm:
    def test_zero_sublayer_is_plain_layernorm(self):
        rng = np.random.default_rng(23)
        y = Tensor(rng.standard_normal((3, 5)))
        zero = Tensor(np.zeros((3, 5)))
        gamma, beta = Tensor(np.ones(5)), Tensor(np.zeros(5))
        out = residual_layernorm(y, zero, gamma, beta).data
        np.testing.assert_allclose(out, T.layer_norm(y, gamma, beta).data, atol=1e-15)


class TestDeformAttn:
    def test_zero_offsets_single_point_samples_reference(self):
        # S=1 with an all-zero offset head reduces to
        # sum_h W_h W'_h F(P_q) since the single weight softmaxes to 1.
        rng = np.random.default_rng(26)
        d, c, heads = 4, 3, 2
        params = random_deform_params(rng, d, c, heads, points=1)
        params = DeformAttnParams(
            w_offset=Tensor(np.zeros((d, 2 * heads))),
            b_offset=Tensor(np.zeros(2 * heads)),
            w_weight=params.w_weight,
            b_weight=params.b_weight,
            w_value=params.w_value,
            w_out=params.w_out,
            num_points=1,
        )
        fmap = Tensor(rng.standard_normal((c, 6, 5)))
        refs = [ReferencePoint(0.25, 0.5), ReferencePoint(1.0, 0.0)]
        z = Tensor(rng.standard_normal((2, d)))
        out = deform_attn(z, refs, fmap, params).data
        for q, r in enumerate(refs):
            px, py = r.to_pixels(5, 6)
            f = T.bilinear_sample_rows(fmap, Tensor([[px, py]])).data[0]
            want = sum(
                (f @ params.w_value.data[h]) @ w_out
                for h, w_out in enumerate(np.split(params.w_out.data, heads))
            )
            np.testing.assert_allclose(out[q], want, atol=1e-12)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            heads = int(rng.integers(1, 4))
            points = int(rng.integers(1, 4))
            d = heads * int(rng.integers(1, 4))
            c = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            params = random_deform_params(rng, d, c, heads, points)
            fmap = rng.standard_normal((c, int(rng.integers(2, 7)), int(rng.integers(2, 7))))
            refs = [
                ReferencePoint(rng.uniform(), rng.uniform()) for _ in range(n)
            ]
            z = rng.standard_normal((n, d))
            got = deform_attn(Tensor(z), refs, Tensor(fmap), params).data
            want = deform_oracle(
                z,
                [(r.x, r.y) for r in refs],
                [fmap],
                params.w_offset.data,
                params.b_offset.data,
                params.w_weight.data,
                params.b_weight.data,
                params.w_value.data,
                np.split(params.w_out.data, heads),
            )
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_multiscale_matches_oracle(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            heads = int(rng.integers(1, 3))
            points = int(rng.integers(1, 3))
            d = heads * int(rng.integers(1, 4))
            c = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            params = random_deform_params(rng, d, c, heads, points, levels=3)
            maps = [
                rng.standard_normal((c, 8, 8)),
                rng.standard_normal((c, 4, 4)),
                rng.standard_normal((c, 2, 2)),
            ]
            refs = [ReferencePoint(rng.uniform(), rng.uniform()) for _ in range(n)]
            z = rng.standard_normal((n, d))
            got = multiscale_deform_attn(
                Tensor(z), refs, [Tensor(m) for m in maps], params
            ).data
            want = deform_oracle(
                z,
                [(r.x, r.y) for r in refs],
                maps,
                params.w_offset.data,
                params.b_offset.data,
                params.w_weight.data,
                params.b_weight.data,
                params.w_value.data,
                np.split(params.w_out.data, heads),
            )
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_row_locality(self):
        # Changing one query's reference leaves every other output row alone.
        rng = np.random.default_rng(30)
        params = random_deform_params(rng, 4, 3, heads=2, points=2)
        fmap = Tensor(rng.standard_normal((3, 6, 6)))
        z = Tensor(rng.standard_normal((4, 4)))
        refs = [ReferencePoint(rng.uniform(), rng.uniform()) for _ in range(4)]
        moved = list(refs)
        moved[2] = ReferencePoint(0.9, 0.9)
        a = deform_attn(z, refs, fmap, params).data
        b = deform_attn(z, moved, fmap, params).data
        keep = [0, 1, 3]
        np.testing.assert_array_equal(a[keep], b[keep])
        assert not np.allclose(a[2], b[2])

    def test_out_of_map_samples_contribute_zero(self):
        # A huge offset bias pushes every sample far outside the map.
        rng = np.random.default_rng(31)
        d, c, heads, points = 4, 3, 2, 2
        params = random_deform_params(rng, d, c, heads, points)
        params = DeformAttnParams(
            w_offset=Tensor(np.zeros((d, 2 * heads * points))),
            b_offset=Tensor(np.full(2 * heads * points, 1000.0)),
            w_weight=params.w_weight,
            b_weight=params.b_weight,
            w_value=params.w_value,
            w_out=params.w_out,
            num_points=points,
        )
        fmap = Tensor(rng.standard_normal((c, 5, 5)))
        z = Tensor(rng.standard_normal((3, d)))
        refs = [ReferencePoint(0.5, 0.5)] * 3
        out = deform_attn(z, refs, fmap, params).data
        np.testing.assert_array_equal(out, np.zeros((3, d)))

    def test_ring_offset_bias_layout(self):
        bias = ring_offset_bias(num_heads=2, num_points=4)
        assert bias.shape == (2 * 2 * 4,)
        pts = bias.reshape(-1, 2)
        np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0, atol=1e-12)
        # First point of each head sits at angle 0, the next at 90 degrees.
        np.testing.assert_allclose(pts[0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(pts[1], [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("levels", [1, 3])
    def test_gradients_all_parameter_groups(self, levels):
        # Every parameter tensor and every map against central differences,
        # single- and multi-level.  The reference points are constants.
        rng = np.random.default_rng(32)
        d, c, heads, points, n = 4, 3, 2, 2, 3
        base = random_deform_params(rng, d, c, heads, points, levels)
        maps = [Tensor(rng.standard_normal((c, size, size))) for size in (6, 4, 3)[:levels]]
        z = Tensor(rng.standard_normal((n, d)))
        refs = [ReferencePoint(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)) for _ in range(n)]
        w = Tensor(rng.standard_normal((n, d)))

        leaves = {
            "z": z,
            "w_offset": base.w_offset,
            "b_offset": base.b_offset,
            "w_weight": base.w_weight,
            "b_weight": base.b_weight,
            "w_value": base.w_value,
            "w_out": base.w_out,
            **{f"map{lv}": m for lv, m in enumerate(maps)},
        }

        def f(t, name):
            def pick(key, current):
                return t if key == name else current

            p = DeformAttnParams(
                w_offset=pick("w_offset", base.w_offset),
                b_offset=pick("b_offset", base.b_offset),
                w_weight=pick("w_weight", base.w_weight),
                b_weight=pick("b_weight", base.b_weight),
                w_value=pick("w_value", base.w_value),
                w_out=pick("w_out", base.w_out),
                num_points=points,
                num_levels=levels,
            )
            zz = pick("z", z)
            mm = [pick(f"map{lv}", m) for lv, m in enumerate(maps)]
            if levels == 1:
                out = deform_attn(zz, refs, mm[0], p)
            else:
                out = multiscale_deform_attn(zz, refs, mm, p)
            return out

        for name, leaf in leaves.items():
            err = T.central_diff_gradcheck(lambda t, name=name: f(t, name), leaf, w)
            assert err < 1e-6, f"{name}: {err:.2e}"

    def test_shape_validation(self):
        rng = np.random.default_rng(33)
        params = random_deform_params(rng, 4, 3, heads=2, points=2)
        fmap = Tensor(rng.standard_normal((3, 5, 5)))
        with pytest.raises(ValueError):
            deform_attn(Tensor(rng.standard_normal((2, 5))), [ReferencePoint(0, 0)] * 2, fmap, params)
        with pytest.raises(ValueError):
            deform_attn(
                Tensor(rng.standard_normal((2, 4))), [ReferencePoint(0, 0)], fmap, params
            )


def _param_leaves(params):
    if isinstance(params, MultiHeadAttnParams):
        return [params.wq, params.wk, params.wv, params.wo]
    return [getattr(params, f) for f in DeformAttnParams.TENSORS]


def stack_leaves(tensors):
    """One new leaf holding ``tensors`` along a leading block axis."""
    return Tensor(np.stack([t.data for t in tensors]))


def stack_sets(sets):
    """One parameter set whose tensor fields are leaves that stack those of
    ``sets`` along a leading block axis, set g serving row block g."""
    fields = sets[0].block_shapes()
    return dataclasses.replace(sets[0], **{f: stack_leaves([getattr(p, f) for p in sets]) for f in fields})


def _norm_rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


class TestRowGroups:
    """One call over G blocks of rows equals G separate calls, block by block."""

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("levels", [1, 3])
    def test_grouped_sublayers_match_separate_calls(self, shared, levels):
        rng = np.random.default_rng(61 + levels)
        g, n, d, c, heads, points = 3, 3, 6, 4, 2, 2
        maps = [Tensor(rng.standard_normal((c, 2 + i % 5, 3 + i % 4))) for i in range(g * levels)]
        refs = [ReferencePoint(*rng.uniform(0.1, 0.9, 2)) for _ in range(n)]
        count = 1 if shared else g
        dps = [random_deform_params(rng, d, c, heads, points, levels) for _ in range(count)]
        mhas = [random_mha_params(rng, d, heads) for _ in range(count)]
        gammas = [Tensor(rng.standard_normal(d)) for _ in range(count)]
        betas = [Tensor(rng.standard_normal(d)) for _ in range(count)]
        if shared:
            dps, mhas, gammas, betas = dps * g, mhas * g, gammas * g, betas * g
        z = Tensor(rng.standard_normal((g * n, d)))
        weigh = Tensor(rng.standard_normal((g * n, d)))
        deform = deform_attn if levels == 1 else multiscale_deform_attn

        # Shared: the one set; distinct: the sets stacked along a block axis.
        dp, mha = (ps[0] if shared else stack_sets(ps) for ps in (dps, mhas))
        gamma, beta = (ts[0] if shared else stack_leaves(ts) for ts in (gammas, betas))

        def grouped():
            y = residual_layernorm(z, deform(z, refs, maps, dp, g), gamma, beta, g)
            return multi_head_self_attention(y, mha, g)

        def separate():
            outs = []
            for i, block in enumerate(T.split_rows(z, g)):
                own = maps[i * levels : (i + 1) * levels]
                sub = deform(block, refs, own[0] if levels == 1 else own, dps[i])
                y = residual_layernorm(block, sub, gammas[i], betas[i])
                outs.append(multi_head_self_attention(y, mhas[i]))
            return outs

        # Each leaf of the grouped call, with the leaves of the separate
        # calls that its blocks hold.
        leaves = [(z, [z]), *((m, [m]) for m in maps), (gamma, gammas[:count]), (beta, betas[:count])]
        for p, ps in ((dp, dps), (mha, mhas)):
            leaves += zip(_param_leaves(p), zip(*map(_param_leaves, ps[:count])))
        with GradTape() as tape:
            got = grouped()
            got_grads = tape.gradients(got, [leaf for leaf, _ in leaves], weigh.data)
        with GradTape() as tape:
            want = separate()
            cat = T.concat_cols(want)
            want_grads = tape.gradients(cat, [t for _, ts in leaves for t in ts], np.hstack(np.split(weigh.data, g)))
        assert np.array_equal(got.data, np.concatenate([o.data for o in want]))
        # A stacked leaf's gradient, block by block.
        got_grads = [b for a, (_, ts) in zip(got_grads, leaves) for b in (a if len(ts) > 1 else [a])]
        assert len(got_grads) == len(want_grads)
        for a, b in zip(got_grads, want_grads):
            assert np.abs(b).max() > 0
            assert _norm_rel(a, b) <= 1e-12

    def test_map_gradient_only_for_maps_that_are_sources(self, monkeypatch):
        rng = np.random.default_rng(65)
        maps = [Tensor(rng.standard_normal((3, 5, 6))) for _ in range(3)]
        refs = [ReferencePoint(0.3, 0.6), ReferencePoint(0.7, 0.2)]
        dps = [random_deform_params(rng, 4, 3, 2, 2) for _ in range(3)]
        z = Tensor(rng.standard_normal((6, 4)))
        wanted = []
        kernel_vjp = T._bilinear_vjp

        def recording(shapes, res, g, want_maps=None):
            wanted.append(list(want_maps))
            return kernel_vjp(shapes, res, g, want_maps)

        monkeypatch.setattr(T, "_bilinear_vjp", recording)
        stacked = stack_sets(dps)
        with GradTape() as tape:
            out = deform_attn(z, refs, maps, stacked, 3)
        # The gradients of half the sum of squares of the output.
        grads = lambda sources: tape.gradients(out, sources, out.data)
        params = _param_leaves(stacked)
        data_only = grads([z, *params])
        with_maps = grads([z, *params, maps[1]])
        all_maps = grads(maps)
        assert wanted == [[False] * 3, [False, True, False], [True] * 3]
        for a, b in zip(data_only, with_maps):
            assert np.array_equal(a, b)
        assert np.array_equal(with_maps[-1], all_maps[1])
        assert np.abs(with_maps[-1]).max() > 0

    def test_blocks_must_divide_rows(self):
        rng = np.random.default_rng(64)
        dp = random_deform_params(rng, 4, 3, 2, 2)
        fmap = Tensor(rng.standard_normal((3, 4, 4)))
        refs = [ReferencePoint(0.5, 0.5)] * 2
        with pytest.raises(ValueError):
            deform_attn(Tensor(np.zeros((5, 4))), refs, [fmap, fmap], dp, 2)
        with pytest.raises(ValueError):
            multi_head_self_attention(Tensor(np.zeros((5, 4))), random_mha_params(rng, 4, 2), 2)


class TestParameterShapes:
    """A parameter view checks its fields' shapes when it is built; a
    sublayer call checks only that each per-block field holds one value
    per block."""

    @pytest.mark.parametrize("kind", ["deform", "mha"])
    def test_a_mis_shaped_field_raises_at_construction(self, kind):
        rng = np.random.default_rng(67)
        params = random_deform_params(rng, 4, 3, 2, 2) if kind == "deform" else random_mha_params(rng, 4, 2)
        assert params.per_block == (False,) * len(params.TENSORS)
        for name in params.TENSORS:
            shape = getattr(params, name).shape
            for bad in ((2, 1, *shape), (*shape[:-1], shape[-1] + 1)):
                if bad[-1] != shape[-1] and name in ("w_value", "wq"):
                    continue  # these fix the others' shapes
                with pytest.raises(ValueError, match=f"^{name} must be"):
                    dataclasses.replace(params, **{name: Tensor(np.zeros(bad))})
        stacked = stack_sets([params, params])
        assert stacked.per_block == (True,) * len(params.TENSORS)

    def test_a_sublayer_checks_the_block_count(self):
        rng = np.random.default_rng(68)
        dp = stack_sets([random_deform_params(rng, 4, 3, 2, 2) for _ in range(2)])
        mha = stack_sets([random_mha_params(rng, 4, 2) for _ in range(2)])
        fmap = Tensor(rng.standard_normal((3, 4, 4)))
        refs = [ReferencePoint(0.5, 0.5)] * 2
        with pytest.raises(ValueError, match=r"^w_offset must be .*one per row block \(3\)"):
            deform_attn(Tensor(np.zeros((6, 4))), refs, fmap, dp, 3)
        with pytest.raises(ValueError, match=r"^wq must be .*one per row block \(3\)"):
            multi_head_self_attention(Tensor(np.zeros((6, 4))), mha, 3)


class TestPrebuiltTable:
    """Given the maps' prebuilt value table and the (N, 2) reference array,
    the deformable entry points give the bits they give for map Tensors
    and ReferencePoints."""

    @pytest.mark.parametrize("levels", [1, 3])
    def test_maps_and_prebuilt_table_agree(self, levels):
        rng = np.random.default_rng(66 + levels)
        g, n, d, c = 3, 2, 4, 3
        maps = [Tensor(rng.standard_normal((c, 4 + i, 5 - i))) for i in range(3)]
        refs = [ReferencePoint(*rng.uniform(-0.1, 1.1, 2)) for _ in range(n)]
        dps = [random_deform_params(rng, d, c, 2, 2, levels) for _ in range(g)]
        z = Tensor(rng.standard_normal((g * n, d)))
        w = Tensor(rng.standard_normal((g * n, d)))
        attend = deform_attn if levels == 1 else multiscale_deform_attn
        leaves = [t for p in dps for t in _param_leaves(p)]
        forms = [(refs, maps), (att._reference_array(refs), T.value_table(maps))]
        results = []
        for form_refs, form_maps in forms:
            with GradTape() as tape:
                out = attend(z, form_refs, form_maps, stack_sets(dps), g)
            results.append([
                out.data,
                *tape.gradients(out, [z, *leaves, *maps], w.data),
                *tape.gradients(out, [z, *leaves, maps[1]], w.data),
            ])
        for a, b in zip(*results, strict=True):
            assert np.array_equal(a, b)
        assert np.abs(results[0][-1]).max() > 0


class TestReferencePoint:
    def test_clamps_into_unit_square(self):
        r = ReferencePoint(-0.5, 1.5)
        assert (r.x, r.y) == (0.0, 1.0)

    def test_pixel_mapping_corners(self):
        r = ReferencePoint(1.0, 1.0)
        assert r.to_pixels(32, 16) == (31.0, 15.0)


def einsum_deform_core(z, refs, table, params, blocks, cotangent):
    """The deformable sublayer's output and the gradients of its dot with
    ``cotangent`` for z and the six fields, with the bilinear corner sum
    and dot product, the pooling, the value projection and their VJPs each
    one ``np.einsum``: the forms the BLAS products replaced, kept here as a
    reference for them.  Everything else follows the fused primitive."""
    g_count, n = blocks, len(refs)
    h, s, lv, c = params.num_heads, params.num_points, params.num_levels, params.feature_channels
    w_offset, b_offset, w_weight, b_weight, w_value, w_out = (
        getattr(params, f).data for f in DeformAttnParams.TENSORS
    )
    b_offset, b_weight = (b if b.ndim == 1 else b[:, None] for b in (b_offset, b_weight))
    value = "ghcd" if w_value.ndim == 4 else "hcd"
    zd = z.data.reshape(g_count, n, -1)
    offsets = (zd @ w_offset + b_offset).reshape(g_count, n, h, lv, s, 2)
    attn = T._softmax_last((zd @ w_weight + b_weight).reshape(g_count * n, h, -1))
    base = (refs * table.extents[:, None]).reshape(-1, lv, n, 1, 1, 2)
    points = offsets.transpose(0, 3, 1, 2, 4, 5).reshape(-1, *base.shape[:3], h, s, 2) + base
    _, (flat, wts, dx, dy, _) = T._bilinear_forward(table, points.reshape(g_count * lv, -1, 2))
    vals = np.take(table.rows, flat, axis=0)  # (4, P, C)
    samples = (
        np.einsum("kpc,kp->pc", vals, wts)
        .reshape(g_count, lv, n, h, s, c)
        .transpose(0, 2, 3, 1, 4, 5)
        .reshape(g_count * n, h, lv * s, c)
    )
    pooled = np.einsum("nhk,nhkc->nhc", attn, samples).reshape(g_count, n, h, c)
    valued = np.einsum(f"gnhc,{value}->gnhd", pooled, w_value).reshape(g_count, n, -1)

    g = cotangent.reshape(g_count, n, -1)
    g_valued = (g @ w_out.swapaxes(-1, -2)).reshape(g_count, n, h, -1)
    g_w_value = np.einsum("gnhc,gnhd->ghcd", pooled, g_valued)
    g_pooled = np.einsum(f"gnhd,{value}->gnhc", g_valued, w_value).reshape(g_count * n, h, c)
    g_attn = np.einsum("nhc,nhkc->nhk", g_pooled, samples)
    g_logits = (attn * (g_attn - (g_attn * attn).sum(axis=2, keepdims=True))).reshape(g_count, n, -1)
    g_samples = (
        (attn[..., None] * g_pooled[:, :, None, :])
        .reshape(g_count, n, h, lv, s, c)
        .transpose(0, 3, 1, 2, 4, 5)
        .reshape(-1, c)
    )
    gv = np.einsum("pc,kpc->kp", g_samples, vals)
    gx = (1.0 - dy) * (gv[1] - gv[0]) + dy * (gv[3] - gv[2])
    gy = (1.0 - dx) * (gv[2] - gv[0]) + dx * (gv[3] - gv[1])
    g_offsets = (
        np.stack([gx, gy], axis=1)
        .reshape(g_count, lv, n, h, s, 2)
        .transpose(0, 2, 3, 1, 4, 5)
        .reshape(g_count, n, -1)
    )
    g_z = g_offsets @ w_offset.swapaxes(-1, -2) + g_logits @ w_weight.swapaxes(-1, -2)
    zt = zd.swapaxes(1, 2)
    grads = (
        zt @ g_offsets, g_offsets.sum(axis=1), zt @ g_logits, g_logits.sum(axis=1),
        g_w_value, valued.swapaxes(1, 2) @ g,
    )
    grads = [a if own else a.sum(axis=0) for a, own in zip(grads, params.per_block)]
    return (valued @ w_out).reshape(z.shape), [g_z.reshape(z.shape), *grads]


class TestBlasContractions:
    """The deformable primitive's BLAS products against their einsum forms,
    on every call that each scheme's forward makes."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("varied", [None, "stack.layer1.cross0.w_value"])
    def test_every_call_matches_the_einsum_forms(self, scheme, varied, monkeypatch):
        rng = np.random.default_rng(93)
        cfg = ReIDConfig(dim=8, heads=2, points=2, num_queries=3, scheme=scheme)
        model = ReIDTransformer.init(cfg, seed=4, style="random")
        pyramid = [Tensor(rng.standard_normal((8, side, side))) for side in (8, 4, 2)]
        refs = rng.uniform(0.1, 0.9, size=(3, 2))
        core, seen = att._deform_core, []

        def checking(z, refs, table, params, blocks):
            leaves = [Tensor(z.data), *(Tensor(getattr(params, f).data) for f in DeformAttnParams.TENSORS)]
            fresh = dataclasses.replace(params, **dict(zip(DeformAttnParams.TENSORS, leaves[1:])))
            cotangent = rng.standard_normal(z.shape)
            with GradTape() as tape:
                out = core(leaves[0], refs, table, fresh, blocks)
                got = [out.data, *tape.gradients(out, leaves, cotangent)]
            want_out, want_grads = einsum_deform_core(z, refs, table, params, blocks, cotangent)
            for a, b in zip(got, [want_out, *want_grads]):
                assert a.shape == b.shape and np.abs(b).max() > 0
                assert _norm_rel(a, b) <= 1e-12
            seen.append(params.w_value.ndim)
            return core(z, refs, table, params, blocks)

        monkeypatch.setattr(att, "_deform_core", checking)
        variants = None
        if varied:
            values = model.params[varied].data + 0.1 * rng.standard_normal((2, *model.params[varied].shape))
            variants = {varied: Tensor(values)}
        model.forward(pyramid, refs, variants=variants)
        # Two layers of two cross sublayers; a (G, H, C, D/H) value
        # projection wherever the blocks hold their own.
        per_block = [scheme == "parallel" or (varied is not None and m == 1 and k == 0) for m in (0, 1) for k in (0, 1)]
        assert seen == [4 if own else 3 for own in per_block]
