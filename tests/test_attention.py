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
            return T.sum_all(T.mul(multi_head_self_attention(yy, p), w))

        for name, leaf in leaves.items():
            err = T.central_diff_gradcheck(lambda t, n=name: loss_with(n, t), leaf)
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
            return T.sum_all(T.mul(out, w))

        for name, leaf in leaves.items():
            err = T.central_diff_gradcheck(lambda t, name=name: f(t, name), leaf)
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


def stack_sets(sets):
    """One parameter set whose tensor fields stack those of ``sets`` along a
    leading block axis, set g serving row block g."""
    shapes = sets[0].block_shapes()
    stacked = {f: T.stack([getattr(p, f) for p in sets], shape) for f, shape in shapes.items()}
    return dataclasses.replace(sets[0], **stacked)


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

        def grouped():
            # Shared: the one set; distinct: the sets stacked along a block axis.
            dp, mha = (ps[0] if shared else stack_sets(ps) for ps in (dps, mhas))
            gamma, beta = (ts[0] if shared else T.stack(ts, (d,)) for ts in (gammas, betas))
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

        sources = [z, *maps, *gammas[:count], *betas[:count]]
        sources += [t for p in dps[:count] + mhas[:count] for t in _param_leaves(p)]
        with GradTape() as tape:
            got = grouped()
            loss = T.sum_all(T.mul(got, weigh))
            got_grads = tape.gradients(loss, sources)
        with GradTape() as tape:
            want = separate()
            parts = [T.sum_all(T.mul(o, w)) for o, w in zip(want, T.split_rows(weigh, g))]
            loss = T.add(T.add(parts[0], parts[1]), parts[2])
            want_grads = tape.gradients(loss, sources)
        assert np.array_equal(got.data, np.concatenate([o.data for o in want]))
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
        with GradTape() as tape:
            loss = T.sum_all(T.powc(deform_attn(z, refs, maps, stack_sets(dps), 3), 2.0))
        params = _param_leaves(dps[1])
        data_only = tape.gradients(loss, [z, *params])
        with_maps = tape.gradients(loss, [z, *params, maps[1]])
        all_maps = tape.gradients(loss, maps)
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


class TestReferencePoint:
    def test_clamps_into_unit_square(self):
        r = ReferencePoint(-0.5, 1.5)
        assert (r.x, r.y) == (0.0, 1.0)

    def test_pixel_mapping_corners(self):
        r = ReferencePoint(1.0, 1.0)
        assert r.to_pixels(32, 16) == (31.0, 15.0)
