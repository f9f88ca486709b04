"""Gradient-verification suite: positive runs and the corrupt control."""

import dataclasses

import numpy as np
import pytest

from persearch import gradcheck
from persearch import tensor as T
from persearch.attention import DeformAttnParams, ReferencePoint, multiscale_deform_attn
from persearch.errors import GradcheckFailure
from persearch.gradcheck import (
    ATTENTION_TOL,
    FULL_MODEL_TOL,
    PRIMITIVE_TOL,
    CheckResult,
    _full_model_problem,
    check_attention,
    check_full_model,
    check_primitives,
    format_results,
    raise_on_failure,
)
from persearch.losses import focal_oim_rows
from persearch.tensor import Tensor
from persearch.transformer import ReIDEmbeddings, ReIDTransformer


class TestBlocks:
    def test_primitive_checks_pass(self):
        results = check_primitives()
        assert len(results) >= 15
        assert all(r.tolerance == PRIMITIVE_TOL for r in results)
        assert all(r.passed for r in results), format_results(results)

    def test_primitive_checks_cover_every_taped_primitive(self):
        # Every public name of the tensor module except the ones below records
        # a tape node, and has a check named after it (bilinear sampling by
        # its short stem), so a primitive exported without a check fails here.
        untaped = {
            "Tensor", "GradTape", "ValueTable", "value_table",
            "central_diff_gradcheck", "write_blob", "read_blob",
        }
        stems = {"bilinear_sample_rows": "bilinear"}
        names = {r.name.removeprefix("primitive.") for r in check_primitives()}
        for prim in set(T.__all__) - untaped:
            stem = stems.get(prim, prim)
            assert any(n == stem or n.startswith(stem + "_") for n in names), prim
        assert {n for n in names if n.startswith(("broadcast_blocks_", "layer_norm_", "bilinear_"))} == {
            "broadcast_blocks_per_set", "broadcast_blocks_per_scale", "layer_norm_x", "layer_norm_gamma",
            "layer_norm_beta", "layer_norm_block_gamma", "bilinear_map", "bilinear_point", "bilinear_rows",
        }

    def test_attention_checks_cover_both_mechanisms_and_pass(self):
        results = check_attention()
        names = {r.name for r in results}
        assert any("mha" in n for n in names)
        assert any("deform" in n for n in names)
        assert all(r.tolerance == ATTENTION_TOL for r in results)
        assert all(r.passed for r in results), format_results(results)

    def test_full_model_checks_every_parameter_and_passes(self):
        from persearch.transformer import ReIDConfig, ReIDTransformer

        results = check_full_model()
        cfg = ReIDConfig(
            dim=8,
            heads=2,
            points=2,
            m_layers=2,
            k_cross=2,
            num_queries=3,
            scheme="shared",
            skip_first_self_attention=False,
        )
        model = ReIDTransformer.init(cfg, seed=11)
        assert {r.name for r in results} == {
            f"full_model.{n}" for n in model.params
        }
        assert all(r.tolerance == FULL_MODEL_TOL for r in results)
        assert all(r.passed for r in results), format_results(results)

    def test_corrupted_gradient_is_caught(self):
        results = check_full_model(corrupt=True)
        assert any(not r.passed for r in results)
        with pytest.raises(GradcheckFailure, match="max_rel"):
            raise_on_failure(results)


def one_probe_at_a_time(f, x, h=1e-6):
    """Central differences with one call of ``f`` per probe."""
    flat = x.data.reshape(-1)
    grad = np.zeros(flat.size)
    for i in range(flat.size):
        hi, lo = flat.copy(), flat.copy()
        hi[i] += h
        lo[i] -= h
        (f_hi,) = f(hi.reshape(1, *x.shape))
        (f_lo,) = f(lo.reshape(1, *x.shape))
        grad[i] = (f_hi - f_lo) / (2.0 * h)
    return grad.reshape(x.shape)


class TestBatchedProbes:
    """The full-model check evaluates each tensor's probes as one batch."""

    def test_numeric_gradients_equal_one_probe_at_a_time(self, monkeypatch):
        batched = T.numeric_gradient
        calls = []

        def recording(f, x, h=1e-6):
            grad = batched(f, x, h)
            calls.append((f, x, grad))
            return grad

        monkeypatch.setattr(T, "numeric_gradient", recording)
        results = check_full_model()
        names = [r.name.removeprefix("full_model.") for r in results]
        assert len(calls) == len(names)
        checked = 0
        for name, (f, x, grad) in zip(names, calls):
            if name in (
                "queries",
                "stack.layer0.cross1.w_out",
                "stack.layer1.sa.wq",
                "stack.layer0.cross0_norm.beta",
            ):
                assert np.array_equal(grad, one_probe_at_a_time(f, x)), name
                checked += 1
        assert checked == 4

    def test_one_forward_per_parameter_tensor(self, monkeypatch):
        forward = ReIDTransformer.forward
        calls = []

        def counting(self, *args, **kwargs):
            variants = kwargs.get("variants")
            calls.append(len(next(iter(variants.values())).data) if variants else 1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(ReIDTransformer, "forward", counting)
        results = check_full_model()
        assert len(calls) <= len(results) + 1
        # Every probe still runs: 2 per scalar, plus the analytic pass.
        assert sum(calls) == 1 + 2 * 1576


    def test_shared_tensors_and_maps_pass_once_per_call(self, monkeypatch):
        # One layer view per layer of each forward, and each
        # bilinear kernel call reads the pyramid's three maps once, however
        # many probe sets share them.
        forward, layer_view, kernel = ReIDTransformer.forward, ReIDTransformer._layer_view, T._bilinear_forward
        forwards, views, kernel_maps = [], [], []

        def counting_forward(self, *args, **kwargs):
            forwards.append(1)
            return forward(self, *args, **kwargs)

        def counting_view(self, *args, **kwargs):
            views.append(args)
            return layer_view(self, *args, **kwargs)

        def counting_kernel(table, pts):
            kernel_maps.append(len(table.maps))
            return kernel(table, pts)

        monkeypatch.setattr(ReIDTransformer, "forward", counting_forward)
        monkeypatch.setattr(ReIDTransformer, "_layer_view", counting_view)
        monkeypatch.setattr(T, "_bilinear_forward", counting_kernel)
        check_full_model()
        model = _full_model_problem()[0]
        assert len(forwards) == 46
        assert len(views) == len(forwards) * model.config.m_layers <= 92
        assert kernel_maps and max(kernel_maps) <= 3


def weighed(outs, w):
    """Each output's weighted sum, as the attention checks weigh them."""
    return np.array([float((o * w.data).sum()) for o in outs])


class TestBatchedAttentionProbes:
    """Each attention check evaluates its probes as one blocked sublayer call."""

    def recorded_checks(self, monkeypatch):
        """check_attention's results and, for each check, the arguments it
        passed to central_diff_gradcheck."""
        central = T.central_diff_gradcheck
        calls = []

        def recording(f, x, w, h=1e-6, f_probes=None):
            calls.append((f, x, w, h, f_probes))
            return central(f, x, w, h, f_probes)

        monkeypatch.setattr(T, "central_diff_gradcheck", recording)
        results = check_attention()
        assert len(calls) == len(results) == 14
        return results, calls

    def test_numeric_gradients_equal_one_probe_at_a_time(self, monkeypatch):
        results, calls = self.recorded_checks(monkeypatch)
        for r, (f, x, w, h, f_probes) in zip(results, calls):
            assert f_probes is not None, r.name
            batched = T.numeric_gradient(lambda probes: weighed(f_probes(probes), w), x, h)
            per_probe = one_probe_at_a_time(lambda probe: weighed([f(Tensor(probe[0])).data], w), x, h)
            assert np.array_equal(batched, per_probe), r.name

    def test_multiscale_probes_with_per_block_offsets_equal_one_probe_at_a_time(self):
        # check_attention covers single-level sublayers only: three levels,
        # each block sampling at its own offset weights.
        rng = np.random.default_rng(21)
        d, c, heads, points, levels = 6, 4, 2, 2, 3
        k = heads * points * levels
        params = DeformAttnParams(
            w_offset=Tensor(rng.standard_normal((d, 2 * k)) / np.sqrt(d)),
            b_offset=Tensor(rng.standard_normal(2 * k)),
            w_weight=Tensor(rng.standard_normal((d, k)) / np.sqrt(d)),
            b_weight=Tensor(rng.standard_normal(k)),
            w_value=Tensor(rng.standard_normal((heads, c, d // heads)) / np.sqrt(c)),
            w_out=Tensor(rng.standard_normal((d, d)) / np.sqrt(d // heads)),
            num_points=points,
            num_levels=levels,
        )
        maps = [Tensor(rng.standard_normal((c, hh, ww))) for hh, ww in ((8, 9), (4, 5), (2, 3))]
        refs = [ReferencePoint(0.3, 0.4), ReferencePoint(0.7, 0.2), ReferencePoint(0.5, 0.9)]
        z, w = Tensor(rng.standard_normal((3, d))), Tensor(rng.standard_normal((3, d)))

        def f(x, blocks=1):
            queries = Tensor(np.tile(z.data, (blocks, 1)))
            return multiscale_deform_attn(queries, refs, maps, dataclasses.replace(params, w_offset=x), blocks)

        f_probes = lambda probes: f(Tensor(probes), len(probes)).data.reshape(len(probes), *w.shape)
        batched = T.numeric_gradient(lambda probes: weighed(f_probes(probes), w), params.w_offset)
        per_probe = one_probe_at_a_time(lambda probe: weighed([f(Tensor(probe[0])).data], w), params.w_offset)
        assert np.array_equal(batched, per_probe)
        assert T.central_diff_gradcheck(f, params.w_offset, w, f_probes=f_probes) < ATTENTION_TOL

    def test_one_taped_and_one_blocked_call_per_check(self, monkeypatch):
        calls = []
        for name in ("multi_head_self_attention", "deform_attn"):

            def counting(rows, *args, sublayer=getattr(gradcheck, name), name=name, **kwargs):
                calls.append((name, rows.shape[0]))
                return sublayer(rows, *args, **kwargs)

            monkeypatch.setattr(gradcheck, name, counting)
        results = check_attention()
        sizes = {f"attention.{name}": leaf.size for name, _, leaf, *_ in gradcheck._attention_checks()}
        assert len(calls) == 2 * len(results) == 28
        for r, taped, blocked in zip(results, calls[0::2], calls[1::2]):
            sublayer = "deform_attn" if ".deform_" in r.name else "multi_head_self_attention"
            assert taped[0] == blocked[0] == sublayer, r.name
            # Every probe's rows in the one blocked call.
            assert blocked[1] == 2 * sizes[r.name] * taped[1], r.name


def old_probe_loss(emb, labels, state):
    """The loss of one probe from each scale's own focal OIM rows, each
    scored against a one-scale state of that scale's table and queue: the
    mean of each scale's rows, the scale means added in order, then scaled
    by 1 / scales."""
    total = None
    for s, scale in enumerate(emb.per_scale):
        own = dataclasses.replace(state, lut=state.lut[s : s + 1], queue=state.queue[s : s + 1])
        l = focal_oim_rows(T.l2_normalize_rows(scale), labels, own, gamma=2.0).data.mean()
        total = l if total is None else total + l
    return total * (1.0 / state.scales)


class TestBatchedLoss:
    """The full-model check scores all probes of a tensor, at every scale,
    with one focal-OIM evaluation."""

    def test_probe_values_equal_one_loss_per_probe_and_scale(self, monkeypatch):
        batched = T.numeric_gradient
        calls = []

        def recording(f, x, h=1e-6):
            def f_recorded(probes):
                values = f(probes)
                calls.append((probes, list(values)))
                return values

            return batched(f_recorded, x, h)

        monkeypatch.setattr(T, "numeric_gradient", recording)
        results = check_full_model()
        names = [r.name.removeprefix("full_model.") for r in results]
        assert len(calls) == len(names)
        model, pyramid, refs, labels, state = _full_model_problem()
        checked = 0
        for name, (probes, values) in zip(names, calls):
            if name in (
                "queries",
                "stack.layer0.cross1.w_out",
                "stack.layer1.sa.wq",
                "stack.layer0.cross0_norm.beta",
            ):
                variants = {name: Tensor(probes)}
                emb = model.forward(pyramid, refs, variants=variants)
                n = len(refs)
                own = lambda b: ReIDEmbeddings(
                    Tensor(np.vstack([t.data[b * n : (b + 1) * n] for t in emb.per_scale])),
                    emb.scales,
                    emb.scheme,
                )
                want = [old_probe_loss(own(b), labels, state) for b in range(len(probes))]
                assert np.array_equal(values, want), name
                checked += 1
        assert checked == 4

    def test_one_loss_evaluation_per_parameter_tensor(self, monkeypatch):
        loss = gradcheck.focal_oim_loss
        calls = []

        def counting(features, labels, state, *args, **kwargs):
            calls.append((features.shape[0], state.scales))
            return loss(features, labels, state, *args, **kwargs)

        monkeypatch.setattr(gradcheck, "focal_oim_loss", counting)
        results = check_full_model()
        assert len(results) == 45
        # One for the taped loss, then one per parameter tensor for all of
        # its probes and all three scales.
        assert len(calls) == len(results) + 1
        assert all(scales == 3 for _, scales in calls)
        # Every probe's rows are still scored, all scales in one tensor: 3
        # rows per probe and scale.
        assert sum(rows for rows, _ in calls) == 3 * 3 * (1 + 2 * 1576)


class TestReporting:
    def test_format_marks_pass_and_fail(self):
        results = [
            CheckResult("good", 1e-9, 1e-6),
            CheckResult("bad", 1e-3, 1e-6),
        ]
        text = format_results(results)
        assert "PASS good" in text
        assert "FAIL bad" in text

    def test_raise_on_failure_passes_clean_results(self):
        raise_on_failure([CheckResult("good", 1e-9, 1e-6)])
