"""Gradient-verification suite: positive runs and the corrupt control."""

import numpy as np
import pytest

from persearch import gradcheck
from persearch import tensor as T
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
        # One layer view per stack and layer of each forward, and each
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


def old_probe_loss(emb, labels, states):
    """The loss of one probe as generic ops: the mean of each scale's focal
    OIM rows, the scale means added in order, then scaled by 1 / scales."""
    total = None
    for scale, st in zip(emb.per_scale, states):
        l = T.mean_all(focal_oim_rows(T.l2_normalize_rows(scale), labels, st, gamma=2.0))
        total = l if total is None else T.add(total, l)
    return T.scale(total, 1.0 / len(states))


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
        model, pyramid, refs, labels, states = _full_model_problem()
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
                want = [old_probe_loss(own(b), labels, states).item() for b in range(len(probes))]
                assert np.array_equal(values, want), name
                checked += 1
        assert checked == 4

    def test_one_loss_evaluation_per_parameter_tensor(self, monkeypatch):
        loss = gradcheck.focal_oim_loss
        calls = []

        def counting(features, labels, states, *args, **kwargs):
            calls.append((features.shape[0], len(states)))
            return loss(features, labels, states, *args, **kwargs)

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
