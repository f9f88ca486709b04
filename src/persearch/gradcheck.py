"""Executable gradient verification, from primitives to the full model.

Three blocks of checks, each comparing taped gradients against central
differences: differentiable primitives and the two attention mechanisms at
1e-6, then every parameter of a small randomly initialized model through
the identity loss on a synthetic two-person scene at 1e-4.  The looser
full-model tolerance absorbs the longer chain of float64 cancellations; a
genuinely wrong partial derivative produces errors orders of magnitude
above it.

``run_gradcheck(corrupt=True)`` deliberately biases one analytic gradient
entry before comparison, proving the harness can fail.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as tt
from .attention import (
    DeformAttnParams,
    MultiHeadAttnParams,
    ReferencePoint,
    deform_attn,
    multi_head_self_attention,
    residual_layernorm,
)
from .data import IdentityBank, Person, render_scene
from .detector import Box
from .errors import GradcheckFailure
from .losses import BACKGROUND, UNLABELED, OIMState, focal_oim_loss, focal_oim_rows
from .tensor import GradTape, Tensor, max_rel_error
from .transformer import ReIDConfig, ReIDTransformer

__all__ = ["CheckResult", "run_gradcheck", "format_results"]

PRIMITIVE_TOL = 1e-6
ATTENTION_TOL = 1e-6
FULL_MODEL_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _check(name, f, x, tol, h=1e-6) -> CheckResult:
    return CheckResult(name, tt.central_diff_gradcheck(f, x, h=h), tol)


def check_primitives() -> list[CheckResult]:
    rng = np.random.default_rng(100)
    a = Tensor(rng.standard_normal((3, 4)))
    col = Tensor(rng.standard_normal((3, 1)))
    pos = Tensor(rng.uniform(0.5, 2.0, (3, 4)))
    gamma = Tensor(rng.standard_normal(4))
    beta = Tensor(rng.standard_normal(4))
    fmap = Tensor(rng.standard_normal((3, 5, 6)))
    point = Tensor(np.array([[2.3, 1.7]]))
    wide = Tensor(rng.standard_normal((3, 8)))
    taken_w = Tensor(rng.standard_normal((3, 4)))
    checks = [
        ("add", lambda x: tt.sum_all(tt.add(x, a)), Tensor(rng.standard_normal((3, 4)))),
        ("mul", lambda x: tt.sum_all(tt.mul(x, a)), Tensor(rng.standard_normal((3, 4)))),
        ("mul_column", lambda x: tt.sum_all(tt.mul(a, x)), col),
        ("scale_add_scalar", lambda x: tt.add_scalar(tt.scale(tt.sum_all(x), 0.7), 1.3), a),
        ("powc", lambda x: tt.sum_all(tt.powc(x, 2.5)), pos),
        ("mean_all", tt.mean_all, a),
        ("layer_norm_x", lambda x: tt.sum_all(tt.mul(tt.layer_norm(x, gamma, beta), a)), Tensor(rng.standard_normal((3, 4)))),
        ("layer_norm_gamma", lambda g: tt.sum_all(tt.mul(tt.layer_norm(a, g, beta), a)), gamma),
        ("l2_normalize_rows", lambda x: tt.sum_all(tt.mul(tt.l2_normalize_rows(x), a)), Tensor(rng.standard_normal((3, 4)))),
        ("concat_cols", lambda x: tt.sum_all(tt.mul(tt.concat_cols((x, a)), wide)), Tensor(rng.standard_normal((3, 4)))),
        ("take_rows", lambda x: tt.sum_all(tt.mul(tt.take_rows(x, [0, 2, 2]), taken_w)), Tensor(rng.standard_normal((3, 4)))),
        ("bilinear_map", lambda m: tt.sum_all(tt.bilinear_sample_rows(m, point)), fmap),
        ("bilinear_point", lambda p: tt.sum_all(tt.bilinear_sample_rows(fmap, p)), point),
        ("bilinear_rows", lambda p: tt.sum_all(tt.bilinear_sample_rows(fmap, p)), Tensor(rng.uniform(0.5, 4.0, (4, 2)))),
    ]
    # Focal OIM over labeled, unlabeled and background rows, against three
    # identities and two queue rows.  A mild temperature keeps every p_t
    # off 1, where the focal factor's gradient sinks below roundoff.
    table = tt.l2_normalize_rows(Tensor(rng.standard_normal((5, 4)))).data
    state = OIMState(table[:3].copy(), deque(table[3:], maxlen=2), tau=0.5)
    labels, per_row = [1, UNLABELED, 0, BACKGROUND, 2, 1], Tensor(rng.standard_normal(4))
    for g in (2.0, 0.0):
        oim = lambda x, g=g: tt.sum_all(tt.mul(focal_oim_rows(tt.l2_normalize_rows(x), labels, state, g), per_row))
        checks.append((f"focal_oim_rows_gamma{g:.0f}", oim, Tensor(rng.standard_normal((6, 4)))))
    return [_check(f"primitive.{n}", f, x, PRIMITIVE_TOL) for n, f, x in checks]


def _gauss(rng, *shape, fan_in=None):
    """Standard normals scaled by 1/sqrt(fan_in), fan_in defaulting to shape[0]."""
    return Tensor(rng.standard_normal(shape) / np.sqrt(fan_in or shape[0]))


def _mha_params(rng, d=6, heads=2):
    dk = d // heads
    return MultiHeadAttnParams(
        wq=_gauss(rng, heads, d, dk, fan_in=d),
        wk=_gauss(rng, heads, d, dk, fan_in=d),
        wv=_gauss(rng, heads, d, dk, fan_in=d),
        wo=_gauss(rng, heads * dk, d),
    )


def _deform_params(rng, d=6, c=4, heads=2, points=2):
    return DeformAttnParams(
        w_offset=_gauss(rng, d, 2 * heads * points),
        b_offset=Tensor(rng.standard_normal(2 * heads * points)),
        w_weight=_gauss(rng, d, heads * points),
        b_weight=Tensor(rng.standard_normal(heads * points)),
        w_value=_gauss(rng, heads, c, d // heads, fan_in=c),
        w_out=_gauss(rng, d, d, fan_in=d // heads),
        num_points=points,
    )


def check_attention() -> list[CheckResult]:
    rng = np.random.default_rng(200)
    d = 6
    y = Tensor(rng.standard_normal((4, d)))
    mha = _mha_params(rng, d)
    weigh = Tensor(rng.standard_normal((4, d)))
    results = [
        _check(
            "attention.mha_input",
            lambda x: tt.sum_all(tt.mul(multi_head_self_attention(x, mha), weigh)),
            y,
            ATTENTION_TOL,
        )
    ]
    for attr in ("wq", "wk", "wv", "wo"):

        def f(x, attr=attr):
            out = multi_head_self_attention(y, dataclasses.replace(mha, **{attr: x}))
            return tt.sum_all(tt.mul(out, weigh))

        results.append(_check(f"attention.mha_{attr}", f, getattr(mha, attr), ATTENTION_TOL))

    gamma = Tensor(rng.standard_normal(d))
    beta = Tensor(rng.standard_normal(d))
    results.append(
        _check(
            "attention.residual_layernorm",
            lambda x: tt.sum_all(
                tt.mul(residual_layernorm(x, multi_head_self_attention(x, mha), gamma, beta), weigh)
            ),
            y,
            ATTENTION_TOL,
        )
    )

    c = 4
    fmap = Tensor(rng.standard_normal((c, 6, 7)))
    refs = [ReferencePoint(0.3, 0.4), ReferencePoint(0.7, 0.2), ReferencePoint(0.5, 0.9)]
    dp = _deform_params(rng, d, c)
    z = Tensor(rng.standard_normal((3, d)))
    wz = Tensor(rng.standard_normal((3, d)))

    def deform_with(field, x):
        params = dp if field == "z" else dataclasses.replace(dp, **{field: x})
        zz = x if field == "z" else z
        return tt.sum_all(tt.mul(deform_attn(zz, refs, fmap, params), wz))

    for field in ("z", *DeformAttnParams.TENSORS):
        results.append(
            _check(
                f"attention.deform_{field}",
                lambda x, field=field: deform_with(field, x),
                z if field == "z" else getattr(dp, field),
                ATTENTION_TOL,
            )
        )

    def deform_fmap(m):
        return tt.sum_all(tt.mul(deform_attn(z, refs, m, dp), wz))

    # Linear in the map, so a wider step costs no truncation error and
    # drowns less in float roundoff on the tiny corner weights.
    results.append(
        _check("attention.deform_fmap", deform_fmap, fmap, ATTENTION_TOL, h=1e-4)
    )
    return results


def _gradcheck_scene(dim: int, image_size: int):
    """Two labeled persons on a small pyramid, via the benchmark renderer."""
    bank = IdentityBank.create(num_labeled=2, num_unlabeled=0, dim=dim, seed=7)
    persons = (
        Person(Box(0.15, 0.2, 0.45, 0.6), label=0, bank_index=0),
        Person(Box(0.55, 0.35, 0.85, 0.8), label=1, bank_index=1),
    )
    rng = np.random.default_rng(8)
    pyramid = render_scene(bank, persons, image_size, sigma_bg=0.05, rng=rng)
    refs = [p.box.center for p in persons] + [(0.5, 0.1)]
    refs = [ReferencePoint(x, y) for x, y in refs]
    labels = [0, 1, -2]
    return pyramid, refs, labels


def _full_model_problem():
    """The full-model check's model, scene, labels and one OIM state per
    output scale.

    Random init style so no gradient path hides behind a zero projection.
    """
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
    model = ReIDTransformer.init(cfg, seed=11, style="random")
    pyramid, refs, labels = _gradcheck_scene(cfg.dim, image_size=64)
    srng = np.random.default_rng(12)
    lut = srng.standard_normal((2, cfg.query_width))
    lut /= np.linalg.norm(lut, axis=1, keepdims=True)
    states = []
    for _ in range(cfg.output_scales):
        st = OIMState.initial(2, cfg.query_width, queue_capacity=4)
        st.lut[:] = lut
        states.append(st)
    return model, pyramid, refs, labels, states


def check_full_model(corrupt: bool = False) -> list[CheckResult]:
    """Every model parameter against central differences.

    The loss is the training loss's identity term: focal OIM per output
    scale, averaged over the scales (``losses.focal_oim_loss``).  The
    2 * size probes of each parameter tensor run as one batched forward,
    with one focal-OIM evaluation over all probes of a tensor.
    """
    model, pyramid, refs, labels, states = _full_model_problem()

    def loss(emb, sets=None) -> Tensor:
        return focal_oim_loss(tt.l2_normalize_rows(emb.rows), labels, states, gamma=2.0, sets=sets)[0]

    names = sorted(model.params)
    with GradTape() as tape:
        out = loss(model.forward(pyramid, refs))
        analytic = tape.gradients(out, [model.params[n] for n in names])
    if corrupt:
        analytic[0] = analytic[0] + 1e-3

    def probe_losses(name):
        """All probes of one tensor through one forward, as that tensor's
        variants, and the loss of each.  The forward runs each probe only
        from the first sublayer it changes; each probe's value equals the
        taped loss above evaluated at the probe."""

        def f(probes):
            emb = model.forward(pyramid, refs, variants={name: Tensor(probes)})
            return loss(emb, len(probes)).data

        return f

    return [
        CheckResult(
            f"full_model.{name}",
            max_rel_error(grad, tt.numeric_gradient(probe_losses(name), model.params[name])),
            FULL_MODEL_TOL,
        )
        for name, grad in zip(names, analytic)
    ]


def run_gradcheck(
    corrupt: bool = False,
    progress: Callable[[str, float, list[CheckResult]], None] | None = None,
) -> list[CheckResult]:
    """Every block of checks in order: primitives, attention, full model.

    ``progress(block, seconds, results)``, when given, is called after
    each block with its wall-clock seconds and its results.
    """
    blocks = (
        ("primitives", check_primitives),
        ("attention", check_attention),
        ("full model", lambda: check_full_model(corrupt=corrupt)),
    )
    results = []
    for block, check in blocks:
        start = time.perf_counter()
        block_results = check()
        if progress is not None:
            progress(block, time.perf_counter() - start, block_results)
        results += block_results
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status} {r.name} max_rel={r.max_rel_error:.3e} tol={r.tolerance:.0e}"
        )
    return "\n".join(lines)


def raise_on_failure(results: list[CheckResult]) -> None:
    failed = [r for r in results if not r.passed]
    if failed:
        worst = max(failed, key=lambda r: r.max_rel_error)
        raise GradcheckFailure(
            f"{len(failed)} gradient check(s) failed; worst {worst.name} "
            f"max_rel={worst.max_rel_error:.3e} tol={worst.tolerance:.0e}"
        )
