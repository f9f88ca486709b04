"""Executable gradient verification, from primitives to the full model.

Three blocks of checks, each comparing taped gradients against central
differences: differentiable primitives and the two attention mechanisms at
1e-6, then every parameter of a small randomly initialized model through
the identity loss on a synthetic two-person scene at 1e-4.  The looser
full-model tolerance absorbs the longer chain of float64 cancellations; a
genuinely wrong partial derivative produces errors orders of magnitude
above it.

The primitive checks evaluate their function once per central-difference
probe.  The attention checks run all probes of a check as one call of
the sublayer over one row block per probe, and the full-model checks run
all probes of a parameter tensor as one forward; each probe's value is
bit for bit the value of the unbatched function at that probe.

``run_gradcheck(corrupt=True)`` deliberately biases one analytic gradient
entry before comparison, proving the harness can fail.
"""

from __future__ import annotations

import dataclasses
import time
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


def check_primitives() -> list[CheckResult]:
    """Each taped primitive's output contracted with a fixed weight.

    The draws from the one generator are ordered so that a check keeps
    its inputs when checks are added after it.
    """
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
    added, split = (Tensor(rng.standard_normal((3, 4))) for _ in range(2))
    ones = lambda *shape: Tensor(np.ones(shape))
    checks = [
        ("add", lambda x: tt.add(x, a), added, ones(3, 4)),
        ("layer_norm_x", lambda x: tt.layer_norm(x, gamma, beta), Tensor(rng.standard_normal((3, 4))), a),
        ("layer_norm_gamma", lambda g: tt.layer_norm(a, g, beta), gamma, a),
        ("l2_normalize_rows", tt.l2_normalize_rows, Tensor(rng.standard_normal((3, 4))), a),
        ("concat_cols", lambda x: tt.concat_cols((x, a)), Tensor(rng.standard_normal((3, 4))), wide),
        ("take_rows", lambda x: tt.take_rows(x, [0, 2, 2]), Tensor(rng.standard_normal((3, 4))), taken_w),
        ("bilinear_map", lambda m: tt.bilinear_sample_rows(m, point), fmap, ones(1, 3)),
        ("bilinear_point", lambda p: tt.bilinear_sample_rows(fmap, p), point, ones(1, 3)),
        ("bilinear_rows", lambda p: tt.bilinear_sample_rows(fmap, p), Tensor(rng.uniform(0.5, 4.0, (4, 2))), ones(4, 3)),
    ]
    # Focal OIM over labeled, unlabeled and background rows, against three
    # identities and two queue rows.  A mild temperature keeps every p_t
    # off 1, where the focal factor's gradient sinks below roundoff.
    table = tt.l2_normalize_rows(Tensor(rng.standard_normal((5, 4)))).data
    state = OIMState(table[None, :3], table[None, 3:], capacity=2, tau=0.5)
    labels, per_row = [1, UNLABELED, 0, BACKGROUND, 2, 1], Tensor(rng.standard_normal(4))
    for g in (2.0, 0.0):
        oim = lambda x, g=g: focal_oim_rows(tt.l2_normalize_rows(x), labels, state, g)
        checks.append((f"focal_oim_rows_gamma{g:.0f}", oim, Tensor(rng.standard_normal((6, 4))), per_row))
    # The shape tools, layer norm's beta and a gamma with one row per
    # block: the three blocks of two rows each normalize on their own.
    # The (2, 3) draw that no check reads keeps the inputs of the ones after it.
    draw = lambda *shape: Tensor(rng.standard_normal(shape))
    deep, _, held, rows = draw(2, 2, 3), draw(2, 3), draw(2, 2, 3), draw(6, 4)
    blocks_w = draw(4, 2, 3)
    checks += [
        ("tile_rows", lambda x: tt.tile_rows(x, 2), col, draw(6, 1)),
        ("tile_rows_rank3", lambda x: tt.tile_rows(x, 3), deep, draw(12, 3)),
        ("split_rows", lambda x: tt.concat_cols(tt.split_rows(x, 3)), split, draw(1, 12)),
        ("broadcast_blocks_per_set", lambda x: tt.broadcast_blocks(x, 2, 2, True, False), held, blocks_w),
        ("broadcast_blocks_per_scale", lambda x: tt.broadcast_blocks(x, 2, 2, False, True), held, blocks_w),
        ("layer_norm_beta", lambda b: tt.layer_norm(a, gamma, b), beta, a),
        ("layer_norm_block_gamma", lambda g: tt.layer_norm(rows, g, beta, blocks=3), pos, draw(6, 4)),
    ]
    return [
        CheckResult(f"primitive.{n}", tt.central_diff_gradcheck(f, x, w), PRIMITIVE_TOL)
        for n, f, x, w in checks
    ]


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


def _rows(probes: np.ndarray) -> Tensor:
    """(B, N, D) probes of a sublayer's input as B blocks of N stacked rows."""
    return Tensor(probes.reshape(-1, probes.shape[-1]))


def _tiled(t: Tensor, blocks: int) -> Tensor:
    """The rows of ``t`` repeated for ``blocks`` row blocks."""
    return t if blocks == 1 else Tensor(np.tile(t.data, (blocks, 1)))


def _attention_checks() -> list[tuple]:
    """The attention checks, each as (name, sublayer, leaf, weight, h, stack).

    ``sublayer(x, blocks)`` is the sublayer's output with ``x`` in place of
    the probed ``leaf``, over ``blocks`` row blocks; at one block it is the
    function checked.  ``stack(probes)`` turns the (2 * leaf.size,
    *leaf.shape) probe array into that ``x`` for one block per probe:
    stacked rows for the input rows, a leading block axis for a weight,
    and for the feature map one map per block, each read as its own run.
    """
    rng = np.random.default_rng(200)
    d = 6
    y = Tensor(rng.standard_normal((4, d)))
    mha = _mha_params(rng, d)
    weigh = Tensor(rng.standard_normal((4, d)))
    checks = [("mha_input", lambda x, b: multi_head_self_attention(x, mha, b), y, weigh, 1e-6, _rows)]
    for attr in MultiHeadAttnParams.TENSORS:

        def f(x, b, attr=attr):
            return multi_head_self_attention(_tiled(y, b), dataclasses.replace(mha, **{attr: x}), b)

        checks.append((f"mha_{attr}", f, getattr(mha, attr), weigh, 1e-6, Tensor))

    gamma = Tensor(rng.standard_normal(d))
    beta = Tensor(rng.standard_normal(d))
    residual = lambda x, b: residual_layernorm(x, multi_head_self_attention(x, mha, b), gamma, beta, b)
    checks.append(("residual_layernorm", residual, y, weigh, 1e-6, _rows))

    c = 4
    fmap = Tensor(rng.standard_normal((c, 6, 7)))
    refs = [ReferencePoint(0.3, 0.4), ReferencePoint(0.7, 0.2), ReferencePoint(0.5, 0.9)]
    dp = _deform_params(rng, d, c)
    z = Tensor(rng.standard_normal((3, d)))
    wz = Tensor(rng.standard_normal((3, d)))

    def deform(b, queries=None, maps=fmap, **field):
        queries = _tiled(z, b) if queries is None else queries
        return deform_attn(queries, refs, maps, dataclasses.replace(dp, **field), b)

    checks.append(("deform_z", lambda x, b: deform(b, queries=x), z, wz, 1e-6, _rows))
    for field in DeformAttnParams.TENSORS:
        f = lambda x, b, field=field: deform(b, **{field: x})
        checks.append((f"deform_{field}", f, getattr(dp, field), wz, 1e-6, Tensor))
    # Linear in the map, so a wider step costs no truncation error and
    # drowns less in float roundoff on the tiny corner weights.
    maps = lambda probes: [Tensor(m) for m in probes]
    checks.append(("deform_fmap", lambda x, b: deform(b, maps=x), fmap, wz, 1e-4, maps))
    return checks


def check_attention() -> list[CheckResult]:
    """Both attention sublayers, input and every weight, at 1e-6.

    Each check evaluates all 2 * size probes of its input with one call of
    the sublayer over one row block per probe, as the full-model check
    runs each tensor's probes through one forward.
    """

    def check(name, sublayer, leaf, w, h, stack):
        def f_probes(probes):
            return sublayer(stack(probes), len(probes)).data.reshape(len(probes), *w.shape)

        err = tt.central_diff_gradcheck(lambda x: sublayer(x, 1), leaf, w, h, f_probes)
        return CheckResult(f"attention.{name}", err, ATTENTION_TOL)

    return [check(*spec) for spec in _attention_checks()]


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
    """The full-model check's model, scene, labels and OIM state, whose
    output scales all start from one lookup table.

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
    state = OIMState.initial(2, cfg.query_width, capacity=4, scales=cfg.output_scales)
    state.lut[:] = lut
    return model, pyramid, refs, labels, state


def check_full_model(corrupt: bool = False) -> list[CheckResult]:
    """Every model parameter against central differences.

    The loss is the training loss's identity term: focal OIM per output
    scale, averaged over the scales (``losses.focal_oim_loss``).  The
    2 * size probes of each parameter tensor run as one batched forward,
    with one focal-OIM evaluation over all probes of a tensor.
    """
    model, pyramid, refs, labels, state = _full_model_problem()

    def loss(emb, sets=None) -> Tensor:
        return focal_oim_loss(tt.l2_normalize_rows(emb.rows), labels, state, gamma=2.0, sets=sets)[0]

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
    each block with its wall-clock seconds and its results.  The run first
    pins the C library's heap thresholds (``tensor._keep_freed_heap``), so
    each probe reuses the memory the previous one freed.
    """
    tt._keep_freed_heap()
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
