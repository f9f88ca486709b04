"""Attention primitives: multi-head self-attention and deformable sampling.

Self-attention follows the classic form: each head projects the input rows
with its own query/key/value matrices, applies scaled dot-product attention
softmax(QK^T / sqrt(d_k)) V, and the concatenated head outputs go through a
final output projection.  Both sublayer types are wrapped in residual
connections with layer normalization, layernorm(Y + dropout(sub)).

Deformable attention reads a feature map at a handful of learned sampling
locations around a per-query reference point instead of attending to every
pixel.  For query row q with features z_q and normalized reference point
P_q, each head h predicts S offsets per level from a linear map of z_q and a
softmax A_h over its L*S sampling weights.  The bilinear samples are pooled
by A first and only then run through the head's value projection W'_h,
which is the same sum by linearity; output projections W_h mix the heads:

    out_q = sum_h W_h W'_h [ sum_{l,s} A_hls F_bi^l(pix_l(P_q) + dP_hls) ]

Sampling locations are in pixel units: pix(P) = (P.x * (W_f - 1),
P.y * (H_f - 1)) for an (C, H_f, W_f) map, with zero padding outside the
map.  The multi-scale variant samples S points per pyramid level and
normalizes A over all levels * S samples of a head.

Each projection is stored as one tensor with a leading head axis (or, for
the output projections, one row block per head), as in Deformable DETR
(Zhu et al., arXiv 2010.04159).  Each sublayer call is a single taped
primitive with a hand-written vector-Jacobian product: the heads run
batched and all points of all levels are sampled with one gather, so the
tape holds one node per sublayer.

Every sublayer also accepts one parameter set per row group.  The input
rows then form G equal blocks that run as one batch, and block g uses only
parameter set g (and, for the deformable sublayers, only its own maps);
self-attention never mixes rows of different blocks.  The re-ID
transformer runs the three pyramid levels of its per-level schemes this
way.  The deformable VJP skips the feature-map scatter for maps that do
not depend on a gradient source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from . import tensor as tt
from .tensor import Tensor

__all__ = [
    "ReferencePoint",
    "MultiHeadAttnParams",
    "DeformAttnParams",
    "multi_head_self_attention",
    "residual_layernorm",
    "deform_attn",
    "multiscale_deform_attn",
    "deform_attention_weights",
    "ring_offset_bias",
]


@dataclass(frozen=True)
class ReferencePoint:
    """Normalized (x, y) location in [0, 1]^2; constructor clamps."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", min(1.0, max(0.0, float(self.x))))
        object.__setattr__(self, "y", min(1.0, max(0.0, float(self.y))))

    def to_pixels(self, width: int, height: int) -> tuple[float, float]:
        return self.x * (width - 1), self.y * (height - 1)


@dataclass(frozen=True)
class MultiHeadAttnParams:
    """Stacked per-head projections plus the shared output projection.

    wq/wk/wv are (H, d, d_k), slice h being head h; wo is (H * d_k, d).
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor

    def __post_init__(self):
        if self.wq.ndim != 3 or self.wq.shape[0] < 1:
            raise ValueError(f"wq must be (H, d, d_k), got {self.wq.shape}")
        if self.wk.shape != self.wq.shape or self.wv.shape != self.wq.shape:
            raise ValueError("wq/wk/wv must share one shape")
        h, d, dk = self.wq.shape
        if self.wo.shape != (h * dk, d):
            raise ValueError(
                f"wo must be ({h * dk}, {d}), got {self.wo.shape}"
            )

    @property
    def num_heads(self) -> int:
        return self.wq.shape[0]

    @property
    def head_dim(self) -> int:
        return self.wq.shape[2]


def _groups(params, kind) -> tuple:
    """One parameter set, or a non-empty sequence of them, as a tuple."""
    groups = (params,) if isinstance(params, kind) else tuple(params)
    if not groups or not all(isinstance(p, kind) for p in groups):
        raise ValueError(f"expected one {kind.__name__} or a sequence of them")
    return groups


def _row_blocks(x: Tensor, groups: int) -> int:
    """Rows per block when the rows of ``x`` form ``groups`` equal blocks."""
    if x.ndim != 2 or x.shape[0] % groups != 0:
        raise ValueError(f"{x.shape[0]} rows do not split into {groups} equal blocks")
    return x.shape[0] // groups


def multi_head_self_attention(
    y: Tensor, params: MultiHeadAttnParams | Sequence[MultiHeadAttnParams]
) -> Tensor:
    """Scaled dot-product self-attention over the rows of ``y`` (N, d).

    ``params`` may also hold one parameter set per row group: with G sets,
    ``y`` is G blocks of N rows, and a row attends only to the rows of its
    own block, under that block's projections.

    One taped primitive: the (group, head) pairs run as one batch of
    (N, .) products.
    """
    groups = _groups(params, MultiHeadAttnParams)
    first = groups[0]
    if y.ndim != 2 or y.shape[1] != first.wq.shape[1]:
        raise ValueError(f"input shape {y.shape} does not match projections")
    if any(ps.wq.shape != first.wq.shape for ps in groups):
        raise ValueError("every group's projections must share one shape")
    g_count, h = len(groups), first.num_heads
    n = _row_blocks(y, g_count)
    inv_sqrt_dk = 1.0 / math.sqrt(first.head_dim)
    yd = y.data.reshape(g_count, 1, n, -1)
    wq, wk, wv, wo = (
        np.array([getattr(ps, name).data for ps in groups])  # (G, H, d, d_k), (G, H*d_k, d)
        for name in ("wq", "wk", "wv", "wo")
    )
    q, k, v = yd @ wq, yd @ wk, yd @ wv  # (G, H, N, d_k)
    p = _softmax_last((q @ k.swapaxes(2, 3)) * inv_sqrt_dk)  # (G, H, N, N)
    heads = (p @ v).transpose(0, 2, 1, 3).reshape(g_count, n, -1)  # (G, N, H*d_k), head-major

    def vjp(g):
        g = g.reshape(g_count, n, -1)
        g_heads = (g @ wo.swapaxes(1, 2)).reshape(g_count, n, h, -1).transpose(0, 2, 1, 3)
        g_p = g_heads @ v.swapaxes(2, 3)
        g_v = p.swapaxes(2, 3) @ g_heads
        g_logits = p * (g_p - (g_p * p).sum(axis=3, keepdims=True)) * inv_sqrt_dk
        g_q = g_logits @ k
        g_k = g_logits.swapaxes(2, 3) @ q
        g_y = sum(
            (gx @ wx.swapaxes(2, 3)).sum(axis=1)
            for gx, wx in ((g_q, wq), (g_k, wk), (g_v, wv))
        )
        yt = yd.swapaxes(2, 3)
        g_wq, g_wk, g_wv = yt @ g_q, yt @ g_k, yt @ g_v  # (G, H, d, d_k)
        g_wo = heads.swapaxes(1, 2) @ g
        per_group = (gr[i] for i in range(g_count) for gr in (g_wq, g_wk, g_wv, g_wo))
        return (g_y.reshape(y.shape), *per_group)

    inputs = (y, *(t for ps in groups for t in (ps.wq, ps.wk, ps.wv, ps.wo)))
    return tt._emit((heads @ wo).reshape(y.shape), inputs, vjp)


def residual_layernorm(
    y: Tensor,
    sublayer_out: Tensor,
    gamma: Tensor | Sequence[Tensor],
    beta: Tensor | Sequence[Tensor],
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """layernorm(y + dropout(sublayer_out)); rate 0 skips the dropout.

    ``gamma`` and ``beta`` may hold one tensor per block of rows, as
    :func:`persearch.tensor.layer_norm` describes.
    """
    if y.shape != sublayer_out.shape:
        raise ValueError("residual branches must have equal shapes")
    return tt.layer_norm(y + tt.dropout(sublayer_out, dropout_rate, rng), gamma, beta)


@dataclass(frozen=True)
class DeformAttnParams:
    """Parameters of one deformable attention sublayer.

    With query width D, feature channels C, H heads, S points and L levels:
    w_offset (D, 2*H*S*L) and b_offset predict per-sample pixel offsets,
    w_weight (D, H*S*L) and b_weight the (pre-softmax) sampling weights,
    w_value (H, C, D // H) stacks the H value projections and w_out (D, D)
    the H output projections, rows h*D/H to (h+1)*D/H being head h.
    Columns of the offset head are laid out head-major, then level, then
    sample, with x before y; the weight head is head-major, then level,
    then sample.
    """

    w_offset: Tensor
    b_offset: Tensor
    w_weight: Tensor
    b_weight: Tensor
    w_value: Tensor
    w_out: Tensor
    num_points: int
    num_levels: int = 1

    # The tensor fields, in order.
    TENSORS: ClassVar[tuple[str, ...]] = (
        "w_offset", "b_offset", "w_weight", "b_weight", "w_value", "w_out"
    )

    def __post_init__(self):
        if self.w_value.ndim != 3:
            raise ValueError(f"w_value must be (H, C, D/H), got {self.w_value.shape}")
        h, c, dh = self.w_value.shape
        s, lv = self.num_points, self.num_levels
        if h < 1 or s < 1 or lv < 1:
            raise ValueError("bad head/point/level counts")
        d = self.w_offset.shape[0]
        if d != h * dh:
            raise ValueError(f"w_value must be ({h}, {c}, {d // h}) for query width {d}")
        if self.w_offset.shape != (d, 2 * h * s * lv):
            raise ValueError(f"w_offset must be ({d}, {2 * h * s * lv})")
        if self.b_offset.shape != (2 * h * s * lv,):
            raise ValueError("b_offset shape mismatch")
        if self.w_weight.shape != (d, h * s * lv):
            raise ValueError(f"w_weight must be ({d}, {h * s * lv})")
        if self.b_weight.shape != (h * s * lv,):
            raise ValueError("b_weight shape mismatch")
        if self.w_out.shape != (d, d):
            raise ValueError(f"w_out must be ({d}, {d})")

    @property
    def num_heads(self) -> int:
        return self.w_value.shape[0]

    @property
    def query_width(self) -> int:
        return self.w_offset.shape[0]

    @property
    def feature_channels(self) -> int:
        return self.w_value.shape[1]


def ring_offset_bias(num_heads: int, num_points: int, num_levels: int = 1) -> np.ndarray:
    """Offset-head bias placing the S initial samples on a unit-pixel ring.

    Angles are evenly spaced over the points; every head and level starts
    from the same ring.  Layout matches DeformAttnParams.b_offset.
    """
    bias = np.zeros(2 * num_heads * num_points * num_levels)
    for h in range(num_heads):
        for lv in range(num_levels):
            for s in range(num_points):
                theta = 2.0 * math.pi * s / num_points
                base = 2 * (h * num_levels * num_points + lv * num_points + s)
                bias[base] = math.cos(theta)
                bias[base + 1] = math.sin(theta)
    return bias


def _deform_core(
    z: Tensor,
    refs: Sequence[ReferencePoint],
    maps: Sequence[Tensor],
    params: tuple[DeformAttnParams, ...],
    ref_tensors: Sequence[Tensor] | None = None,
) -> Tensor:
    """One taped primitive for a whole deformable sublayer.

    With G parameter sets of L levels each, ``z`` is G blocks of N rows and
    block g samples only its own levels, ``maps[g*L:(g+1)*L]``, under
    parameter set g; ``ref_tensors``, when given, is ordered the same way.
    The reference points are shared by every block.
    """
    first = params[0]
    if z.ndim != 2 or z.shape[1] != first.query_width:
        raise ValueError(f"query shape {z.shape} does not match parameters")
    layout = lambda p: (p.w_offset.shape, p.w_value.shape, p.num_points, p.num_levels)
    if any(layout(p) != layout(first) for p in params):
        raise ValueError("every group's deformable parameters must share one shape")
    g_count = len(params)
    n = _row_blocks(z, g_count)
    h, s, lv = first.num_heads, first.num_points, first.num_levels
    c = first.feature_channels
    if len(maps) != g_count * lv:
        raise ValueError(f"expected {g_count * lv} feature maps, got {len(maps)}")
    if len(refs) != n:
        raise ValueError("one reference point per query row is required")
    for fmap in maps:
        if fmap.ndim != 3 or fmap.shape[0] != c:
            raise ValueError("feature maps must be (C, H, W) with matching C")
    if ref_tensors is not None:
        ref_tensors = tuple(ref_tensors)
        if len(ref_tensors) != len(maps) or any(t.shape != (n * s, 2) for t in ref_tensors):
            raise ValueError(
                f"ref_tensors must be {len(maps)} tensors of shape ({n * s}, 2)"
            )

    zd = z.data.reshape(g_count, n, -1)
    # Each field stacked over the groups: (G, D, .) weights, (G, H, C, D/H)
    # value and (G, D, D) output projections, (G, 1, .) biases.
    w_offset, b_offset, w_weight, b_weight, w_value, w_out = (
        np.array([getattr(p, f).data for p in params]) for f in DeformAttnParams.TENSORS
    )
    b_offset, b_weight = b_offset[:, None], b_weight[:, None]
    offsets = (zd @ w_offset + b_offset).reshape(g_count, n, h, lv, s, 2)
    attn = _softmax_last((zd @ w_weight + b_weight).reshape(g_count * n, h, -1))  # (G*N, H, L*S)

    # Every (group, level) map is sampled at its own block of N*H*S points,
    # all with one kernel call; the blocks run group-major, then level.
    if ref_tensors is None:
        unit_refs = np.array([(r.x, r.y) for r in refs])
        extent = np.array([(f.shape[2] - 1.0, f.shape[1] - 1.0) for f in maps])
        base = unit_refs * extent[:, None]  # pix(P) per map, (G*L, N, 2)
        base = base.reshape(g_count, lv, n, 1, 1, 2)
    else:
        base = np.array([t.data for t in ref_tensors]).reshape(g_count, lv, n, 1, s, 2)
    points = offsets.transpose(0, 3, 1, 2, 4, 5) + base  # (G, L, N, H, S, 2)
    sampled, kernel = tt._bilinear_forward([f.data for f in maps], points.reshape(-1, 2))
    samples = (
        sampled.reshape(g_count, lv, n, h, s, c)
        .transpose(0, 2, 3, 1, 4, 5)
        .reshape(g_count * n, h, lv * s, c)
    )
    pooled = np.einsum("nhk,nhkc->nhc", attn, samples).reshape(g_count, n, h, c)
    valued = np.einsum("gnhc,ghcd->gnhd", pooled, w_value).reshape(g_count, n, -1)  # (G, N, D)
    maps_at = 1 + 6 * g_count  # index of maps[0] among the inputs

    def vjp(g, needs):
        g = g.reshape(g_count, n, -1)
        g_w_out = valued.swapaxes(1, 2) @ g
        g_valued = (g @ w_out.swapaxes(1, 2)).reshape(g_count, n, h, -1)
        g_w_value = np.einsum("gnhc,gnhd->ghcd", pooled, g_valued)
        g_pooled = np.einsum("gnhd,ghcd->gnhc", g_valued, w_value).reshape(g_count * n, h, c)
        g_attn = np.einsum("nhc,nhkc->nhk", g_pooled, samples)
        g_logits = attn * (g_attn - (g_attn * attn).sum(axis=2, keepdims=True))
        g_samples = (
            (attn[..., None] * g_pooled[:, :, None, :])
            .reshape(g_count, n, h, lv, s, c)
            .transpose(0, 3, 1, 2, 4, 5)
            .reshape(-1, c)
        )
        g_maps, g_points = tt._bilinear_vjp(
            [f.shape for f in maps], kernel, g_samples, needs[maps_at : maps_at + len(maps)]
        )
        g_points = g_points.reshape(g_count, lv, n, h, s, 2)
        g_refs = g_points.sum(axis=3).reshape(len(maps), n * s, 2) if ref_tensors else ()
        g_offsets = g_points.transpose(0, 2, 3, 1, 4, 5).reshape(g_count, n, -1)
        g_logits = g_logits.reshape(g_count, n, -1)
        g_z = g_offsets @ w_offset.swapaxes(1, 2) + g_logits @ w_weight.swapaxes(1, 2)
        zt = zd.swapaxes(1, 2)
        g_w_offset, g_w_weight = zt @ g_offsets, zt @ g_logits
        g_b_offset, g_b_weight = g_offsets.sum(axis=1), g_logits.sum(axis=1)
        grads = (g_w_offset, g_b_offset, g_w_weight, g_b_weight, g_w_value, g_w_out)
        per_group = (gr[i] for i in range(g_count) for gr in grads)
        return (g_z.reshape(z.shape), *per_group, *g_maps, *g_refs)

    weights = (getattr(p, f) for p in params for f in DeformAttnParams.TENSORS)
    inputs = (z, *weights, *maps, *(ref_tensors or ()))
    return tt._emit((valued @ w_out).reshape(z.shape), inputs, vjp, selective=True)


def deform_attn(
    z: Tensor,
    refs: Sequence[ReferencePoint],
    fmap: Tensor | Sequence[Tensor],
    params: DeformAttnParams | Sequence[DeformAttnParams],
    ref_tensors: Sequence[Tensor] | None = None,
) -> Tensor:
    """Single-level deformable attention: (N, D) queries -> (N, D).

    ``fmap`` and ``params`` may also hold one map and one parameter set per
    row group: ``z`` is then G blocks of N rows, and block g samples only
    map g, under parameter set g.  The shared and parallel schemes run the
    three pyramid levels this way, as one call.

    ``ref_tensors`` optionally supplies the tiled reference pixel
    coordinates, one tensor per map, as leaf tensors so their gradients can
    be inspected; by default the reference points enter as constants
    (stop-gradient).
    """
    groups = _groups(params, DeformAttnParams)
    maps = [fmap] if isinstance(fmap, Tensor) else list(fmap)
    if any(p.num_levels != 1 for p in groups):
        raise ValueError("deform_attn expects single-level parameters")
    return _deform_core(z, refs, maps, groups, ref_tensors)


def multiscale_deform_attn(
    z: Tensor,
    refs: Sequence[ReferencePoint],
    pyramid: Sequence[Tensor],
    params: DeformAttnParams | Sequence[DeformAttnParams],
    ref_tensors: Sequence[Tensor] | None = None,
) -> Tensor:
    """Multi-level deformable attention; A normalizes over levels * points.

    Row groups work as in :func:`deform_attn`, each reading its own
    ``num_levels`` consecutive maps of ``pyramid``.
    """
    groups = _groups(params, DeformAttnParams)
    if groups[0].num_levels * len(groups) != len(pyramid):
        raise ValueError(
            f"parameters built for {groups[0].num_levels} levels per group, "
            f"got {len(pyramid)} maps for {len(groups)} groups"
        )
    return _deform_core(z, refs, list(pyramid), groups, ref_tensors)


def deform_attention_weights(z: Tensor, params: DeformAttnParams) -> np.ndarray:
    """Normalized sampling weights, shape (N, H, S*L); diagnostics helper."""
    n, h = z.shape[0], params.num_heads
    logits = z.data @ params.w_weight.data + params.b_weight.data
    return _softmax_last(logits.reshape(n, h, -1))


def _softmax_last(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
