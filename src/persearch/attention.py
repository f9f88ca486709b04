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

Each sublayer call is a single taped primitive with a hand-written
vector-Jacobian product: the heads run batched, all points of a level are
sampled with one gather, and the per-head parameter tuples are stacked
inside the call, so the tape holds one node per sublayer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    """Per-head projections plus the shared output projection.

    wq/wk/wv are H tensors of shape (d, d_k); wo is (H * d_k, d).
    """

    wq: tuple[Tensor, ...]
    wk: tuple[Tensor, ...]
    wv: tuple[Tensor, ...]
    wo: Tensor

    def __post_init__(self):
        h = len(self.wq)
        if h < 1 or len(self.wk) != h or len(self.wv) != h:
            raise ValueError("wq/wk/wv must hold the same positive head count")
        d, dk = self.wq[0].shape
        for t in (*self.wq, *self.wk, *self.wv):
            if t.shape != (d, dk):
                raise ValueError("all head projections must share one shape")
        if self.wo.shape != (h * dk, d):
            raise ValueError(
                f"wo must be ({h * dk}, {d}), got {self.wo.shape}"
            )

    @property
    def num_heads(self) -> int:
        return len(self.wq)

    @property
    def head_dim(self) -> int:
        return self.wq[0].shape[1]


def multi_head_self_attention(y: Tensor, params: MultiHeadAttnParams) -> Tensor:
    """Scaled dot-product self-attention over the rows of ``y`` (N, d).

    One taped primitive: the heads run as one batch of (H, N, .) products.
    """
    if y.ndim != 2 or y.shape[1] != params.wq[0].shape[0]:
        raise ValueError(f"input shape {y.shape} does not match projections")
    n = y.shape[0]
    inv_sqrt_dk = 1.0 / math.sqrt(params.head_dim)
    yd = y.data
    wq, wk, wv = (np.stack([t.data for t in ws]) for ws in (params.wq, params.wk, params.wv))
    wo = params.wo.data
    q, k, v = yd @ wq, yd @ wk, yd @ wv  # (H, N, d_k)
    p = _softmax_last((q @ k.transpose(0, 2, 1)) * inv_sqrt_dk)  # (H, N, N)
    heads = (p @ v).transpose(1, 0, 2).reshape(n, -1)  # (N, H*d_k), head-major

    def vjp(g):
        g_heads = (g @ wo.T).reshape(n, params.num_heads, -1).transpose(1, 0, 2)
        g_p = g_heads @ v.transpose(0, 2, 1)
        g_v = p.transpose(0, 2, 1) @ g_heads
        g_logits = p * (g_p - (g_p * p).sum(axis=2, keepdims=True)) * inv_sqrt_dk
        g_q = g_logits @ k
        g_k = g_logits.transpose(0, 2, 1) @ q
        g_y = sum(
            (gx @ wx.transpose(0, 2, 1)).sum(axis=0)
            for gx, wx in ((g_q, wq), (g_k, wk), (g_v, wv))
        )
        yt = yd.T
        return (g_y, *(yt @ g_q), *(yt @ g_k), *(yt @ g_v), heads.T @ g)

    inputs = (y, *params.wq, *params.wk, *params.wv, params.wo)
    return tt._emit(heads @ wo, inputs, vjp)


def residual_layernorm(
    y: Tensor,
    sublayer_out: Tensor,
    gamma: Tensor,
    beta: Tensor,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """layernorm(y + dropout(sublayer_out)); rate 0 skips the dropout."""
    if y.shape != sublayer_out.shape:
        raise ValueError("residual branches must have equal shapes")
    return tt.layer_norm(y + tt.dropout(sublayer_out, dropout_rate, rng), gamma, beta)


@dataclass(frozen=True)
class DeformAttnParams:
    """Parameters of one deformable attention sublayer.

    With query width D, feature channels C, H heads, S points and L levels:
    w_offset (D, 2*H*S*L) and b_offset predict per-sample pixel offsets,
    w_weight (D, H*S*L) and b_weight the (pre-softmax) sampling weights,
    w_value holds H value projections (C, D // H) and w_out H output
    projections (D // H, D).  Columns of the offset head are laid out
    head-major, then level, then sample, with x before y; the weight head
    is head-major, then level, then sample.
    """

    w_offset: Tensor
    b_offset: Tensor
    w_weight: Tensor
    b_weight: Tensor
    w_value: tuple[Tensor, ...]
    w_out: tuple[Tensor, ...]
    num_points: int
    num_levels: int = 1

    def __post_init__(self):
        h = len(self.w_value)
        s, lv = self.num_points, self.num_levels
        if h < 1 or len(self.w_out) != h or s < 1 or lv < 1:
            raise ValueError("bad head/point/level counts")
        d = self.w_offset.shape[0]
        if d % h != 0:
            raise ValueError(f"head count {h} must divide query width {d}")
        dh = d // h
        if self.w_offset.shape != (d, 2 * h * s * lv):
            raise ValueError(f"w_offset must be ({d}, {2 * h * s * lv})")
        if self.b_offset.shape != (2 * h * s * lv,):
            raise ValueError("b_offset shape mismatch")
        if self.w_weight.shape != (d, h * s * lv):
            raise ValueError(f"w_weight must be ({d}, {h * s * lv})")
        if self.b_weight.shape != (h * s * lv,):
            raise ValueError("b_weight shape mismatch")
        c = self.w_value[0].shape[0]
        for t in self.w_value:
            if t.shape != (c, dh):
                raise ValueError("w_value tensors must share shape (C, D/H)")
        for t in self.w_out:
            if t.shape != (dh, d):
                raise ValueError("w_out tensors must share shape (D/H, D)")

    @property
    def num_heads(self) -> int:
        return len(self.w_value)

    @property
    def query_width(self) -> int:
        return self.w_offset.shape[0]

    @property
    def feature_channels(self) -> int:
        return self.w_value[0].shape[0]


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
    params: DeformAttnParams,
    ref_tensors: Sequence[Tensor] | None = None,
) -> Tensor:
    """One taped primitive for a whole deformable sublayer, any level count."""
    if z.ndim != 2 or z.shape[1] != params.query_width:
        raise ValueError(f"query shape {z.shape} does not match parameters")
    n = z.shape[0]
    h, s, lv = params.num_heads, params.num_points, params.num_levels
    c = params.feature_channels
    if len(maps) != lv:
        raise ValueError(f"expected {lv} feature maps, got {len(maps)}")
    if len(refs) != n:
        raise ValueError("one reference point per query row is required")
    for fmap in maps:
        if fmap.ndim != 3 or fmap.shape[0] != c:
            raise ValueError("feature maps must be (C, H, W) with matching C")
    if ref_tensors is not None:
        ref_tensors = tuple(ref_tensors)
        if len(ref_tensors) != lv or any(t.shape != (n * s, 2) for t in ref_tensors):
            raise ValueError(f"ref_tensors must be {lv} tensors of shape ({n * s}, 2)")

    zd = z.data
    w_offset, w_weight = params.w_offset.data, params.w_weight.data
    w_value = np.stack([t.data for t in params.w_value])  # (H, C, D/H)
    w_out = np.concatenate([t.data for t in params.w_out])  # (D, D)
    offsets = (zd @ w_offset + params.b_offset.data).reshape(n, h, lv, s, 2)
    attn = deform_attention_weights(z, params)  # (N, H, L*S)

    if ref_tensors is None:
        unit_refs = np.array([(r.x, r.y) for r in refs]).reshape(n, 1, 1, 2)
    samples = np.empty((n, h, lv, s, c))
    kernels = []
    for level, fmap in enumerate(maps):
        if ref_tensors is None:
            _, fh, fw = fmap.shape
            base = unit_refs * (fw - 1.0, fh - 1.0)  # pix(P), (N, 1, 1, 2)
        else:
            base = ref_tensors[level].data.reshape(n, 1, s, 2)
        points = (offsets[:, :, level] + base).reshape(-1, 2)  # (N*H*S, 2)
        sampled, res = tt._bilinear_forward(fmap.data, points)
        samples[:, :, level] = sampled.reshape(n, h, s, c)
        kernels.append(res)
    samples = samples.reshape(n, h, lv * s, c)
    pooled = np.einsum("nhk,nhkc->nhc", attn, samples)  # (N, H, C)
    valued = np.einsum("nhc,hcd->nhd", pooled, w_value).reshape(n, -1)  # (N, D)

    def vjp(g):
        g_w_out = valued.T @ g
        g_valued = (g @ w_out.T).reshape(n, h, -1)
        g_w_value = np.einsum("nhc,nhd->hcd", pooled, g_valued)
        g_pooled = np.einsum("nhd,hcd->nhc", g_valued, w_value)
        g_attn = np.einsum("nhc,nhkc->nhk", g_pooled, samples)
        g_logits = attn * (g_attn - (g_attn * attn).sum(axis=2, keepdims=True))
        g_samples = (attn[..., None] * g_pooled[:, :, None, :]).reshape(n, h, lv, s, c)
        g_offsets = np.empty((n, h, lv, s, 2))
        g_maps, g_refs = [], []
        for level, (fmap, res) in enumerate(zip(maps, kernels)):
            g_map, g_points = tt._bilinear_vjp(
                fmap.shape, res, g_samples[:, :, level].reshape(-1, c)
            )
            g_points = g_points.reshape(n, h, s, 2)
            g_offsets[:, :, level] = g_points
            g_maps.append(g_map)
            if ref_tensors is not None:
                g_refs.append(g_points.sum(axis=1).reshape(n * s, 2))
        g_offsets = g_offsets.reshape(n, -1)
        g_logits = g_logits.reshape(n, -1)
        g_z = g_offsets @ w_offset.T + g_logits @ w_weight.T
        return (
            g_z,
            zd.T @ g_offsets,
            g_offsets.sum(axis=0),
            zd.T @ g_logits,
            g_logits.sum(axis=0),
            *g_w_value,
            *g_w_out.reshape(h, -1, g_w_out.shape[1]),
            *g_maps,
            *g_refs,
        )

    inputs = (
        z,
        params.w_offset,
        params.b_offset,
        params.w_weight,
        params.b_weight,
        *params.w_value,
        *params.w_out,
        *maps,
        *(ref_tensors or ()),
    )
    return tt._emit(valued @ w_out, inputs, vjp)


def deform_attn(
    z: Tensor,
    refs: Sequence[ReferencePoint],
    fmap: Tensor,
    params: DeformAttnParams,
    ref_tensors: Sequence[Tensor] | None = None,
) -> Tensor:
    """Single-level deformable attention: (N, D) queries -> (N, D).

    ``ref_tensors`` optionally supplies the tiled reference pixel
    coordinates as leaf tensors so their gradients can be inspected; by
    default the reference points enter as constants (stop-gradient).
    """
    if params.num_levels != 1:
        raise ValueError("deform_attn expects single-level parameters")
    return _deform_core(z, refs, [fmap], params, ref_tensors)


def multiscale_deform_attn(
    z: Tensor,
    refs: Sequence[ReferencePoint],
    pyramid: Sequence[Tensor],
    params: DeformAttnParams,
    ref_tensors: Sequence[Tensor] | None = None,
) -> Tensor:
    """Multi-level deformable attention; A normalizes over levels * points."""
    if params.num_levels != len(pyramid):
        raise ValueError(
            f"parameters built for {params.num_levels} levels, got {len(pyramid)}"
        )
    return _deform_core(z, refs, list(pyramid), params, ref_tensors)


def deform_attention_weights(z: Tensor, params: DeformAttnParams) -> np.ndarray:
    """Normalized sampling weights, shape (N, H, S*L); diagnostics helper."""
    n, h = z.shape[0], params.num_heads
    logits = z.data @ params.w_weight.data + params.b_weight.data
    return _softmax_last(logits.reshape(n, h, -1))


def _softmax_last(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
