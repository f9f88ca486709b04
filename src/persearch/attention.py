"""Attention primitives: multi-head self-attention and deformable sampling.

Self-attention follows the classic form: each head projects the input rows
with its own query/key/value matrices, applies scaled dot-product attention
softmax(QK^T / sqrt(d_k)) V, and the concatenated head outputs go through a
final output projection.  Both sublayer types are wrapped in residual
connections with layer normalization, layernorm(Y + sub).

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
tape holds one node per sublayer.  Its contractions are BLAS products
(``np.matmul``) over stacked operands: the pooling is one (1, L*S) @
(L*S, C) product per (row, head), the value projection one (N, C) @
(C, D/H) product per (block, head), and the VJP's value-projection,
pooled and sampling-weight gradients the matching products.  They round
differently from the equivalent ``np.einsum`` sums, within 1e-12
relative, and take less time at these sizes.

With ``blocks`` G, a sublayer runs G equal blocks of rows as one batch
under one parameter set, each tensor field shared by every block or one
value per block along a leading axis of G; self-attention never mixes
rows of different blocks.  The deformable sublayers read their maps as R
runs of L maps, block g reading run g mod R, from one zero-padded value
table (:class:`persearch.tensor.ValueTable`) that flattens the maps once,
as Deformable DETR flattens its pyramid.  The re-ID transformer builds
that table once per forward and every deformable sublayer samples it;
given map Tensors instead, :func:`deform_attn` and
:func:`multiscale_deform_attn` build it per call.  One table serves every
scheme: the per-level schemes read it as R = 3 runs of one map, the
multi-scale ones as one run of 3 maps.  The deformable VJP skips the
feature-map scatter for maps that do not depend on a gradient source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    Each may also carry a leading block axis, one value per row block.
    The shapes are checked when the view is built.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    # Whether each tensor field carries a leading block axis, in field order.
    per_block: tuple[bool, ...] = field(init=False, repr=False, compare=False)

    # The tensor fields, in order.
    TENSORS: ClassVar[tuple[str, ...]] = ("wq", "wk", "wv", "wo")

    def __post_init__(self):
        if self.wq.ndim not in (3, 4) or self.wq.shape[-3] < 1:
            raise ValueError(f"wq must be (H, d, d_k), got {self.wq.shape}")
        object.__setattr__(self, "per_block", _block_axes(self))

    def block_shapes(self) -> dict[str, tuple[int, ...]]:
        """Each tensor field's shape for one row block, in field order."""
        h, d, dk = self.wq.shape[-3:]
        return {"wq": (h, d, dk), "wk": (h, d, dk), "wv": (h, d, dk), "wo": (h * dk, d)}

    @property
    def num_heads(self) -> int:
        return self.wq.shape[-3]

    @property
    def head_dim(self) -> int:
        return self.wq.shape[-1]


def _block_axes(params) -> tuple[bool, ...]:
    """Whether each tensor field of ``params`` holds one value per row
    block rather than one that every block shares.  Raises unless a field
    has its one-block shape or that shape behind a leading block axis."""
    own = []
    for name, shape in params.block_shapes().items():
        a = getattr(params, name)
        own.append(a.shape != shape)
        if own[-1] and a.shape[1:] != shape:
            raise ValueError(f"{name} must be {shape}, or one per row block, got {a.shape}")
    return tuple(own)


def _fields(params, blocks: int) -> tuple[list[np.ndarray], tuple[bool, ...]]:
    """Each tensor field's data, and whether it holds one value per row
    block (see :func:`_block_axes`, which checked the shapes when
    ``params`` was built).  Raises unless each per-block field holds
    ``blocks`` values."""
    data = [getattr(params, name).data for name in params.TENSORS]
    for name, a, own in zip(params.TENSORS, data, params.per_block):
        if own and a.shape[0] != blocks:
            shape = params.block_shapes()[name]
            raise ValueError(f"{name} must be {shape}, or one per row block ({blocks}), got {a.shape}")
    return data, params.per_block


def _fold(grads, own) -> tuple[np.ndarray, ...]:
    """Per-block field gradients, (G, ...) each, summed over the blocks in
    block order for the fields every block shares."""
    return tuple(g if o else np.add.reduce(g, axis=0) for g, o in zip(grads, own))


def _row_blocks(x: Tensor, blocks: int) -> int:
    """Rows per block when the rows of ``x`` form ``blocks`` equal blocks."""
    if x.ndim != 2 or blocks < 1 or x.shape[0] % blocks != 0:
        raise ValueError(f"{x.shape[0]} rows do not split into {blocks} equal blocks")
    return x.shape[0] // blocks


def multi_head_self_attention(y: Tensor, params: MultiHeadAttnParams, blocks: int = 1) -> Tensor:
    """Scaled dot-product self-attention over the rows of ``y`` (N, d).

    With ``blocks`` G, ``y`` is G blocks of N rows, and a row attends only
    to the rows of its own block, under that block's projections.

    One taped primitive: the (block, head) pairs run as one batch of
    (N, .) products.
    """
    if y.ndim != 2 or y.shape[1] != params.wq.shape[-2]:
        raise ValueError(f"input shape {y.shape} does not match projections")
    n = _row_blocks(y, blocks)
    (wq, wk, wv, wo), own = _fields(params, blocks)
    h = params.num_heads
    inv_sqrt_dk = 1.0 / math.sqrt(params.head_dim)
    yd = y.data.reshape(blocks, 1, n, -1)
    q, k, v = yd @ wq, yd @ wk, yd @ wv  # (G, H, N, d_k)
    p = tt._softmax_last((q @ k.swapaxes(2, 3)) * inv_sqrt_dk)  # (G, H, N, N)
    heads = (p @ v).transpose(0, 2, 1, 3).reshape(blocks, n, -1)  # (G, N, H*d_k), head-major

    def vjp(g):
        g = g.reshape(blocks, n, -1)
        g_heads = (g @ wo.swapaxes(-1, -2)).reshape(blocks, n, h, -1).transpose(0, 2, 1, 3)
        g_p = g_heads @ v.swapaxes(2, 3)
        g_v = p.swapaxes(2, 3) @ g_heads
        g_logits = p * (g_p - np.add.reduce(g_p * p, axis=3, keepdims=True)) * inv_sqrt_dk
        g_q = g_logits @ k
        g_k = g_logits.swapaxes(2, 3) @ q
        g_y = sum(
            np.add.reduce(gx @ wx.swapaxes(-1, -2), axis=1)
            for gx, wx in ((g_q, wq), (g_k, wk), (g_v, wv))
        )
        yt = yd.swapaxes(2, 3)
        grads = (yt @ g_q, yt @ g_k, yt @ g_v, heads.swapaxes(1, 2) @ g)
        return (g_y.reshape(y.shape), *_fold(grads, own))

    inputs = (y, *(getattr(params, f) for f in params.TENSORS))
    return tt._emit((heads @ wo).reshape(y.shape), inputs, vjp)


def residual_layernorm(
    y: Tensor, sublayer_out: Tensor, gamma: Tensor, beta: Tensor, blocks: int = 1
) -> Tensor:
    """layernorm(y + sublayer_out).

    ``gamma`` and ``beta`` may hold one row per block of rows, as
    :func:`persearch.tensor.layer_norm` describes.
    """
    if y.shape != sublayer_out.shape:
        raise ValueError("residual branches must have equal shapes")
    return tt.layer_norm(y + sublayer_out, gamma, beta, blocks)


@dataclass(frozen=True)
class DeformAttnParams:
    """Parameters of one deformable attention sublayer.

    With query width D, feature channels C, H heads, S points and L levels:
    w_offset (D, 2*H*S*L) and b_offset predict per-sample pixel offsets,
    w_weight (D, H*S*L) and b_weight the (pre-softmax) sampling weights,
    w_value (H, C, D // H) stacks the H value projections and w_out (D, D)
    the H output projections, rows h*D/H to (h+1)*D/H being head h.  Each
    may also carry a leading block axis, one value per row block; the
    shapes are checked when the view is built.  Columns of the offset
    head are laid out head-major, then level, then sample, with x before
    y; the weight head is head-major, then level, then sample.
    """

    w_offset: Tensor
    b_offset: Tensor
    w_weight: Tensor
    b_weight: Tensor
    w_value: Tensor
    w_out: Tensor
    num_points: int
    num_levels: int = 1
    # Whether each tensor field carries a leading block axis, in field order.
    per_block: tuple[bool, ...] = field(init=False, repr=False, compare=False)

    # The tensor fields, in order.
    TENSORS: ClassVar[tuple[str, ...]] = (
        "w_offset", "b_offset", "w_weight", "b_weight", "w_value", "w_out"
    )

    def __post_init__(self):
        if self.w_value.ndim not in (3, 4):
            raise ValueError(f"w_value must be (H, C, D/H), got {self.w_value.shape}")
        if self.w_value.shape[-3] < 1 or self.num_points < 1 or self.num_levels < 1:
            raise ValueError("bad head/point/level counts")
        object.__setattr__(self, "per_block", _block_axes(self))

    def block_shapes(self) -> dict[str, tuple[int, ...]]:
        """Each tensor field's shape for one row block, in field order; the
        query width is H * D/H, from ``w_value``."""
        h, c, dh = self.w_value.shape[-3:]
        d, k = h * dh, h * self.num_points * self.num_levels
        shapes = ((d, 2 * k), (2 * k,), (d, k), (k,), (h, c, dh), (d, d))
        return dict(zip(self.TENSORS, shapes))

    @property
    def num_heads(self) -> int:
        return self.w_value.shape[-3]

    @property
    def query_width(self) -> int:
        return self.w_offset.shape[-2]

    @property
    def feature_channels(self) -> int:
        return self.w_value.shape[-2]


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


def _reference_array(refs: Sequence[ReferencePoint] | np.ndarray) -> np.ndarray:
    """(N, 2) normalized (x, y) reference coordinates, one row per point."""
    return refs if isinstance(refs, np.ndarray) else np.array([(r.x, r.y) for r in refs]).reshape(-1, 2)


def _value_table(maps: tt.ValueTable | Tensor | Sequence[Tensor]) -> tt.ValueTable:
    """``maps`` as a value table, built here when given map Tensors."""
    if isinstance(maps, tt.ValueTable):
        return maps
    return tt.value_table([maps] if isinstance(maps, Tensor) else maps)


def _deform_core(
    z: Tensor,
    refs: np.ndarray,
    table: tt.ValueTable,
    params: DeformAttnParams,
    blocks: int,
) -> Tensor:
    """One taped primitive for a whole deformable sublayer.

    ``z`` is G = ``blocks`` blocks of len(refs) rows, the maps of ``table``
    R runs of L = num_levels maps, and block g samples run g mod R under its
    own values of ``params``.  The (N, 2) reference coordinates ``refs`` are
    shared by every block and enter as constants (stop-gradient), as in
    Deformable DETR.
    """
    if z.ndim != 2 or z.shape[1] != params.query_width:
        raise ValueError(f"query shape {z.shape} does not match parameters")
    g_count, n = blocks, _row_blocks(z, blocks)
    if len(refs) != n:
        raise ValueError("one reference point per query row of a block is required")
    h, s, lv, c = params.num_heads, params.num_points, params.num_levels, params.feature_channels
    maps = table.maps
    runs = len(maps) // lv
    if runs < 1 or len(maps) % lv or g_count % runs or table.rows.shape[1] != c:
        shapes = [f.shape for f in maps]
        raise ValueError(f"{g_count} blocks need runs of {lv} ({c}, H, W) feature maps, got {shapes}")
    (w_offset, b_offset, w_weight, b_weight, w_value, w_out), own = _fields(params, g_count)
    # A block axis leads every per-block field: (G, 1, .) biases and a
    # (G, H, C, D/H) value projection.
    b_offset, b_weight = (b if b.ndim == 1 else b[:, None] for b in (b_offset, b_weight))

    zd = z.data.reshape(g_count, n, -1)
    offsets = (zd @ w_offset + b_offset).reshape(g_count, n, h, lv, s, 2)
    attn = tt._softmax_last((zd @ w_weight + b_weight).reshape(g_count * n, h, -1))  # (G*N, H, L*S)

    # Every (block, level) pair samples its map at N*H*S points, all with
    # one kernel call; the point blocks run block-major, then level.
    base = (refs * table.extents[:, None]).reshape(runs, lv, n, 1, 1, 2)  # pix(P) per map
    points = offsets.transpose(0, 3, 1, 2, 4, 5).reshape(-1, runs, lv, n, h, s, 2) + base
    sampled, kernel = tt._bilinear_forward(table, points.reshape(g_count * lv, -1, 2))
    samples = (
        sampled.reshape(g_count, lv, n, h, s, c)
        .transpose(0, 2, 3, 1, 4, 5)
        .reshape(g_count * n, h, lv * s, c)
    )
    pooled = (attn[:, :, None] @ samples).reshape(g_count, n, h, c)  # (G*N, H, 1, L*S) @ (G*N, H, L*S, C)
    # (G, H, N, C) @ (H or G, H, C, D/H), then back to (G, N, D) head-major.
    valued = (pooled.transpose(0, 2, 1, 3) @ w_value).transpose(0, 2, 1, 3).reshape(g_count, n, -1)
    maps_at = 1 + len(own)  # index of maps[0] among the inputs

    def vjp(g, needs):
        g = g.reshape(g_count, n, -1)
        g_w_out = valued.swapaxes(1, 2) @ g
        g_valued = (g @ w_out.swapaxes(-1, -2)).reshape(g_count, n, h, -1).transpose(0, 2, 1, 3)  # (G, H, N, D/H)
        g_w_value = pooled.transpose(0, 2, 3, 1) @ g_valued  # (G, H, C, D/H)
        g_pooled = (g_valued @ w_value.swapaxes(-1, -2)).transpose(0, 2, 1, 3).reshape(g_count * n, h, c)
        g_attn = (samples @ g_pooled[..., None]).reshape(g_count * n, h, -1)  # (G*N, H, L*S)
        g_logits = attn * (g_attn - np.add.reduce(g_attn * attn, axis=2, keepdims=True))
        g_samples = (
            (attn[..., None] * g_pooled[:, :, None, :])
            .reshape(g_count, n, h, lv, s, c)
            .transpose(0, 3, 1, 2, 4, 5)
            .reshape(-1, c)
        )
        g_maps, g_points = tt._bilinear_vjp(table, kernel, g_samples, needs[maps_at : maps_at + len(maps)])
        g_points = g_points.reshape(g_count, lv, n, h, s, 2)
        g_offsets = g_points.transpose(0, 2, 3, 1, 4, 5).reshape(g_count, n, -1)
        g_logits = g_logits.reshape(g_count, n, -1)
        g_z = g_offsets @ w_offset.swapaxes(-1, -2) + g_logits @ w_weight.swapaxes(-1, -2)
        zt = zd.swapaxes(1, 2)
        grads = (
            zt @ g_offsets, np.add.reduce(g_offsets, axis=1),
            zt @ g_logits, np.add.reduce(g_logits, axis=1),
            g_w_value, g_w_out,
        )
        return (g_z.reshape(z.shape), *_fold(grads, own), *g_maps)

    inputs = (z, *(getattr(params, f) for f in DeformAttnParams.TENSORS), *maps)
    return tt._emit((valued @ w_out).reshape(z.shape), inputs, vjp, selective=True)


def deform_attn(
    z: Tensor,
    refs: Sequence[ReferencePoint] | np.ndarray,
    fmap: Tensor | Sequence[Tensor] | tt.ValueTable,
    params: DeformAttnParams,
    blocks: int = 1,
) -> Tensor:
    """Single-level deformable attention: (N, D) queries -> (N, D).

    With ``blocks`` G, ``z`` is G blocks of N rows and ``fmap`` may hold R
    maps: block g then samples map g mod R, under its own values of
    ``params``.  The shared and parallel schemes run the three pyramid
    levels this way, as one call.  ``fmap`` may also be the maps' prebuilt
    :class:`persearch.tensor.ValueTable`, and ``refs`` an (N, 2) array of
    normalized coordinates.
    """
    if params.num_levels != 1:
        raise ValueError("deform_attn expects single-level parameters")
    return _deform_core(z, _reference_array(refs), _value_table(fmap), params, blocks)


def multiscale_deform_attn(
    z: Tensor,
    refs: Sequence[ReferencePoint] | np.ndarray,
    pyramid: Sequence[Tensor] | tt.ValueTable,
    params: DeformAttnParams,
    blocks: int = 1,
) -> Tensor:
    """Multi-level deformable attention; A normalizes over levels * points.

    Row blocks work as in :func:`deform_attn`, block g reading run g mod R
    of the R runs of ``num_levels`` consecutive maps in ``pyramid``, which
    may also be given as their value table.
    """
    return _deform_core(z, _reference_array(refs), _value_table(pyramid), params, blocks)
