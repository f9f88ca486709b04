"""The re-ID transformer: learnable queries refined over a feature pyramid.

A model holds N learnable re-ID query rows and M transformer layers.  Each
layer is one self-attention sublayer followed by K deformable cross-attention
sublayers, every sublayer wrapped in residual + layernorm.  The first
layer's self-attention is skipped by default: before any cross-attention has
run, all query rows carry no scene evidence worth exchanging.

Four multi-scale schemes cover how the three pyramid levels are consumed:

* ``shared``    - one parameter stack applied to each level independently,
                  producing three (N, d) embeddings.
* ``parallel``  - three independent stacks, one per level, also 3 x (N, d).
* ``multi_scale_d``  - a single width-d stack whose cross-attention samples
                  all three levels (softmax over 3*S per head), one (N, d).
* ``multi_scale_3d`` - as above but the queries and stack live in width 3d,
                  one (N, 3d).

The two per-level schemes run their three levels as one batch: the queries
are tiled into three blocks of N rows, one per level, and each sublayer is a
single call over all 3N rows.  Block l samples only level l and sees only
its own block in self-attention, under level l's parameters (the same
tensors three times for ``shared``), so every block computes exactly what
a separate pass over level l would.  The blocks are split back into the
three per-scale embeddings at the end.

For matching, per-scale embeddings are concatenated per row and
l2-normalized, so shared/parallel match in 3d dimensions, multi_scale_d in
d, and multi_scale_3d in 3d.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as tt
from .attention import (
    DeformAttnParams,
    MultiHeadAttnParams,
    ReferencePoint,
    deform_attn,
    multi_head_self_attention,
    multiscale_deform_attn,
    residual_layernorm,
    ring_offset_bias,
)
from .errors import reading
from .tensor import Tensor, read_blob, write_blob

__all__ = [
    "SCHEMES",
    "NUM_LEVELS",
    "ReIDConfig",
    "ReIDLayerParams",
    "ReIDEmbeddings",
    "ReIDTransformer",
    "reid_layer_forward",
    "concat_inference_embeddings",
]

SCHEMES = ("shared", "parallel", "multi_scale_d", "multi_scale_3d")
NUM_LEVELS = 3

_QUERY_INIT_STD = 0.02


@dataclass
class ReIDConfig:
    """Shape and wiring of the re-ID transformer."""

    dim: int = 32
    heads: int = 4
    points: int = 4
    m_layers: int = 2
    k_cross: int = 2
    num_queries: int = 4
    scheme: str = "shared"
    skip_first_self_attention: bool = True
    use_self_attention: bool = True
    dropout: float = 0.0
    track_reference_gradients: bool = False

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        for name in ("dim", "heads", "points", "m_layers", "k_cross", "num_queries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.dim % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide dim ({self.dim})")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")

    @property
    def query_width(self) -> int:
        """Width the queries and stack operate in (3d for multi_scale_3d)."""
        return 3 * self.dim if self.scheme == "multi_scale_3d" else self.dim

    @property
    def match_dim(self) -> int:
        """Width of the final matching embedding."""
        return self.dim if self.scheme == "multi_scale_d" else 3 * self.dim

    @property
    def cross_levels(self) -> int:
        """Pyramid levels one cross-attention call consumes."""
        return NUM_LEVELS if self.scheme in ("multi_scale_d", "multi_scale_3d") else 1

    @property
    def num_stacks(self) -> int:
        return NUM_LEVELS if self.scheme == "parallel" else 1

    @property
    def output_scales(self) -> int:
        """Per-scale embedding matrices the forward pass emits."""
        return 1 if self.scheme in ("multi_scale_d", "multi_scale_3d") else NUM_LEVELS

    def has_self_attention(self, layer: int) -> bool:
        if not self.use_self_attention:
            return False
        if layer == 0 and self.skip_first_self_attention:
            return False
        return True


@dataclass(frozen=True)
class ReIDLayerParams:
    """View of one layer's parameters (self-attention may be absent)."""

    self_attn: MultiHeadAttnParams | None
    self_attn_norm: tuple[Tensor, Tensor] | None
    cross: tuple[DeformAttnParams, ...]
    cross_norms: tuple[tuple[Tensor, Tensor], ...]


@dataclass(frozen=True)
class ReIDEmbeddings:
    """Per-scale query embeddings: three (N, d) tensors for shared/parallel,
    a single tensor for the multi-scale schemes."""

    per_scale: tuple[Tensor, ...]
    scheme: str


def reid_layer_forward(
    y: Tensor,
    refs: Sequence[ReferencePoint],
    maps: Sequence[Tensor],
    layer: ReIDLayerParams | Sequence[ReIDLayerParams],
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    ref_tensors: Sequence[Tensor] | None = None,
) -> Tensor:
    """One transformer layer: optional self-attention, then K cross sublayers.

    ``layer`` may also hold one parameter view per row group: ``y`` is then
    one block of rows per group, block g reads the g-th run of
    ``num_levels`` maps, and self-attention mixes rows only within a block.
    """
    groups = (layer,) if isinstance(layer, ReIDLayerParams) else tuple(layer)
    if groups[0].self_attn is not None:
        y = residual_layernorm(
            y,
            multi_head_self_attention(y, [v.self_attn for v in groups]),
            [v.self_attn_norm[0] for v in groups],
            [v.self_attn_norm[1] for v in groups],
            dropout_rate,
            rng,
        )
    for k, attn_params in enumerate(groups[0].cross):
        cross = [v.cross[k] for v in groups]
        deform = deform_attn if attn_params.num_levels == 1 else multiscale_deform_attn
        sub = deform(y, refs, maps, cross, ref_tensors)
        y = residual_layernorm(
            y,
            sub,
            [v.cross_norms[k][0] for v in groups],
            [v.cross_norms[k][1] for v in groups],
            dropout_rate,
            rng,
        )
    return y


def concat_inference_embeddings(emb: ReIDEmbeddings) -> Tensor:
    """Row-wise concat of the per-scale embeddings, l2-normalized per row."""
    if len(emb.per_scale) == 1:
        return tt.l2_normalize_rows(emb.per_scale[0])
    return tt.l2_normalize_rows(tt.concat_cols(emb.per_scale))


class ReIDTransformer:
    """Query set plus parameter stacks, stored as a flat name -> Tensor dict.

    Naming: ``queries`` and then per stack ``stack`` (``stack0..2`` for the
    parallel scheme), per layer ``.layer{m}``, with ``sa.*`` / ``sa_norm.*``
    for self-attention and ``cross{k}.*`` / ``cross{k}_norm.*`` for the
    deformable sublayers.
    """

    def __init__(self, config: ReIDConfig, params: dict[str, Tensor]):
        config.validate()
        self.config = config
        self.params = params
        self.last_ref_tensors: dict[int, Tensor] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def init(cls, config: ReIDConfig, seed: int, style: str = "train") -> "ReIDTransformer":
        """Build a model with seeded parameters.

        ``train`` style zero-initializes every residual branch's output
        projection (self-attention W^O, deformable W_h) and the offset and
        weight heads (offset biases on the unit ring), so an untrained model
        is scene-agnostic and early updates stay well-scaled.  ``random``
        style draws every tensor from scaled Gaussians; gradient checks use
        it so that no analytic gradient is hidden behind a zero.
        """
        config.validate()
        if style not in ("train", "random"):
            raise ValueError(f"unknown init style {style!r}")
        rng = np.random.default_rng(seed)
        params: dict[str, Tensor] = {}

        def xavier(fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))

        def gauss(*shape):
            fan_in = shape[0] if len(shape) > 1 else max(shape[0], 1)
            return rng.standard_normal(shape) * (0.5 / np.sqrt(fan_in))

        train = style == "train"
        width = config.query_width
        c_feat = config.dim
        h, s, lv = config.heads, config.points, config.cross_levels
        dh = width // h

        params["queries"] = Tensor(
            rng.standard_normal((config.num_queries, width)) * _QUERY_INIT_STD
            if train
            else rng.standard_normal((config.num_queries, width)) * 0.5
        )

        for stack in _stack_names(config):
            for m in range(config.m_layers):
                base = f"{stack}.layer{m}"
                if config.has_self_attention(m):
                    for head in range(h):
                        params[f"{base}.sa.wq{head}"] = Tensor(
                            xavier(width, dh) if train else gauss(width, dh)
                        )
                        params[f"{base}.sa.wk{head}"] = Tensor(
                            xavier(width, dh) if train else gauss(width, dh)
                        )
                        params[f"{base}.sa.wv{head}"] = Tensor(
                            xavier(width, dh) if train else gauss(width, dh)
                        )
                    params[f"{base}.sa.wo"] = Tensor(
                        np.zeros((h * dh, width)) if train else gauss(h * dh, width)
                    )
                    params[f"{base}.sa_norm.gamma"] = Tensor(
                        np.ones(width)
                        if train
                        else 1.0 + 0.1 * rng.standard_normal(width)
                    )
                    params[f"{base}.sa_norm.beta"] = Tensor(
                        np.zeros(width)
                        if train
                        else 0.1 * rng.standard_normal(width)
                    )
                for k in range(config.k_cross):
                    cb = f"{base}.cross{k}"
                    ring = ring_offset_bias(h, s, lv)
                    params[f"{cb}.w_offset"] = Tensor(
                        np.zeros((width, 2 * h * s * lv))
                        if train
                        else gauss(width, 2 * h * s * lv)
                    )
                    params[f"{cb}.b_offset"] = Tensor(
                        ring if train else ring + 0.3 * rng.standard_normal(ring.shape)
                    )
                    params[f"{cb}.w_weight"] = Tensor(
                        np.zeros((width, h * s * lv))
                        if train
                        else gauss(width, h * s * lv)
                    )
                    params[f"{cb}.b_weight"] = Tensor(
                        np.zeros(h * s * lv)
                        if train
                        else 0.3 * rng.standard_normal(h * s * lv)
                    )
                    for head in range(h):
                        params[f"{cb}.w_value{head}"] = Tensor(
                            xavier(c_feat, dh) if train else gauss(c_feat, dh)
                        )
                        params[f"{cb}.w_out{head}"] = Tensor(
                            np.zeros((dh, width)) if train else gauss(dh, width)
                        )
                    params[f"{cb}_norm.gamma"] = Tensor(
                        np.ones(width)
                        if train
                        else 1.0 + 0.1 * rng.standard_normal(width)
                    )
                    params[f"{cb}_norm.beta"] = Tensor(
                        np.zeros(width)
                        if train
                        else 0.1 * rng.standard_normal(width)
                    )
        return cls(config, params)

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def _layer_view(
        self, stack: str, m: int, params: dict[str, Tensor] | None = None
    ) -> ReIDLayerParams:
        """Layer m of ``stack`` in ``params`` (default: the model's own)."""
        cfg = self.config
        p = self.params if params is None else params
        base = f"{stack}.layer{m}"
        sa = sa_norm = None
        if cfg.has_self_attention(m):
            sa = MultiHeadAttnParams(
                wq=tuple(p[f"{base}.sa.wq{h}"] for h in range(cfg.heads)),
                wk=tuple(p[f"{base}.sa.wk{h}"] for h in range(cfg.heads)),
                wv=tuple(p[f"{base}.sa.wv{h}"] for h in range(cfg.heads)),
                wo=p[f"{base}.sa.wo"],
            )
            sa_norm = (p[f"{base}.sa_norm.gamma"], p[f"{base}.sa_norm.beta"])
        cross = []
        norms = []
        for k in range(cfg.k_cross):
            cb = f"{base}.cross{k}"
            cross.append(
                DeformAttnParams(
                    w_offset=p[f"{cb}.w_offset"],
                    b_offset=p[f"{cb}.b_offset"],
                    w_weight=p[f"{cb}.w_weight"],
                    b_weight=p[f"{cb}.b_weight"],
                    w_value=tuple(p[f"{cb}.w_value{h}"] for h in range(cfg.heads)),
                    w_out=tuple(p[f"{cb}.w_out{h}"] for h in range(cfg.heads)),
                    num_points=cfg.points,
                    num_levels=cfg.cross_levels,
                )
            )
            norms.append((p[f"{cb}_norm.gamma"], p[f"{cb}_norm.beta"]))
        return ReIDLayerParams(sa, sa_norm, tuple(cross), tuple(norms))

    def _check_inputs(self, pyramid, refs):
        cfg = self.config
        if len(pyramid) != NUM_LEVELS:
            raise ValueError(f"expected a {NUM_LEVELS}-level pyramid")
        for fmap in pyramid:
            if fmap.ndim != 3 or fmap.shape[0] != cfg.dim:
                raise ValueError(
                    f"feature maps must be ({cfg.dim}, H, W), got {fmap.shape}"
                )
        if len(refs) != cfg.num_queries:
            raise ValueError(
                f"need {cfg.num_queries} reference points, got {len(refs)}"
            )

    def _ref_tensors(self, refs, maps) -> list[Tensor] | None:
        """Reference pixels of every level as leaf tensors, when tracked."""
        if not self.config.track_reference_gradients:
            return None
        out = []
        for lvl, fmap in enumerate(maps):
            _, fh, fw = fmap.shape
            px = np.array([r.to_pixels(fw, fh) for r in refs])
            t = Tensor(np.repeat(px, self.config.points, axis=0))
            self.last_ref_tensors[lvl] = t
            out.append(t)
        return out

    def forward(
        self,
        pyramid: Sequence[Tensor],
        refs: Sequence[ReferencePoint],
        rng: np.random.Generator | None = None,
        param_sets: Sequence[dict[str, Tensor]] | None = None,
    ) -> ReIDEmbeddings | list[ReIDEmbeddings]:
        """Refine the query set against the pyramid; returns per-scale rows.

        The per-level schemes run one block of query rows per level through
        the stack together (see the module docstring).

        ``param_sets`` evaluates B parameter dicts, each with the names and
        shapes of ``self.params``, in place of the model's own, in the same
        pass over the same scene: each set adds its own row blocks (set b
        at level l is one block for the per-level schemes) under its own
        layer views.  The result is then a list of one ``ReIDEmbeddings``
        per set, each bit-identical to that set's own forward; with dropout
        the masks are drawn over the whole batch.  The gradient check
        evaluates its probes this way.
        """
        cfg = self.config
        self._check_inputs(pyramid, refs)
        sets = [self.params] if param_sets is None else list(param_sets)
        self.last_ref_tensors = {}
        maps = list(pyramid) * len(sets)
        ref_t = self._ref_tensors(refs, pyramid)
        if ref_t is not None:
            ref_t *= len(sets)
        blocks = cfg.output_scales
        y = tt.tile_rows([ps["queries"] for ps in sets], blocks)
        repeats = NUM_LEVELS if cfg.scheme == "shared" else 1
        for m in range(cfg.m_layers):
            views = []
            for ps in sets:
                views += [self._layer_view(stack, m, ps) for stack in _stack_names(cfg)] * repeats
            y = reid_layer_forward(y, refs, maps, views, cfg.dropout, rng, ref_t)
        rows = tt.split_rows(y, len(sets) * blocks)
        out = [
            ReIDEmbeddings(rows[b * blocks : (b + 1) * blocks], cfg.scheme)
            for b in range(len(sets))
        ]
        return out[0] if param_sets is None else out

    def matching_embeddings(
        self,
        pyramid: Sequence[Tensor],
        refs: Sequence[ReferencePoint],
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """(N, match_dim) unit-norm rows used for similarity search."""
        return concat_inference_embeddings(self.forward(pyramid, refs, rng))

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def transformer_param_count(self) -> int:
        """Parameter scalars in the stacks (queries excluded)."""
        return sum(t.size for name, t in self.params.items() if name != "queries")

    def total_param_count(self) -> int:
        return sum(t.size for t in self.params.values())

    def save(self, directory) -> None:
        """Write one blob per tensor plus a manifest, deterministically."""
        os.makedirs(directory, exist_ok=True)
        tensors = {}
        for i, name in enumerate(sorted(self.params)):
            fname = f"t{i:04d}.sqt"
            write_blob(os.path.join(directory, fname), self.params[name])
            tensors[name] = fname
        manifest = {
            "format_version": 1,
            "kind": "reid_transformer",
            "config": asdict(self.config),
            "tensors": tensors,
        }
        with open(os.path.join(directory, "model.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, directory) -> "ReIDTransformer":
        """Read a model saved by :meth:`save`; raises DataError when malformed."""
        path = os.path.join(directory, "model.json")
        with reading(path):
            with open(path) as fh:
                manifest = json.load(fh)
            if manifest.get("kind") != "reid_transformer":
                raise ValueError("not a model checkpoint")
            config = ReIDConfig(**manifest["config"])
            params = {
                name: read_blob(os.path.join(directory, fname))
                for name, fname in manifest["tensors"].items()
            }
            return cls(config, params)


def _stack_names(config: ReIDConfig) -> list[str]:
    if config.scheme == "parallel":
        return [f"stack{i}" for i in range(NUM_LEVELS)]
    return ["stack"]
