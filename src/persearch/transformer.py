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
its own block in self-attention, under level l's parameters: ``shared``
passes each of its tensors once for all three blocks, and ``parallel``
stacks its three stacks' tensors along a leading block axis.  So every
block computes exactly what a separate pass over level l would.  The
forward returns the blocks as they are, one stacked tensor with the three
per-scale embeddings in level order, and the training loss scores them so.

For matching, per-scale embeddings are concatenated per row and
l2-normalized, so shared/parallel match in 3d dimensions, multi_scale_d in
d, and multi_scale_3d in 3d.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as tt
from .attention import (
    DeformAttnParams,
    MultiHeadAttnParams,
    ReferencePoint,
    _reference_array,
    deform_attn,
    multi_head_self_attention,
    multiscale_deform_attn,
    residual_layernorm,
    ring_offset_bias,
)
from .errors import read_manifest, reading, write_manifest
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
# Version 3: stacked attention projections, no dropout or reference-gradient keys.
_FORMAT_VERSION = 3

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

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        for name in ("dim", "heads", "points", "m_layers", "k_cross", "num_queries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.dim % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide dim ({self.dim})")

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
    """Query embeddings of every output scale, stacked: ``rows`` holds
    ``scales`` equal blocks of rows in scale order, three (N, d) blocks
    for shared/parallel and one for the multi-scale schemes."""

    rows: Tensor
    scales: int
    scheme: str

    @property
    def per_scale(self) -> tuple[Tensor, ...]:
        """The blocks of ``rows`` as tensors of their own, one per scale."""
        return tt.split_rows(self.rows, self.scales)


def reid_layer_forward(
    y: Tensor,
    refs: Sequence[ReferencePoint] | np.ndarray,
    maps: Sequence[Tensor] | tt.ValueTable,
    layer: ReIDLayerParams,
    sublayers: slice = slice(None),
) -> Tensor:
    """One transformer layer: optional self-attention, then K cross sublayers.

    ``y`` may also hold G blocks of len(refs) rows.  Each tensor of
    ``layer`` is then shared by every block or holds one value per block
    along a leading axis of G, block g reads run g mod R of the R runs of
    ``num_levels`` maps, and self-attention mixes rows only within a block.
    ``sublayers`` runs only that slice of the layer's sublayers, in the
    order self-attention (when present), cross0, cross1, ...  ``refs`` and
    ``maps`` go to every cross sublayer as given, so passing the (N, 2)
    reference array and the maps' value table shares them among all K.
    """
    if y.ndim != 2 or len(refs) == 0 or y.shape[0] % len(refs) != 0:
        raise ValueError(f"{y.shape} rows do not form blocks of {len(refs)} queries")
    blocks = y.shape[0] // len(refs)
    steps = []  # (sublayer, its residual norm) in order
    if layer.self_attn is not None:
        steps.append((lambda y: multi_head_self_attention(y, layer.self_attn, blocks), layer.self_attn_norm))
    for params, norm in zip(layer.cross, layer.cross_norms):
        deform = deform_attn if params.num_levels == 1 else multiscale_deform_attn
        steps.append((lambda y, f=deform, p=params: f(y, refs, maps, p, blocks), norm))
    for attend, norm in steps[sublayers]:
        y = residual_layernorm(y, attend(y), *norm, blocks)
    return y


def concat_inference_embeddings(emb: ReIDEmbeddings) -> Tensor:
    """Row-wise concat of the per-scale embeddings, l2-normalized per row."""
    if emb.scales == 1:
        return tt.l2_normalize_rows(emb.rows)
    return tt.l2_normalize_rows(tt.concat_cols(emb.per_scale))


class ReIDTransformer:
    """Query set plus parameter stacks, stored as a flat name -> Tensor dict.

    Naming: ``queries`` and then per stack ``stack`` (``stack0..2`` for the
    parallel scheme), per layer ``.layer{m}``, with ``sa.*`` / ``sa_norm.*``
    for self-attention and ``cross{k}.*`` / ``cross{k}_norm.*`` for the
    deformable sublayers.  The last part of a name is the field of
    :class:`MultiHeadAttnParams` or :class:`DeformAttnParams` it fills, or
    ``gamma`` / ``beta`` of a layer norm.  Each projection is one tensor
    for all heads: ``sa.wq``, ``sa.wk`` and ``sa.wv`` are (H, D, D/H),
    ``cross{k}.w_value`` is (H, C, D/H) and ``cross{k}.w_out`` is (D, D)
    with one block of D/H rows per head.
    """

    def __init__(self, config: ReIDConfig, params: dict[str, Tensor]):
        config.validate()
        self.config = config
        self.params = params

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
        train = style == "train"

        def xavier(shape):
            limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
            return rng.uniform(-limit, limit, size=shape)

        def gauss(shape):
            return rng.standard_normal(shape) * (0.5 / np.sqrt(shape[-2]))

        def normal(std):
            return lambda shape: std * rng.standard_normal(shape)

        def fill(prefix, table, heads=1):
            """Add the tensors of ``table`` rows (name, shape, train init,
            random init) under ``prefix``, drawn in row order.

            With ``heads`` > 1 each tensor is that many equal blocks along
            its first axis, one per head, and the blocks are drawn head by
            head: head 0 of every row, then head 1, and so on.
            """
            blocks = [
                [
                    (train_init if train else random_init)((shape[0] // heads, *shape[1:]))
                    for _, shape, train_init, random_init in table
                ]
                for _ in range(heads)
            ]
            for (name, *_), parts in zip(table, zip(*blocks)):
                params[f"{prefix}{name}"] = Tensor(np.concatenate(parts))

        width = config.query_width
        h, s, lv = config.heads, config.points, config.cross_levels
        dh = width // h
        ring = ring_offset_bias(h, s, lv)
        zeros, ones = np.zeros, np.ones
        norm = lambda prefix: [
            (f"{prefix}.gamma", (width,), ones, lambda shape: 1.0 + normal(0.1)(shape)),
            (f"{prefix}.beta", (width,), zeros, normal(0.1)),
        ]
        fill("", [("queries", (config.num_queries, width), normal(_QUERY_INIT_STD), normal(0.5))])
        for stack in _stack_names(config):
            for m in range(config.m_layers):
                base = f"{stack}.layer{m}."
                if config.has_self_attention(m):
                    sa = [(f"sa.{n}", (h, width, dh), xavier, gauss) for n in ("wq", "wk", "wv")]
                    fill(base, sa, heads=h)
                    fill(base, [("sa.wo", (width, width), zeros, gauss), *norm("sa_norm")])
                for k in range(config.k_cross):
                    cross = f"{base}cross{k}."
                    fill(cross, [
                        ("w_offset", (width, 2 * h * s * lv), zeros, gauss),
                        ("b_offset", ring.shape, lambda _: ring,
                         lambda shape: ring + normal(0.3)(shape)),
                        ("w_weight", (width, h * s * lv), zeros, gauss),
                        ("b_weight", (h * s * lv,), zeros, normal(0.3)),
                    ])
                    fill(cross, [
                        ("w_value", (h, config.dim, dh), xavier, gauss),
                        ("w_out", (width, width), zeros, gauss),
                    ], heads=h)
                    fill(base, norm(f"cross{k}_norm"))
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
            sa = MultiHeadAttnParams(*(p[f"{base}.sa.{n}"] for n in ("wq", "wk", "wv", "wo")))
            sa_norm = (p[f"{base}.sa_norm.gamma"], p[f"{base}.sa_norm.beta"])
        cross, norms = [], []
        for k in range(cfg.k_cross):
            cb = f"{base}.cross{k}"
            fields = (p[f"{cb}.{f}"] for f in DeformAttnParams.TENSORS)
            cross.append(DeformAttnParams(*fields, cfg.points, cfg.cross_levels))
            norms.append((p[f"{cb}_norm.gamma"], p[f"{cb}_norm.beta"]))
        return ReIDLayerParams(sa, sa_norm, tuple(cross), tuple(norms))

    def _check_inputs(self, pyramid, refs):
        cfg = self.config
        if len(pyramid) != NUM_LEVELS:
            raise ValueError(f"expected a {NUM_LEVELS}-level pyramid")
        for fmap in pyramid:
            if fmap.ndim != 3 or fmap.shape[0] != cfg.dim:
                raise ValueError(f"feature maps must be ({cfg.dim}, H, W), got {fmap.shape}")
        if len(refs) != cfg.num_queries:
            raise ValueError(f"need {cfg.num_queries} reference points, got {len(refs)}")

    def _block_params(self, variants: dict[str, Tensor], sets: int) -> dict[str, Tensor]:
        """The tensors :meth:`forward` reads: the model's own, except that a
        stack tensor that differs between row blocks (each of the parallel
        scheme's, or one ``variants`` names) has a leading block axis and
        the name ``stack.<field>``.  Block b * S + l, for set b and output
        scale l of S, holds set b's value of stack l's tensor."""
        cfg = self.config
        stacks = _stack_names(cfg)
        if len(stacks) == 1 and not variants:
            return self.params
        params = {**self.params, **variants}
        repeats = cfg.output_scales // len(stacks)
        for name in self.params if len(stacks) > 1 else variants:
            first, _, field = name.partition(".")
            if first == stacks[0]:
                parts = [variants.get(f"{s}.{field}", self.params[f"{s}.{field}"]) for s in stacks]
                params[f"stack.{field}"] = tt.stack(parts * repeats, self.params[name].shape, sets)
        return params

    def _first_reader(self, name: str) -> tuple[int, int]:
        """(layer, sublayer) of the first sublayer that reads parameter
        ``name``, counting sublayers as :func:`reid_layer_forward` does;
        (0, 0) for the queries."""
        if name == "queries":
            return 0, 0
        _, layer, sub, _ = name.split(".")
        m = int(layer.removeprefix("layer"))
        if sub in ("sa", "sa_norm"):
            return m, 0
        return m, int(sub.removeprefix("cross").removesuffix("_norm")) + self.config.has_self_attention(m)

    def forward(
        self,
        pyramid: Sequence[Tensor],
        refs: Sequence[ReferencePoint],
        variants: dict[str, Tensor] | None = None,
    ) -> ReIDEmbeddings:
        """Refine the query set against the pyramid; returns the rows of
        every output scale, stacked scale after scale.

        The per-level schemes run one block of query rows per level through
        the stack together (see the module docstring).

        ``variants`` maps a few parameter names to B values each, (B, *shape),
        and evaluates the B parameter sets they define in one pass over the
        scene: set b is the model's own parameters with each named tensor at
        its b-th value.  The sublayers before the first one that reads a
        named tensor compute the same rows for every set, so they run once
        on the model's own parameters; their output is then tiled to B sets,
        and each set adds its own row blocks from there on.  Scale s of the
        result is then a (B * N, d) block, the N rows of each set in turn,
        and each set's rows are bit-identical to that set's own forward.
        The gradient check evaluates its probes this way.

        The pyramid's value table and the (N, 2) reference coordinates are
        built here, once, and every deformable sublayer of every layer and
        set reads them.
        """
        cfg = self.config
        self._check_inputs(pyramid, refs)
        table, refs = tt.value_table(pyramid), _reference_array(refs)
        scales = cfg.output_scales
        variants = variants or {}
        sets, *others = {t.shape[0] for t in variants.values()} or {1}
        if not sets or others or any(
            n not in self.params or t.shape[1:] != self.params[n].shape for n, t in variants.items()
        ):
            raise ValueError("each variant must stack B values of a model tensor, one B for all")
        one = self._block_params({}, 1)
        many = self._block_params(variants, sets) if variants else one
        # With no variants every layer runs on ``one`` and nothing is tiled.
        tile_layer, tile_at = min((self._first_reader(n) for n in variants), default=(cfg.m_layers, 0))
        # (B, N, d) queries when they vary, so every block is its own from the start.
        y = tt.tile_rows(many["queries"], scales)
        for m in range(cfg.m_layers):
            if m < tile_layer:
                y = reid_layer_forward(y, refs, table, self._layer_view("stack", m, one))
                continue
            layer = self._layer_view("stack", m, many)
            if m == tile_layer and "queries" not in variants:
                # With one stack, ``many`` holds the model's own tensors for
                # every sublayer before the tile, so one view serves both.
                before = layer if one is self.params else self._layer_view("stack", m, one)
                y = tt.tile_rows(reid_layer_forward(y, refs, table, before, slice(tile_at)), sets)
                y = reid_layer_forward(y, refs, table, layer, slice(tile_at, None))
            else:
                y = reid_layer_forward(y, refs, table, layer)
        if sets > 1 and scales > 1:
            # Block b * S + s holds scale s of set b; gather the blocks scale by scale.
            y = tt.take_rows(y, np.arange(y.shape[0]).reshape(sets, scales, -1).swapaxes(0, 1).reshape(-1))
        return ReIDEmbeddings(y, scales, cfg.scheme)

    def matching_embeddings(
        self,
        pyramid: Sequence[Tensor],
        refs: Sequence[ReferencePoint],
    ) -> Tensor:
        """(N, match_dim) unit-norm rows used for similarity search."""
        return concat_inference_embeddings(self.forward(pyramid, refs))

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
            "format_version": _FORMAT_VERSION,
            "kind": "reid_transformer",
            "config": asdict(self.config),
            "tensors": tensors,
        }
        write_manifest(os.path.join(directory, "model.json"), manifest)

    @classmethod
    def load(cls, directory) -> "ReIDTransformer":
        """Read a model saved by :meth:`save`; raises DataError when malformed.

        The manifest must be of the current format and list exactly the
        tensors :meth:`init` builds for its config, each of that shape.
        """
        path = os.path.join(directory, "model.json")
        manifest = read_manifest(path, "reid_transformer")
        with reading(path):
            version = manifest.get("format_version")
            if version != _FORMAT_VERSION:
                raise ValueError(
                    f"format_version {version!r} is not supported (expected {_FORMAT_VERSION})"
                )
            config = ReIDConfig(**manifest["config"])
            expected = {name: t.shape for name, t in cls.init(config, seed=0).params.items()}
            files = dict(manifest["tensors"])
            missing, extra = sorted(expected.keys() - files), sorted(files.keys() - expected)
            if missing or extra:
                raise ValueError(f"tensors missing: {missing}, unexpected: {extra}")
            params = {}
            for name, fname in files.items():
                params[name] = read_blob(os.path.join(directory, fname))
                if params[name].shape != expected[name]:
                    raise ValueError(
                        f"tensor {name} has shape {params[name].shape}, expected {expected[name]}"
                    )
            return cls(config, params)


def _stack_names(config: ReIDConfig) -> list[str]:
    if config.scheme == "parallel":
        return [f"stack{i}" for i in range(NUM_LEVELS)]
    return ["stack"]
