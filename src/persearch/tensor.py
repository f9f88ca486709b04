"""Double-precision tensors with reverse-mode automatic differentiation.

Everything downstream (attention, the re-ID transformer, the identity losses)
is built from the primitives in this module.  A ``Tensor`` is an immutable
wrapper around a C-contiguous float64 numpy array, with one exception: a
training run's parameter Tensors are read-only views of one vector that
the run updates in place after each step, so they change value between
steps, and no tape outlives the step it records.  Operations are pure
functions; while a ``GradTape`` is active they also append a node holding a
vector-Jacobian product closure, so gradients of a scalar loss, or of any
output contracted with a fixed cotangent, with respect to any participating
tensor can be recovered by replaying the tape in reverse.  Without an
active tape the same functions run eagerly and keep no graph, which is
what evaluation uses.

The set of primitives is deliberately small: ``add`` (also the residual
``+``); the shape tools ``concat_cols``, ``tile_rows``, ``split_rows``,
``broadcast_blocks`` and ``take_rows``; ``layer_norm``;
``l2_normalize_rows``; and bilinear feature-map sampling through a
``value_table``.  Each analytic gradient here is validated against central
differences by ``central_diff_gradcheck``.  Larger fused primitives elsewhere
in the package (the attention sublayers, the focal OIM loss and the weighted
total loss) record themselves through the same ``_emit`` hook with their own
VJPs, and share the numpy softmax ``_softmax_last``.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GradTape",
    "add",
    "concat_cols",
    "tile_rows",
    "split_rows",
    "broadcast_blocks",
    "take_rows",
    "layer_norm",
    "l2_normalize_rows",
    "ValueTable",
    "value_table",
    "bilinear_sample_rows",
    "central_diff_gradcheck",
    "write_blob",
    "read_blob",
]

_NORM_EPS = 1e-12


class Tensor:
    """Immutable n-dimensional array of float64 values.

    The backing numpy array is made read-only at construction, so a Tensor
    can be shared freely between the tape, parameter dictionaries and
    checkpoints without defensive copies.  The constructor copies its
    input; the private :meth:`_adopt` wraps an array that nothing else
    writes to without copying it, and makes it read-only just the same.

    The one exception is a training run (:func:`persearch.training.train`):
    its parameter Tensors adopt views of the run's parameter vector, which
    the optimizer writes in place after each step.  Their values change
    between steps, never within one, and no tape or value computed from
    them is kept past its step.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C")
        arr.flags.writeable = False
        object.__setattr__(self, "_data", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Tensor":
        """Wrap a C-contiguous float64 array without a copy.

        The array becomes read-only.  The caller gives it up: neither it
        nor any other view of its memory may be written afterwards, which
        holds for a freshly read blob or a view into a read-only buffer.
        A training run's parameter vector is the one exception (see the
        class docstring).
        """
        if arr.dtype != np.float64 or not arr.flags.c_contiguous:
            raise ValueError(f"cannot adopt a {arr.dtype} array that is not C-contiguous")
        arr.flags.writeable = False
        t = object.__new__(cls)
        object.__setattr__(t, "_data", arr)
        return t

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the underlying float64 array."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    def item(self) -> float:
        return float(self._data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # ``+`` routes through ``add`` and therefore the tape; residual
    # connections read as ``y + sub``.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)


class _Node:
    __slots__ = ("out", "inputs", "vjp", "selective")

    def __init__(self, out, inputs, vjp, selective):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp
        self.selective = selective


_ACTIVE_TAPE: "GradTape | None" = None


class GradTape:
    """Ordered record of primitive applications for reverse-mode autodiff.

    Use as a context manager around the forward computation of a scalar
    loss, then call :meth:`gradients`.  Tapes do not nest and a tape is
    owned by a single thread (the training loop); evaluation code simply
    runs without one.
    """

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self) -> "GradTape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("GradTape does not support nesting")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], vjp, selective) -> None:
        self._nodes.append(_Node(out, inputs, vjp, selective))

    def gradients(
        self, out: Tensor, sources: Iterable[Tensor], cotangent: np.ndarray | None = None
    ) -> list[np.ndarray]:
        """Gradient of ``out`` for each source tensor, seeded with ``cotangent``.

        Without a cotangent ``out`` must be a scalar loss, seeded with 1.
        A cotangent of ``out``'s shape gives the gradient of the sum of
        ``out * cotangent`` instead.  Sources that did not participate in
        the computation get zeros of their own shape.  The tape may be
        replayed multiple times.

        Before the replay one forward sweep marks every tensor that depends
        on a source.  Only those need a gradient: nodes whose output depends
        on none are skipped, and a node recorded with ``selective=True`` is
        told which of its inputs to differentiate.
        """
        if cotangent is None:
            if out.size != 1:
                raise ValueError(f"loss must be scalar, got shape {out.shape}")
            cotangent = np.ones(out.shape)
        else:
            cotangent = np.array(cotangent, dtype=np.float64)
            if cotangent.shape != out.shape:
                raise ValueError(f"cotangent shape {cotangent.shape} differs from the output's {out.shape}")
        sources = list(sources)
        live = {id(src) for src in sources}
        for node in self._nodes:
            if any(id(inp) in live for inp in node.inputs):
                live.add(id(node.out))
        grads: dict[int, np.ndarray] = {id(out): cotangent}
        for node in reversed(self._nodes):
            g_out = grads.get(id(node.out))
            if g_out is None or id(node.out) not in live:
                continue
            needs = tuple(id(inp) in live for inp in node.inputs)
            g_ins = node.vjp(g_out, needs) if node.selective else node.vjp(g_out)
            for inp, need, g_in in zip(node.inputs, needs, g_ins):
                if g_in is None or not need:
                    continue
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + g_in
                else:
                    grads[key] = g_in
        return [np.asarray(grads[id(src)]) if id(src) in grads else np.zeros(src.shape) for src in sources]


# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep the memory a loop frees mapped, for its next pass to reuse.

    This depends on glibc.  Its malloc serves each block above
    M_MMAP_THRESHOLD from a mapping of its own, unmapped on free, and
    hands the free top of the heap back to the system once it exceeds
    M_TRIM_THRESHOLD.  Both start at 128 KiB and rise only as large blocks
    are freed.  A training step or a gradient check frees the same numpy
    working set it will allocate again, so at the start-up thresholds
    every step faults its pages back in (about 350 a step at the default
    sizes).  This pins the state glibc's own adaptive rule reaches after
    freeing a block at the mmap threshold's ceiling: the mmap threshold at
    that ceiling (32 MiB on a 64-bit system), the trim threshold twice it.
    The setting holds for the whole process; a repeat call changes
    nothing.  Where the C library has no ``mallopt``, or ``ctypes`` cannot
    load it, this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_max = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
    mallopt(_M_MMAP_THRESHOLD, mmap_max)
    mallopt(_M_TRIM_THRESHOLD, 2 * mmap_max)


def _emit(data: np.ndarray, inputs: tuple[Tensor, ...], vjp, selective: bool = False) -> Tensor:
    """Wrap ``data`` and record it on the active tape.

    ``vjp(g)`` returns one gradient (or None) per input.  With
    ``selective`` it is called as ``vjp(g, needs)``, where ``needs[i]``
    says whether input i depends on a gradient source, so it can skip the
    gradients nothing reads.
    """
    out = Tensor(data)
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE._record(out, inputs, vjp, selective)
    return out


# ---------------------------------------------------------------------------
# arithmetic and shapes
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.shape != b.shape:
        raise ValueError(f"add shapes incompatible: {a.shape} + {b.shape}")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate rank-2 tensors with equal row counts along columns."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat_cols needs at least one tensor")
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def vjp(g):
        return tuple(g[:, offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return _emit(np.concatenate([p.data for p in parts], axis=1), parts, vjp)


def tile_rows(x: Tensor, reps: int) -> Tensor:
    """Stack ``reps`` copies of a rank-2 tensor: (n, d) -> (reps * n, d).

    ``x`` may also be a (K, n, d) tensor; each (n, d) block is then
    repeated ``reps`` times in turn, giving (K * reps * n, d).  One copy of
    a rank-2 tensor is ``x`` itself and records nothing.
    """
    if reps < 1 or x.ndim not in (2, 3):
        raise ValueError(f"cannot tile a {x.shape} tensor {reps} times")
    if reps == 1 and x.ndim == 2:
        return x
    n, d = x.shape[-2:]
    split = lambda g: (np.add.reduce(g.reshape(-1, reps, n, d), axis=1).reshape(x.shape),)
    return _emit(np.repeat(x.data.reshape(-1, n, d), reps, axis=0).reshape(-1, d), (x,), split)


def split_rows(x: Tensor, parts: int) -> tuple[Tensor, ...]:
    """Cut a rank-2 tensor into ``parts`` equal blocks of consecutive rows.

    One block is ``x`` itself and records nothing.
    """
    if x.ndim != 2 or parts < 1 or x.shape[0] % parts != 0:
        raise ValueError(f"cannot split the rows of {x.shape} into {parts} blocks")
    if parts == 1:
        return (x,)
    n = x.shape[0] // parts
    shape = x.shape

    def block(i):
        def vjp(g):
            full = np.zeros(shape)
            full[i * n : (i + 1) * n] = g
            return (full,)

        return _emit(x.data[i * n : (i + 1) * n], (x,), vjp)

    return tuple(block(i) for i in range(parts))


def broadcast_blocks(x: Tensor, sets: int, scales: int, per_set: bool, per_scale: bool) -> Tensor:
    """(B * S, *shape) blocks for B = ``sets`` sets at S = ``scales`` scales,
    block b * S + l holding x's value for set b and scale l.

    ``x`` is (B, S, *shape), (B, *shape), (S, *shape) or ``shape``: it holds
    one value per set when ``per_set``, one per scale when ``per_scale``,
    and serves all of them otherwise.  Each value's gradient sums its blocks'.
    """
    held = (sets if per_set else 1, scales if per_scale else 1)
    lead = (sets,) * per_set + (scales,) * per_scale
    if x.shape[: len(lead)] != lead:
        raise ValueError(f"cannot broadcast a {x.shape} tensor to {sets} sets of {scales} scales")
    shape = x.shape[len(lead) :]
    summed = tuple(i for i, n in enumerate(held) if n == 1)
    vjp = lambda g: (g.reshape(sets, scales, *shape).sum(axis=summed).reshape(x.shape),)
    out = np.broadcast_to(x.data.reshape(*held, *shape), (sets, scales, *shape))
    return _emit(out.reshape(sets * scales, *shape), (x,), vjp)


def take_rows(x: Tensor, idx: Sequence[int]) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    shape = x.shape

    def vjp(g):
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        return (full,)

    return _emit(x.data[idx].copy(), (x,), vjp)


# ---------------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------------


def _softmax_last(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis of a numpy array; the
    fused primitives (attention, focal OIM) apply it inside their own ops."""
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, blocks: int = 1, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    A rank-2 ``x`` may hold ``blocks`` equal blocks of rows.  ``gamma`` and
    ``beta`` are each either shared by every block, with the normalized-axis
    length n, or one row per block, (blocks, n).  A shared tensor's gradient
    is summed within each block first and then over the blocks, in order.
    """
    if x.ndim not in (1, 2):
        raise ValueError("layer_norm expects a rank-1 or rank-2 tensor")
    n = x.shape[-1]
    if any(t.shape not in ((n,), (blocks, n)) for t in (gamma, beta)):
        raise ValueError(f"gamma/beta must be ({n},) or ({blocks}, {n})")
    if (x.shape[0] if x.ndim == 2 else 1) % blocks != 0:
        raise ValueError(f"cannot split the rows of {x.shape} into {blocks} blocks")
    xd = x.data
    # np.mean / np.var arithmetic without their Python wrappers, which
    # would also centre the rows twice; the values are bit-identical.
    xc = xd - np.add.reduce(xd, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gd, bd = (t.data if t.ndim == 1 else t.data[:, None] for t in (gamma, beta))
    by_block = lambda a: a.reshape(blocks, -1, n)
    fold = lambda d, t: np.add.reduce(d, axis=0) if t.ndim == 1 else d

    def vjp(g):
        # np.add.reduce, over n where a mean is meant, is the arithmetic of
        # the sum and mean methods without their Python wrappers.
        gx = (by_block(g) * gd).reshape(g.shape)
        m1 = np.add.reduce(gx, axis=-1, keepdims=True) / n
        m2 = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / n
        dx = (gx - m1 - xhat * m2) * inv
        dgamma = np.add.reduce(by_block(g) * by_block(xhat), axis=1)
        dbeta = np.add.reduce(by_block(g), axis=1)
        return dx, fold(dgamma, gamma), fold(dbeta, beta)

    out = (by_block(xhat) * gd + bd).reshape(xd.shape)
    return _emit(out, (x, gamma, beta), vjp)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Row-wise l2 normalization of a rank-2 tensor; rows with norm <= 1e-12
    map to zeros."""
    if x.ndim != 2:
        raise ValueError("l2_normalize_rows expects a rank-2 tensor")
    xd = x.data
    norms = np.sqrt(np.add.reduce(xd * xd, axis=-1, keepdims=True))
    live = norms > _NORM_EPS
    safe = np.where(live, norms, 1.0)
    y = np.where(live, xd / safe, 0.0)

    def vjp(g):
        dot = np.add.reduce(g * y, axis=-1, keepdims=True)
        dx = (g - y * dot) / safe
        return (np.where(live, dx, 0.0),)

    return _emit(y, (x,), vjp)


# ---------------------------------------------------------------------------
# bilinear sampling
# ---------------------------------------------------------------------------
#
# A sample location lives in pixel units of the map: x in [0, W-1] horizontal,
# y in [0, H-1] vertical.  Out-of-bounds corners contribute zeros.  The cell
# index uses ceil(x) - 1 rather than floor(x): the interpolated value is
# identical, but exactly on a grid line the derivative becomes the left-cell
# one, which fixes the subgradient choice at the (measure-zero) ties.
#
# The kernel reads corners from one channel-last value table, as Deformable
# DETR flattens its pyramid (Zhu et al., arXiv 2010.04159): the pixels of
# every map, one row each, then a single zero row that every out-of-bounds
# corner indexes.  The padding is exact: an out-of-bounds corner reads that
# zero row, never a pixel times a zero weight, so a non-finite pixel cannot
# leak into it.  ``value_table`` builds the table once from a list of maps;
# the re-ID transformer builds one per forward and every deformable
# sublayer reads it, so the kernel itself copies no map.  The map gradient
# is scattered into the same layout, and the pad row's bins are dropped.
#
# The four corner rows of each point are gathered as (P, 4, C), so the
# corner sum is one BLAS product per point, its (1, 4) weights times its
# (4, C) corners, and the VJP's corner dot products one (4, C) @ (C, 1)
# product per point.


@dataclass(frozen=True, eq=False)
class ValueTable:
    """M (C, H_m, W_m) maps flattened into one zero-padded row table.

    ``maps`` are the map Tensors themselves, the tape inputs that receive
    the map gradients.  ``rows`` is the C-contiguous, read-only
    (sum_m H_m W_m + 1, C) table, pixel (y, x) of map m at row
    ``starts[m] + y * W_m + x`` and the zero pad row last.  ``hw`` holds
    each map's (H, W) as an (M, 2) integer array, and ``extents`` each
    map's largest pixel coordinates (W - 1, H - 1).
    """

    maps: tuple[Tensor, ...]
    rows: np.ndarray
    hw: np.ndarray
    starts: np.ndarray
    extents: np.ndarray


def value_table(maps: Sequence[Tensor]) -> ValueTable:
    """The :class:`ValueTable` of ``maps``, all (C, H, W) with one C."""
    maps = tuple(maps)
    if not maps or any(f.ndim != 3 or f.shape[0] != maps[0].shape[0] for f in maps):
        raise ValueError(f"a value table needs (C, H, W) maps of one C, got {[f.shape for f in maps]}")
    c = maps[0].shape[0]
    hw = np.array([f.shape[1:] for f in maps], dtype=np.intp)
    sizes = hw[:, 0] * hw[:, 1]
    starts = np.cumsum(sizes) - sizes
    # One concatenate of the transposed (HW, C) maps and the zero pad row,
    # written straight into the C-ordered table: one allocation and one
    # pass over the freshly read maps.
    rows = np.empty((int(sizes.sum()) + 1, c))
    np.concatenate([*(f.data.reshape(c, -1).T for f in maps), np.zeros((1, c))], out=rows)
    extents = (hw[:, ::-1] - 1).astype(np.float64)
    for a in (rows, hw, starts, extents):
        a.flags.writeable = False
    return ValueTable(maps, rows, hw, starts, extents)


# Corner offsets in the order (x0, y0), (x0+1, y0), (x0, y0+1), (x0+1, y0+1),
# over (4, runs, maps, points).
_CORNER_X = np.array([0, 1, 0, 1]).reshape(4, 1, 1, 1)
_CORNER_Y = np.array([0, 0, 1, 1]).reshape(4, 1, 1, 1)


def _bilinear_forward(table: ValueTable, pts: np.ndarray):
    """Shared kernel: sample the M maps of ``table`` at B blocks of points.

    ``pts`` is (B, Q, 2) as (x, y), with B a multiple of M; block b samples
    map b % M, so each map is read once however many blocks share it.
    Returns (B * Q, C) plus residuals.  The four corners of every point are
    read with one gather from the table; corners outside their map read the
    zero row and get zero weight.
    """
    m, pad = len(table.maps), table.rows.shape[0] - 1
    hs, ws, starts = table.hw[:, :1], table.hw[:, 1:], table.starts[:, None]  # (M, 1) each
    pts = pts.reshape(-1, m, pts.shape[1], 2)  # (B / M, M, Q, 2)
    xs, ys = pts[..., 0], pts[..., 1]
    # A non-finite location casts to some cell without a warning; its
    # non-finite weights keep the sample non-finite.
    with np.errstate(invalid="ignore"):
        x0 = np.ceil(xs).astype(np.intp) - 1
        y0 = np.ceil(ys).astype(np.intp) - 1
    cx, cy = x0 + _CORNER_X, y0 + _CORNER_Y  # (4, B / M, M, Q)
    inb = ((cx >= 0) & (cx < ws) & (cy >= 0) & (cy < hs)).reshape(4, -1)
    flat = np.where(inb, (starts + cy * ws + cx).reshape(4, -1), pad)  # (4, P)
    # The gather reads a contiguous (P, 4) copy of the index, which costs
    # less than gathering through the strided ``flat.T``.  Building the
    # index corner axis last costs more than the copy: its broadcasts run
    # inner loops of four.
    vals = np.take(table.rows, np.ascontiguousarray(flat.T), axis=0)  # (P, 4, C)
    dx, dy = (xs - x0).reshape(-1), (ys - y0).reshape(-1)
    ex, ey = 1.0 - dx, 1.0 - dy
    wts = np.array([ex * ey, dx * ey, ex * dy, dx * dy]) * inb  # (4, P)
    out = (wts.T[:, None] @ vals).reshape(-1, vals.shape[2])  # (P, 1, 4) @ (P, 4, C)
    return out, (flat, wts, dx, dy, vals)


def _bilinear_vjp(table: ValueTable, res, g, want_maps: Sequence[bool] | None = None):
    """Gradients for the batched kernel; g is (B * Q, C).

    Returns (one gradient per map of ``table``, summed over the blocks that
    read it, and the (B * Q, 2) point gradient).  ``want_maps`` says which
    maps need a gradient (default: all); the others get None, and when none
    does the scatter is skipped.
    """
    if want_maps is None:
        want_maps = [True] * len(table.maps)
    flat, wts, dx, dy, vals = res
    gv = (vals @ g[:, :, None]).reshape(-1, 4).T  # g . corner value, (4, P)
    gx = (1.0 - dy) * (gv[1] - gv[0]) + dy * (gv[3] - gv[2])
    gy = (1.0 - dx) * (gv[2] - gv[0]) + dx * (gv[3] - gv[1])
    g_pts = np.stack([gx, gy], axis=1)  # (P, 2)
    if not any(want_maps):
        return [None] * len(table.maps), g_pts

    # One scatter for all channels, corners and maps: channel c of table
    # row i lands in bin i * C + c, and the pad row's bins are dropped.
    rows, c = table.rows.shape
    bins = (flat[..., None] * c + np.arange(c)).reshape(-1)
    contrib = (wts[..., None] * g).reshape(-1)
    g_table = np.bincount(bins, weights=contrib, minlength=c * rows)[: c * (rows - 1)].reshape(rows - 1, c)
    g_maps = [
        g_table[start : start + h * w].T.reshape(f.shape) if want else None
        for f, (h, w), start, want in zip(table.maps, table.hw, table.starts, want_maps)
    ]
    return g_maps, g_pts


def bilinear_sample_rows(fmap: Tensor, points: Tensor) -> Tensor:
    """Batched sampling: (P, 2) pixel locations -> (P, C) feature rows."""
    if fmap.ndim != 3:
        raise ValueError("bilinear_sample_rows expects a (C, H, W) map")
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must have shape (P, 2)")
    table = value_table([fmap])
    out, res = _bilinear_forward(table, points.data[None])

    def vjp(g):
        (g_map,), g_pts = _bilinear_vjp(table, res, g)
        return g_map, g_pts

    return _emit(out, (fmap, points), vjp)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max_i |a_i - n_i| / (|a_i| + |n_i| + 1e-12) over flattened entries."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    err = np.abs(a - n) / (np.abs(a) + np.abs(n) + 1e-12)
    return float(err.max()) if err.size else 0.0


def numeric_gradient(
    f: Callable[[np.ndarray], np.ndarray], x: Tensor, h: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function at ``x``.

    The probes are x + h e_i and x - h e_i for every coordinate i in turn,
    rows 2i and 2i + 1 of one (2 * x.size, *x.shape) array.  ``f`` takes
    that array and returns the (2 * x.size,) probe values in the same
    order, so a caller can evaluate them in one batch.
    """
    n = x.size
    probes = np.repeat(x.data.reshape(1, n), 2 * n, axis=0)
    i = np.arange(n)
    probes[2 * i, i] += h
    probes[2 * i + 1, i] -= h
    values = np.asarray(f(probes.reshape(2 * n, *x.shape)), dtype=np.float64)
    if values.shape != (2 * n,):
        raise ValueError(f"expected {2 * n} probe values, got {values.shape}")
    return ((values[0::2] - values[1::2]) / (2.0 * h)).reshape(x.shape)


def central_diff_gradcheck(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    w: Tensor,
    h: float = 1e-6,
    f_probes: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Compare the taped gradient of ``f`` at ``x`` against central differences.

    The function checked is the sum of ``f(x) * w``, with ``w`` a fixed
    weight of ``f(x)``'s shape that seeds the tape.  ``f_probes``, when
    given, evaluates ``f`` at every probe at once: it takes the
    (2 * x.size, *x.shape) probe array of :func:`numeric_gradient` and
    returns the (2 * x.size, *w.shape) stack of ``f``'s outputs, one per
    probe, as one blocked call of the function checked; without it ``f``
    runs once per probe.  Returns the max relative error over coordinates;
    raises if the function value is not finite.
    """

    def weigh(out: np.ndarray) -> float:
        return float((out * w.data).sum())

    with GradTape() as tape:
        out = f(x)
        if not np.isfinite(weigh(out.data)):
            raise FloatingPointError("non-finite function value in gradcheck")
        (analytic,) = tape.gradients(out, [x], w.data)
    if f_probes is None:
        f_probes = lambda probes: np.array([f(Tensor(p)).data for p in probes])

    def values(probes: np.ndarray) -> np.ndarray:
        outs = f_probes(probes)
        if outs.shape != (len(probes), *w.shape):
            raise ValueError(f"expected {len(probes)} outputs of shape {w.shape}, got {outs.shape}")
        return np.array([weigh(o) for o in outs])

    return max_rel_error(analytic, numeric_gradient(values, x, h))


# ---------------------------------------------------------------------------
# tensor blob format
# ---------------------------------------------------------------------------
#
# Layout: magic "SQTR", u32 version (1), u8 dtype code (0 = float64 LE),
# u8 ndim, then ndim u64 dims, then the raw little-endian values.  Integers
# are little-endian.  Round-trips are bit-exact.
#
# ``read_blob`` checks the magic, version, dtype code and dims, then that the
# file holds exactly the data bytes the dims imply, before it allocates
# anything.  It then reads the values once, straight into the array the
# returned Tensor adopts, so a blob costs one copy from the file.

_BLOB_MAGIC = b"SQTR"
_BLOB_VERSION = 1
_DTYPE_F64 = 0


def write_blob(path, t: Tensor) -> None:
    with open(path, "wb") as fh:
        fh.write(_BLOB_MAGIC)
        fh.write(struct.pack("<IBB", _BLOB_VERSION, _DTYPE_F64, t.ndim))
        for dim in t.shape:
            fh.write(struct.pack("<Q", dim))
        fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def read_blob(path) -> Tensor:
    """Read a blob written by :func:`write_blob`.

    The header, the dims and the data must have exactly the lengths the
    header implies; a short or over-long file raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != _BLOB_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        header = fh.read(6)
        if len(header) != 6:
            raise ValueError(f"{path}: truncated blob header")
        version, dtype, ndim = struct.unpack("<IBB", header)
        if version != _BLOB_VERSION:
            raise ValueError(f"{path}: unsupported blob version {version}")
        if dtype != _DTYPE_F64:
            raise ValueError(f"{path}: unsupported dtype code {dtype}")
        raw_dims = fh.read(8 * ndim)
        if len(raw_dims) != 8 * ndim:
            raise ValueError(f"{path}: truncated blob dims")
        dims = struct.unpack(f"<{ndim}Q", raw_dims)
        # Check the length against the file size before reading, so a
        # corrupt dim cannot ask for a huge buffer.
        expected = 8 * math.prod(dims)
        remaining = size - fh.tell()
        if remaining != expected:
            raise ValueError(
                f"{path}: blob holds {remaining} data bytes, its header implies {expected}"
            )
        arr = np.empty(dims, dtype="<f8")
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != expected:
            raise ValueError(f"{path}: truncated blob")
    # A no-op on little-endian machines, where "<f8" is float64.
    return Tensor._adopt(arr.astype(np.float64, copy=False))
