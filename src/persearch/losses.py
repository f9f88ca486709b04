"""Identity supervision: online instance matching (OIM) and the combined loss.

OIM keeps a lookup table with one unit-norm prototype row per labeled
identity plus a circular queue of recent unlabeled-person features.  A batch
of unit-norm embeddings is scored against every prototype and queue row by
inner product over a temperature, and the labeled rows pay cross-entropy
against their identity.  After the loss, labeled rows fold into their
prototype with momentum (then renormalize) and unlabeled rows push into the
queue, evicting the oldest.

The focal variant reweights each labeled row by (1 - p_t)^gamma, applied to
the final softmax probability, so easy rows fade out of the gradient.  With
gamma = 0 it is exactly the plain OIM loss, state updates included.

SeqTR supervises every scale of the embedding, so an ``OIMState`` holds
the lookup tables and queues of all S scales as two stacked arrays, which
share one table size and one queue length by their shapes.
``focal_oim_loss`` takes the unit-norm rows of all S scales as one stacked
tensor, one block of rows per scale, with that state, and returns the
scale-averaged loss, the mean over each scale's labeled rows summed over
the scales and divided by S, plus the updated state.  The rows are checked
once, scored with one class product batched over the scales, one softmax
and one pullback, and folded into all the scales at once; it records one
taped primitive, and its ``sets`` form scores many stacked row sets at
once for the gradient check.  ``focal_oim_rows`` gives the per-row values
without the state update, also as one taped primitive.  Both share one
copy of the focal arithmetic and its hand-written VJP for the features;
the lookup tables and queues are constants of the step, and a state's
class matrices are built once, on first use.

``total_loss`` combines the four training components cls/iou/l1/oim with
the standard weights (2.0, 5.0, 2.0, 0.5).  Only the OIM term carries a
gradient, so weighting it and adding the detection losses is one taped op.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as tt
from .tensor import Tensor

__all__ = [
    "UNLABELED",
    "BACKGROUND",
    "DEFAULT_TAU",
    "DEFAULT_MOMENTUM",
    "OIMState",
    "focal_oim_rows",
    "focal_oim_loss",
    "LossWeights",
    "total_loss",
]

# Per-slot identity labels: 0..L-1 are labeled identities, UNLABELED marks a
# real person without an identity label, BACKGROUND a slot with no person.
UNLABELED = -1
BACKGROUND = -2

DEFAULT_TAU = 1.0 / 30.0
DEFAULT_MOMENTUM = 0.5
_UNIT_NORM_TOL = 1e-6


@dataclass
class OIMState:
    """The lookup tables and queues of all S scales; owned by one training
    loop.

    ``lut`` is (S, L, dim): scale s's prototype of identity l is
    ``lut[s, l]``.  ``queue`` is (S, n, dim), each scale's n <= ``capacity``
    most recent unlabeled rows, oldest first.  The array shapes make the
    scales share one table size and one queue length; they also share
    ``capacity``, ``momentum`` and ``tau``.

    ``update`` returns a fresh state, leaving the original untouched, which
    keeps loss evaluation repeatable (gradient checks difference the same
    state many times).  A state is a value once scored: its class matrices
    (:attr:`classes`) are kept for every later loss.
    """

    lut: np.ndarray
    queue: np.ndarray
    capacity: int
    momentum: float = DEFAULT_MOMENTUM
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        """Check the invariants of every state, however it was built, and
        raise ValueError when one fails: S, L and dim are at least 1, the
        queue is (S, n <= capacity, dim), ``capacity`` is an integer >= 0,
        0 <= momentum < 1 and tau > 0."""
        lut, queue, capacity = self.lut, self.queue, self.capacity
        if lut.ndim != 3 or min(lut.shape) < 1:
            raise ValueError(f"OIM lookup table must be (scales, identities, dim), each >= 1, got {lut.shape}")
        if type(capacity) is not int or capacity < 0:
            raise ValueError(f"OIM capacity must be a non-negative integer, got {capacity!r}")
        if queue.ndim != 3 or queue.shape[::2] != lut.shape[::2] or queue.shape[1] > capacity:
            raise ValueError(f"OIM queue must be ({lut.shape[0]}, n <= {capacity}, {lut.shape[2]}), got {queue.shape}")
        numbers = all(type(x) in (int, float) for x in (self.momentum, self.tau))
        if not (numbers and 0.0 <= self.momentum < 1.0 and self.tau > 0.0):
            raise ValueError(f"OIM needs 0 <= momentum < 1 and tau > 0, got {self.momentum!r} and {self.tau!r}")

    @classmethod
    def initial(
        cls,
        num_labeled: int,
        dim: int,
        capacity: int,
        scales: int = 1,
        momentum: float = DEFAULT_MOMENTUM,
        tau: float = DEFAULT_TAU,
    ) -> "OIMState":
        """Zero lookup tables and empty queues."""
        return cls(np.zeros((scales, num_labeled, dim)), np.zeros((scales, 0, dim)), capacity, momentum, tau)

    @property
    def scales(self) -> int:
        return self.lut.shape[0]

    @property
    def num_labeled(self) -> int:
        return self.lut.shape[1]

    @property
    def dim(self) -> int:
        return self.lut.shape[2]

    @functools.cached_property
    def classes(self) -> np.ndarray:
        """The read-only, C-contiguous (S, dim, L + n) class matrices: for
        each scale one column per prototype, then one per queue row, oldest
        first.

        Built on first use and kept, so ``lut`` and ``queue`` must not
        change after that; :meth:`update` returns a new state instead.
        """
        classes = np.ascontiguousarray(np.concatenate([self.lut, self.queue], axis=1).transpose(0, 2, 1))
        classes.flags.writeable = False
        return classes

    def update(self, features: np.ndarray, labels: Sequence[int]) -> "OIMState":
        """The state after the batch ``features``: (S, n, dim), or the same
        rows as (S * n, dim), the n rows of each scale, with one label per
        row for every scale.

        Row by row, in order, a labeled row folds into its prototype with
        momentum and is renormalized (a norm <= 1e-12 leaves zeros), and an
        unlabeled row enters the queue, evicting the oldest once it holds
        ``capacity`` rows; each step runs for all S scales at once.  The
        norm is np.linalg.norm's arithmetic, the root of the row's dot
        product with itself.
        """
        x = np.asarray(features, dtype=np.float64).reshape(self.scales, len(labels), self.dim)
        lut, keep = self.lut.copy(), self.momentum
        for i, label in enumerate(labels):
            if label >= 0:
                mixed = keep * lut[:, label] + (1.0 - keep) * x[:, i]
                norm = np.sqrt(np.vecdot(mixed, mixed))[:, None]
                live = norm > 1e-12
                lut[:, label] = np.where(live, mixed / np.where(live, norm, 1.0), 0.0)
        entered = x[:, [i for i, label in enumerate(labels) if label == UNLABELED]]
        queue = np.concatenate([self.queue, entered], axis=1)
        queue = queue[:, max(queue.shape[1] - self.capacity, 0) :]
        return OIMState(lut, queue, self.capacity, self.momentum, self.tau)


def _check_oim_inputs(features: Tensor, labels: list[int], state: OIMState) -> np.ndarray:
    """Check S scales' stacked rows against their state; returns the labels
    as an integer array.

    ``features`` holds S equal blocks of len(labels) rows, one block per
    scale, and every block takes the same labels.  An error names the
    first bad row in scale order, and within a scale in the order a
    row-by-row check would meet it.
    """
    scales, table, dim = state.lut.shape
    if features.ndim != 2 or features.shape[1] != dim:
        raise ValueError(f"features {features.shape} do not match state dim {dim}")
    if features.shape[0] != len(labels) * scales:
        raise ValueError(
            f"need one label per feature row of each of {scales} scales: "
            f"got {features.shape[0]} rows for {len(labels)} labels"
        )
    norms = np.sqrt(np.add.reduce(features.data * features.data, axis=1)).reshape(scales, -1)
    ids = np.array(labels, dtype=np.int64).reshape(-1)
    off_norm = (ids != BACKGROUND) & (np.abs(norms - 1.0) > _UNIT_NORM_TOL)
    bad = np.flatnonzero((ids >= table) | (ids < BACKGROUND) | off_norm)
    if bad.size:
        s, i = divmod(int(bad[0]), len(labels))  # the first bad row, checked in the order below
        if labels[i] >= table:
            raise ValueError(f"identity {labels[i]} outside table of {table}")
        if labels[i] < BACKGROUND:
            raise ValueError(f"unknown label marker {labels[i]}")
        raise ValueError(f"row {i} entering OIM must be unit-norm, got {norms[s, i]:.8f}")
    return ids


def _focal_rows(x: np.ndarray, ids: np.ndarray, state: OIMState, gamma: float):
    """The focal OIM arithmetic, once for every caller and every scale.

    ``x`` is (S, n, d): the n rows of each of the S scales, all with the
    labels ``ids``, scored against ``state``.  Returns the (S, r) focal
    NLL of each scale's r labeled rows in row order and its pullback,
    which maps a gradient of those values, (S, r) or one (r,) for every
    scale, to the gradient of ``x`` (None when no row is labeled).  The
    class matrices are constants; the inputs must be checked.
    """
    rows = np.flatnonzero(ids >= 0)
    if not rows.size:
        return np.zeros((state.scales, 0)), None
    # (S, dim, L + n), each scale's matrix C-contiguous: products with a
    # transposed view round differently.
    classes = state.classes
    inv_tau = 1.0 / state.tau
    c, focal = float(gamma), gamma > 0.0
    picks = (slice(None), np.arange(rows.size), ids[rows])
    p = tt._softmax_last((x[:, rows] @ classes) * inv_tau)
    p_t = p[picks]
    nll = -np.log(p_t)
    q = 1.0 - p_t
    hard = q**c if focal else None

    def pullback(g):
        # The chain rule op by op, from the focal factor q^gamma and the
        # log back through the target pick, the softmax, the 1/tau scale,
        # the class product and the row pick.  Picks and rows are unique,
        # so each += adds to one zero, as a scatter-add would.
        g_log = -(g * hard if focal else g) / p_t
        g_p_t = g_log - (g * nll) * c * q ** (c - 1.0) if focal else g_log
        g_p = np.zeros(p.shape)
        g_p[picks] += g_p_t
        g_logits = p * (g_p - np.add.reduce(g_p * p, axis=-1, keepdims=True)) * inv_tau
        g_x = np.zeros(x.shape)
        g_x[:, rows] += g_logits @ classes.transpose(0, 2, 1)
        return g_x

    return (nll * hard if focal else nll), pullback


def focal_oim_rows(
    features: Tensor,
    id_labels: Sequence[int],
    state: OIMState,
    gamma: float = 2.0,
) -> Tensor:
    """Focal OIM NLL of each labeled row of a batch: scale after scale, and
    within a scale in row order.

    ``features`` stacks the S = ``state.scales`` blocks of len(id_labels)
    rows, as for :func:`focal_oim_loss`.  Runs every input check and
    leaves ``state`` as it is.  Returns a rank-1 tensor with one value per
    labeled row and scale; it is empty (and records nothing) when no row
    is labeled.

    One taped primitive whose VJP returns the gradient of ``features``
    only: the class matrices are constants.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    labels = [int(l) for l in id_labels]
    ids = _check_oim_inputs(features, labels, state)
    values, pullback = _focal_rows(features.data.reshape(state.scales, -1, features.shape[1]), ids, state, gamma)
    if not values.size:
        return Tensor(values.reshape(-1))
    return tt._emit(
        values.reshape(-1), (features,), lambda g: (pullback(g.reshape(values.shape)).reshape(features.shape),)
    )


def focal_oim_loss(
    features: Tensor,
    id_labels: Sequence[int],
    state: OIMState,
    gamma: float = 2.0,
    sets: int | None = None,
) -> tuple[Tensor, OIMState | None]:
    """Focal OIM averaged over the scales, as one taped primitive.

    ``features`` stacks the unit-norm rows of S = ``state.scales`` scales,
    one block of len(id_labels) rows per scale in scale order, scored
    against that scale's lookup table and queue.  Each scale's loss is the
    mean of its :func:`focal_oim_rows` values; the scale losses are summed
    in order and the sum scaled by 1 / S.  All scales are scored with one
    batched class product, (S, r, d) @ (S, d, L + n), one softmax and one
    pullback.  Returns the scalar loss and the post-batch state.  Batches
    without any labeled row yield a constant 0 (no gradient); the state
    still absorbs unlabeled rows.

    With ``sets`` = B, each scale's block instead stacks B sets of
    len(id_labels) rows, set after set.  The loss is then the (B,) vector
    of each set's loss, with the same value as a call on that set alone,
    and the state is not updated (None is returned in its place): the
    gradient check scores all the probes of one tensor so.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    labels = [int(l) for l in id_labels]
    blocks = sets or 1
    ids = _check_oim_inputs(features, labels * blocks, state)
    x = features.data.reshape(state.scales, -1, features.shape[1])
    values, pullback = _focal_rows(x, ids, state, gamma)
    new_state = None if sets else state.update(x, labels)
    per_set = values.shape[1] // blocks
    if not per_set:
        return Tensor(np.zeros(sets) if sets else 0.0), new_state

    # Each scale's mean, the means added in scale order, then the 1 / S
    # factor: the bits of a chain of one mean per scale, their sum and the
    # 1 / S product, for the loss and its gradient alike.
    inv_scales = 1.0 / state.scales
    means = np.add.reduce(values.reshape(state.scales, blocks, per_set), axis=2) / per_set
    loss = functools.reduce(np.add, means) * inv_scales

    def vjp(g):
        g_rows = np.repeat(np.reshape(g * inv_scales, -1) / per_set, per_set)
        return (pullback(g_rows).reshape(features.shape),)

    return tt._emit(loss if sets else loss[0], (features,), vjp), new_state


@dataclass(frozen=True)
class LossWeights:
    """Component weights of the combined objective."""

    cls: float = 2.0
    iou: float = 5.0
    l1: float = 2.0
    oim: float = 0.5


def total_loss(l_cls: float, l_iou: float, l_l1: float, l_oim, weights: LossWeights = LossWeights()):
    """weights.cls * l_cls + weights.iou * l_iou + weights.l1 * l_l1
    + weights.oim * l_oim.

    The detection terms are floats.  A float ``l_oim`` gives a float; a
    scalar Tensor gives a Tensor recorded as one tape node, whose gradient
    is weights.oim times the output's.
    """
    const = sum(w * float(v) for v, w in ((l_cls, weights.cls), (l_iou, weights.iou), (l_l1, weights.l1)))
    if not isinstance(l_oim, Tensor):
        return const + weights.oim * float(l_oim)
    if l_oim.size != 1:
        raise ValueError("loss components must be scalar")
    w = float(weights.oim)
    return tt._emit(l_oim.data * w + const, (l_oim,), lambda g: (g * w,))
