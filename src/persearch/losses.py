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

SeqTR supervises every scale of the embedding, with one OIM state per
scale.  ``focal_oim_loss`` takes the unit-norm rows of all S scales as one
stacked tensor, one block of rows per scale, with the state of each scale,
and returns the scale-averaged loss, the mean over each scale's labeled
rows summed over the scales and divided by S, plus the updated states.
The scales share their labels and one class-matrix shape, so the rows are
checked once, scored with one class product batched over the scales, one
softmax and one pullback, and folded into all the states at once; it
records one taped primitive, and its ``sets`` form scores many stacked row
sets at once for the gradient check.
``focal_oim_rows`` gives the per-row values of one scale without the state
update, also as one taped primitive.  Both share one copy of the focal
arithmetic and its hand-written VJP for the features; the lookup table and
queue are constants of the step, and each state builds its class matrix
once.

``total_loss`` combines the four training components cls/iou/l1/oim with
the standard weights (2.0, 5.0, 2.0, 0.5).
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
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
    """Lookup table plus circular queue; owned by one training loop.

    ``update`` returns a fresh state, leaving the original untouched, which
    keeps loss evaluation repeatable (gradient checks difference the same
    state many times).  A state is a value once scored: its class matrix
    (:attr:`classes`) is built on first use and kept for every later loss.
    """

    lut: np.ndarray
    queue: deque
    momentum: float = DEFAULT_MOMENTUM
    tau: float = DEFAULT_TAU

    @classmethod
    def initial(
        cls,
        num_labeled: int,
        dim: int,
        queue_capacity: int,
        momentum: float = DEFAULT_MOMENTUM,
        tau: float = DEFAULT_TAU,
    ) -> "OIMState":
        if num_labeled < 1 or dim < 1 or queue_capacity < 0:
            raise ValueError("bad OIM state sizes")
        if not 0.0 <= momentum < 1.0 or tau <= 0.0:
            raise ValueError("bad OIM momentum/temperature")
        return cls(
            lut=np.zeros((num_labeled, dim)),
            queue=deque(maxlen=queue_capacity),
            momentum=momentum,
            tau=tau,
        )

    @property
    def num_labeled(self) -> int:
        return self.lut.shape[0]

    @property
    def dim(self) -> int:
        return self.lut.shape[1]

    @property
    def queue_capacity(self) -> int:
        return self.queue.maxlen

    @functools.cached_property
    def classes(self) -> np.ndarray:
        """The read-only, C-contiguous (dim, L + queue_len) class matrix:
        one column per prototype, then one per queue row, oldest first.

        Built on first use and kept, so ``lut`` and ``queue`` must not
        change after that; :meth:`update` returns a new state instead.
        """
        rows = np.concatenate([self.lut.reshape(-1), *self.queue]).reshape(-1, self.dim)
        classes = np.ascontiguousarray(rows.T)
        classes.flags.writeable = False
        return classes

    def update(self, features: np.ndarray, labels: Sequence[int]) -> "OIMState":
        """Momentum-fold labeled rows, enqueue unlabeled rows; new state."""
        return _updated_states([self], np.asarray(features)[None], labels)[0]


def _updated_states(states: Sequence[OIMState], x: np.ndarray, labels: Sequence[int]) -> list[OIMState]:
    """Each state after the batch: ``x`` is (S, n, d), the n rows of each
    state's scale, with one label per row for every scale.

    Row by row, in order, a labeled row folds into its prototype with
    momentum and is renormalized (a norm <= 1e-12 leaves zeros), and an
    unlabeled row enters the queue, evicting the oldest; each step runs
    for all S states at once.  The norm is np.linalg.norm's arithmetic,
    the root of the row's dot product with itself.
    """
    luts = np.array([st.lut for st in states])  # a copy, (S, L, d)
    keep = np.array([st.momentum for st in states]).reshape(-1, 1)
    queues = [deque(st.queue, maxlen=st.queue.maxlen) for st in states]
    for i, label in enumerate(labels):
        if label >= 0:
            mixed = keep * luts[:, label] + (1.0 - keep) * x[:, i]
            norm = np.sqrt(np.vecdot(mixed, mixed))[:, None]
            live = norm > 1e-12
            luts[:, label] = np.where(live, mixed / np.where(live, norm, 1.0), 0.0)
        elif label == UNLABELED:
            for queue, row in zip(queues, x[:, i].copy()):
                queue.append(row)
    return [OIMState(lut, queue, st.momentum, st.tau) for lut, queue, st in zip(luts, queues, states)]


def _check_oim_inputs(features: Tensor, labels: list[int], states: Sequence[OIMState]) -> np.ndarray:
    """Check S scales' stacked rows against their states; returns the
    labels as an integer array.

    ``features`` holds len(states) equal blocks of len(labels) rows, one
    block per scale, and every block takes the same labels.  The states
    must share one class-matrix shape.  An error names the first bad row
    in scale order, and within a scale in the order a row-by-row check
    would meet it.
    """
    table, dim = states[0].lut.shape
    queue = len(states[0].queue)
    if any(st.lut.shape != (table, dim) or len(st.queue) != queue for st in states):
        raise ValueError("the states of all scales must share one table and one queue length")
    if features.ndim != 2 or features.shape[1] != dim:
        raise ValueError(f"features {features.shape} do not match state dim {dim}")
    if features.shape[0] != len(labels) * len(states):
        raise ValueError(
            f"need one label per feature row of each of {len(states)} states: "
            f"got {features.shape[0]} rows for {len(labels)} labels"
        )
    norms = np.sqrt(np.add.reduce(features.data * features.data, axis=1)).reshape(len(states), -1)
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


def _focal_rows(x: np.ndarray, ids: np.ndarray, states: Sequence[OIMState], gamma: float):
    """The focal OIM arithmetic, once for every caller and every scale.

    ``x`` is (S, n, d): the n rows of each of the S scales, all with the
    labels ``ids``, scored against ``states[s]``.  Returns the (S, r) focal
    NLL of each scale's r labeled rows in row order and its pullback,
    which maps an (r,) gradient of every scale's values to the gradient of
    ``x`` (None when no row is labeled).  The class matrices are
    constants; the inputs must be checked.
    """
    rows = np.flatnonzero(ids >= 0)
    if not rows.size:
        return np.zeros((len(states), 0)), None
    # (S, dim, L + queue_len), each scale's matrix C-contiguous: products
    # with a transposed view round differently.
    classes = np.stack([st.classes for st in states])
    inv_tau = np.array([1.0 / st.tau for st in states]).reshape(-1, 1, 1)
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
    """Focal OIM NLL of each labeled row of a batch, in row order.

    Runs every input check and leaves ``state`` as it is.  Returns a rank-1
    tensor with one value per labeled row; it is empty (and records
    nothing) when no row is labeled.

    One taped primitive whose VJP returns the gradient of ``features``
    only: the class matrix is a constant.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    labels = [int(l) for l in id_labels]
    ids = _check_oim_inputs(features, labels, [state])
    values, pullback = _focal_rows(features.data[None], ids, [state], gamma)
    if not values.size:
        return Tensor(values[0])
    return tt._emit(values[0], (features,), lambda g: (pullback(g)[0],))


def focal_oim_loss(
    features: Tensor,
    id_labels: Sequence[int],
    states: Sequence[OIMState],
    gamma: float = 2.0,
    sets: int | None = None,
) -> tuple[Tensor, list[OIMState] | None]:
    """Focal OIM averaged over the scales, as one taped primitive.

    ``features`` stacks the unit-norm rows of S = len(states) scales, one
    block of len(id_labels) rows per scale in scale order, and
    ``states[s]`` holds scale s's lookup table and queue; the states share
    one table size and one queue length.  Each scale's loss is the mean of
    :func:`focal_oim_rows` over its labeled rows; the scale losses are
    summed in order and the sum scaled by 1 / S.  All scales are scored
    with one batched class product, (S, r, d) @ (S, d, L + Q), one softmax
    and one pullback.  Returns the scalar loss and the post-batch states.
    Batches without any labeled row yield a constant 0 (no gradient); the
    states still absorb unlabeled rows.

    With ``sets`` = B, each scale's block instead stacks B sets of
    len(id_labels) rows, set after set.  The loss is then the (B,) vector
    of each set's loss, with the same value as a call on that set alone,
    and no state is updated (None is returned in their place): the
    gradient check scores all the probes of one tensor so.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    states = list(states)
    if not states:
        raise ValueError("need one state per scale, got none")
    labels = [int(l) for l in id_labels]
    blocks = sets or 1
    ids = _check_oim_inputs(features, labels * blocks, states)
    x = features.data.reshape(len(states), -1, features.shape[1])
    values, pullback = _focal_rows(x, ids, states, gamma)
    new_states = None if sets else _updated_states(states, x, labels)
    per_set = values.shape[1] // blocks
    if not per_set:
        return Tensor(np.zeros(sets) if sets else 0.0), new_states

    # Each scale's mean, the means added in scale order, then the 1 / S
    # factor: the arithmetic of mean_all, add and scale, so the loss and
    # its gradient keep the bits those generic ops gave.
    inv_scales = 1.0 / len(states)
    means = np.add.reduce(values.reshape(len(states), blocks, per_set), axis=2) / per_set
    loss = functools.reduce(np.add, means) * inv_scales

    def vjp(g):
        g_rows = np.repeat(np.reshape(g * inv_scales, -1) / per_set, per_set)
        return (pullback(g_rows).reshape(features.shape),)

    return tt._emit(loss if sets else loss[0], (features,), vjp), new_states


@dataclass(frozen=True)
class LossWeights:
    """Component weights of the combined objective."""

    cls: float = 2.0
    iou: float = 5.0
    l1: float = 2.0
    oim: float = 0.5


def total_loss(l_cls, l_iou, l_l1, l_oim, weights: LossWeights = LossWeights()):
    """weights.cls * l_cls + weights.iou * l_iou + weights.l1 * l_l1
    + weights.oim * l_oim.

    Accepts floats or scalar Tensors per component; returns a Tensor if any
    component is one (preserving gradients), otherwise a float.
    """
    terms = [
        (l_cls, weights.cls),
        (l_iou, weights.iou),
        (l_l1, weights.l1),
        (l_oim, weights.oim),
    ]
    const = 0.0
    acc: Tensor | None = None
    for value, w in terms:
        if isinstance(value, Tensor):
            if value.size != 1:
                raise ValueError("loss components must be scalar")
            scaled = tt.scale(value, w)
            acc = scaled if acc is None else tt.add(acc, scaled)
        else:
            const += w * float(value)
    if acc is None:
        return const
    return tt.add_scalar(acc, const)
