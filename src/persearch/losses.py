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
``focal_oim_rows`` gives the per-row values without the state update, so a
caller can score many batches stacked into one.  It records one taped
primitive per call, with a hand-written VJP for the features; the lookup
table and queue are constants of the step.

``total_loss`` combines the four training components cls/iou/l1/oim with
the standard weights (2.0, 5.0, 2.0, 0.5).
"""

from __future__ import annotations

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
    state many times).
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

    def class_matrix(self) -> np.ndarray:
        """(L + queue_len, dim): prototype rows first, then queue rows."""
        if self.queue:
            return np.vstack([self.lut, np.array(list(self.queue))])
        return self.lut.copy()

    def update(self, features: np.ndarray, labels: Sequence[int]) -> "OIMState":
        """Momentum-fold labeled rows, enqueue unlabeled rows; new state."""
        lut = self.lut.copy()
        queue = deque(self.queue, maxlen=self.queue.maxlen)
        for x, label in zip(features, labels):
            if label >= 0:
                mixed = self.momentum * lut[label] + (1.0 - self.momentum) * x
                norm = np.linalg.norm(mixed)
                lut[label] = mixed / norm if norm > 1e-12 else 0.0
            elif label == UNLABELED and queue.maxlen > 0:
                queue.append(np.array(x))
        return OIMState(lut, queue, self.momentum, self.tau)


def _check_oim_inputs(features: Tensor, labels: Sequence[int], state: OIMState):
    if features.ndim != 2 or features.shape[1] != state.dim:
        raise ValueError(
            f"features {features.shape} do not match state dim {state.dim}"
        )
    if len(labels) != features.shape[0]:
        raise ValueError("one label per feature row is required")
    norms = np.linalg.norm(features.data, axis=1)
    table = state.num_labeled
    ids = np.array(labels, dtype=np.int64).reshape(-1)
    off_norm = (ids != BACKGROUND) & (np.abs(norms - 1.0) > _UNIT_NORM_TOL)
    bad = np.flatnonzero((ids >= table) | (ids < BACKGROUND) | off_norm)
    if bad.size:
        i = int(bad[0])  # the first bad row, checked in the order below
        if labels[i] >= table:
            raise ValueError(f"identity {labels[i]} outside table of {table}")
        if labels[i] < BACKGROUND:
            raise ValueError(f"unknown label marker {labels[i]}")
        raise ValueError(f"row {i} entering OIM must be unit-norm, got {norms[i]:.8f}")


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
    _check_oim_inputs(features, labels, state)
    rows = np.array([i for i, l in enumerate(labels) if l >= 0], dtype=np.intp)
    if not rows.size:
        return Tensor(np.zeros(0))

    # (dim, L + queue_len), C-contiguous: products with a transposed view
    # round differently.
    classes = np.ascontiguousarray(state.class_matrix().T)
    inv_tau, c, focal = 1.0 / state.tau, float(gamma), gamma > 0.0
    picks = (np.arange(rows.size), np.array([labels[i] for i in rows], dtype=np.intp))
    p = tt._softmax_last((features.data[rows] @ classes) * inv_tau)
    p_t = p[picks]
    nll = -np.log(p_t)
    q = 1.0 - p_t
    hard = q**c if focal else None

    def vjp(g):
        # The chain rule op by op, from the focal factor q^gamma and the
        # log back through the target pick, the softmax, the 1/tau scale,
        # the class product and the row pick.
        g_log = -(g * hard if focal else g) / p_t
        g_p_t = g_log - (g * nll) * c * q ** (c - 1.0) if focal else g_log
        g_p = np.zeros(p.shape)
        np.add.at(g_p, picks, g_p_t)
        g_logits = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * inv_tau
        g_features = np.zeros(features.shape)
        np.add.at(g_features, rows, g_logits @ classes.T)
        return (g_features,)

    return tt._emit(nll * hard if focal else nll, (features,), vjp)


def focal_oim_loss(
    features: Tensor,
    id_labels: Sequence[int],
    state: OIMState,
    gamma: float = 2.0,
) -> tuple[Tensor, OIMState]:
    """Focal OIM over the labeled rows of a batch: the mean of
    :func:`focal_oim_rows`.

    Returns the scalar loss and the post-batch state.  Batches without any
    labeled row yield a constant 0 (no gradient); the state still absorbs
    unlabeled rows.
    """
    labels = [int(l) for l in id_labels]
    per_row = focal_oim_rows(features, labels, state, gamma)
    new_state = state.update(features.data, labels)
    if per_row.size == 0:
        return Tensor(0.0), new_state
    return tt.mean_all(per_row), new_state


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
