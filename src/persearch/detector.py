"""Detection stub and box utilities.

There is no learned detector here: ``jitter_detect`` fabricates plausible
detections from ground truth by adding seeded corner noise to the true boxes
(detection score 0.9) and filling the remaining slots with random background
boxes (score 0.1).  That isolates the re-ID transformer, which is the part
under study, while keeping the training-time interfaces of a two-stage
person-search pipeline: per-slot boxes, scores, reference points, and a
Hungarian assignment of slots to ground-truth persons on IoU cost.

The stub learns nothing, so there are no detection losses: SeqTR's
classification, IoU and L1 terms would be constants of each scene, and the
training objective is the identity loss alone (``losses.focal_oim_loss``).
The assignment solver is imported on the first call of
``hungarian_assign``, so commands that never match detections do not load
``scipy.optimize``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attention import ReferencePoint

__all__ = [
    "Box",
    "DetectionSet",
    "iou",
    "box_center_reference",
    "jitter_detect",
    "assign_detections",
    "hungarian_assign",
    "TRUE_BOX_SCORE",
    "BACKGROUND_SCORE",
]

TRUE_BOX_SCORE = 0.9
BACKGROUND_SCORE = 0.1


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in normalized coordinates, corners in [0, 1]."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for v in (self.x1, self.y1, self.x2, self.y2):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"box corner {v} outside [0, 1]")
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError("box corners must be ordered")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2])


@dataclass
class DetectionSet:
    """Stub detector output for one scene.

    ``assigned`` maps each slot to a ground-truth person index or None; it
    is filled by :func:`assign_detections`, not by the detector itself.
    """

    boxes: list[Box]
    scores: np.ndarray
    refs: list[ReferencePoint]
    assigned: list[int | None]

    def __post_init__(self):
        n = len(self.boxes)
        if len(self.scores) != n or len(self.refs) != n or len(self.assigned) != n:
            raise ValueError("per-slot fields must have equal lengths")


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 when the union is empty."""
    ix1, iy1 = max(a.x1, b.x1), max(a.y1, b.y1)
    ix2, iy2 = min(a.x2, b.x2), min(a.y2, b.y2)
    inter = max(0.0, ix2 - ix1) * max(0.0, iy2 - iy1)
    union = a.area + b.area - inter
    return inter / union if union > 0.0 else 0.0


def box_center_reference(box: Box) -> ReferencePoint:
    """Reference point of a detection: the box center."""
    cx, cy = box.center
    return ReferencePoint(cx, cy)


def _clip_sorted(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = min(lo, hi), max(lo, hi)
    return min(1.0, max(0.0, lo)), min(1.0, max(0.0, hi))


def jitter_detect(
    truth_boxes: Sequence[Box],
    num_slots: int,
    noise_sigma: float,
    seed: int | Sequence[int],
) -> DetectionSet:
    """Fabricate ``num_slots`` detections for a scene, deterministically.

    The first len(truth_boxes) slots are the true boxes with Gaussian corner
    noise; remaining slots are background boxes drawn uniformly.  Corners
    are re-sorted and clipped back into [0, 1] after the jitter.
    """
    if num_slots < len(truth_boxes):
        raise ValueError(
            f"{num_slots} slots cannot cover {len(truth_boxes)} persons"
        )
    rng = np.random.default_rng(seed)
    boxes: list[Box] = []
    scores = np.empty(num_slots)
    for i, tb in enumerate(truth_boxes):
        noisy = tb.as_array() + rng.normal(0.0, noise_sigma, size=4)
        x1, x2 = _clip_sorted(noisy[0], noisy[2])
        y1, y2 = _clip_sorted(noisy[1], noisy[3])
        boxes.append(Box(x1, y1, x2, y2))
        scores[i] = TRUE_BOX_SCORE
    for i in range(len(truth_boxes), num_slots):
        cx, cy = rng.uniform(0.2, 0.8, size=2)
        w, h = rng.uniform(0.05, 0.2, size=2)
        x1, x2 = _clip_sorted(cx - w, cx + w)
        y1, y2 = _clip_sorted(cy - h, cy + h)
        boxes.append(Box(x1, y1, x2, y2))
        scores[i] = BACKGROUND_SCORE
    refs = [box_center_reference(b) for b in boxes]
    return DetectionSet(boxes, scores, refs, [None] * num_slots)


def hungarian_assign(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Minimum-cost bipartite assignment of min(n, m) pairs.

    Backed by scipy's exact solver; returns the pair list sorted by row
    index and the summed cost.  Costs must be finite.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a matrix")
    if cost.size == 0:
        return [], 0.0
    if not np.all(np.isfinite(cost)):
        raise ValueError("assignment costs must be finite")
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    total = float(cost[rows, cols].sum())
    return pairs, total


def assign_detections(det: DetectionSet, truth_boxes: Sequence[Box]) -> DetectionSet:
    """Fill ``det.assigned`` by Hungarian matching on cost = -IoU."""
    det.assigned = [None] * len(det.boxes)
    if not truth_boxes:
        return det
    cost = np.array(
        [[-iou(b, tb) for tb in truth_boxes] for b in det.boxes]
    )
    pairs, _ = hungarian_assign(cost)
    for slot, person in pairs:
        det.assigned[slot] = person
    return det
