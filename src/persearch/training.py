"""Training loop and the benchmark inference pipeline.

One step processes one scene: fabricate detections around the ground-truth
boxes, match them back by Hungarian assignment, run the re-ID transformer
on the scene pyramid at the detection centers, and descend the combined
loss.  Detection-side losses (focal classification, IoU, smooth-L1) come
from the frozen detector stub and carry no gradient; only the identity
branch (per-scale embeddings against the running OIM class matrices)
trains the model.

The same detection and embedding path serves retrieval: ``build_gallery``
embeds every gallery scene, ``build_query_entries`` picks each query's
detection slot by box overlap, and the evaluation protocol consumes the
result.  Detections derive from (run seed, scene id), so a training run
and a later evaluation of its checkpoint see identical boxes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .data import Benchmark
from .detector import (
    DetectionSet,
    assign_detections,
    focal_cls_loss,
    iou,
    jitter_detect,
    smooth_l1,
)
from .errors import ConfigError, DataError, NumericError, read_manifest, reading, write_manifest
from .evaluation import GalleryEntry, QueryEntry, select_query_embedding
from .losses import (
    BACKGROUND,
    DEFAULT_MOMENTUM,
    DEFAULT_TAU,
    LossWeights,
    OIMState,
    focal_oim_loss,
    total_loss,
)
from .tensor import GradTape, Tensor, read_blob, write_blob
from .transformer import ReIDTransformer

__all__ = [
    "TrainSettings",
    "TrainResult",
    "detect_scene",
    "slot_labels",
    "detection_losses",
    "train",
    "write_loss_curve",
    "save_checkpoint",
    "load_checkpoint",
    "build_gallery",
    "build_query_entries",
]

# Per-purpose RNG stream tags, combined with the run seed.
DETECTION_STREAM = 7
EPOCH_STREAM = 29

OPTIMIZERS = ("sgd", "adam")

# checkpoint.json's format: 2 stores the OIM state as one entry and two blobs.
_CHECKPOINT_FORMAT = 2


@dataclass
class TrainSettings:
    steps: int = 2000
    learning_rate: float = 0.01
    optimizer: str = "sgd"
    weight_decay: float = 0.0
    grad_clip: float | None = None
    queue_size: int = 32
    oim_momentum: float = DEFAULT_MOMENTUM
    oim_tau: float = DEFAULT_TAU
    focal_gamma: float = 2.0
    weights: LossWeights = field(default_factory=LossWeights)

    def validate(self) -> None:
        if self.steps < 0:
            raise ConfigError("steps must be non-negative")
        if self.learning_rate <= 0.0:
            raise ConfigError("learning_rate must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}")
        if self.weight_decay < 0.0 or self.focal_gamma < 0.0:
            raise ConfigError("weight_decay and focal_gamma must be non-negative")
        if self.queue_size < 0:
            raise ConfigError("queue_size must be non-negative")
        if not 0.0 <= self.oim_momentum < 1.0:
            raise ConfigError(f"train.oim_momentum must be in [0, 1), got {self.oim_momentum!r}")
        if not self.oim_tau > 0.0:
            raise ConfigError(f"train.oim_tau must be positive, got {self.oim_tau!r}")
        if self.grad_clip is not None and self.grad_clip <= 0.0:
            raise ConfigError("grad_clip must be positive when set")


@dataclass
class TrainResult:
    model: ReIDTransformer
    oim_state: OIMState
    curve: list[dict]


def detect_scene(
    bench: Benchmark, scene_id: int, num_slots: int, run_seed: int
) -> DetectionSet:
    """Deterministic detections for one scene, matched to ground truth."""
    boxes = [b for b, _ in bench.truth(scene_id)]
    det = jitter_detect(
        boxes,
        num_slots,
        bench.config.detector_sigma,
        seed=[run_seed, scene_id, DETECTION_STREAM],
    )
    return assign_detections(det, boxes)


def slot_labels(det: DetectionSet, bench: Benchmark, scene_id: int) -> list[int]:
    """OIM identity per slot: person label, UNLABELED, or BACKGROUND."""
    persons = bench.scenes[scene_id].persons
    return [
        BACKGROUND if a is None else persons[a].label for a in det.assigned
    ]


def detection_losses(det: DetectionSet, bench: Benchmark, scene_id: int):
    """Gradient-free detector stub losses: (focal cls, IoU, smooth-L1)."""
    boxes = [b for b, _ in bench.truth(scene_id)]
    cls_labels = [0 if a is None else 1 for a in det.assigned]
    l_cls = focal_cls_loss(det.scores, cls_labels)
    matched = [(d, boxes[a]) for d, a in zip(det.boxes, det.assigned) if a is not None]
    if matched:
        l_iou = float(np.mean([1.0 - iou(d, t) for d, t in matched]))
        l_l1 = float(
            np.mean([smooth_l1(d.as_array(), t.as_array()) for d, t in matched])
        )
    else:
        l_iou = 0.0
        l_l1 = 0.0
    return l_cls, l_iou, l_l1


def _scene_losses(
    model: ReIDTransformer,
    oim_state: OIMState,
    bench: Benchmark,
    scene_id: int,
    scene: tuple,
    settings: TrainSettings,
):
    """Forward one scene; returns (total Tensor, row dict, new OIM state).

    ``scene`` is the scene's (detections, slot labels, detection losses).
    """
    det, labels, (l_cls, l_iou, l_l1) = scene
    rows = model.forward(bench.pyramid(scene_id), det.refs).rows
    if not np.isfinite(rows.data).all():
        raise NumericError("non-finite re-ID embeddings")
    l_oim, new_state = focal_oim_loss(
        tt.l2_normalize_rows(rows), labels, oim_state, gamma=settings.focal_gamma
    )

    total = total_loss(l_cls, l_iou, l_l1, l_oim, settings.weights)
    if not np.isfinite(float(total.data)):
        raise NumericError(f"non-finite loss {float(total.data)}")
    row = {
        "l_cls": l_cls,
        "l_iou": l_iou,
        "l_l1": l_l1,
        "l_oim": float(l_oim.data),
        "total": float(total.data),
    }
    return total, row, new_state


def _step_losses(model, oim_state, bench, scene_id, scene, settings, step):
    try:
        return _scene_losses(model, oim_state, bench, scene_id, scene, settings)
    except NumericError as e:
        bad = next((n for n in sorted(model.params) if not np.isfinite(model.params[n].data).all()), None)
        where = "every parameter is finite" if bad is None else f"first non-finite parameter {bad}"
        raise NumericError(f"{e} at step {step}; {where}") from None


def _clip_gradients(grad: np.ndarray, views: list[np.ndarray], limit: float) -> None:
    """Scale ``grad`` in place to norm ``limit`` when its norm exceeds it.

    The norm sums each tensor's squares over ``views``, that tensor's view
    of ``grad``, in name order."""
    norm = float(np.sqrt(sum(float((g * g).sum()) for g in views)))
    if not (norm <= limit or norm == 0.0):
        grad *= limit / norm


class _Optimizer:
    """SGD or Adam over the flat parameter vector, elementwise and in place:
    each step writes the new parameters, and Adam's moments, over the old."""

    def __init__(self, size: int, settings: TrainSettings):
        self.settings = settings
        self.step_count = 0
        if settings.optimizer == "adam":
            self.m = np.zeros(size)
            self.v = np.zeros(size)

    def apply(self, p: np.ndarray, g: np.ndarray) -> None:
        """Descend ``p`` along the gradient ``g``, both flat; ``g`` is
        overwritten."""
        s = self.settings
        self.step_count += 1
        if s.weight_decay > 0.0:
            g += s.weight_decay * p
        if s.optimizer == "sgd":
            g *= s.learning_rate
            p -= g
            return
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.m *= b1
        self.m += (1 - b1) * g
        self.v *= b2
        self.v += (1 - b2) * g * g
        m_hat = self.m / (1 - b1**self.step_count)
        v_hat = self.v / (1 - b2**self.step_count)
        p -= s.learning_rate * m_hat / (np.sqrt(v_hat) + eps)


def train(
    model: ReIDTransformer,
    bench: Benchmark,
    settings: TrainSettings,
    run_seed: int,
    progress=None,
) -> TrainResult:
    """Descend the combined loss over epoch-permuted training scenes.

    The loss curve holds one row per step with the losses measured before
    that step's update; zero steps still evaluates one row so a curve file
    is never empty.  Raises NumericError as soon as the total loss stops
    being finite; its message names the step and the first parameter, in
    sorted name order, that is not finite, or says that all are.

    The run owns its parameters: they are copied once into one private
    float64 vector, and ``model.params`` is pointed once at read-only
    Tensor views of it, the same objects for the whole run.  Each step's
    gradients are gathered into one flat gradient, and the optimizer
    updates the vector in place, so those Tensors change value after every
    step (the one exception to ``Tensor``'s rule; no tape outlives its
    step).  The caller's parameter arrays are never written.  Each scene's
    detections, slot labels and detection losses are computed on its first
    visit and reused on later ones; they depend only on the run seed and
    the scene.

    The run first pins the C library's heap thresholds
    (``tensor._keep_freed_heap``), so each step reuses the memory the
    previous step freed instead of faulting it back in.
    """
    tt._keep_freed_heap()
    settings.validate()
    train_ids = bench.train_ids
    if not train_ids:
        raise DataError("benchmark has no training scenes")
    # One lookup table and queue per embedding scale, all of one width.
    cfg = model.config
    oim_state = OIMState.initial(
        bench.config.labeled_identities, cfg.query_width, settings.queue_size, cfg.output_scales,
        settings.oim_momentum, settings.oim_tau,
    )
    scenes: dict[int, tuple] = {}

    def scene(scene_id):
        if scene_id not in scenes:
            det = detect_scene(bench, scene_id, model.config.num_queries, run_seed)
            scenes[scene_id] = (
                det,
                slot_labels(det, bench, scene_id),
                detection_losses(det, bench, scene_id),
            )
        return scenes[scene_id]

    curve: list[dict] = []
    if settings.steps == 0:
        sid = train_ids[0]
        _, row, _ = _step_losses(model, oim_state, bench, sid, scene(sid), settings, 0)
        curve.append({"step": 0, **row})
        return TrainResult(model, oim_state, curve)

    names = sorted(model.params)
    ends = np.cumsum([model.params[n].size for n in names]).tolist()
    spans = list(zip([0] + ends[:-1], ends, [model.params[n].shape for n in names]))
    params = np.concatenate([model.params[n].data for n in names], axis=None)
    grad = np.empty_like(params)
    # The Tensors in ``model.params`` become read-only views of ``params``,
    # in sorted name order, for the whole run.
    sources = [Tensor._adopt(params[a:b].reshape(shape)) for a, b, shape in spans]
    model.params.update(zip(names, sources))
    grad_views = [grad[a:b].reshape(shape) for a, b, shape in spans]
    opt = _Optimizer(params.size, settings)
    step = 0
    epoch = 0
    while step < settings.steps:
        rng = np.random.default_rng([run_seed, EPOCH_STREAM, epoch])
        order = rng.permutation(len(train_ids))
        for idx in order:
            if step >= settings.steps:
                break
            scene_id = train_ids[idx]
            with GradTape() as tape:
                total, row, oim_state = _step_losses(
                    model, oim_state, bench, scene_id, scene(scene_id), settings, step
                )
                np.concatenate(tape.gradients(total, sources), axis=None, out=grad)
            if settings.grad_clip is not None:
                _clip_gradients(grad, grad_views, settings.grad_clip)
            opt.apply(params, grad)
            curve.append({"step": step, **row})
            if progress is not None:
                progress(step, row)
            step += 1
        epoch += 1
    return TrainResult(model, oim_state, curve)


def write_loss_curve(path, curve: list[dict]) -> None:
    """CSV with one row per step; floats via repr for exact round-trips."""
    cols = ["step", "l_cls", "l_iou", "l_l1", "l_oim", "total"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in curve:
            fh.write(
                ",".join(
                    str(row["step"]) if c == "step" else repr(row[c]) for c in cols
                )
                + "\n"
            )


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------


def save_checkpoint(out_dir, model: ReIDTransformer, oim_state: OIMState, meta: dict) -> None:
    """Model tensors plus the OIM state, all byte-stable: one manifest
    entry for the scalars and two stacked blobs, the (S, L, width) lookup
    tables and the (S, n, width) queues (written even when n = 0)."""
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    model.save(os.path.join(out_dir, "model"))
    write_blob(os.path.join(out_dir, "oim_lut.sqt"), Tensor(oim_state.lut))
    write_blob(os.path.join(out_dir, "oim_queue.sqt"), Tensor(oim_state.queue))
    manifest = {
        "format_version": _CHECKPOINT_FORMAT,
        "kind": "checkpoint",
        "meta": meta,
        "oim": {"capacity": oim_state.capacity, "momentum": oim_state.momentum, "tau": oim_state.tau},
    }
    write_manifest(os.path.join(out_dir, "checkpoint.json"), manifest)


def _read_oim_blob(ckpt_dir: str, part: str, scales: int, width: int) -> np.ndarray:
    """The stacked (scales, rows, width) array in the blob ``oim_{part}.sqt``."""
    path = os.path.join(ckpt_dir, f"oim_{part}.sqt")
    data = read_blob(path).data
    if data.ndim != 3 or data.shape[::2] != (scales, width):
        raise ValueError(f"{path} holds a {data.shape} array, expected ({scales}, rows, {width})")
    return data


def load_checkpoint(ckpt_dir):
    """Returns (model, oim_state, meta); raises DataError when malformed.

    ``meta`` must hold the run's seed, which retrieval detects with, as a
    non-negative integer ``run_seed``.  The OIM blobs must stack one array
    per output scale of the model, of the model's width (the error names
    the blob), and with the manifest's ``oim`` entry form a valid
    ``OIMState``.
    """
    ckpt_dir = str(ckpt_dir)
    path = os.path.join(ckpt_dir, "checkpoint.json")
    manifest = read_manifest(path, "checkpoint", _CHECKPOINT_FORMAT)
    model = ReIDTransformer.load(os.path.join(ckpt_dir, "model"))
    width, scales = model.config.query_width, model.config.output_scales
    with reading(path):
        meta = manifest["meta"]
        if not isinstance(meta, dict):
            raise ValueError(f"meta must be an object, got {type(meta).__name__}")
        if type(meta["run_seed"]) is not int or meta["run_seed"] < 0:
            raise ValueError(f"meta.run_seed must be a non-negative integer, got {meta['run_seed']!r}")
        oim = manifest["oim"]
        lut, queue = (_read_oim_blob(ckpt_dir, part, scales, width) for part in ("lut", "queue"))
        state = OIMState(lut, queue, oim["capacity"], oim["momentum"], oim["tau"])
    return model, state, meta


# ----------------------------------------------------------------------
# retrieval pipeline
# ----------------------------------------------------------------------


def build_gallery(model: ReIDTransformer, bench: Benchmark, run_seed: int):
    """Embed every gallery scene's detections.

    Returns (entries, truth, per_scene) where per_scene maps scene id to
    (first entry index, detections, embedding matrix) for query lookup.
    """
    entries: list[GalleryEntry] = []
    truth = {sid: bench.truth(sid) for sid in bench.gallery_ids}
    per_scene: dict[int, tuple[int, DetectionSet, np.ndarray]] = {}
    for sid in bench.gallery_ids:
        det = detect_scene(bench, sid, model.config.num_queries, run_seed)
        emb = model.matching_embeddings(bench.pyramid(sid), det.refs).data
        per_scene[sid] = (len(entries), det, emb)
        for i, box in enumerate(det.boxes):
            entries.append(GalleryEntry(sid, box, float(det.scores[i]), emb[i]))
    return entries, truth, per_scene


def build_query_entries(bench: Benchmark, per_scene) -> list[QueryEntry]:
    """One QueryEntry per benchmark query, embedded via its own detections."""
    out = []
    for q in bench.queries:
        sid = q["scene"]
        person = bench.scenes[sid].persons[q["person"]]
        start, det, emb = per_scene[sid]
        slot, embedding = select_query_embedding(det.boxes, emb, person.box)
        out.append(
            QueryEntry(
                scene_id=sid,
                box=person.box,
                identity=q["identity"],
                embedding=embedding,
                source_index=start + slot,
            )
        )
    return out
