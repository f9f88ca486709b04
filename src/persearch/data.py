"""Synthetic person-search benchmark.

A scene is a three-level feature pyramid (strides 8, 16, 32 of a nominal
square image) containing a few "persons".  Each person is a unit-norm
identity vector from a fixed bank, painted into every pyramid level as an
isotropic Gaussian bump centered on its box (peak 1.0, scale a quarter of
the box size in that level's pixels), on top of Gaussian background noise.
Because appearance is exactly the identity vector, retrieval quality
measures only whether the model learns to read it out through detection
noise, scale changes and occlusion.

The generator guarantees the retrieval protocol is well-posed: every query
identity appears in at least two gallery scenes, so excluding the query's
own scene always leaves a true match.  Scene content derives from per-scene
seeds (seed, scene id), so generation order does not matter and repeated
runs are byte-identical.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .detector import Box, iou
from .errors import ConfigError, DataError, read_manifest, reading, stored_config, write_manifest
from .losses import UNLABELED
from .tensor import Tensor, read_blob, write_blob

__all__ = [
    "PYRAMID_STRIDES",
    "BenchmarkConfig",
    "Person",
    "SceneMeta",
    "IdentityBank",
    "Benchmark",
    "render_scene",
    "make_benchmark",
    "load_benchmark",
]

PYRAMID_STRIDES = (8, 16, 32)

# manifest.json's format: 2 stores no fact that another field gives.
_FORMAT_VERSION = 2


@dataclass
class BenchmarkConfig:
    num_train: int = 200
    num_gallery: int = 100
    num_queries: int = 40
    labeled_identities: int = 16
    unlabeled_identities: int = 4
    persons_per_scene: int = 2
    feature_dim: int = 32
    image_size: int = 256
    sigma_bg: float = 0.1
    detector_sigma: float = 0.02
    occlusion_rate: float = 0.1
    co_travellers: bool = False
    seed: int = 0

    def validate(self) -> None:
        for name in (
            "num_train",
            "num_gallery",
            "num_queries",
            "labeled_identities",
            "persons_per_scene",
            "feature_dim",
            "image_size",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.unlabeled_identities < 0:
            raise ConfigError("unlabeled_identities must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"data.seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.occlusion_rate <= 1.0:
            raise ConfigError("occlusion_rate must lie in [0, 1]")
        if self.sigma_bg < 0 or self.detector_sigma < 0:
            raise ConfigError("noise levels must be non-negative")
        if self.image_size % PYRAMID_STRIDES[-1] != 0:
            raise ConfigError(
                f"image_size must be a multiple of {PYRAMID_STRIDES[-1]}"
            )
        if self.persons_per_scene > self.labeled_identities + self.unlabeled_identities:
            raise ConfigError("not enough identities for persons_per_scene")
        if self.co_travellers and self.persons_per_scene < 2:
            raise ConfigError("co_travellers needs persons_per_scene >= 2")


@dataclass(frozen=True)
class Person:
    """One ground-truth person: box, identity label, bank row that renders it.

    ``label`` is the OIM identity (0..L-1) or UNLABELED; ``bank_index``
    addresses the appearance vector (unlabeled persons use rows >= L).
    """

    box: Box
    label: int
    bank_index: int


@dataclass(frozen=True)
class SceneMeta:
    scene_id: int
    split: str  # "train" | "gallery"
    persons: tuple[Person, ...]


class IdentityBank:
    """Unit-norm appearance vectors: L labeled rows, then unlabeled rows."""

    def __init__(self, vectors: np.ndarray, num_labeled: int):
        if vectors.ndim != 2 or not 0 < num_labeled <= vectors.shape[0]:
            raise ValueError("bad identity bank")
        self.vectors = vectors
        self.num_labeled = num_labeled

    @classmethod
    def create(
        cls, num_labeled: int, num_unlabeled: int, dim: int, seed: int
    ) -> "IdentityBank":
        rng = np.random.default_rng([seed, 19])
        raw = rng.standard_normal((num_labeled + num_unlabeled, dim))
        vectors = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        return cls(vectors, num_labeled)


def _level_sides(image_size: int) -> list[int]:
    return [image_size // s for s in PYRAMID_STRIDES]


def render_scene(
    bank: IdentityBank,
    persons: Sequence[Person],
    image_size: int,
    sigma_bg: float,
    rng: np.random.Generator,
) -> list[Tensor]:
    """Paint persons onto a noisy pyramid; one (C, side, side) map per level."""
    dim = bank.vectors.shape[1]
    maps = []
    for side in _level_sides(image_size):
        bg = rng.normal(0.0, sigma_bg, size=(dim, side, side)) if sigma_bg > 0 else np.zeros((dim, side, side))
        maps.append(bg)
    for person in persons:
        vec = bank.vectors[person.bank_index]
        b = person.box
        for level, side in enumerate(_level_sides(image_size)):
            # Pixel grid uses the sampling convention x_px = x * (side - 1).
            x1, x2 = b.x1 * (side - 1), b.x2 * (side - 1)
            y1, y2 = b.y1 * (side - 1), b.y2 * (side - 1)
            cx, cy = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
            sigma = max(((x2 - x1) + (y2 - y1)) / 8.0, 1e-3)
            xs = np.arange(max(0, int(np.floor(x1))), min(side - 1, int(np.ceil(x2))) + 1)
            ys = np.arange(max(0, int(np.floor(y1))), min(side - 1, int(np.ceil(y2))) + 1)
            if xs.size == 0 or ys.size == 0:
                continue
            gx = np.exp(-((xs - cx) ** 2) / (2 * sigma * sigma))
            gy = np.exp(-((ys - cy) ** 2) / (2 * sigma * sigma))
            bump = gy[:, None] * gx[None, :]
            maps[level][:, ys[0] : ys[-1] + 1, xs[0] : xs[-1] + 1] += (
                vec[:, None, None] * bump[None, :, :]
            )
    # The maps are fresh and never written again: adopt, do not copy.
    return [Tensor._adopt(m) for m in maps]


def _sample_box(rng: np.random.Generator) -> Box:
    w, h = rng.uniform(0.15, 0.3, size=2)
    cx = rng.uniform(w / 2 + 0.02, 1 - w / 2 - 0.02)
    cy = rng.uniform(h / 2 + 0.02, 1 - h / 2 - 0.02)
    return Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def _overlapping_box(rng: np.random.Generator, anchor: Box) -> Box:
    """A same-sized box shifted a quarter side off the anchor (IoU ~ 0.4)."""
    w, h = anchor.x2 - anchor.x1, anchor.y2 - anchor.y1
    sx = 0.25 * w * rng.choice([-1.0, 1.0])
    sy = 0.25 * h * rng.choice([-1.0, 1.0])
    cx, cy = anchor.center
    cx = min(max(cx + sx, w / 2), 1 - w / 2)
    cy = min(max(cy + sy, h / 2), 1 - h / 2)
    return Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def _scene_boxes(rng: np.random.Generator, count: int, occlusion_rate: float) -> list[Box]:
    boxes: list[Box] = []
    occlude = count >= 2 and rng.uniform() < occlusion_rate
    for j in range(count):
        if j == 1 and occlude:
            boxes.append(_overlapping_box(rng, boxes[0]))
            continue
        box = _sample_box(rng)
        for _ in range(50):
            if all(iou(box, other) < 0.1 for other in boxes):
                break
            box = _sample_box(rng)
        boxes.append(box)
    return boxes


def _scene_identities(
    cfg: BenchmarkConfig,
    rng: np.random.Generator,
    forced_first: int | None,
) -> list[int]:
    """Distinct bank indices for one scene; labeled indices are < L."""
    total = cfg.labeled_identities + cfg.unlabeled_identities
    picked: list[int] = []
    if forced_first is not None:
        picked.append(forced_first)
        if cfg.co_travellers:
            partner = forced_first + 1 if forced_first % 2 == 0 else forced_first - 1
            if partner < cfg.labeled_identities:
                picked.append(partner)
    while len(picked) < cfg.persons_per_scene:
        idx = int(rng.integers(total))
        if cfg.co_travellers and idx < cfg.labeled_identities:
            partner = idx + 1 if idx % 2 == 0 else idx - 1
            if (
                partner < cfg.labeled_identities
                and idx not in picked
                and partner not in picked
                and len(picked) + 2 <= cfg.persons_per_scene
            ):
                picked.extend([idx, partner])
                continue
            if idx in picked or partner in picked:
                continue
            if len(picked) + 2 > cfg.persons_per_scene:
                # No room for the pair; fall back to an unlabeled filler.
                if cfg.unlabeled_identities == 0:
                    picked.append(idx)  # degenerate config, accept singleton
                    continue
                filler = cfg.labeled_identities + int(
                    rng.integers(cfg.unlabeled_identities)
                )
                if filler not in picked:
                    picked.append(filler)
                continue
        if idx not in picked:
            picked.append(idx)
    return picked[: cfg.persons_per_scene]


def _scene(cfg: BenchmarkConfig, scene_id: int, rows: Sequence[int], boxes: Sequence[Box]) -> SceneMeta:
    """Scene ``scene_id`` of persons with bank rows ``rows`` in ``boxes``:
    the first ``num_train`` scenes are train scenes, and a row below
    ``labeled_identities`` is its person's label (UNLABELED otherwise)."""
    labeled = cfg.labeled_identities
    persons = tuple(Person(box, row if row < labeled else UNLABELED, row) for box, row in zip(boxes, rows))
    return SceneMeta(scene_id, "train" if scene_id < cfg.num_train else "gallery", persons)


def _build_scene(cfg: BenchmarkConfig, scene_id: int, forced_first: int | None) -> SceneMeta:
    rng = np.random.default_rng([cfg.seed, scene_id, 11])
    rows = _scene_identities(cfg, rng, forced_first)
    return _scene(cfg, scene_id, rows, _scene_boxes(rng, len(rows), cfg.occlusion_rate))


@dataclass
class Benchmark:
    """Loaded dataset: metadata in memory, pyramids read per scene."""

    root: str
    config: BenchmarkConfig
    bank: IdentityBank
    scenes: dict[int, SceneMeta]
    queries: list[dict]

    @property
    def train_ids(self) -> list[int]:
        return sorted(s for s, m in self.scenes.items() if m.split == "train")

    @property
    def gallery_ids(self) -> list[int]:
        return sorted(s for s, m in self.scenes.items() if m.split == "gallery")

    def pyramid(self, scene_id: int) -> list[Tensor]:
        """Stored pyramid blobs for one scene."""
        try:
            return [
                read_blob(_scene_blob_path(self.root, scene_id, level))
                for level in range(len(PYRAMID_STRIDES))
            ]
        except (FileNotFoundError, ValueError) as e:
            raise DataError(
                f"missing or corrupt scene {scene_id} in {self.root}: {e}"
            ) from e

    def regenerate_pyramid(self, scene_id: int) -> list[Tensor]:
        """Re-render the scene from its seed; equals the stored blobs."""
        meta = self.scenes[scene_id]
        rng = np.random.default_rng([self.config.seed, scene_id, 13])
        return render_scene(
            self.bank, meta.persons, self.config.image_size, self.config.sigma_bg, rng
        )

    def truth(self, scene_id: int) -> list[tuple[Box, int]]:
        return [(p.box, p.label) for p in self.scenes[scene_id].persons]


def make_benchmark(cfg: BenchmarkConfig, out_dir) -> Benchmark:
    """Generate and persist a benchmark; returns the loaded handle.

    Gallery scenes cycle the labeled identities as their first person so
    coverage is even; queries then sample labeled gallery persons whose
    identity shows up in at least two gallery scenes.
    """
    out_dir = str(out_dir)
    cfg.validate()
    bank = IdentityBank.create(
        cfg.labeled_identities, cfg.unlabeled_identities, cfg.feature_dim, cfg.seed
    )

    scenes = {i: _build_scene(cfg, i, forced_first=None) for i in range(cfg.num_train)}
    gallery = range(cfg.num_train, cfg.num_train + cfg.num_gallery)
    for j, sid in enumerate(gallery):
        scenes[sid] = _build_scene(cfg, sid, forced_first=j % cfg.labeled_identities)

    # Identity -> gallery scenes containing it.
    occurrences: dict[int, list[int]] = {}
    for sid in gallery:
        for p in scenes[sid].persons:
            if p.label >= 0:
                occurrences.setdefault(p.label, []).append(sid)
    eligible = [
        {"scene": sid, "person": j, "identity": p.label}
        for sid in gallery
        for j, p in enumerate(scenes[sid].persons)
        if p.label >= 0 and len(occurrences.get(p.label, [])) >= 2
    ]
    if len(eligible) < cfg.num_queries:
        raise ConfigError(
            f"benchmark infeasible: only {len(eligible)} eligible query persons "
            f"for {cfg.num_queries} requested queries; grow num_gallery or "
            f"shrink num_queries"
        )
    qrng = np.random.default_rng([cfg.seed, 17])
    picked = qrng.choice(len(eligible), size=cfg.num_queries, replace=False)
    queries = [eligible[i] for i in sorted(picked.tolist())]

    # Persist: blobs per scene and level plus one manifest.
    os.makedirs(os.path.join(out_dir, "scenes"), exist_ok=True)
    write_blob(os.path.join(out_dir, "bank.sqt"), Tensor(bank.vectors))
    bench = Benchmark(out_dir, cfg, bank, scenes, queries)
    for sid in sorted(scenes):
        for level, fmap in enumerate(bench.regenerate_pyramid(sid)):
            write_blob(_scene_blob_path(out_dir, sid, level), fmap)

    # Scene ids, splits, labels and query identities are not stored:
    # load_benchmark derives them.
    manifest = {
        "format_version": _FORMAT_VERSION,
        "kind": "persearch_benchmark",
        "config": asdict(cfg),
        "queries": [{"scene": q["scene"], "person": q["person"]} for q in queries],
        "scenes": [
            {"persons": [{"box": p.box.as_array().tolist(), "bank": p.bank_index} for p in meta.persons]}
            for _, meta in sorted(scenes.items())
        ],
    }
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    return bench


def _scene_blob_path(root: str, scene_id: int, level: int) -> str:
    return os.path.join(root, "scenes", f"scene_{scene_id:05d}_l{level}.sqt")


def _record(value, keys: set, what: str) -> dict:
    """``value``, which must be an object with exactly the keys ``keys``."""
    if not isinstance(value, dict) or value.keys() != keys:
        found = sorted(value) if isinstance(value, dict) else type(value).__name__
        raise ValueError(f"{what} must have exactly the keys {sorted(keys)}, got {found}")
    return value


def load_benchmark(root) -> Benchmark:
    """Read a benchmark written by :func:`make_benchmark`; raises DataError
    when malformed.

    Scene i of the manifest is scene id i, and a query's identity is its
    person's label (see ``_scene``).  Every record must have exactly its
    keys, there must be ``num_train + num_gallery`` scenes of
    ``persons_per_scene`` persons each and ``num_queries`` queries,
    ``bank.sqt`` must be (``labeled_identities + unlabeled_identities``,
    ``feature_dim``), each ``bank`` one of its rows, and each query a
    labeled person of a gallery scene.
    """
    root = str(root)
    path = os.path.join(root, "manifest.json")
    manifest = read_manifest(path, "persearch_benchmark", _FORMAT_VERSION)
    bank_path = os.path.join(root, "bank.sqt")
    try:
        vectors = read_blob(bank_path).data
    except (FileNotFoundError, ValueError) as e:
        raise DataError(f"bad identity bank in {root}: {e}") from e
    with reading(path):
        _record(manifest, {"format_version", "kind", "config", "scenes", "queries"}, "the manifest")
        cfg = stored_config(BenchmarkConfig, manifest["config"])
        total = cfg.labeled_identities + cfg.unlabeled_identities
        if vectors.shape != (total, cfg.feature_dim):
            raise ValueError(
                f"{bank_path} holds a {vectors.shape} array, but (labeled_identities + "
                f"unlabeled_identities, feature_dim) is {(total, cfg.feature_dim)}"
            )
        entries = manifest["scenes"]
        if len(entries) != cfg.num_train + cfg.num_gallery:
            raise ValueError(
                f"{len(entries)} scenes, but num_train + num_gallery is {cfg.num_train + cfg.num_gallery}"
            )
        scenes: dict[int, SceneMeta] = {}
        for sid, entry in enumerate(entries):
            persons = _record(entry, {"persons"}, f"scene {sid}")["persons"]
            if len(persons) != cfg.persons_per_scene:
                raise ValueError(
                    f"scene {sid} holds {len(persons)} persons, but persons_per_scene is {cfg.persons_per_scene}"
                )
            records = [_record(p, {"box", "bank"}, f"a person of scene {sid}") for p in persons]
            rows = [p["bank"] for p in records]
            for row in rows:
                if type(row) is not int or not 0 <= row < total:
                    raise ValueError(f"person bank {row!r} of scene {sid} is not a row of bank.sqt ({total} rows)")
            scenes[sid] = _scene(cfg, sid, rows, [Box(*p["box"]) for p in records])
        if len(manifest["queries"]) != cfg.num_queries:
            raise ValueError(f"{len(manifest['queries'])} queries, but num_queries is {cfg.num_queries}")
        queries = []
        for q in manifest["queries"]:
            sid, person = _record(q, {"scene", "person"}, "a query")["scene"], q["person"]
            meta = scenes.get(sid) if type(sid) is int else None
            persons = meta.persons if meta and meta.split == "gallery" else ()
            if type(person) is not int or not 0 <= person < len(persons) or persons[person].label < 0:
                raise ValueError(f"query person {person!r} of scene {sid!r} is not a labeled gallery person")
            queries.append({"scene": sid, "person": person, "identity": persons[person].label})
        return Benchmark(root, cfg, IdentityBank(vectors, cfg.labeled_identities), scenes, queries)
