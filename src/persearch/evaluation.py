"""Person-search retrieval protocol: mAP, CMC, sweeps, context re-ranking.

A gallery is the set of all detections of all gallery scenes, each carrying
a unit-norm matching embedding.  For a query person, candidates from every
scene except the query's own are ranked by cosine similarity (ties keep
gallery order).  A candidate counts as correct when its box overlaps an
unclaimed ground-truth box of the query identity at IoU >= 0.5, claiming
greedily down the ranking.  AP for one query sums precision at each hit and
divides by the number of ground-truth instances of that identity in the
active gallery, so missed persons push AP down.  CMC top-k asks whether any
hit appears in the first k candidates.

``gallery_sweep`` rebuilds each query's gallery as the scenes containing a
true match plus seeded distractor scenes up to a target size; distractor
sets nest across sizes, so per-query AP is non-increasing as the gallery
grows.

``cbgm_rerank`` (context bipartite graph matching) rescores the candidates
of each query's top-k1 scenes: up to k2 co-detections of the query scene
are matched one-to-one against the candidate scene's other detections by
maximum-weight bipartite matching on cosine similarity, and the positive
matched similarities are added to the candidate's score.  Queries without
context, or k2 = 0, reproduce the plain ranking bit for bit.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .detector import Box, hungarian_assign, iou
from .errors import ConfigError

__all__ = [
    "GalleryEntry",
    "QueryEntry",
    "QueryResult",
    "RankingResult",
    "select_query_embedding",
    "ap_single_query",
    "cmc_single_query",
    "evaluate",
    "gallery_sweep",
    "cbgm_rerank",
    "write_results_csv",
]

DEFAULT_IOU_THRESHOLD = 0.5
DEFAULT_TOPK = (1, 5, 10)


@dataclass(frozen=True)
class GalleryEntry:
    """One detection in the gallery."""

    scene_id: int
    box: Box
    score: float
    embedding: np.ndarray


@dataclass(frozen=True)
class QueryEntry:
    """One query person.

    ``source_index`` optionally points at this query's own detection in the
    gallery entry list; context re-ranking uses it to exclude the target
    from the query's context set.
    """

    scene_id: int
    box: Box
    identity: int
    embedding: np.ndarray
    source_index: int | None = None


@dataclass
class QueryResult:
    """Ranked candidates of one query: parallel columns ordered by rank.

    The columns are typed ``array.array``s (``'i'`` indices and scene ids,
    ``'d'`` similarities, ``'b'`` 0/1 flags), which take far less memory
    than lists of Python numbers; they index, slice and compare like lists.
    """

    identity: int
    scene_id: int
    entry_indices: array
    scene_ids: array
    sims: array
    correct: array
    num_relevant: int
    ap: float

    def cmc(self, k: int) -> float:
        return cmc_single_query(self.correct, k)

    @property
    def top_scene(self) -> int | None:
        return self.scene_ids[0] if self.scene_ids else None


@dataclass
class RankingResult:
    mean_ap: float
    cmc: dict[int, float]
    per_query: list[QueryResult]


def select_query_embedding(
    boxes: Sequence[Box], embeddings: np.ndarray, gt_box: Box
) -> tuple[int, np.ndarray]:
    """Detection slot representing a query: max IoU with the annotated box.

    Ties resolve to the lowest slot index.  Raises when no detections exist.
    """
    if len(boxes) == 0:
        raise ValueError("cannot select a query embedding without detections")
    if embeddings.shape[0] != len(boxes):
        raise ValueError("one embedding row per box is required")
    overlaps = [iou(b, gt_box) for b in boxes]
    best = max(range(len(boxes)), key=lambda i: (overlaps[i], -i))
    return best, embeddings[best]


def ap_single_query(correct_flags: Sequence[int], num_relevant: int) -> float:
    """Sum of precision at each hit divided by the relevant-instance count."""
    if num_relevant < 1:
        raise ValueError("AP needs at least one relevant gallery instance")
    hits = 0
    total = 0.0
    for rank, flag in enumerate(correct_flags, start=1):
        if flag:
            hits += 1
            total += hits / rank
    return total / num_relevant


def cmc_single_query(correct_flags: Sequence[int], k: int) -> float:
    return 1.0 if any(correct_flags[:k]) else 0.0


def _rank_query(
    query: QueryEntry,
    gallery: Sequence[GalleryEntry],
    truth: Mapping[int, Sequence[tuple[Box, int]]],
    allowed_scenes: set[int] | None,
    iou_threshold: float,
    score_override: Mapping[int, float] | None = None,
) -> QueryResult:
    """Rank all admissible gallery entries for one query.

    ``allowed_scenes`` of None admits every scene but the query's own.
    ``score_override`` remaps entry index -> score (used by re-ranking);
    entries keep their base cosine similarity otherwise.
    """
    candidates: list[int] = []
    sims: list[float] = []
    for i, entry in enumerate(gallery):
        if entry.scene_id == query.scene_id:
            continue
        if allowed_scenes is not None and entry.scene_id not in allowed_scenes:
            continue
        candidates.append(i)
        if score_override is not None and i in score_override:
            sims.append(float(score_override[i]))
        else:
            sims.append(float(np.dot(query.embedding, entry.embedding)))

    order = sorted(range(len(candidates)), key=lambda j: (-sims[j], j))
    claimed: set[tuple[int, int]] = set()
    flags: list[int] = []
    for j in order:
        entry = gallery[candidates[j]]
        hit = 0
        for g, (gt_box, gt_id) in enumerate(truth.get(entry.scene_id, [])):
            if gt_id != query.identity or (entry.scene_id, g) in claimed:
                continue
            if iou(entry.box, gt_box) >= iou_threshold:
                claimed.add((entry.scene_id, g))
                hit = 1
                break
        flags.append(hit)

    num_relevant = 0
    for scene_id, persons in truth.items():
        if scene_id == query.scene_id:
            continue
        if allowed_scenes is not None and scene_id not in allowed_scenes:
            continue
        num_relevant += sum(1 for _, gt_id in persons if gt_id == query.identity)
    if num_relevant < 1:
        raise ValueError(
            f"query identity {query.identity} has no instance in its gallery"
        )

    return QueryResult(
        identity=query.identity,
        scene_id=query.scene_id,
        entry_indices=array("i", [candidates[j] for j in order]),
        scene_ids=array("i", [gallery[candidates[j]].scene_id for j in order]),
        sims=array("d", [sims[j] for j in order]),
        correct=array("b", flags),
        num_relevant=num_relevant,
        ap=ap_single_query(flags, num_relevant),
    )


def _summarize(results: list[QueryResult], topk: Sequence[int]) -> RankingResult:
    mean_ap = float(np.mean([r.ap for r in results])) if results else 0.0
    cmc = {
        k: float(np.mean([r.cmc(k) for r in results])) if results else 0.0
        for k in topk
    }
    return RankingResult(mean_ap, cmc, results)


def evaluate(
    queries: Sequence[QueryEntry],
    gallery: Sequence[GalleryEntry],
    truth: Mapping[int, Sequence[tuple[Box, int]]],
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    topk: Sequence[int] = DEFAULT_TOPK,
) -> RankingResult:
    """Full-gallery protocol: every scene except the query's own."""
    results = [
        _rank_query(q, gallery, truth, None, iou_threshold) for q in queries
    ]
    return _summarize(results, topk)


def gallery_sweep(
    queries: Sequence[QueryEntry],
    gallery: Sequence[GalleryEntry],
    truth: Mapping[int, Sequence[tuple[Box, int]]],
    sizes: Sequence[int],
    seed: int,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    topk: Sequence[int] = DEFAULT_TOPK,
) -> dict[int, RankingResult]:
    """Metrics at several per-query gallery sizes.

    Each query's gallery keeps every scene containing a true match and pads
    with seeded distractor scenes up to the requested size.  Distractor
    orders are drawn once per query, so smaller sizes are subsets of larger
    ones.
    """
    all_scenes = sorted(truth.keys())
    per_query_pools = []
    for qi, q in enumerate(queries):
        matching = [
            s
            for s in all_scenes
            if s != q.scene_id
            and any(gt_id == q.identity for _, gt_id in truth[s])
        ]
        matching_set = set(matching)
        distractors = [
            s for s in all_scenes if s != q.scene_id and s not in matching_set
        ]
        rng = np.random.default_rng([seed, qi, 23])
        order = rng.permutation(len(distractors))
        per_query_pools.append((matching, [distractors[i] for i in order]))

    out: dict[int, RankingResult] = {}
    for size in sizes:
        results = []
        for (matching, pool), q in zip(per_query_pools, queries):
            if size < len(matching):
                raise ConfigError(
                    f"gallery size {size} cannot hold the {len(matching)} "
                    f"scenes containing query identity {q.identity}"
                )
            extra = size - len(matching)
            if extra > len(pool):
                raise ConfigError(
                    f"gallery size {size} exceeds the {len(matching) + len(pool)} "
                    f"scenes available for a query"
                )
            allowed = set(matching) | set(pool[:extra])
            results.append(_rank_query(q, gallery, truth, allowed, iou_threshold))
        out[size] = _summarize(results, topk)
    return out


def _query_context(
    query: QueryEntry, gallery: Sequence[GalleryEntry], k2: int
) -> list[int]:
    """Up to k2 co-detections of the query scene, by detection score."""
    same_scene = [
        i
        for i, e in enumerate(gallery)
        if e.scene_id == query.scene_id and i != query.source_index
    ]
    same_scene.sort(key=lambda i: (-gallery[i].score, i))
    return same_scene[:k2]


def cbgm_rerank(
    queries: Sequence[QueryEntry],
    gallery: Sequence[GalleryEntry],
    truth: Mapping[int, Sequence[tuple[Box, int]]],
    k1: int = 30,
    k2: int = 3,
    iou_threshold: float = DEFAULT_IOU_THRESHOLD,
    topk: Sequence[int] = DEFAULT_TOPK,
) -> RankingResult:
    """Context bipartite graph matching over each query's top-k1 scenes."""
    if k1 < 0 or k2 < 0:
        raise ConfigError("k1 and k2 must be non-negative")
    entries_by_scene: dict[int, list[int]] = {}
    for i, e in enumerate(gallery):
        entries_by_scene.setdefault(e.scene_id, []).append(i)

    results = []
    for q in queries:
        base = _rank_query(q, gallery, truth, None, iou_threshold)
        context = _query_context(q, gallery, k2) if k2 > 0 else []
        override: dict[int, float] = {}
        if context:
            # Scenes of the k1 best candidates, in rank order.
            top_scenes: list[int] = []
            for scene in base.scene_ids:
                if len(top_scenes) == k1:
                    break
                if scene not in top_scenes:
                    top_scenes.append(scene)
            ctx_emb = [gallery[i].embedding for i in context]
            for scene in top_scenes:
                for cand in entries_by_scene[scene]:
                    others = [i for i in entries_by_scene[scene] if i != cand]
                    target_sim = float(np.dot(q.embedding, gallery[cand].embedding))
                    if not others:
                        override[cand] = target_sim
                        continue
                    weights = np.array(
                        [
                            [float(np.dot(ce, gallery[o].embedding)) for o in others]
                            for ce in ctx_emb
                        ]
                    )
                    pairs, _ = hungarian_assign(-weights)
                    bonus = sum(
                        weights[r, c] for r, c in pairs if weights[r, c] > 0.0
                    )
                    override[cand] = target_sim + bonus
        results.append(
            _rank_query(q, gallery, truth, None, iou_threshold, override or None)
        )
    return _summarize(results, topk)


def write_results_csv(result: RankingResult, path) -> None:
    """One row per (query, rank): ids, similarity score, correctness."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["query", "identity", "rank", "scene", "score", "correct"]
        )
        for qi, qr in enumerate(result.per_query):
            for rank, (scene, sim, ok) in enumerate(
                zip(qr.scene_ids, qr.sims, qr.correct), start=1
            ):
                writer.writerow([qi, qr.identity, rank, scene, repr(sim), ok])
