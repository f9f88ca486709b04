"""Retrieval protocol vs. a naive oracle, plus sweep and re-ranking checks."""

import numpy as np
import pytest

from oracles import ap_oracle, cmc_oracle, rank_one_query_oracle

from persearch.detector import Box
from persearch.errors import ConfigError
from persearch.evaluation import (
    GalleryEntry,
    QueryEntry,
    ap_single_query,
    cbgm_rerank,
    evaluate,
    gallery_sweep,
    select_query_embedding,
    write_results_csv,
)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def rand_box(rng):
    x1 = rng.uniform(0.05, 0.55)
    y1 = rng.uniform(0.05, 0.55)
    return Box(x1, y1, x1 + rng.uniform(0.1, 0.3), y1 + rng.uniform(0.1, 0.3))


def jittered(box, rng, sigma=0.01):
    c = np.array([box.x1, box.y1, box.x2, box.y2]) + rng.normal(0, sigma, 4)
    x1, x2 = sorted(np.clip([c[0], c[2]], 0.0, 1.0))
    y1, y2 = sorted(np.clip([c[1], c[3]], 0.0, 1.0))
    return Box(x1, max(y1, 0.0), max(x2, x1 + 1e-4), max(y2, y1 + 1e-4))


def random_instance(rng, num_scenes=6, num_ids=4, dim=5):
    """Random gallery + truth with at least one multi-scene identity."""
    while True:
        truth = {}
        entries = []
        for s in range(num_scenes):
            persons = []
            for _ in range(int(rng.integers(1, 4))):
                persons.append((rand_box(rng), int(rng.integers(0, num_ids))))
            truth[s] = persons
            for box, _ in persons:
                entries.append(
                    GalleryEntry(
                        s,
                        jittered(box, rng),
                        float(rng.uniform(0.5, 1.0)),
                        unit(rng.normal(size=dim)),
                    )
                )
            if rng.uniform() < 0.5:
                entries.append(
                    GalleryEntry(s, rand_box(rng), 0.1, unit(rng.normal(size=dim)))
                )
        scene_sets = {}
        for s, persons in truth.items():
            for _, gid in persons:
                scene_sets.setdefault(gid, set()).add(s)
        eligible = [(g, ss) for g, ss in scene_sets.items() if len(ss) >= 2]
        if eligible:
            return truth, entries, eligible


def as_oracle(truth, entries):
    truth_o = {
        s: [((b.x1, b.y1, b.x2, b.y2), g) for b, g in persons]
        for s, persons in truth.items()
    }
    entries_o = [
        (e.scene_id, (e.box.x1, e.box.y1, e.box.x2, e.box.y2), e.embedding)
        for e in entries
    ]
    return truth_o, entries_o


class TestEvaluateAgainstOracle:
    def test_matches_naive_protocol_on_random_galleries(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            truth, entries, eligible = random_instance(rng)
            gid, scenes = eligible[int(rng.integers(0, len(eligible)))]
            qscene = sorted(scenes)[0]
            q = QueryEntry(qscene, rand_box(rng), gid, unit(rng.normal(size=5)))
            truth_o, entries_o = as_oracle(truth, entries)
            flags, sims, num_rel = rank_one_query_oracle(
                q.embedding, qscene, gid, entries_o, truth_o
            )
            result = evaluate([q], entries, truth)
            qr = result.per_query[0]
            assert list(qr.correct) == flags
            assert list(qr.sims) == sims
            assert qr.num_relevant == num_rel
            assert qr.ap == ap_oracle(flags, num_rel)
            for k in (1, 5, 10):
                assert result.cmc[k] == cmc_oracle(flags, k)
            assert result.mean_ap == qr.ap

    def test_perfect_embeddings_give_perfect_metrics(self):
        truth = {}
        entries = []
        rng = np.random.default_rng(7)
        for s in range(5):
            persons = [(rand_box(rng), s % 3)]
            truth[s] = persons
            eye = np.zeros(3)
            eye[s % 3] = 1.0
            entries.append(GalleryEntry(s, persons[0][0], 0.9, eye))
        q = QueryEntry(0, truth[0][0][0], 0, np.array([1.0, 0.0, 0.0]))
        result = evaluate([q], entries, truth)
        assert result.mean_ap == 1.0
        assert result.cmc[1] == 1.0


class TestProtocolDetails:
    def _one_scene_pair(self):
        b0 = Box(0.1, 0.1, 0.3, 0.3)
        b1 = Box(0.6, 0.6, 0.8, 0.8)
        truth = {0: [(b0, 0)], 1: [(b1, 0)]}
        return b0, b1, truth

    def test_own_scene_is_excluded(self):
        b0, b1, truth = self._one_scene_pair()
        e = np.array([1.0, 0.0])
        entries = [GalleryEntry(0, b0, 0.9, e), GalleryEntry(1, b1, 0.9, e)]
        result = evaluate([QueryEntry(0, b0, 0, e)], entries, truth)
        assert list(result.per_query[0].entry_indices) == [1]

    def test_greedy_claiming_counts_one_hit_per_truth_box(self):
        b1 = Box(0.6, 0.6, 0.8, 0.8)
        truth = {0: [(Box(0.1, 0.1, 0.3, 0.3), 0)], 1: [(b1, 0)]}
        e_hi = np.array([1.0, 0.0])
        e_lo = unit([0.9, 0.1])
        entries = [
            GalleryEntry(1, b1, 0.9, e_hi),
            GalleryEntry(1, b1, 0.9, e_lo),
        ]
        q = QueryEntry(0, truth[0][0][0], 0, np.array([1.0, 0.0]))
        qr = evaluate([q], entries, truth).per_query[0]
        assert list(qr.correct) == [1, 0]
        assert qr.num_relevant == 1
        assert qr.ap == 1.0

    def test_iou_threshold_separates_hits_from_misses(self):
        gt = Box(0.0, 0.0, 0.4, 0.4)
        barely = Box(0.0, 0.0, 0.4, 0.4 * 0.49)
        enough = Box(0.0, 0.0, 0.4, 0.4 * 0.6)
        truth = {0: [(Box(0.5, 0.5, 0.7, 0.7), 0)], 1: [(gt, 0)]}
        e = np.array([1.0, 0.0])
        q = QueryEntry(0, truth[0][0][0], 0, e)
        for det, expect in ((barely, [0]), (enough, [1])):
            qr = evaluate([q], [GalleryEntry(1, det, 0.9, e)], truth).per_query[0]
            assert list(qr.correct) == expect

    def test_missed_detection_still_counts_in_denominator(self):
        b1 = Box(0.6, 0.6, 0.8, 0.8)
        truth = {
            0: [(Box(0.1, 0.1, 0.3, 0.3), 0)],
            1: [(b1, 0)],
            2: [(Box(0.2, 0.2, 0.4, 0.4), 0)],
        }
        e = np.array([1.0, 0.0])
        q = QueryEntry(0, truth[0][0][0], 0, e)
        qr = evaluate([q], [GalleryEntry(1, b1, 0.9, e)], truth).per_query[0]
        assert qr.num_relevant == 2
        assert qr.ap == 0.5

    def test_query_identity_absent_from_gallery_is_an_error(self):
        b0, b1, truth = self._one_scene_pair()
        e = np.array([1.0, 0.0])
        q = QueryEntry(0, b0, 99, e)
        with pytest.raises(ValueError, match="no instance"):
            evaluate([q], [GalleryEntry(1, b1, 0.9, e)], truth)

    def test_ap_frozen_values(self):
        assert ap_single_query([1, 0, 1], 2) == (1.0 + 2.0 / 3.0) / 2.0
        assert ap_single_query([0, 1], 1) == 0.5
        assert ap_single_query([0, 0], 3) == 0.0
        with pytest.raises(ValueError):
            ap_single_query([1], 0)


class TestSelectQueryEmbedding:
    def test_picks_highest_overlap_slot(self):
        boxes = [Box(0.0, 0.0, 0.2, 0.2), Box(0.4, 0.4, 0.7, 0.7)]
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        idx, e = select_query_embedding(boxes, emb, Box(0.45, 0.45, 0.7, 0.7))
        assert idx == 1
        assert np.array_equal(e, emb[1])

    def test_tie_resolves_to_lowest_slot(self):
        b = Box(0.1, 0.1, 0.3, 0.3)
        idx, _ = select_query_embedding([b, b], np.eye(2), b)
        assert idx == 0

    def test_requires_detections_and_matching_rows(self):
        with pytest.raises(ValueError):
            select_query_embedding([], np.zeros((0, 2)), Box(0, 0, 0.1, 0.1))
        with pytest.raises(ValueError):
            select_query_embedding(
                [Box(0, 0, 0.1, 0.1)], np.zeros((2, 2)), Box(0, 0, 0.1, 0.1)
            )


class TestGallerySweep:
    def _instance(self, seed=0):
        rng = np.random.default_rng(seed)
        truth, entries, eligible = random_instance(rng, num_scenes=10, num_ids=3)
        queries = []
        for gid, scenes in eligible[:2]:
            qscene = sorted(scenes)[0]
            queries.append(
                QueryEntry(qscene, rand_box(rng), gid, unit(rng.normal(size=5)))
            )
        return truth, entries, queries

    def test_ap_non_increasing_with_gallery_growth(self):
        truth, entries, queries = self._instance()
        max_match = max(
            sum(
                1
                for s, persons in truth.items()
                if s != q.scene_id
                and any(g == q.identity for _, g in persons)
            )
            for q in queries
        )
        sizes = sorted({max_match, min(max_match + 2, 9), min(max_match + 4, 9), 9})
        swept = gallery_sweep(queries, entries, truth, sizes, seed=5)
        for qi in range(len(queries)):
            aps = [swept[s].per_query[qi].ap for s in sizes]
            for small, big in zip(aps, aps[1:]):
                assert big <= small + 1e-12

    def test_distractor_sets_nest_across_sizes(self):
        truth, entries, queries = self._instance(seed=1)
        swept = gallery_sweep(queries, entries, truth, [6, 8], seed=5)
        for qi in range(len(queries)):
            small = set(swept[6].per_query[qi].scene_ids)
            big = set(swept[8].per_query[qi].scene_ids)
            assert small <= big

    def test_full_size_sweep_matches_plain_evaluate(self):
        truth, entries, queries = self._instance(seed=2)
        full = len(truth) - 1
        swept = gallery_sweep(queries, entries, truth, [full], seed=5)
        plain = evaluate(queries, entries, truth)
        assert swept[full].mean_ap == plain.mean_ap
        assert swept[full].cmc == plain.cmc

    def test_rejects_sizes_that_cannot_hold_a_true_match(self):
        truth, entries, queries = self._instance(seed=3)
        with pytest.raises(ConfigError, match="cannot hold"):
            gallery_sweep(queries, entries, truth, [0], seed=5)

    def test_rejects_sizes_beyond_available_scenes(self):
        truth, entries, queries = self._instance(seed=4)
        with pytest.raises(ConfigError, match="exceeds"):
            gallery_sweep(queries, entries, truth, [len(truth) + 5], seed=5)


def planted_context_instance():
    """Impostor wins on appearance alone; context flips the decision.

    Scene 0 holds the query and a co-traveller.  Scene 1 holds the true
    match (similarity 0.80) next to the same co-traveller.  Scene 2 holds
    a lone impostor of a different identity at similarity 0.90.
    """
    e_q = np.array([1.0, 0.0, 0.0, 0.0])
    e_c = np.array([0.0, 1.0, 0.0, 0.0])
    e_match = np.array([0.8, 0.0, 0.6, 0.0])
    e_impostor = np.array([0.9, 0.0, 0.0, np.sqrt(1 - 0.81)])
    bq = Box(0.1, 0.1, 0.3, 0.3)
    bc = Box(0.6, 0.1, 0.8, 0.3)
    bm = Box(0.2, 0.5, 0.4, 0.8)
    bi = Box(0.5, 0.5, 0.7, 0.8)
    truth = {0: [(bq, 0), (bc, 1)], 1: [(bm, 0), (bc, 1)], 2: [(bi, 2)]}
    entries = [
        GalleryEntry(0, bq, 0.95, e_q),
        GalleryEntry(0, bc, 0.90, e_c),
        GalleryEntry(1, bm, 0.9, e_match),
        GalleryEntry(1, bc, 0.9, e_c),
        GalleryEntry(2, bi, 0.9, e_impostor),
    ]
    query = QueryEntry(0, bq, 0, e_q, source_index=0)
    return truth, entries, query


class TestContextRerank:
    def test_context_flips_impostor_to_true_match(self):
        truth, entries, query = planted_context_instance()
        base = evaluate([query], entries, truth)
        assert base.per_query[0].top_scene == 2
        assert base.cmc[1] == 0.0
        rr = cbgm_rerank([query], entries, truth, k1=5, k2=3)
        assert rr.per_query[0].top_scene == 1
        assert rr.cmc[1] == 1.0
        assert rr.mean_ap > base.mean_ap

    def test_k2_zero_is_bit_identical(self):
        truth, entries, query = planted_context_instance()
        base = evaluate([query], entries, truth)
        rr = cbgm_rerank([query], entries, truth, k1=5, k2=0)
        assert rr.mean_ap == base.mean_ap
        assert rr.cmc == base.cmc
        assert rr.per_query[0].sims == base.per_query[0].sims
        assert rr.per_query[0].entry_indices == base.per_query[0].entry_indices

    def test_k1_zero_is_bit_identical(self):
        # No scene is rescored, although every scene has context to use.
        truth, entries, query = planted_context_instance()
        base = evaluate([query], entries, truth)
        rr = cbgm_rerank([query], entries, truth, k1=0, k2=3)
        assert rr.mean_ap == base.mean_ap
        assert rr.cmc == base.cmc
        assert rr.per_query[0].sims == base.per_query[0].sims
        assert rr.per_query[0].entry_indices == base.per_query[0].entry_indices

    def test_query_without_context_is_bit_identical(self):
        truth, entries, query = planted_context_instance()
        lone_truth = dict(truth)
        lone_truth[0] = [truth[0][0]]
        lone_entries = [e for e in entries if not (e.scene_id == 0 and e.box != query.box)]
        base = evaluate([query], lone_entries, lone_truth)
        rr = cbgm_rerank([query], lone_entries, lone_truth, k1=5, k2=3)
        assert rr.per_query[0].sims == base.per_query[0].sims
        assert rr.cmc == base.cmc

    def test_k1_limits_rescoring_to_top_scenes(self):
        truth, entries, query = planted_context_instance()
        rr = cbgm_rerank([query], entries, truth, k1=1, k2=3)
        # Only the impostor's scene is rescored; it has no co-detections,
        # so nothing changes.
        assert rr.per_query[0].top_scene == 2

    def test_negative_context_matches_are_dropped(self):
        truth, entries, query = planted_context_instance()
        flipped = [
            GalleryEntry(e.scene_id, e.box, e.score, -e.embedding)
            if e.scene_id == 1 and np.argmax(np.abs(e.embedding)) == 1
            else e
            for e in entries
        ]
        base = evaluate([query], flipped, truth)
        rr = cbgm_rerank([query], flipped, truth, k1=5, k2=3)
        assert rr.per_query[0].sims == base.per_query[0].sims

    def test_rejects_negative_parameters(self):
        truth, entries, query = planted_context_instance()
        with pytest.raises(ConfigError):
            cbgm_rerank([query], entries, truth, k1=-1, k2=3)


class TestResultsCsv:
    def test_deterministic_rows(self, tmp_path):
        truth, entries, query = planted_context_instance()
        result = evaluate([query], entries, truth)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(result, p1)
        write_results_csv(result, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().split("\n")
        assert lines[0] == "query,identity,rank,scene,score,correct"
        assert len(lines) == 1 + len(result.per_query[0].sims)
