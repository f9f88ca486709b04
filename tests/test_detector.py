"""Detector stub, box math and assignment."""

import numpy as np
import pytest

from persearch.detector import (
    BACKGROUND_SCORE,
    TRUE_BOX_SCORE,
    Box,
    assign_detections,
    box_center_reference,
    hungarian_assign,
    iou,
    jitter_detect,
)

from oracles import hungarian_oracle, iou_oracle


def random_box(rng):
    x1, y1 = rng.uniform(0.0, 0.6, size=2)
    w, h = rng.uniform(0.1, 0.35, size=2)
    return Box(x1, y1, min(1.0, x1 + w), min(1.0, y1 + h))


class TestBox:
    def test_valid_construction(self):
        b = Box(0.1, 0.2, 0.5, 0.8)
        assert b.area == pytest.approx(0.4 * 0.6)
        assert b.center == (pytest.approx(0.3), pytest.approx(0.5))

    def test_rejects_unordered_corners(self):
        with pytest.raises(ValueError):
            Box(0.5, 0.2, 0.1, 0.8)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Box(-0.1, 0.0, 0.5, 0.5)

    def test_center_reference_clamped(self):
        ref = box_center_reference(Box(0.0, 0.0, 1.0, 1.0))
        assert (ref.x, ref.y) == (0.5, 0.5)


class TestIoU:
    def test_identical_boxes(self):
        b = Box(0.1, 0.1, 0.4, 0.4)
        assert iou(b, b) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert iou(Box(0.0, 0.0, 0.2, 0.2), Box(0.5, 0.5, 0.9, 0.9)) == 0.0

    def test_known_overlap(self):
        # Two unit-quarter squares overlapping in half of each.
        a = Box(0.0, 0.0, 0.5, 0.5)
        b = Box(0.25, 0.0, 0.75, 0.5)
        # inter = 0.125, union = 0.25 + 0.25 - 0.125
        assert iou(a, b) == pytest.approx(0.125 / 0.375)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == pytest.approx(
                iou_oracle(a.as_array(), b.as_array()), abs=1e-12
            )

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-15)
            assert 0.0 <= iou(a, b) <= 1.0


class TestJitterDetect:
    def test_deterministic_per_seed(self):
        truth = [Box(0.1, 0.1, 0.4, 0.5), Box(0.5, 0.4, 0.9, 0.9)]
        a = jitter_detect(truth, 5, 0.02, seed=123)
        b = jitter_detect(truth, 5, 0.02, seed=123)
        c = jitter_detect(truth, 5, 0.02, seed=124)
        assert [x.as_array().tolist() for x in a.boxes] == [
            x.as_array().tolist() for x in b.boxes
        ]
        assert [x.as_array().tolist() for x in a.boxes] != [
            x.as_array().tolist() for x in c.boxes
        ]

    def test_scores_and_slot_layout(self):
        truth = [Box(0.1, 0.1, 0.4, 0.5)]
        det = jitter_detect(truth, 4, 0.02, seed=0)
        assert det.scores[0] == TRUE_BOX_SCORE
        assert list(det.scores[1:]) == [BACKGROUND_SCORE] * 3
        assert len(det.boxes) == 4
        assert det.assigned == [None] * 4

    def test_zero_noise_reproduces_truth(self):
        truth = [Box(0.2, 0.3, 0.6, 0.8)]
        det = jitter_detect(truth, 2, 0.0, seed=7)
        np.testing.assert_allclose(det.boxes[0].as_array(), truth[0].as_array())

    def test_noisy_boxes_stay_valid(self):
        rng = np.random.default_rng(52)
        for trial in range(50):
            truth = [random_box(rng) for _ in range(3)]
            det = jitter_detect(truth, 6, 0.1, seed=trial)
            for b in det.boxes:
                assert 0.0 <= b.x1 <= b.x2 <= 1.0
                assert 0.0 <= b.y1 <= b.y2 <= 1.0

    def test_too_few_slots_rejected(self):
        truth = [Box(0.1, 0.1, 0.2, 0.2)] * 3
        with pytest.raises(ValueError):
            jitter_detect(truth, 2, 0.02, seed=0)

    def test_refs_are_box_centers(self):
        truth = [Box(0.2, 0.2, 0.4, 0.6)]
        det = jitter_detect(truth, 1, 0.0, seed=0)
        assert det.refs[0].x == pytest.approx(0.3)
        assert det.refs[0].y == pytest.approx(0.4)


class TestHungarian:
    def test_identity_cost(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        pairs, total = hungarian_assign(cost)
        assert pairs == [(0, 0), (1, 1)]
        assert total == 0.0

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            cost = rng.standard_normal((n, m))
            pairs, total = hungarian_assign(cost)
            _, best = hungarian_oracle(cost)
            assert len(pairs) == min(n, m)
            assert total == pytest.approx(best, abs=1e-10)

    def test_empty_matrix(self):
        assert hungarian_assign(np.zeros((0, 3))) == ([], 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hungarian_assign(np.array([[np.inf, 1.0]]))

    def test_assign_detections_prefers_overlap(self):
        truth = [Box(0.1, 0.1, 0.3, 0.3), Box(0.6, 0.6, 0.9, 0.9)]
        det = jitter_detect(truth, 4, 0.01, seed=5)
        assign_detections(det, truth)
        assert det.assigned[0] == 0
        assert det.assigned[1] == 1
        assert det.assigned[2] is None and det.assigned[3] is None

