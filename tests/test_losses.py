"""OIM loss, table/queue dynamics, focal variant, combined objective."""

import dataclasses
import math
from collections import deque

import numpy as np
import pytest

from persearch import tensor as T
from persearch.losses import (
    BACKGROUND,
    UNLABELED,
    LossWeights,
    OIMState,
    focal_oim_loss,
    focal_oim_rows,
    total_loss,
)
from persearch.tensor import GradTape, Tensor


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def fresh_state(rng, num_labeled=4, dim=6, capacity=3, warm=True, scales=1):
    state = OIMState.initial(num_labeled, dim, capacity, scales=scales)
    if warm:
        feats = unit_rows(rng, scales * num_labeled, dim)
        state = state.update(feats, list(range(num_labeled)))
    return state


def scale_state(state, s):
    """The one-scale state of scale ``s``'s lookup table and queue."""
    return dataclasses.replace(state, lut=state.lut[s : s + 1], queue=state.queue[s : s + 1])


class TestOIMState:
    def test_initial_lut_zero(self):
        s = OIMState.initial(3, 4, 2, scales=2)
        np.testing.assert_array_equal(s.lut, np.zeros((2, 3, 4)))
        assert s.queue.shape == (2, 0, 4) and s.capacity == 2

    def test_lut_rows_unit_after_update(self):
        rng = np.random.default_rng(60)
        s = OIMState.initial(3, 5, 2)
        feats = unit_rows(rng, 3, 5)
        s = s.update(feats, [0, 1, 2])
        np.testing.assert_allclose(
            np.linalg.norm(s.lut, axis=2), np.ones((1, 3)), atol=1e-10
        )

    def test_fixed_point_update(self):
        # Updating with the prototype itself leaves the row unchanged.
        rng = np.random.default_rng(61)
        s = fresh_state(rng)
        row = s.lut[0, 1].copy()
        s2 = s.update(row.reshape(1, -1), [1])
        np.testing.assert_allclose(s2.lut[0, 1], row, atol=1e-12)

    def test_momentum_mixing(self):
        s = OIMState.initial(1, 2, 0, momentum=0.5)
        s = s.update(np.array([[1.0, 0.0]]), [0])
        np.testing.assert_allclose(s.lut[0, 0], [1.0, 0.0], atol=1e-12)
        s = s.update(np.array([[0.0, 1.0]]), [0])
        want = np.array([0.5, 0.5]) / np.linalg.norm([0.5, 0.5])
        np.testing.assert_allclose(s.lut[0, 0], want, atol=1e-12)

    def test_queue_fifo_eviction(self):
        rng = np.random.default_rng(62)
        s = OIMState.initial(2, 4, 2)
        rows = unit_rows(rng, 3, 4)
        for r in rows:
            s = s.update(r.reshape(1, -1), [UNLABELED])
        assert s.queue.shape == (1, 2, 4)
        np.testing.assert_array_equal(s.queue[0], rows[1:])

    def test_update_does_not_mutate_original(self):
        rng = np.random.default_rng(63)
        s = fresh_state(rng)
        lut_before = s.lut.copy()
        s.update(unit_rows(rng, 1, 6), [0])
        np.testing.assert_array_equal(s.lut, lut_before)

    @pytest.mark.parametrize("scales", [1, 3])
    def test_update_equals_the_row_by_row_loop(self, scales):
        def loop_update(lut, queue, capacity, momentum, features, labels):
            """One scale's update one row at a time: the reference."""
            lut = lut.copy()
            queue = deque(queue, maxlen=capacity)
            for x, label in zip(features, labels):
                if label >= 0:
                    mixed = momentum * lut[label] + (1.0 - momentum) * x
                    norm = np.linalg.norm(mixed)
                    lut[label] = mixed / norm if norm > 1e-12 else 0.0
                elif label == UNLABELED and queue.maxlen > 0:
                    queue.append(np.array(x))
            return lut, list(queue)

        rng = np.random.default_rng(65)
        for capacity, warm, momentum in ((0, True, 0.5), (2, False, 0.5), (5, True, 0.9)):
            s = fresh_state(rng, capacity=capacity, warm=warm, scales=scales)
            s = dataclasses.replace(s, momentum=momentum)
            for _ in range(40):
                n = int(rng.integers(1, 7))
                # Zero rows meet zero prototypes; labels repeat within a batch.
                feats = unit_rows(rng, scales * n, 6) * rng.choice([1.0, 0.0, 3.0], size=(scales * n, 1))
                feats = feats.reshape(scales, n, 6)
                labels = rng.integers(-2, 4, size=n).tolist()
                want = [loop_update(s.lut[k], s.queue[k], capacity, momentum, feats[k], labels) for k in range(scales)]
                s = s.update(feats, labels)
                assert s.lut.shape == (scales, 4, 6) and s.queue.shape[:2] == (scales, len(want[0][1]))
                for k, (lut, queue) in enumerate(want):
                    assert s.lut[k].tobytes() == lut.tobytes()
                    assert [q.tobytes() for q in s.queue[k]] == [q.tobytes() for q in queue]
                    # The class matrix: the prototypes, then the queue rows.
                    fresh = np.concatenate([lut.reshape(-1), *queue]).reshape(-1, 6).T
                    assert s.classes[k].tobytes() == np.ascontiguousarray(fresh).tobytes()
                assert s.momentum == momentum and s.capacity == capacity

    def test_classes_stack_lut_then_queue_as_columns(self):
        rng = np.random.default_rng(64)
        s = fresh_state(rng, capacity=2)
        q = unit_rows(rng, 1, 6)
        s = s.update(q, [UNLABELED])
        cm = s.classes
        assert cm.shape == (1, 6, 5)
        assert cm.flags.c_contiguous and not cm.flags.writeable
        np.testing.assert_array_equal(cm[0, :, :4], s.lut[0].T)
        np.testing.assert_array_equal(cm[0, :, 4], q[0])
        # Built once per state; the update's new state builds its own.
        assert s.classes is cm
        assert s.update(q, [UNLABELED]).classes.shape == (1, 6, 6)
        np.testing.assert_array_equal(OIMState.initial(2, 3, 4, scales=2).classes, np.zeros((2, 3, 2)))


    @pytest.mark.parametrize(
        "lut, queue, kwargs, message",
        [
            ((0, 3, 4), (0, 0, 4), {}, "lookup table"),
            ((2, 0, 4), (2, 0, 4), {}, "lookup table"),
            ((2, 3, 0), (2, 0, 0), {}, "lookup table"),
            ((3, 4), (0, 4), {}, "lookup table"),
            ((2, 3, 4), (1, 0, 4), {}, "queue"),
            ((2, 3, 4), (2, 0, 5), {}, "queue"),
            ((2, 3, 4), (2, 3, 4), {}, "queue"),
            ((2, 3, 4), (0, 4), {}, "queue"),
            ((2, 3, 4), (2, 0, 4), {"capacity": -1}, "capacity"),
            ((2, 3, 4), (2, 0, 4), {"capacity": 2.0}, "capacity"),
            ((2, 3, 4), (2, 0, 4), {"capacity": True}, "capacity"),
            ((2, 3, 4), (2, 0, 4), {"momentum": 1.0}, "momentum"),
            ((2, 3, 4), (2, 0, 4), {"momentum": -0.1}, "momentum"),
            ((2, 3, 4), (2, 0, 4), {"tau": 0.0}, "tau"),
            ((2, 3, 4), (2, 0, 4), {"tau": float("nan")}, "tau"),
            ((2, 3, 4), (2, 0, 4), {"tau": "x"}, "tau"),
            ((2, 3, 4), (2, 0, 4), {"momentum": False}, "momentum"),
        ],
        ids=["no-scales", "no-identities", "no-width", "lut-rank", "queue-scales", "queue-width",
             "queue-past-capacity", "queue-rank", "capacity-negative", "capacity-float", "capacity-bool",
             "momentum-1", "momentum-negative", "tau-0", "tau-nan", "tau-string", "momentum-bool"],
    )
    def test_construction_checks_every_invariant(self, lut, queue, kwargs, message):
        args = {"capacity": 2, **kwargs}
        with pytest.raises(ValueError, match=message):
            OIMState(np.zeros(lut), np.zeros(queue), **args)

    def test_invariants_hold_at_their_bounds(self):
        s = OIMState(np.zeros((1, 1, 1)), np.zeros((1, 2, 1)), 2, momentum=0.0, tau=1e-300)
        assert s.queue.shape == (1, 2, 1)
        assert OIMState.initial(1, 1, 0).queue.shape == (1, 0, 1)


class TestOIMLoss:
    def test_uniform_logits_give_log_num_classes(self):
        # A zero lookup table scores every class equally.
        rng = np.random.default_rng(65)
        s = OIMState.initial(5, 8, 0)
        feats = Tensor(unit_rows(rng, 2, 8))
        loss, _ = focal_oim_loss(feats, [0, 3], s, gamma=0.0)
        assert loss.item() == pytest.approx(math.log(5), abs=1e-12)

    def test_empty_labeled_set_zero_loss(self):
        rng = np.random.default_rng(66)
        s = fresh_state(rng)
        feats = Tensor(unit_rows(rng, 2, 6))
        loss, s2 = focal_oim_loss(feats, [UNLABELED, BACKGROUND], s, gamma=0.0)
        assert loss.item() == 0.0
        assert s2.queue.shape == (1, 1, 6)  # unlabeled row still queued

    def test_matches_manual_cross_entropy(self):
        rng = np.random.default_rng(67)
        s = fresh_state(rng, capacity=2)
        s = s.update(unit_rows(rng, 2, 6), [UNLABELED, UNLABELED])
        feats = unit_rows(rng, 3, 6)
        labels = [2, 0, UNLABELED]
        loss, _ = focal_oim_loss(Tensor(feats), labels, s, gamma=0.0)
        cm = s.classes[0].T
        want = 0.0
        for i, l in enumerate(labels):
            if l < 0:
                continue
            logits = cm @ feats[i] / s.tau
            p = np.exp(logits - logits.max())
            p /= p.sum()
            want += -math.log(p[l])
        want /= 2
        assert loss.item() == pytest.approx(want, abs=1e-12)

    def test_background_rows_ignored_entirely(self):
        rng = np.random.default_rng(68)
        s = fresh_state(rng)
        feats = unit_rows(rng, 2, 6)
        with_bg = np.vstack([feats, rng.standard_normal((1, 6)) * 5])
        l1, s1 = focal_oim_loss(Tensor(feats), [0, 1], s, gamma=0.0)
        l2, s2 = focal_oim_loss(Tensor(with_bg), [0, 1, BACKGROUND], s, gamma=0.0)
        assert l1.item() == pytest.approx(l2.item(), abs=1e-15)
        np.testing.assert_array_equal(s1.lut, s2.lut)

    def test_queue_rows_act_as_negatives(self):
        rng = np.random.default_rng(69)
        s = fresh_state(rng, capacity=4)
        feats = unit_rows(rng, 1, 6)
        base, _ = focal_oim_loss(Tensor(feats), [0], s, gamma=0.0)
        # Push the query's own direction into the queue: it now competes.
        s_hard = s.update(feats, [UNLABELED])
        harder, _ = focal_oim_loss(Tensor(feats), [0], s_hard, gamma=0.0)
        assert harder.item() > base.item()

    def test_non_unit_feature_rejected(self):
        rng = np.random.default_rng(70)
        s = fresh_state(rng)
        bad = Tensor(rng.standard_normal((1, 6)) * 2)
        with pytest.raises(ValueError):
            focal_oim_loss(bad, [0], s, gamma=0.0)

    def test_out_of_range_identity_rejected(self):
        rng = np.random.default_rng(71)
        s = fresh_state(rng)
        feats = Tensor(unit_rows(rng, 1, 6))
        with pytest.raises(ValueError):
            focal_oim_loss(feats, [4], s, gamma=0.0)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(72)
        s = fresh_state(rng, capacity=2)
        s = s.update(unit_rows(rng, 1, 6), [UNLABELED])
        raw = Tensor(rng.standard_normal((3, 6)))

        def f(x):
            # Normalize inside so arbitrary perturbations stay legal.
            loss, _ = focal_oim_loss(
                T.l2_normalize_rows(x), [1, 3, UNLABELED], s, gamma=0.0
            )
            return loss

        err = T.central_diff_gradcheck(f, raw, Tensor(1.0))
        assert err < 1e-6

    def test_focal_gradient_matches_central_differences(self):
        rng = np.random.default_rng(73)
        s = fresh_state(rng)
        raw = Tensor(rng.standard_normal((2, 6)))

        def f(x):
            loss, _ = focal_oim_loss(T.l2_normalize_rows(x), [0, 2], s, gamma=2.0)
            return loss

        err = T.central_diff_gradcheck(f, raw, Tensor(1.0))
        assert err < 1e-6


class TestFocalOIMRows:
    def test_loss_is_mean_of_rows_and_rows_leave_state_alone(self):
        rng = np.random.default_rng(77)
        s = fresh_state(rng, capacity=2)
        feats = Tensor(unit_rows(rng, 4, 6))
        labels = [3, UNLABELED, 0, 1]
        lut, queue = s.lut.copy(), s.queue.copy()
        rows = focal_oim_rows(feats, labels, s, gamma=2.0)
        assert rows.shape == (3,)
        np.testing.assert_array_equal(s.lut, lut)
        np.testing.assert_array_equal(s.queue, queue)
        loss, s2 = focal_oim_loss(feats, labels, s, gamma=2.0)
        assert loss.item() == rows.data.mean()
        want = s.update(feats.data, labels)
        np.testing.assert_array_equal(s2.lut, want.lut)
        np.testing.assert_array_equal(s2.queue, want.queue)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
    def test_one_tape_node_with_the_features_as_its_only_input(self, gamma):
        rng = np.random.default_rng(76)
        s = fresh_state(rng, capacity=2).update(unit_rows(rng, 1, 6), [UNLABELED])
        feats = Tensor(unit_rows(rng, 4, 6))
        with GradTape() as tape:
            rows = focal_oim_rows(feats, [2, BACKGROUND, 0, UNLABELED], s, gamma)
        assert [node.inputs for node in tape._nodes] == [(feats,)]
        assert rows.shape == (2,)

    def test_gradient_at_gamma_one(self):
        # Exponent 1 makes the focal factor linear; gamma 0 and 2 are
        # checked by the gradcheck suite.  A mild temperature keeps p_t
        # away from 1.
        rng = np.random.default_rng(75)
        s = dataclasses.replace(fresh_state(rng, capacity=2), tau=0.5)
        s = s.update(unit_rows(rng, 1, 6), [UNLABELED])
        w = Tensor(rng.standard_normal(2))
        labels = [2, BACKGROUND, 0, UNLABELED]

        def f(x):
            return focal_oim_rows(T.l2_normalize_rows(x), labels, s, 1.0)

        assert T.central_diff_gradcheck(f, Tensor(rng.standard_normal((4, 6))), w) < 1e-6

    def test_no_labeled_row_gives_no_rows(self):
        rng = np.random.default_rng(78)
        s = fresh_state(rng)
        rows = focal_oim_rows(Tensor(unit_rows(rng, 2, 6)), [UNLABELED, BACKGROUND], s)
        assert rows.shape == (0,)

    def test_checks_inputs(self):
        rng = np.random.default_rng(79)
        s = fresh_state(rng)
        with pytest.raises(ValueError, match="unit-norm"):
            focal_oim_rows(Tensor(2.0 * unit_rows(rng, 1, 6)), [0], s)
        with pytest.raises(ValueError, match="outside table"):
            focal_oim_rows(Tensor(unit_rows(rng, 1, 6)), [4], s)
        with pytest.raises(ValueError, match="gamma"):
            focal_oim_rows(Tensor(unit_rows(rng, 1, 6)), [0], s, gamma=-1.0)


    def test_reports_the_first_bad_row_as_a_row_loop_would(self):
        def loop_message(feats, labels, state):
            """The message of a check row by row, in row order; None if none fails."""
            norms = np.linalg.norm(feats, axis=1)
            for i, label in enumerate(labels):
                if label >= state.num_labeled:
                    return f"identity {label} outside table of {state.num_labeled}"
                if label < BACKGROUND:
                    return f"unknown label marker {label}"
                if label != BACKGROUND and abs(norms[i] - 1.0) > 1e-6:
                    return f"row {i} entering OIM must be unit-norm, got {norms[i]:.8f}"
            return None

        rng = np.random.default_rng(80)
        s = fresh_state(rng)
        raised = 0
        for _ in range(300):
            n = int(rng.integers(1, 6))
            feats = unit_rows(rng, n, 6) * rng.choice([1.0, 1.0, 1.0, 1.5], size=(n, 1))
            labels = rng.integers(-4, 6, size=n).tolist()
            want = loop_message(feats, labels, s)
            if want is None:
                focal_oim_rows(Tensor(feats), labels, s)
                continue
            with pytest.raises(ValueError) as err:
                focal_oim_rows(Tensor(feats), labels, s)
            assert str(err.value) == want
            raised += 1
        assert 0 < raised < 300


class TestFocalOIM:
    def test_gamma_zero_equals_plain(self):
        # At gamma = 0 the loss is the plain OIM cross-entropy over the
        # prototypes and the queue, and the state takes the plain update.
        rng = np.random.default_rng(74)
        s = fresh_state(rng, capacity=2)
        s = s.update(unit_rows(rng, 2, 6), [UNLABELED, UNLABELED])
        feats = unit_rows(rng, 3, 6)
        labels = [0, UNLABELED, 2]
        loss, s2 = focal_oim_loss(Tensor(feats), labels, s, gamma=0.0)
        cm = s.classes[0].T
        want = 0.0
        for i in (0, 2):
            logits = cm @ feats[i] / s.tau
            want -= logits[labels[i]] - math.log(np.exp(logits).sum())
        assert loss.item() == pytest.approx(want / 2, abs=1e-12)
        lut = s.lut[0].copy()
        for i in (0, 2):
            mixed = s.momentum * lut[labels[i]] + (1.0 - s.momentum) * feats[i]
            lut[labels[i]] = mixed / np.linalg.norm(mixed)
        np.testing.assert_allclose(s2.lut[0], lut, atol=1e-15)
        assert not np.array_equal(s2.lut, s.lut)
        # The queue was full: the oldest entry leaves, the unlabeled row enters.
        np.testing.assert_array_equal(s2.queue[0], np.array([s.queue[0, 1], feats[1]]))

    def test_focal_downweights_easy_rows(self):
        # An easy row (feature equals its prototype) shrinks under focal
        # modulation much more than a hard row does.
        rng = np.random.default_rng(75)
        s = fresh_state(rng)
        easy = Tensor(s.lut[0, 0].reshape(1, -1))
        plain, _ = focal_oim_loss(easy, [0], s, gamma=0.0)
        focal, _ = focal_oim_loss(easy, [0], s, gamma=2.0)
        assert focal.item() < 0.05 * plain.item()

    def test_matches_manual_focal_formula(self):
        rng = np.random.default_rng(76)
        s = fresh_state(rng)
        feats = unit_rows(rng, 2, 6)
        gamma = 2.0
        loss, _ = focal_oim_loss(Tensor(feats), [1, 3], s, gamma=gamma)
        cm = s.classes[0].T
        want = 0.0
        for i, l in enumerate([1, 3]):
            logits = cm @ feats[i] / s.tau
            p = np.exp(logits - logits.max())
            p /= p.sum()
            want += (1 - p[l]) ** gamma * (-math.log(p[l]))
        want /= 2
        assert loss.item() == pytest.approx(want, abs=1e-12)


class TestScaleAveragedOIM:
    """``focal_oim_loss`` scores S scales stacked in one tensor as one taped
    node, with the bits of the per-scale chain: each scale's mean of
    :func:`focal_oim_rows` against that scale's own one-scale state, added
    in order, scaled by 1 / S."""

    def problem(self, rng, scales=3, rows=4, queued=1):
        state = fresh_state(rng, capacity=2, scales=scales)
        if queued:
            state = state.update(unit_rows(rng, scales * queued, 6), [UNLABELED] * queued)
        feats = [Tensor(unit_rows(rng, rows, 6)) for _ in range(scales)]
        return state, feats, [2, UNLABELED, 0, 2][:rows]

    @staticmethod
    def per_scale_chain(feats, labels, state, gamma):
        """The loss from each scale's own :func:`focal_oim_rows`, and the
        gradient of half of it for each scale's tensor: the scale means
        added in order and scaled by 1 / S, and each scale's rows seeded
        with half of the 1 / S share of their mean."""
        total, grads = None, []
        for s, f in enumerate(feats):
            with GradTape() as tape:
                rows = focal_oim_rows(f, labels, scale_state(state, s), gamma)
            mean = rows.data.mean()
            total = mean if total is None else total + mean
            grads += tape.gradients(rows, [f], np.full(rows.shape, 0.5 * (1.0 / state.scales) / rows.size))
        return total * (1.0 / state.scales), grads

    @pytest.mark.parametrize("queued", [0, 2], ids=["empty-queue", "full-queue"])
    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    @pytest.mark.parametrize("scales", [1, 3])
    def test_value_gradients_and_states_equal_the_per_scale_chain(self, scales, gamma, queued):
        rng = np.random.default_rng(81)
        state, feats, labels = self.problem(rng, scales, queued=queued)
        assert state.queue.shape == (scales, queued, 6)
        want, want_grads = self.per_scale_chain(feats, labels, state, gamma)
        stacked = Tensor(np.vstack([f.data for f in feats]))
        with GradTape() as tape:
            loss, new_state = focal_oim_loss(stacked, labels, state, gamma=gamma)
            assert [node.inputs for node in tape._nodes] == [(stacked,)]
            (grad,) = tape.gradients(loss, [stacked], 0.5)
        assert loss.shape == () and loss.item() == want
        assert np.array_equal(grad, np.vstack(want_grads))
        for s, f in enumerate(feats):
            want_state = scale_state(state, s).update(f.data, labels)
            assert np.array_equal(new_state.lut[s], want_state.lut[0])
            assert np.array_equal(new_state.queue[s], want_state.queue[0])

    def test_rows_of_every_scale_equal_each_scale_alone(self):
        rng = np.random.default_rng(88)
        state, feats, labels = self.problem(rng)
        w = rng.standard_normal(3 * state.scales)
        stacked = Tensor(np.vstack([f.data for f in feats]))
        with GradTape() as tape:
            rows = focal_oim_rows(stacked, labels, state)
            (grad,) = tape.gradients(rows, [stacked], w)
        alone = [focal_oim_rows(f, labels, scale_state(state, s)) for s, f in enumerate(feats)]
        assert rows.data.tobytes() == np.concatenate([a.data for a in alone]).tobytes()
        for s, (f, a) in enumerate(zip(feats, alone)):
            with GradTape() as tape:
                a = focal_oim_rows(f, labels, scale_state(state, s))
                (want,) = tape.gradients(a, [f], w[3 * s : 3 * s + 3])
            assert np.array_equal(grad[4 * s : 4 * s + 4], want)

    def test_l2_normalized_stack_equals_each_scale_normalized(self):
        # The training step normalizes the stacked scales with one call.
        rng = np.random.default_rng(85)
        state, _, labels = self.problem(rng)
        raws = [Tensor(rng.standard_normal((4, 6))) for _ in range(state.scales)]
        want, _ = self.per_scale_chain([T.l2_normalize_rows(r) for r in raws], labels, state, 2.0)
        stacked = T.l2_normalize_rows(Tensor(np.vstack([r.data for r in raws])))
        assert focal_oim_loss(stacked, labels, state)[0].item() == want.item()

    def test_sets_score_each_set_as_its_own_call(self):
        rng = np.random.default_rng(82)
        state, _, labels = self.problem(rng)
        sets = [[unit_rows(rng, 4, 6) for _ in range(state.scales)] for _ in range(5)]
        # Scale after scale, and within a scale set after set.
        stacked = Tensor(np.vstack([s[k] for k in range(state.scales) for s in sets]))
        values, no_state = focal_oim_loss(stacked, labels, state, gamma=2.0, sets=len(sets))
        assert no_state is None and values.shape == (len(sets),)
        for b, feats in enumerate(sets):
            one = focal_oim_loss(Tensor(np.vstack(feats)), labels, state, gamma=2.0)[0]
            assert values.data[b] == one.item()

    def test_no_labeled_row_gives_a_constant_zero_and_still_queues(self):
        rng = np.random.default_rng(83)
        state, _, _ = self.problem(rng)
        feats = Tensor(unit_rows(rng, 2 * state.scales, 6))
        with GradTape() as tape:
            loss, new_state = focal_oim_loss(feats, [UNLABELED, BACKGROUND], state)
        assert loss.item() == 0.0 and not tape._nodes
        assert new_state.queue.shape == (3, 2, 6)
        for s in range(state.scales):
            assert np.array_equal(new_state.queue[s, -1], feats.data[2 * s])

    def test_one_row_block_per_scale_is_required(self):
        rng = np.random.default_rng(84)
        state, _, _ = self.problem(rng)
        with pytest.raises(ValueError, match="one label per feature row of each of 3 scales"):
            focal_oim_loss(Tensor(unit_rows(rng, 2, 6)), [0], state)
        with pytest.raises(ValueError, match="one label per feature row of each of 3 scales"):
            focal_oim_rows(Tensor(unit_rows(rng, 1, 6)), [0], state)

    def test_a_bad_row_of_a_later_scale_is_named_within_its_scale(self):
        rng = np.random.default_rng(87)
        state, _, _ = self.problem(rng)
        feats = unit_rows(rng, 6, 6)
        feats[5] *= 2.0  # scale 2, row 1
        with pytest.raises(ValueError, match="row 1 entering OIM must be unit-norm, got 2.0"):
            focal_oim_loss(Tensor(feats), [0, UNLABELED], state)


class TestTotalLoss:
    def test_unit_components_give_nine_point_five(self):
        assert total_loss(1.0, 1.0, 1.0, 1.0) == pytest.approx(9.5)

    def test_default_weights(self):
        w = LossWeights()
        assert (w.cls, w.iou, w.l1, w.oim) == (2.0, 5.0, 2.0, 0.5)

    def test_mixed_tensor_and_float(self):
        out = total_loss(1.0, 0.5, 0.25, Tensor(2.0))
        assert isinstance(out, Tensor)
        assert out.item() == pytest.approx(2.0 + 2.5 + 0.5 + 1.0)

    def test_one_node_weights_the_oim_term(self):
        x = Tensor(4.0)
        with GradTape() as tape:
            out = total_loss(1.0, 1.0, 1.0, x)
        assert [node.inputs for node in tape._nodes] == [(x,)]
        assert out.item() == 0.5 * 4.0 + 9.0
        (g,) = tape.gradients(out, [x], 3.0)
        assert float(g) == 0.5 * 3.0
