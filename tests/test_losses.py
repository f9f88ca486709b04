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


def one_scale_loss(features, labels, state, gamma=2.0):
    """:func:`focal_oim_loss` of a single scale: (loss, new state)."""
    loss, (new_state,) = focal_oim_loss(features, labels, [state], gamma)
    return loss, new_state


def fresh_state(rng, num_labeled=4, dim=6, capacity=3, warm=True):
    state = OIMState.initial(num_labeled, dim, capacity)
    if warm:
        feats = unit_rows(rng, num_labeled, dim)
        state = state.update(feats, list(range(num_labeled)))
    return state


class TestOIMState:
    def test_initial_lut_zero(self):
        s = OIMState.initial(3, 4, 2)
        np.testing.assert_array_equal(s.lut, np.zeros((3, 4)))
        assert len(s.queue) == 0

    def test_lut_rows_unit_after_update(self):
        rng = np.random.default_rng(60)
        s = OIMState.initial(3, 5, 2)
        feats = unit_rows(rng, 3, 5)
        s = s.update(feats, [0, 1, 2])
        np.testing.assert_allclose(
            np.linalg.norm(s.lut, axis=1), np.ones(3), atol=1e-10
        )

    def test_fixed_point_update(self):
        # Updating with the prototype itself leaves the row unchanged.
        rng = np.random.default_rng(61)
        s = fresh_state(rng)
        row = s.lut[1].copy()
        s2 = s.update(row.reshape(1, -1), [1])
        np.testing.assert_allclose(s2.lut[1], row, atol=1e-12)

    def test_momentum_mixing(self):
        s = OIMState.initial(1, 2, 0, momentum=0.5)
        s = s.update(np.array([[1.0, 0.0]]), [0])
        np.testing.assert_allclose(s.lut[0], [1.0, 0.0], atol=1e-12)
        s = s.update(np.array([[0.0, 1.0]]), [0])
        want = np.array([0.5, 0.5]) / np.linalg.norm([0.5, 0.5])
        np.testing.assert_allclose(s.lut[0], want, atol=1e-12)

    def test_queue_fifo_eviction(self):
        rng = np.random.default_rng(62)
        s = OIMState.initial(2, 4, 2)
        rows = unit_rows(rng, 3, 4)
        for r in rows:
            s = s.update(r.reshape(1, -1), [UNLABELED])
        assert len(s.queue) == 2
        np.testing.assert_array_equal(np.array(list(s.queue)), rows[1:])

    def test_update_does_not_mutate_original(self):
        rng = np.random.default_rng(63)
        s = fresh_state(rng)
        lut_before = s.lut.copy()
        s.update(unit_rows(rng, 1, 6), [0])
        np.testing.assert_array_equal(s.lut, lut_before)

    def test_update_equals_the_row_by_row_loop(self):
        def loop_update(state, features, labels):
            """The update one row at a time: the reference."""
            lut = state.lut.copy()
            queue = deque(state.queue, maxlen=state.queue.maxlen)
            for x, label in zip(features, labels):
                if label >= 0:
                    mixed = state.momentum * lut[label] + (1.0 - state.momentum) * x
                    norm = np.linalg.norm(mixed)
                    lut[label] = mixed / norm if norm > 1e-12 else 0.0
                elif label == UNLABELED and queue.maxlen > 0:
                    queue.append(np.array(x))
            return lut, list(queue)

        rng = np.random.default_rng(65)
        for capacity, warm, momentum in ((0, True, 0.5), (2, False, 0.5), (5, True, 0.9)):
            s = dataclasses.replace(fresh_state(rng, capacity=capacity, warm=warm), momentum=momentum)
            for _ in range(40):
                n = int(rng.integers(1, 7))
                # Zero rows meet zero prototypes; labels repeat within a batch.
                feats = unit_rows(rng, n, 6) * rng.choice([1.0, 0.0, 3.0], size=(n, 1))
                labels = rng.integers(-2, 4, size=n).tolist()
                lut, queue = loop_update(s, feats, labels)
                s = s.update(feats, labels)
                assert s.lut.tobytes() == lut.tobytes()
                assert [q.tobytes() for q in s.queue] == [q.tobytes() for q in queue]
                assert s.momentum == momentum and s.queue_capacity == capacity

    def test_classes_stack_lut_then_queue_as_columns(self):
        rng = np.random.default_rng(64)
        s = fresh_state(rng, capacity=2)
        q = unit_rows(rng, 1, 6)
        s = s.update(q, [UNLABELED])
        cm = s.classes
        assert cm.shape == (6, 5)
        assert cm.flags.c_contiguous and not cm.flags.writeable
        np.testing.assert_array_equal(cm[:, :4], s.lut.T)
        np.testing.assert_array_equal(cm[:, 4], q[0])
        # Built once per state; the update's new state builds its own.
        assert s.classes is cm
        assert s.update(q, [UNLABELED]).classes.shape == (6, 6)
        np.testing.assert_array_equal(OIMState.initial(2, 3, 4).classes, np.zeros((3, 2)))


class TestOIMLoss:
    def test_uniform_logits_give_log_num_classes(self):
        # A zero lookup table scores every class equally.
        rng = np.random.default_rng(65)
        s = OIMState.initial(5, 8, 0)
        feats = Tensor(unit_rows(rng, 2, 8))
        loss, _ = one_scale_loss(feats, [0, 3], s, gamma=0.0)
        assert loss.item() == pytest.approx(math.log(5), abs=1e-12)

    def test_empty_labeled_set_zero_loss(self):
        rng = np.random.default_rng(66)
        s = fresh_state(rng)
        feats = Tensor(unit_rows(rng, 2, 6))
        loss, s2 = one_scale_loss(feats, [UNLABELED, BACKGROUND], s, gamma=0.0)
        assert loss.item() == 0.0
        assert len(s2.queue) == 1  # unlabeled row still queued

    def test_matches_manual_cross_entropy(self):
        rng = np.random.default_rng(67)
        s = fresh_state(rng, capacity=2)
        s = s.update(unit_rows(rng, 2, 6), [UNLABELED, UNLABELED])
        feats = unit_rows(rng, 3, 6)
        labels = [2, 0, UNLABELED]
        loss, _ = one_scale_loss(Tensor(feats), labels, s, gamma=0.0)
        cm = s.classes.T
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
        l1, s1 = one_scale_loss(Tensor(feats), [0, 1], s, gamma=0.0)
        l2, s2 = one_scale_loss(Tensor(with_bg), [0, 1, BACKGROUND], s, gamma=0.0)
        assert l1.item() == pytest.approx(l2.item(), abs=1e-15)
        np.testing.assert_array_equal(s1.lut, s2.lut)

    def test_queue_rows_act_as_negatives(self):
        rng = np.random.default_rng(69)
        s = fresh_state(rng, capacity=4)
        feats = unit_rows(rng, 1, 6)
        base, _ = one_scale_loss(Tensor(feats), [0], s, gamma=0.0)
        # Push the query's own direction into the queue: it now competes.
        s_hard = s.update(feats, [UNLABELED])
        harder, _ = one_scale_loss(Tensor(feats), [0], s_hard, gamma=0.0)
        assert harder.item() > base.item()

    def test_non_unit_feature_rejected(self):
        rng = np.random.default_rng(70)
        s = fresh_state(rng)
        bad = Tensor(rng.standard_normal((1, 6)) * 2)
        with pytest.raises(ValueError):
            one_scale_loss(bad, [0], s, gamma=0.0)

    def test_out_of_range_identity_rejected(self):
        rng = np.random.default_rng(71)
        s = fresh_state(rng)
        feats = Tensor(unit_rows(rng, 1, 6))
        with pytest.raises(ValueError):
            one_scale_loss(feats, [4], s, gamma=0.0)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(72)
        s = fresh_state(rng, capacity=2)
        s = s.update(unit_rows(rng, 1, 6), [UNLABELED])
        raw = Tensor(rng.standard_normal((3, 6)))

        def f(x):
            # Normalize inside so arbitrary perturbations stay legal.
            loss, _ = one_scale_loss(
                T.l2_normalize_rows(x), [1, 3, UNLABELED], s, gamma=0.0
            )
            return loss

        err = T.central_diff_gradcheck(f, raw)
        assert err < 1e-6

    def test_focal_gradient_matches_central_differences(self):
        rng = np.random.default_rng(73)
        s = fresh_state(rng)
        raw = Tensor(rng.standard_normal((2, 6)))

        def f(x):
            loss, _ = one_scale_loss(T.l2_normalize_rows(x), [0, 2], s, gamma=2.0)
            return loss

        err = T.central_diff_gradcheck(f, raw)
        assert err < 1e-6


class TestFocalOIMRows:
    def test_loss_is_mean_of_rows_and_rows_leave_state_alone(self):
        rng = np.random.default_rng(77)
        s = fresh_state(rng, capacity=2)
        feats = Tensor(unit_rows(rng, 4, 6))
        labels = [3, UNLABELED, 0, 1]
        lut, queue = s.lut.copy(), list(s.queue)
        rows = focal_oim_rows(feats, labels, s, gamma=2.0)
        assert rows.shape == (3,)
        np.testing.assert_array_equal(s.lut, lut)
        assert list(s.queue) == queue
        loss, s2 = one_scale_loss(feats, labels, s, gamma=2.0)
        assert loss.item() == rows.data.mean()
        want = s.update(feats.data, labels)
        np.testing.assert_array_equal(s2.lut, want.lut)
        np.testing.assert_array_equal(np.array(list(s2.queue)), np.array(list(want.queue)))

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
            return T.sum_all(T.mul(focal_oim_rows(T.l2_normalize_rows(x), labels, s, 1.0), w))

        assert T.central_diff_gradcheck(f, Tensor(rng.standard_normal((4, 6)))) < 1e-6

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
        loss, s2 = one_scale_loss(Tensor(feats), labels, s, gamma=0.0)
        cm = s.classes.T
        want = 0.0
        for i in (0, 2):
            logits = cm @ feats[i] / s.tau
            want -= logits[labels[i]] - math.log(np.exp(logits).sum())
        assert loss.item() == pytest.approx(want / 2, abs=1e-12)
        lut = s.lut.copy()
        for i in (0, 2):
            mixed = s.momentum * lut[labels[i]] + (1.0 - s.momentum) * feats[i]
            lut[labels[i]] = mixed / np.linalg.norm(mixed)
        np.testing.assert_allclose(s2.lut, lut, atol=1e-15)
        assert not np.array_equal(s2.lut, s.lut)
        # The queue was full: the oldest entry leaves, the unlabeled row enters.
        queue = list(s.queue)
        np.testing.assert_array_equal(np.array(list(s2.queue)), np.array([queue[1], feats[1]]))

    def test_focal_downweights_easy_rows(self):
        # An easy row (feature equals its prototype) shrinks under focal
        # modulation much more than a hard row does.
        rng = np.random.default_rng(75)
        s = fresh_state(rng)
        easy = Tensor(s.lut[0].reshape(1, -1))
        plain, _ = one_scale_loss(easy, [0], s, gamma=0.0)
        focal, _ = one_scale_loss(easy, [0], s, gamma=2.0)
        assert focal.item() < 0.05 * plain.item()

    def test_matches_manual_focal_formula(self):
        rng = np.random.default_rng(76)
        s = fresh_state(rng)
        feats = unit_rows(rng, 2, 6)
        gamma = 2.0
        loss, _ = one_scale_loss(Tensor(feats), [1, 3], s, gamma=gamma)
        cm = s.classes.T
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
    :func:`focal_oim_rows`, added in order, scaled by 1 / S."""

    def problem(self, rng, scales=3, rows=4, queued=1):
        states = [fresh_state(rng, capacity=2) for _ in range(scales)]
        if queued:
            states = [st.update(unit_rows(rng, queued, 6), [UNLABELED] * queued) for st in states]
        feats = [Tensor(unit_rows(rng, rows, 6)) for _ in range(scales)]
        return states, feats, [2, UNLABELED, 0, 2][:rows]

    @staticmethod
    def per_scale_chain(feats, labels, states, gamma):
        """The loss as generic ops on each scale's own tensor, and the
        gradient of half of it for each of those tensors."""
        with GradTape() as tape:
            total = None
            for f, st in zip(feats, states):
                mean = T.mean_all(focal_oim_rows(f, labels, st, gamma))
                total = mean if total is None else T.add(total, mean)
            want = T.scale(total, 1.0 / len(states))
            return want, tape.gradients(T.scale(want, 0.5), feats)

    @pytest.mark.parametrize("queued", [0, 2], ids=["empty-queue", "full-queue"])
    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    @pytest.mark.parametrize("scales", [1, 3])
    def test_value_gradients_and_states_equal_the_per_scale_chain(self, scales, gamma, queued):
        rng = np.random.default_rng(81)
        states, feats, labels = self.problem(rng, scales, queued=queued)
        assert all(len(st.queue) == queued for st in states)
        want, want_grads = self.per_scale_chain(feats, labels, states, gamma)
        stacked = Tensor(np.vstack([f.data for f in feats]))
        with GradTape() as tape:
            loss, new_states = focal_oim_loss(stacked, labels, states, gamma=gamma)
            assert [node.inputs for node in tape._nodes] == [(stacked,)]
            (grad,) = tape.gradients(T.scale(loss, 0.5), [stacked])
        assert loss.shape == () and loss.item() == want.item()
        assert np.array_equal(grad, np.vstack(want_grads))
        for f, st, new in zip(feats, states, new_states):
            want_state = st.update(f.data, labels)
            assert np.array_equal(new.lut, want_state.lut)
            assert np.array_equal(np.array(new.queue), np.array(want_state.queue))

    def test_l2_normalized_stack_equals_each_scale_normalized(self):
        # The training step normalizes the stacked scales with one call.
        rng = np.random.default_rng(85)
        states, _, labels = self.problem(rng)
        raws = [Tensor(rng.standard_normal((4, 6))) for _ in states]
        want, _ = self.per_scale_chain([T.l2_normalize_rows(r) for r in raws], labels, states, 2.0)
        stacked = T.l2_normalize_rows(Tensor(np.vstack([r.data for r in raws])))
        assert focal_oim_loss(stacked, labels, states)[0].item() == want.item()

    def test_sets_score_each_set_as_its_own_call(self):
        rng = np.random.default_rng(82)
        states, _, labels = self.problem(rng)
        sets = [[unit_rows(rng, 4, 6) for _ in states] for _ in range(5)]
        # Scale after scale, and within a scale set after set.
        stacked = Tensor(np.vstack([s[k] for k in range(len(states)) for s in sets]))
        values, no_states = focal_oim_loss(stacked, labels, states, gamma=2.0, sets=len(sets))
        assert no_states is None and values.shape == (len(sets),)
        for b, feats in enumerate(sets):
            one = focal_oim_loss(Tensor(np.vstack(feats)), labels, states, gamma=2.0)[0]
            assert values.data[b] == one.item()

    def test_no_labeled_row_gives_a_constant_zero_and_still_queues(self):
        rng = np.random.default_rng(83)
        states, _, _ = self.problem(rng)
        feats = Tensor(unit_rows(rng, 2 * len(states), 6))
        with GradTape() as tape:
            loss, new_states = focal_oim_loss(feats, [UNLABELED, BACKGROUND], states)
        assert loss.item() == 0.0 and not tape._nodes
        assert [len(st.queue) for st in new_states] == [2, 2, 2]
        for s, (st, new) in enumerate(zip(states, new_states)):
            assert np.array_equal(new.queue[-1], feats.data[2 * s])

    def test_one_state_per_scale_is_required(self):
        rng = np.random.default_rng(84)
        states, _, _ = self.problem(rng)
        with pytest.raises(ValueError, match="one label per feature row of each of 3 states"):
            focal_oim_loss(Tensor(unit_rows(rng, 2, 6)), [0], states)
        with pytest.raises(ValueError, match="one state per scale"):
            focal_oim_loss(Tensor(unit_rows(rng, 1, 6)), [0], [])

    def test_states_must_share_one_queue_length(self):
        rng = np.random.default_rng(86)
        states, _, _ = self.problem(rng)
        states[1] = states[1].update(unit_rows(rng, 1, 6), [UNLABELED])
        with pytest.raises(ValueError, match="one queue length"):
            focal_oim_loss(Tensor(unit_rows(rng, 3, 6)), [0], states)

    def test_a_bad_row_of_a_later_scale_is_named_within_its_scale(self):
        rng = np.random.default_rng(87)
        states, _, _ = self.problem(rng)
        feats = unit_rows(rng, 6, 6)
        feats[5] *= 2.0  # scale 2, row 1
        with pytest.raises(ValueError, match="row 1 entering OIM must be unit-norm, got 2.0"):
            focal_oim_loss(Tensor(feats), [0, UNLABELED], states)


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

    def test_gradient_flows_through_oim_term(self):
        x = Tensor(4.0)
        with GradTape() as tape:
            out = total_loss(1.0, 1.0, 1.0, T.powc(x, 2.0))
        (g,) = tape.gradients(out, [x])
        assert float(g) == pytest.approx(0.5 * 2 * 4.0)
