"""Tensor core: forward oracles, analytic-vs-numeric gradients, blob I/O,
the heap policy."""

import ctypes
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from oracles import bilinear_oracle
from persearch import tensor as T
from persearch.tensor import GradTape, Tensor


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape))


def check_grads(f, args, w, h=1e-6, tol=1e-6):
    """Gradcheck ``f(*args)``, contracted with the weight ``w``, w.r.t. each
    Tensor argument."""
    for i, arg in enumerate(args):
        if not isinstance(arg, Tensor):
            continue

        def partial(t, i=i):
            swapped = list(args)
            swapped[i] = t
            return f(*swapped)

        err = T.central_diff_gradcheck(partial, arg, w, h=h)
        assert err < tol, f"arg {i}: rel err {err:.3e}"


class TestTensorBasics:
    def test_immutable(self):
        t = Tensor([[1.0, 2.0]])
        with pytest.raises(ValueError):
            t.data[0, 0] = 5.0

    def test_float64_row_major(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]

    def test_scalar_item(self):
        assert Tensor(3.5).item() == 3.5

    def test_adopt_wraps_without_a_copy_and_freezes(self):
        arr = np.arange(6.0).reshape(2, 3)
        t = Tensor._adopt(arr)
        assert t.data is arr and not arr.flags.writeable
        with pytest.raises(ValueError):
            t.data[0, 0] = 5.0
        for bad in (np.arange(6.0).reshape(2, 3).T, np.zeros(3, dtype=np.float32)):
            with pytest.raises(ValueError, match="cannot adopt"):
                Tensor._adopt(bad)


class TestForwardOracles:
    def test_softmax_uniform(self):
        out = T._softmax_last(np.array([0.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 7)) * 50  # also exercises the max shift
        p = T._softmax_last(x)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(5), atol=1e-12)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4))
        p1 = T._softmax_last(x)
        p2 = T._softmax_last(x + 123.0)
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_layer_norm_constant_row(self):
        out = T.layer_norm(
            Tensor([1.0, 1.0, 1.0]), Tensor([1.0, 1.0, 1.0]), Tensor([0.0, 0.0, 0.0])
        ).data
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0], atol=1e-12)

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 9))
        ones = Tensor(np.ones(9))
        zeros = Tensor(np.zeros(9))
        out = T.layer_norm(Tensor(x), ones, zeros).data
        np.testing.assert_allclose(out.mean(axis=1), np.zeros(6), atol=1e-12)
        np.testing.assert_allclose(out.var(axis=1), np.ones(6), atol=1e-4)

    @pytest.mark.parametrize("shape", [(12, 32), (1000, 33), (7,)])
    def test_layer_norm_bit_identical_to_mean_var_form(self, shape):
        rng = np.random.default_rng(8)
        x = 3.0 * rng.standard_normal(shape) + 1.5
        n = shape[-1]
        gamma, beta = rng.standard_normal(n), rng.standard_normal(n)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
        out = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        assert np.array_equal(out, xhat * gamma + beta)
        plain = T.layer_norm(Tensor(x), Tensor(np.ones(n)), Tensor(np.zeros(n))).data
        assert np.array_equal(plain, xhat)

    def test_l2_normalize(self):
        # One (1, n) row; a zero row maps to zeros.
        out = T.l2_normalize_rows(Tensor([[3.0, 4.0]])).data
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)
        zero = T.l2_normalize_rows(Tensor([[0.0, 0.0]])).data
        np.testing.assert_array_equal(zero, [[0.0, 0.0]])

    def test_l2_normalize_rows(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        out = T.l2_normalize_rows(Tensor(x)).data
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.ones(4), atol=1e-12
        )

    def test_concat_slice_round_trip(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((3, 2)), rng.standard_normal((3, 4))
        cat = T.concat_cols([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(cat.data[:, :2], a)
        np.testing.assert_array_equal(cat.data[:, 2:], b)

def sample_at(fmap, x, y):
    """The (C,) feature at one pixel location, through the rows form."""
    return T.bilinear_sample_rows(fmap, Tensor([[x, y]])).data[0]


class TestBilinear:
    def make_map(self, rng, c=3, h=5, w=6):
        return Tensor(rng.standard_normal((c, h, w)))

    def test_integer_point_exact(self):
        rng = np.random.default_rng(7)
        fmap = self.make_map(rng)
        out = sample_at(fmap, 4.0, 2.0)
        np.testing.assert_array_equal(out, fmap.data[:, 2, 4])

    def test_midpoint_average(self):
        # Halfway between two horizontal neighbours on one row.
        fmap = Tensor(np.arange(8.0).reshape(1, 2, 4))
        out = sample_at(fmap, 1.5, 0.0)
        np.testing.assert_allclose(out, [(1.0 + 2.0) / 2], atol=1e-15)

    def test_far_out_of_bounds_zero(self):
        rng = np.random.default_rng(8)
        fmap = self.make_map(rng)
        out = sample_at(fmap, -10.0, -10.0)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_out_of_bounds_corners_ignore_non_finite_pixels(self):
        # Every corner of (-10, -10) is outside the map, so the sample is
        # exactly zero, however non-finite the nearest pixel is.
        fmap = np.ones((3, 5, 6))
        fmap[:, 0, 0] = np.inf
        out = sample_at(Tensor(fmap), -10.0, -10.0)
        assert np.array_equal(out, np.zeros(3))

    def test_edge_partial_zero_padding(self):
        fmap = Tensor(np.ones((1, 3, 3)))
        # Half a pixel past the left edge: only the right corners are in
        # bounds, each weighted 0.5.
        out = sample_at(fmap, -0.5, 1.0)
        np.testing.assert_allclose(out, [0.5], atol=1e-15)

    def test_matches_four_corner_formula(self):
        rng = np.random.default_rng(9)
        fmap = self.make_map(rng, c=2, h=4, w=5)
        fd = fmap.data
        for _ in range(50):
            x = rng.uniform(-1.0, 5.0)
            y = rng.uniform(-1.0, 4.0)
            got = sample_at(fmap, x, y)
            x0, y0 = int(np.ceil(x)) - 1, int(np.ceil(y)) - 1
            dx, dy = x - x0, y - y0

            def at(yy, xx):
                if 0 <= yy < 4 and 0 <= xx < 5:
                    return fd[:, yy, xx]
                return np.zeros(2)

            want = (
                at(y0, x0) * (1 - dx) * (1 - dy)
                + at(y0, x0 + 1) * dx * (1 - dy)
                + at(y0 + 1, x0) * (1 - dx) * dy
                + at(y0 + 1, x0 + 1) * dx * dy
            )
            np.testing.assert_allclose(got, want, atol=1e-13)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(10)
        fmap = self.make_map(rng)
        pts = rng.uniform(-1.0, 6.0, size=(9, 2))
        batched = T.bilinear_sample_rows(fmap, Tensor(pts)).data
        for i, (x, y) in enumerate(pts):
            single = sample_at(fmap, x, y)
            np.testing.assert_allclose(batched[i], single, atol=1e-15)

    def test_grid_line_uses_left_cell_derivative(self):
        # On an integer x the kink's left-cell slope is v[x] - v[x-1].
        fmap = Tensor(np.array([[[1.0, 4.0, 9.0]]]))  # (1,1,3)
        pt = Tensor([[1.0, 0.0]])
        with GradTape() as tape:
            out = T.bilinear_sample_rows(fmap, pt)
        (g,) = tape.gradients(out, [pt])
        assert g[0, 0] == pytest.approx(4.0 - 1.0, abs=1e-12)


def kernel_rows(maps, pts):
    """The multi-map kernel as one taped op: block b of the (B, Q, 2)
    points samples maps[b % len(maps)]."""
    table = T.value_table(maps)
    out, res = T._bilinear_forward(table, pts.data)

    def vjp(g):
        g_maps, g_pts = T._bilinear_vjp(table, res, g)
        return (*g_maps, g_pts.reshape(pts.shape))

    return T._emit(out, (*maps, pts), vjp)


class TestBilinearKernel:
    """Several maps of different sizes in one call, points straddling the
    2x2 map's edges, so every map has corners in and out of bounds."""

    def setup_method(self):
        self.rng = np.random.default_rng(14)
        self.maps = [rand(self.rng, 2, *hw) for hw in ((2, 2), (3, 4), (4, 3))]
        self.pts = Tensor(self.rng.uniform(-1.2, 2.2, size=(6, 5, 2)))

    def test_matches_oracle_per_block(self):
        out = kernel_rows(self.maps, self.pts).data.reshape(6, 5, 2)
        for b in range(6):
            fmap = self.maps[b % 3].data
            for q, (x, y) in enumerate(self.pts.data[b]):
                np.testing.assert_allclose(out[b, q], bilinear_oracle(fmap, x, y), rtol=0, atol=1e-12)

    def test_point_and_map_gradients(self):
        w = rand(self.rng, 30, 2)
        check_grads(lambda *args: kernel_rows(args[:3], args[3]), [*self.maps, self.pts], w)

    def test_corner_products_match_their_einsum_forms(self):
        # The corner sum and the VJP's corner dot product are BLAS
        # products; their einsum forms, from the same corner rows, agree.
        table = T.value_table(self.maps)
        out, res = T._bilinear_forward(table, self.pts.data)
        flat, wts, dx, dy, _ = res
        vals = np.take(table.rows, flat, axis=0)  # (4, P, C)
        want = np.einsum("kpc,kp->pc", vals, wts)
        assert np.abs(want).max() > 0
        assert np.linalg.norm(out - want) <= 1e-12 * np.linalg.norm(want)
        g = self.rng.standard_normal(out.shape)
        _, g_pts = T._bilinear_vjp(table, res, g)
        gv = np.einsum("pc,kpc->kp", g, vals)
        gx = (1.0 - dy) * (gv[1] - gv[0]) + dy * (gv[3] - gv[2])
        gy = (1.0 - dx) * (gv[2] - gv[0]) + dx * (gv[3] - gv[1])
        want = np.stack([gx, gy], axis=1)
        assert np.linalg.norm(g_pts - want) <= 1e-12 * np.linalg.norm(want)


class TestGradients:
    """Every primitive's analytic gradient vs central differences (< 1e-6)."""

    rng = np.random.default_rng(42)

    def test_add_same_shape(self):
        a, b, w = rand(self.rng, 4, 3), rand(self.rng, 4, 3), rand(self.rng, 4, 3)
        check_grads(T.add, [a, b], w)

    def test_add_rejects_unequal_shapes(self):
        with pytest.raises(ValueError, match="add shapes incompatible"):
            T.add(rand(self.rng, 4, 3), rand(self.rng, 3))

    def test_concat_cols(self):
        a, b, w = rand(self.rng, 3, 2), rand(self.rng, 3, 3), rand(self.rng, 3, 5)
        check_grads(lambda a, b: T.concat_cols([a, b]), [a, b], w)

    def test_tile_and_split_rows(self):
        x, w = rand(self.rng, 2, 3), rand(self.rng, 2, 9)
        check_grads(lambda x: T.concat_cols(T.split_rows(T.tile_rows(x, 3), 3)), [x], w)

    def test_grouped_layer_norm(self):
        # One leaf holds each block's gamma or beta; the gradient check's
        # error is a maximum over coordinates, so it bounds every block's.
        x = rand(self.rng, 6, 4)
        gammas = Tensor(np.stack([1.0 + 0.1 * self.rng.standard_normal(4) for _ in range(3)]))
        betas = Tensor(np.stack([self.rng.standard_normal(4) for _ in range(3)]))
        w = rand(self.rng, 6, 4)
        check_grads(lambda x, g, b: T.layer_norm(x, g, b, blocks=3), [x, gammas, betas], w)

    def test_tile_rows_of_a_rank_3_tensor(self):
        x, w = rand(self.rng, 2, 2, 3), rand(self.rng, 12, 3)
        assert np.array_equal(T.tile_rows(x, 3).data[6:8], x.data[1])
        check_grads(lambda x: T.tile_rows(x, 3), [x], w)

    def test_broadcast_blocks_per_set_and_scale(self):
        # Three sets at three scales, so only the layout arguments say
        # which axis a (3, 2, 3) tensor holds.
        x, both, w = rand(self.rng, 3, 2, 3), rand(self.rng, 3, 3, 2, 3), rand(self.rng, 9, 2, 3)
        per_set = T.broadcast_blocks(x, 3, 3, True, False).data.reshape(3, 3, 2, 3)
        per_scale = T.broadcast_blocks(x, 3, 3, False, True).data.reshape(3, 3, 2, 3)
        # Block b * S + l holds the value for set b and scale l.
        for b, l in np.ndindex(3, 3):
            assert np.array_equal(per_set[b, l], x.data[b])
            assert np.array_equal(per_scale[b, l], x.data[l])
        assert np.array_equal(T.broadcast_blocks(both, 3, 3, True, True).data, both.data.reshape(9, 2, 3))
        for layout in ((True, False), (False, True)):
            check_grads(lambda x: T.broadcast_blocks(x, 3, 3, *layout), [x], w)
        check_grads(lambda x: T.broadcast_blocks(x, 3, 3, True, True), [both], w)
        with pytest.raises(ValueError):
            T.broadcast_blocks(x, 2, 3, True, False)

    def test_take_rows_with_repeats(self):
        x, w = rand(self.rng, 5, 3), rand(self.rng, 4, 3)
        check_grads(lambda x: T.take_rows(x, [0, 2, 2, 4]), [x], w)

    def test_layer_norm(self):
        x = rand(self.rng, 4, 6)
        gamma = Tensor(1.0 + 0.1 * self.rng.standard_normal(6))
        beta = rand(self.rng, 6)
        w = rand(self.rng, 4, 6)
        check_grads(T.layer_norm, [x, gamma, beta], w, tol=1e-5)

    def test_l2_normalize(self):
        v = rand(self.rng, 1, 5)
        w = rand(self.rng, 1, 5)
        check_grads(T.l2_normalize_rows, [v], w)

    def test_l2_normalize_rows(self):
        x = rand(self.rng, 3, 4)
        w = rand(self.rng, 3, 4)
        check_grads(T.l2_normalize_rows, [x], w)

    def test_bilinear_map_and_point(self):
        fmap = rand(self.rng, 3, 5, 6)
        pt = Tensor([[2.3, 1.7]])
        w = rand(self.rng, 1, 3)
        check_grads(T.bilinear_sample_rows, [fmap, pt], w)

    def test_bilinear_rows(self):
        fmap = rand(self.rng, 2, 4, 4)
        pts = Tensor(self.rng.uniform(0.2, 2.8, size=(6, 2)))
        w = rand(self.rng, 6, 2)
        check_grads(T.bilinear_sample_rows, [fmap, pts], w)

    def test_bilinear_point_out_of_bounds_edge(self):
        # Straddling the boundary: gradient flows only through in-bounds corners.
        fmap = rand(self.rng, 2, 4, 4)
        pt = Tensor([[-0.4, 1.3]])
        w = rand(self.rng, 1, 2)
        check_grads(T.bilinear_sample_rows, [fmap, pt], w)


class TestGradTape:
    def test_shared_subexpression_accumulates(self):
        x = Tensor([[2.0, -1.0]])
        with GradTape() as tape:
            y = T.concat_cols([x, T.add(x, x)])  # x used three times
        (g,) = tape.gradients(y, [x], np.array([[1.0, 10.0, 100.0, 1000.0]]))
        np.testing.assert_array_equal(g, [[1.0 + 2 * 100.0, 10.0 + 2 * 1000.0]])

    def test_unused_source_gets_zeros(self):
        x, z = Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])
        with GradTape() as tape:
            out = T.add(x, x)
        gx, gz = tape.gradients(out, [x, z], np.ones((1, 2)))
        np.testing.assert_array_equal(gx, [[2.0, 2.0]])
        np.testing.assert_array_equal(gz, [[0.0, 0.0]])

    def test_cotangent_must_have_the_output_shape(self):
        x = Tensor([[1.0, 2.0]])
        with GradTape() as tape:
            out = T.add(x, x)
        for bad in (np.ones(2), np.ones((2, 1)), 1.0):
            with pytest.raises(ValueError, match="cotangent shape"):
                tape.gradients(out, [x], bad)

    def test_cotangent_slices_through_concat_cols(self):
        rng = np.random.default_rng(15)
        a, b, c = rand(rng, 3, 2), rand(rng, 3, 4), rng.standard_normal((3, 6))
        with GradTape() as tape:
            out = T.concat_cols([a, b])
        ga, gb = tape.gradients(out, [a, b], c)
        assert np.array_equal(ga, c[:, :2]) and np.array_equal(gb, c[:, 2:])

    def test_cotangent_scatters_through_take_rows(self):
        rng = np.random.default_rng(16)
        x, c, idx = rand(rng, 5, 3), rng.standard_normal((4, 3)), [4, 1, 1, 0]
        with GradTape() as tape:
            out = T.take_rows(x, idx)
        (g,) = tape.gradients(out, [x], c)
        want = np.zeros((5, 3))
        np.add.at(want, idx, c)
        assert np.array_equal(g, want)

    def test_selective_vjp_told_which_inputs_depend_on_a_source(self):
        seen = []

        def probe(a, b):
            def vjp(g, needs):
                seen.append(needs)
                return g, None if not needs[1] else g

            return T._emit(a.data + b.data, (a, b), vjp, selective=True)

        x, data = Tensor([1.0]), Tensor([2.0])
        with GradTape() as tape:
            out = probe(T.add(x, x), T.add(data, T.add(data, data)))
        (gx,) = tape.gradients(out, [x])
        assert seen == [(True, False)]
        np.testing.assert_array_equal(gx, [2.0])
        gx, gd = tape.gradients(out, [x, data])
        assert seen[-1] == (True, True)
        np.testing.assert_array_equal(gd, [3.0])

    def test_nodes_off_every_source_path_are_not_replayed(self):
        calls = []

        def traced(x):
            def vjp(g):
                calls.append(1)
                return (g,)

            return T._emit(x.data.copy(), (x,), vjp)

        x, data = Tensor([1.0]), Tensor([2.0])
        with GradTape() as tape:
            out = T.add(traced(data), T.add(x, x))
        (gx,) = tape.gradients(out, [x])
        np.testing.assert_array_equal(gx, [2.0])
        assert calls == []

    def test_no_tape_is_eager(self):
        a = Tensor([[1.0]])
        with GradTape() as tape:
            pass
        out = T.add(a, a)  # computed after the tape closed, and not recorded
        assert out.data[0, 0] == 2.0 and tape._nodes == []

    def test_nested_tape_rejected(self):
        with GradTape():
            with pytest.raises(RuntimeError):
                with GradTape():
                    pass

    def test_non_scalar_loss_rejected(self):
        x = Tensor([[1.0, 2.0]])
        with GradTape() as tape:
            y = T.add(x, x)
        with pytest.raises(ValueError):
            tape.gradients(y, [x])

    def test_gradcheck_detects_wrong_gradient(self):
        # A deliberately corrupted comparison must report a large error.
        rng = np.random.default_rng(12)
        x, w = rand(rng, 1, 3), rng.standard_normal((1, 6))
        with GradTape() as tape:
            out = T.concat_cols([x, x])
        (analytic,) = tape.gradients(out, [x], w)
        numeric = T.numeric_gradient(lambda probes: (np.concatenate([probes, probes], axis=2) * w).sum(axis=(1, 2)), x)
        corrupted = analytic + 0.5
        assert T.max_rel_error(corrupted, numeric) > 1e-2


class TestBlobIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        values = rng.standard_normal((3, 4, 5))
        values[0, 0, 0] = 1e-300  # denormal-adjacent, must survive exactly
        values[0, 0, 1] = -0.1
        t = Tensor(values)
        path = tmp_path / "t.sqt"
        T.write_blob(path, t)
        back = T.read_blob(path)
        assert back.shape == t.shape
        assert back.data.tobytes() == t.data.tobytes()
        assert back.data.dtype == np.float64 and not back.data.flags.writeable

    def test_header_fields(self, tmp_path):
        path = tmp_path / "t.sqt"
        T.write_blob(path, Tensor(np.zeros((2, 3))))
        raw = path.read_bytes()
        assert raw[:4] == b"SQTR"
        assert raw[4:8] == (1).to_bytes(4, "little")  # version
        assert raw[8] == 0  # dtype float64 LE
        assert raw[9] == 2  # ndim
        assert int.from_bytes(raw[10:18], "little") == 2
        assert int.from_bytes(raw[18:26], "little") == 3
        assert len(raw) == 26 + 6 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.sqt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            T.read_blob(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.sqt"
        T.write_blob(path, Tensor(np.ones((4, 4))))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            T.read_blob(path)

    @pytest.mark.parametrize("keep", [0, 3, 4, 7, 9, 10, 17, 26, 33])
    def test_every_truncation_rejected(self, tmp_path, keep):
        # Cuts inside the magic, the header, the dims and the data.
        path = tmp_path / "t.sqt"
        T.write_blob(path, Tensor(np.ones((2, 3))))
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError):
            T.read_blob(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.sqt"
        T.write_blob(path, Tensor(np.ones((2, 3))))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError):
            T.read_blob(path)

    def test_huge_dim_rejected_before_reading(self, tmp_path):
        path = tmp_path / "t.sqt"
        T.write_blob(path, Tensor(np.ones((2, 3))))
        raw = bytearray(path.read_bytes())
        raw[10:18] = (2**40).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            T.read_blob(path)


# Trains 60 steps of a tiny benchmark, then runs the gradient checks twice,
# in a fresh interpreter; prints the minor page faults a step over the last
# 40 steps, and those of the second gradient-check pass.
_FAULT_PROBE = """
import resource, sys
from persearch.data import BenchmarkConfig, make_benchmark
from persearch.gradcheck import run_gradcheck
from persearch.training import TrainSettings, train
from persearch.transformer import ReIDConfig, ReIDTransformer

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

cfg = BenchmarkConfig(num_train=4, num_gallery=3, num_queries=1, labeled_identities=2)
bench = make_benchmark(cfg, sys.argv[1])
model = ReIDTransformer.init(ReIDConfig(), seed=0, style="train")
seen = []
train(model, bench, TrainSettings(steps=60), run_seed=0, progress=lambda step, row: seen.append(faults()))
run_gradcheck()
before = faults()
run_gradcheck()
print((seen[-1] - seen[-41]) / 40, faults() - before)
"""


class TestKeepFreedHeap:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt and mallopt as on Linux")
    def test_train_and_gradcheck_stop_refaulting_the_heap(self, tmp_path):
        # At the C library's start-up thresholds a step takes some 320
        # faults and a gradient-check pass some 17,000.
        src = os.path.dirname(os.path.dirname(T.__file__))
        done = subprocess.run(
            [sys.executable, "-c", _FAULT_PROBE, str(tmp_path / "data")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        per_step, gradcheck_pass = map(float, done.stdout.split())
        assert per_step < 20
        assert gradcheck_pass < 1000

    @pytest.mark.parametrize("library", ["unloadable", "without mallopt"])
    def test_no_mallopt_returns_silently(self, monkeypatch, library):
        def cdll(name):
            if library == "unloadable":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert T._keep_freed_heap() is None

    def test_pins_both_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        T._keep_freed_heap()
        ceiling = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
        assert calls == [(-3, ceiling), (-1, 2 * ceiling)]
