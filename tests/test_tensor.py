"""Autodiff core: primitive gradients, tape mechanics, TNSR and CSV output."""

import csv
import io
import math
import os
import struct
import types
import weakref

import numpy as np
import pytest

import canopyheights.tensor as tn
from canopyheights.tensor import (Tensor, Tape, atomic_open, backward, concat,
                                  grad_check, load_tensor, matmul, no_grad,
                                  save_tensor, tpow, write_csv)

TOL = 1e-4


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return Tensor(np.random.default_rng(seed).uniform(lo, hi, shape),
                  requires_grad=True)


class TestPrimitiveGradients:
    @pytest.mark.parametrize("f,positive", [
        (lambda x: (x + 2.0).sum(), False),
        (lambda x: (x * x).sum(), False),
        (lambda x: (x - 0.5).mean(), False),
        (lambda x: (x / 3.0).sum(), False),
        (lambda x: (2.0 / (x + 3.0)).sum(), False),
        (lambda x: (-x).sum(), False),
        (lambda x: (x ** 3).sum(), False),
        (lambda x: x.exp().sum(), False),
        (lambda x: x.log().sum(), True),
        (lambda x: (x.abs() + 1.0).log().sum(), False),
        (lambda x: x.clamp_min(0.2).sum(), False),
        (lambda x: x.reshape(6, 4).sum(axis=0).mean(), False),
        (lambda x: x.permute(1, 0).sum(), False),
        (lambda x: x[1:3, ::2].sum(), False),
        (lambda x: x.sum(axis=1, keepdims=True).mean(), False),
        (lambda x: (x * x).reshape(2, 3, 4).mean(axis=(0, 1)).sum(), False),
        (lambda x: (x * x).reshape(2, 3, 4).mean(axis=(-1, 0)).sum(), False),
    ])
    def test_elementwise_and_shape_ops(self, f, positive):
        x = rand((4, 6), lo=0.5 if positive else -1.0,
                 hi=2.0 if positive else 1.0)
        assert grad_check(f, x) < TOL

    def test_mean_over_axes_matches_numpy(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4))
        for axis in ((0, 1), (-1, 0), -2, None):
            np.testing.assert_allclose(Tensor(x).mean(axis=axis).data,
                                       x.mean(axis=axis))

    def test_matmul_both_sides(self):
        b = rand((5, 3), seed=1)

        def f(x):
            return (matmul(x, b)).sum()
        assert grad_check(f, rand((4, 5))) < TOL

        a = rand((4, 5), seed=2)

        def g(x):
            return (a @ x).sum()
        assert grad_check(g, rand((5, 3))) < TOL

    def test_stacked_matmul_both_sides(self):
        w = Tensor(np.random.default_rng(5).normal(size=(3, 4, 2)))
        b = rand((3, 5, 2), seed=6)
        assert grad_check(lambda x: (matmul(x, b) * w).sum(),
                          rand((3, 4, 5))) < TOL
        a = rand((3, 4, 5), seed=7)
        assert grad_check(lambda x: (matmul(a, x) * w).sum(),
                          rand((3, 5, 2))) < TOL
        np.testing.assert_allclose(matmul(a, b).data[1],
                                   a.data[1] @ b.data[1], rtol=1e-14)

    def test_matmul_rejects_mixed_or_unequal_stacks(self):
        with pytest.raises(ValueError):
            matmul(rand((3, 4, 5)), rand((5, 2)))
        with pytest.raises(ValueError):
            matmul(rand((3, 4, 5)), rand((2, 5, 2)))

    @pytest.mark.parametrize("key", [
        2, np.int64(-1), slice(1, 3), (slice(None), 4),
        (slice(0, 4, 2), slice(1, None)), (3, slice(None, None, -2))])
    def test_basic_index_gradient(self, key):
        w = Tensor(np.random.default_rng(8).normal(
            size=np.zeros((4, 6))[key].shape))
        assert grad_check(lambda x: (x[key] * w).sum(), rand((4, 6))) < TOL

    def test_fancy_index_with_repeats_accumulates(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        (x[np.array([1, 1, 3])] * Tensor(np.array([2.0, 3.0, 5.0]))).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 5.0, 0.0, 5.0])
        y = Tensor(np.zeros((3, 2)), requires_grad=True)
        y[[0, 0, 2], 1].sum().backward()
        np.testing.assert_array_equal(y.grad, [[0, 2], [0, 0], [0, 1]])

    def test_broadcast_add_mul(self):
        row = rand((1, 6), seed=3)

        def f(x):
            return ((x + row) * row).sum()
        assert grad_check(f, rand((4, 6))) < TOL

    def test_concat(self):
        other = rand((2, 6), seed=4)

        def f(x):
            return concat([x, other], axis=0).mean()
        assert grad_check(f, rand((3, 6))) < TOL

    def test_concat_negative_axis(self):
        other = rand((2, 5), seed=4)
        x = rand((2, 3))
        np.testing.assert_array_equal(concat([x, other], axis=-1).data,
                                      concat([x, other], axis=1).data)

        def f(x):
            return concat([x, other], axis=-1).mean()
        assert grad_check(f, rand((2, 3))) < TOL

    @pytest.mark.parametrize("axis", [2, -3])
    def test_concat_rejects_axis_out_of_range(self, axis):
        with pytest.raises(ValueError, match="out of range"):
            concat([rand((2, 3)), rand((2, 3))], axis=axis)

    def test_tpow_tensor_exponent(self):
        def f(x):
            return tpow(x, Tensor(np.full(x.shape, 1.7))).sum()
        assert grad_check(f, rand((3, 3), lo=0.5, hi=2.0)) < TOL


class TestTapeMechanics:
    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = x * x + x * 2.0        # dy/dx = 2x + 2 = 8
        y.backward()
        assert x.grad == pytest.approx(8.0)

    def test_reused_node_in_two_paths(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a = x * 3.0
        out = (a + a * x).sum()    # d/dx (3x + 3x^2) = 3 + 6x
        out.backward()
        np.testing.assert_allclose(x.grad, 3.0 + 6.0 * x.data)

    def test_detach_blocks_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        out = (x.detach() * x).sum()
        out.backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_explicit_tape_matches_backward_method(self, monkeypatch):
        roots = []
        from_root = Tape.from_root
        monkeypatch.setattr(Tape, "from_root", staticmethod(
            lambda root: roots.append(root) or from_root(root)))
        x = Tensor(np.arange(4.0), requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        assert roots == [loss]           # the walk order is built once
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.array(1.5), requires_grad=True)
        (x * 2.0).backward()
        (x * 3.0).backward()
        assert x.grad == pytest.approx(5.0)

    def test_backward_frees_the_graph_below_a_live_root(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        mid = x * 2.0
        ref = weakref.ref(mid.data)
        root = mid.exp().sum()
        del mid
        root.backward()
        assert ref() is None             # only the graph held it
        assert root.data == np.exp(2.0 * x.data).sum()
        np.testing.assert_array_equal(x.grad, 2.0 * np.exp(2.0 * x.data))

    def test_second_backward_from_one_root_raises(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = x * x + x * 2.0
        y.backward()
        with pytest.raises(RuntimeError, match="previous backward freed"):
            y.backward()
        assert x.grad == pytest.approx(8.0)
        assert x._grad_fn is None        # a leaf stays a leaf

    def test_backward_from_a_root_without_graph_raises(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        with no_grad():
            y = x * 2.0
        with pytest.raises(RuntimeError, match="records no graph"):
            y.backward()
        with pytest.raises(RuntimeError, match="records no graph"):
            (Tensor(np.array(3.0)) * 2.0).backward()
        assert x.grad is None

    def test_non_scalar_backward_requires_seed(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(Exception):
            (x * 1.0).backward()

    def test_no_grad_builds_no_graph_and_nests(self):
        x = rand((3, 4))
        with no_grad():
            with no_grad():
                y = (x * 2.0).exp()
            z = concat([y, x], axis=0).sum()
        assert not y.requires_grad and y._grad_fn is None and y._parents == ()
        assert not z.requires_grad and z._grad_fn is None
        np.testing.assert_array_equal(y.data, np.exp(x.data * 2.0))
        # the graph is recorded again after the block
        (x * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 3.0))

    def test_no_grad_restored_after_exception(self):
        x = rand((2,))
        with pytest.raises(ZeroDivisionError):
            with no_grad():
                x / 0.0
        assert (x * 1.0)._grad_fn is not None


class TestDtypeAndChecks:
    def test_default_dtype_is_float64(self):
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float64

    @pytest.mark.parametrize("f", [
        lambda x: x * 0.5, lambda x: 0.5 * x, lambda x: x - 1,
        lambda x: 2.0 / x, lambda x: x + np.float64(3.0),
        lambda x: x * np.ones(3),
    ])
    def test_python_and_numpy_operands_keep_f32(self, f):
        x = Tensor(np.ones(3, np.float32), dtype=np.float32)
        assert f(x).dtype == np.float32

    def test_adjoints_take_their_nodes_dtype(self):
        # an f64 operand lifts the product to f64; the f32 leaf below it
        # still receives an f32 gradient
        x = Tensor(np.arange(1.0, 4.0), requires_grad=True, dtype=np.float32)
        w = Tensor(np.array([0.5, 1.5, 2.5]))
        loss = (x * w).sum()
        assert loss.dtype == np.float64
        loss.backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.float32([0.5, 1.5, 2.5]))

    def test_broadcast_mismatch_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((3, 2))) + Tensor(np.zeros((4, 2)))

    def test_grad_check_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            grad_check(lambda x: x.sum(), Tensor(np.zeros(2)), eps=0.0)

    def test_grad_check_subsampling_agrees(self):
        x = rand((8, 8), seed=7)

        def f(t):
            return (t * t * 0.5).sum()
        full = grad_check(f, x)
        sub = grad_check(f, x, max_coords=10, seed=1)
        assert full < TOL and sub < TOL


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestChannelSums:
    """``_channel_sum`` and the gradient sums built on it add in the order
    of ``ndarray.sum``, bit for bit; a numpy whose einsum adds in another
    order, or a BLAS sum, fails here."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 4, 16, 64])
    @pytest.mark.parametrize("shape, axis", [
        ((4096,), (0,)), ((3, 4096), (1,)), ((16, 20), (0,)),
        ((3, 16, 20), (0, 1)), ((2, 16, 20), (1,)), ((5, 16, 20), (1, 2)),
        ((3, 100), (1,))])
    def test_equals_ndarray_sum(self, dtype, c, shape, axis):
        a = np.random.default_rng(c).normal(size=shape + (c,)).astype(dtype) * 3
        # in Fortran order ndarray.sum runs down the rows, pairwise
        for arr in (a, np.asfortranarray(a)):
            for keepdims in (False, True):
                assert_same_bits(tn._channel_sum(arr, axis, keepdims),
                                 arr.sum(axis=axis, keepdims=keepdims))

    @staticmethod
    def reference_unbroadcast(grad, shape):
        """``_unbroadcast`` as plain ndarray.sum calls."""
        if grad.shape == shape:
            return grad
        extra = grad.ndim - len(shape)
        if extra > 0:
            grad = grad.sum(axis=tuple(range(extra)))
        axes = tuple(i for i, s in enumerate(shape)
                     if s == 1 and grad.shape[i] != 1)
        if axes:
            grad = grad.sum(axis=axes, keepdims=True)
        return grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tiles", [1, 3])
    @pytest.mark.parametrize("d", [1, 4, 16, 64])
    def test_unbroadcast(self, dtype, tiles, d):
        rng = np.random.default_rng(d + tiles)
        cases = [((tiles * 300, d), (d,)), ((tiles, 300, d), (d,)),
                 ((tiles * 300, d), (1, d)), ((tiles, 300, d), (300, 1)),
                 ((tiles, 300, d), (1, d))]
        for gshape, shape in cases:
            g = rng.normal(size=gshape).astype(dtype)
            strided = rng.normal(size=gshape[:-1] + (2 * d,)).astype(dtype)[..., ::2]
            for grad in (g, strided):
                assert_same_bits(Tensor._unbroadcast(grad, shape),
                                 self.reference_unbroadcast(grad, shape))

    def test_linear_bias_gradient(self):
        x = Tensor(np.random.default_rng(3).normal(size=(3, 256, 16)),
                   dtype=np.float32)
        b = Tensor(np.zeros(16), requires_grad=True, dtype=np.float32)
        g = np.random.default_rng(4).normal(size=x.shape).astype(np.float32)
        (x + b).backward(g)
        assert_same_bits(b.grad, g.sum(axis=(0, 1)))


class TestPersistence:
    def test_tnsr_roundtrip_f64(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(3, 4, 5))
        p = tmp_path / "a.tnsr"
        save_tensor(p, arr)
        np.testing.assert_array_equal(load_tensor(p), arr)

    def test_tnsr_roundtrip_f32(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=(7,)).astype(np.float32)
        p = tmp_path / "b.tnsr"
        save_tensor(p, arr)
        out = load_tensor(p)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, arr)

    @pytest.mark.parametrize("keep", [12, -8])    # inside header, payload
    def test_truncated_tnsr_names_the_file(self, tmp_path, keep):
        p = tmp_path / "t.tnsr"
        save_tensor(p, np.arange(16.0).reshape(4, 4))
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(ValueError, match="t.tnsr"):
            load_tensor(p)

    def test_payload_one_byte_short_names_the_file(self, tmp_path,
                                                   monkeypatch):
        p = tmp_path / "short.tnsr"
        save_tensor(p, np.arange(6.0))
        p.write_bytes(p.read_bytes()[:-1])
        message = (r"short.tnsr: shape \(6,\) needs 48 payload bytes, the "
                   r"file has 47 left")
        with pytest.raises(ValueError, match=message):
            load_tensor(p)
        # the size check passes when the file is stat'ed one byte longer
        # than it reads (say, it shrank in between): readinto comes up short
        fstat = os.fstat
        with monkeypatch.context() as m:
            m.setattr(os, "fstat", lambda fd: types.SimpleNamespace(
                st_size=fstat(fd).st_size + 1))
            with pytest.raises(ValueError, match=message):
                load_tensor(p)

    @pytest.mark.parametrize("shape", [(65536,) * 4, (2 ** 32 - 1,) * 2])
    def test_header_whose_size_overflows_int64_names_the_file(self, tmp_path,
                                                              shape):
        # the payload sizes are 2**67 and about 2**67 bytes: past int64,
        # where a fixed-width product wraps to 0 or a negative count
        p = tmp_path / "big.tnsr"
        p.write_bytes(b"TNSR" + struct.pack("<BBI", 1, 0, len(shape))
                      + struct.pack(f"<{len(shape)}I", *shape) + bytes(16))
        with pytest.raises(ValueError, match="big.tnsr") as err:
            load_tensor(p)
        assert f"needs {math.prod(shape) * 8} payload bytes" in str(err.value)

    def test_rank_past_the_file_is_refused_before_the_read(self, tmp_path):
        # 2**20 extents would be a 4 MiB shape read from a 26-byte file
        p = tmp_path / "rank.tnsr"
        p.write_bytes(b"TNSR" + struct.pack("<BBI", 1, 0, 2 ** 20) + bytes(16))
        with pytest.raises(ValueError, match="rank.tnsr: rank 1048576 needs "
                           "4194304 shape bytes, the file has 16 left"):
            load_tensor(p)

    def test_trailing_bytes_name_the_file(self, tmp_path):
        p = tmp_path / "t.tnsr"
        save_tensor(p, np.arange(4.0))
        p.write_bytes(p.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="t.tnsr"):
            load_tensor(p)

    def test_tnsr_bytes_deterministic(self, tmp_path):
        arr = np.random.default_rng(2).normal(size=(4, 4))
        p1, p2 = tmp_path / "c1.tnsr", tmp_path / "c2.tnsr"
        save_tensor(p1, arr)
        save_tensor(p2, arr)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("previous", [True, False])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch,
                                                  previous):
        p = tmp_path / "t.tnsr"
        if previous:
            save_tensor(p, np.arange(4.0))
        write_record = tn.write_record

        def failing(fh, arr):
            fh.write(b"TNSR\x01")
            raise OSError("no space left on device")
        monkeypatch.setattr(tn, "write_record", failing)
        with pytest.raises(OSError):
            save_tensor(p, np.arange(64.0))
        monkeypatch.setattr(tn, "write_record", write_record)
        assert sorted(os.listdir(tmp_path)) == (["t.tnsr"] if previous else [])
        if previous:
            np.testing.assert_array_equal(load_tensor(p), np.arange(4.0))

    def test_atomic_open_replaces_only_on_success(self, tmp_path):
        p = tmp_path / "a.csv"
        with atomic_open(p) as fh:
            fh.write("old\n")
            assert not p.exists()
        with pytest.raises(KeyboardInterrupt):
            with atomic_open(p) as fh:
                fh.write("new, half\n")
                raise KeyboardInterrupt
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["a.csv"]

    def test_write_csv_matches_explicit_formatting(self, tmp_path):
        # the text of formatting every field explicitly: repr(float(v)) for
        # a float, "" for None, csv.writer's quoting for the rest
        def explicit(v):
            if v is None:
                return ""
            return repr(float(v)) if isinstance(v, float) else v
        floats = [0.1, 1.0 / 3.0, -0.0, 1e-300, 5e-324, 1e16, 123456.789,
                  math.nan, math.inf, -math.inf]
        rows = [floats, [np.float64(v) for v in floats],
                [0, -7, 2 ** 70, None, None],
                ["a,b", 'say "x"', "two\nlines", "cr\rhere", "", "plain"],
                ["mixed", np.float64(0.1), 3, None, 2.5e-8]]
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(["h,1", "h2"])
        w.writerows([explicit(v) for v in row] for row in rows)
        p = tmp_path / "t.csv"
        write_csv(p, ["h,1", "h2"], iter(rows))
        with open(p, newline="") as fh:
            assert fh.read() == buf.getvalue()
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_write_csv_writes_float32_in_its_short_form(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["v"], [[np.float32(0.1)], [float(np.float32(0.1))]])
        assert p.read_bytes() == b"v\r\n0.1\r\n0.10000000149011612\r\n"
