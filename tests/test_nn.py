"""Neural-network building blocks: forward semantics and gradients."""

import copy
import dataclasses
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from canopyheights import nn
from canopyheights.tensor import Tensor, concat, grad_check, matmul, no_grad

TOL = 1e-4
RNG = np.random.default_rng


def t(shape, seed=0):
    return Tensor(RNG(seed).normal(size=shape), requires_grad=True)


class TestConv:
    def test_conv2d_shape(self):
        p = nn.init_conv(RNG(0), 3, 4, 6, stride=1, padding=1)
        out = nn.conv2d(t((8, 8, 4)), p)
        assert out.shape == (8, 8, 6)

    def test_conv2d_stride2_halves(self):
        p = nn.init_conv(RNG(0), 2, 4, 4, stride=2, padding=0)
        assert nn.conv2d(t((8, 8, 4)), p).shape == (4, 4, 4)

    def test_conv2d_matches_direct_sum(self):
        # 1x1 conv is a per-pixel linear map
        p = nn.init_conv(RNG(1), 1, 3, 2)
        x = t((5, 5, 3), seed=2)
        out = nn.conv2d(x, p).data
        w = p.kernel.data.reshape(3, 2)
        ref = x.data @ w + p.bias.data
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_conv2d_grads(self):
        p = nn.init_conv(RNG(3), 3, 2, 3, stride=1, padding=1)
        assert grad_check(lambda x: nn.conv2d(x, p).sum(), t((6, 6, 2))) < TOL
        x = t((6, 6, 2), seed=4)

        def fw(wt):
            q = nn.Conv2dParams(kernel=wt, bias=p.bias, stride=p.stride,
                                padding=p.padding)
            return nn.conv2d(x, q).sum()
        assert grad_check(fw, Tensor(p.kernel.data, requires_grad=True)) < TOL

    def test_convt_shape_and_grads(self):
        p = nn.init_convt(RNG(5), 2, 4, 2)
        out = nn.conv2d_transpose(t((3, 3, 4)), p)
        assert out.shape == (6, 6, 2)
        assert grad_check(lambda x: nn.conv2d_transpose(x, p).sum(),
                          t((3, 3, 4), seed=6)) < TOL

    def test_convt_inverts_stride2_downsample_shape(self):
        down = nn.init_conv(RNG(7), 2, 3, 3, stride=2, padding=0)
        up = nn.init_convt(RNG(8), 2, 3, 3)
        x = t((8, 8, 3), seed=9)
        assert nn.conv2d_transpose(nn.conv2d(x, down), up).shape == x.shape


class TestConvLayout:
    """Weighted objectives ``(out * w).sum()`` seed the backward with
    distinct values, so a grad_fn that misplaces its incoming gradient
    fails; ``.sum()`` seeds all ones and cannot tell.  Tiles are not
    square, so a rows/cols swap shows too."""

    @pytest.mark.parametrize("k,s,pad", [(1, 1, 0), (2, 2, 0), (3, 1, 1),
                                         (3, 2, 1)])
    def test_conv2d_weighted_grads(self, k, s, pad):
        p = nn.init_conv(RNG(30), k, 3, 4, stride=s, padding=pad)
        x = t((7, 6, 3), seed=31)
        w = Tensor(RNG(32).normal(size=nn.conv2d(x, p).shape))
        assert grad_check(lambda v: (nn.conv2d(v, p) * w).sum(), x) < TOL

        def fk(kernel):
            q = nn.Conv2dParams(kernel, p.bias, stride=s, padding=pad)
            return (nn.conv2d(x, q) * w).sum()
        assert grad_check(fk, p.kernel) < TOL

    @pytest.mark.parametrize("k", [2, 4])
    def test_convt_weighted_grads(self, k):
        p = nn.init_convt(RNG(33), k, 3, 2)
        x = t((3, 2, 3), seed=34)
        w = Tensor(RNG(35).normal(size=(3 * k, 2 * k, 2)))
        assert grad_check(lambda v: (nn.conv2d_transpose(v, p) * w).sum(),
                          x) < TOL

        def fk(kernel):
            q = nn.ConvT2dParams(kernel, p.bias)
            return (nn.conv2d_transpose(x, q) * w).sum()
        assert grad_check(fk, p.kernel) < TOL

    @pytest.mark.parametrize("s,pad", [(1, 1), (2, 0), (2, 1)])
    def test_conv2d_3x3_matches_nested_loop(self, s, pad):
        p = nn.init_conv(RNG(36), 3, 2, 3, stride=s, padding=pad)
        p.bias.data[...] = RNG(37).normal(size=3)
        x = RNG(38).normal(size=(7, 6, 2))
        xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
        kern = p.kernel.data
        ref = np.zeros(((7 + 2 * pad - 3) // s + 1, (6 + 2 * pad - 3) // s + 1,
                        3))
        for i, j, f in np.ndindex(*ref.shape):
            ref[i, j, f] = p.bias.data[f] + sum(
                xp[s * i + ki, s * j + kj, c] * kern[ki, kj, c, f]
                for ki in range(3) for kj in range(3) for c in range(2))
        np.testing.assert_allclose(nn.conv2d(Tensor(x), p).data, ref,
                                   atol=1e-12)

    def test_convt_matches_nested_loop(self):
        p = nn.init_convt(RNG(39), 2, 3, 2)
        p.bias.data[...] = RNG(40).normal(size=2)
        x = RNG(41).normal(size=(3, 2, 3))
        kern = p.kernel.data
        ref = np.zeros((6, 4, 2))
        for i, j, ki, kj, f in np.ndindex(3, 2, 2, 2, 2):
            ref[2 * i + ki, 2 * j + kj, f] = p.bias.data[f] + sum(
                x[i, j, c] * kern[ki, kj, f, c] for c in range(3))
        np.testing.assert_allclose(nn.conv2d_transpose(Tensor(x), p).data,
                                   ref, atol=1e-12)


class TestTileStacking:
    """A batch is its tiles stacked along rows.  The ops that would reach
    across a tile boundary (padded convs, batch norm, attention) take the
    tile count and treat each tile on its own; gradients are checked with
    weighted objectives, so a tile that leaks into its neighbour shows."""

    @pytest.mark.parametrize("k,s,pad", [(3, 1, 1), (3, 2, 1), (2, 2, 0),
                                         (1, 1, 0)])
    def test_conv2d_equals_per_tile(self, k, s, pad):
        p = nn.init_conv(RNG(50), k, 3, 4, stride=s, padding=pad)
        p.bias.data[...] = RNG(51).normal(size=4)
        x = RNG(52).normal(size=(3 * 6, 5, 3))
        per = [nn.conv2d(Tensor(x[6 * i:6 * (i + 1)]), p).data for i in range(3)]
        np.testing.assert_allclose(nn.conv2d(Tensor(x), p, tiles=3).data,
                                   np.concatenate(per), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("s", [1, 2])
    def test_conv2d_grads_at_two_tiles(self, s):
        p = nn.init_conv(RNG(53), 3, 3, 4, stride=s, padding=1)
        x = t((2 * 6, 5, 3), seed=54)
        w = Tensor(RNG(55).normal(size=nn.conv2d(x, p, tiles=2).shape))
        assert grad_check(lambda v: (nn.conv2d(v, p, tiles=2) * w).sum(),
                          x) < TOL

        def fk(kernel):
            q = nn.Conv2dParams(kernel, p.bias, stride=s, padding=1)
            return (nn.conv2d(x, q, tiles=2) * w).sum()
        assert grad_check(fk, p.kernel) < TOL

    def test_batch_norm_equals_per_tile(self):
        a, b = nn.init_bn(3), nn.init_bn(3)
        x = RNG(56).normal(size=(3 * 4, 5, 3)) * [1.0, 2.0, 3.0] + 0.5
        out = nn.batch_norm(Tensor(x), a, tiles=3).data
        per = [nn.batch_norm(Tensor(x[4 * i:4 * (i + 1)]), b).data
               for i in range(3)]
        np.testing.assert_allclose(out, np.concatenate(per), rtol=1e-12,
                                   atol=1e-14)
        # the running estimates took the same three updates in tile order
        np.testing.assert_allclose(a.running_mean, b.running_mean, rtol=1e-12)
        np.testing.assert_allclose(a.running_var, b.running_var, rtol=1e-12)
        assert not np.allclose(a.running_mean, 0.1 * x.reshape(-1, 3).mean(0))

    def test_batch_norm_grads_at_two_tiles(self):
        s = nn.init_bn(2)
        s.gamma.data[...] = [0.7, 1.3]
        x = t((2 * 3, 4, 2), seed=57)
        w = Tensor(RNG(58).normal(size=x.shape))
        assert grad_check(lambda v: (nn.batch_norm(v, s, tiles=2) * w).sum(),
                          x) < TOL

        def fg(gamma):
            q = nn.BatchNormState(gamma, s.beta, s.running_mean,
                                  s.running_var)
            return (nn.batch_norm(x, q, tiles=2) * w).sum()
        assert grad_check(fg, s.gamma) < TOL

    def test_mhsa_equals_per_tile_and_grads(self):
        p = nn.init_mhsa(RNG(59), 8, heads=2)
        x = t((3 * 5, 8), seed=60)
        per = [nn.mhsa(Tensor(x.data[5 * i:5 * (i + 1)]), p).data
               for i in range(3)]
        assert np.array_equal(nn.mhsa(x, p, tiles=3).data, np.concatenate(per))
        w = Tensor(RNG(61).normal(size=(2 * 5, 8)))
        x2 = t((2 * 5, 8), seed=62)
        assert grad_check(lambda v: (nn.mhsa(v, p, tiles=2) * w).sum(),
                          x2) < TOL

    def test_rows_must_split_into_tiles(self):
        p = nn.init_conv(RNG(63), 3, 2, 2, padding=1)
        with pytest.raises(ValueError, match="do not split"):
            nn.conv2d(t((7, 4, 2)), p, tiles=2)
        with pytest.raises(ValueError, match="do not split"):
            nn.batch_norm(t((7, 4, 2)), nn.init_bn(2), tiles=2)


class TestNorms:
    def test_batch_norm_train_normalizes(self):
        s = nn.init_bn(3)
        x = t((16, 16, 3), seed=10)
        out = nn.batch_norm(x, s).data
        assert np.allclose(out.reshape(-1, 3).mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.reshape(-1, 3).std(axis=0), 1.0, atol=1e-3)

    def test_batch_norm_eval_uses_running_stats(self):
        """Inside ``no_grad`` batch norm is the running-statistics formula,
        on a single pixel too, and writes nothing to its state."""
        s = nn.init_bn(2)
        s.gamma.data[...] = [0.7, 1.3]
        s.beta.data[...] = [0.2, -0.4]
        nn.batch_norm(t((8, 8, 2), seed=11), s)   # non-trivial estimates
        rm, rv = s.running_mean, s.running_var
        before = rm.tobytes() + rv.tobytes()
        y = RNG(14).normal(size=(1, 1, 2))
        with no_grad():
            out = nn.batch_norm(Tensor(y), s).data
        expect = (y - rm) / np.sqrt(rv + nn.BN_EPS) * s.gamma.data + s.beta.data
        np.testing.assert_allclose(out, expect, rtol=1e-12, atol=1e-14)
        assert s.running_mean is rm and s.running_var is rv
        assert rm.tobytes() + rv.tobytes() == before

    def test_batch_norm_grad(self):
        s = nn.init_bn(2)
        assert grad_check(lambda x: nn.batch_norm(x, s).sum(),
                          t((5, 5, 2), seed=12)) < TOL

    def test_layer_norm_grad_and_stats(self):
        p = nn.init_layernorm(6)
        x = t((4, 6), seed=13)
        out = nn.layer_norm(x, p).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        assert grad_check(lambda v: nn.layer_norm(v, p).sum(), x) < TOL


class TestActivations:
    def test_leaky_relu_values(self):
        x = Tensor(np.array([-2.0, 3.0]))
        np.testing.assert_allclose(nn.leaky_relu(x).data, [-0.02, 3.0])

    def test_softplus_positive_and_grad(self):
        x = t((5,), seed=14)
        assert (nn.softplus(x).data > 0).all()
        assert grad_check(lambda v: nn.softplus(v).sum(), x) < TOL

    def test_gelu_grad(self):
        assert grad_check(lambda v: nn.gelu(v).sum(), t((6,), seed=15)) < TOL

    def test_softmax_rows_sum_one(self):
        out = nn.softmax(t((3, 5), seed=16)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        x = RNG(17).normal(size=(2, 4))
        a = nn.softmax(Tensor(x)).data
        b = nn.softmax(Tensor(x + 7.3)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_grad(self):
        w = RNG(18).normal(size=(3, 5))

        def f(v):
            return (nn.softmax(v) * Tensor(w)).sum()
        assert grad_check(f, t((3, 5), seed=19)) < TOL


class TestActivationDtypes:
    """An activation computes in its input's dtype, f32 without overflow
    warnings, and its f64 results do not move."""

    X = np.array([-1000.0, -600.0, -90.0, -31.0, -2.5, -1e-3, 0.0, 1e-3,
                  0.7, 29.0, 31.0, 90.0, 1000.0])

    @pytest.mark.parametrize("op", [nn.leaky_relu, nn.softplus, nn.gelu,
                                    nn.softmax])
    def test_f32_in_f32_out_close_to_f64(self, op):
        x32 = Tensor(self.X, requires_grad=True, dtype=np.float32)
        x64 = Tensor(self.X, requires_grad=True)
        w = RNG(20).normal(size=self.X.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y32 = op(x32)
            (y32 * w).sum().backward()
        (op(x64) * w).sum().backward()
        assert y32.dtype == np.float32 and x32.grad.dtype == np.float32
        np.testing.assert_allclose(y32.data, op(x64).data, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(x32.grad, x64.grad, rtol=1e-5, atol=1e-6)

    def test_f64_softplus_gradient_is_unchanged(self):
        x = Tensor(self.X, requires_grad=True)
        nn.softplus(x).sum().backward()
        sig = 1.0 / (1.0 + np.exp(-np.clip(self.X, -500, 500)))
        np.testing.assert_array_equal(x.grad, sig)

    def test_f64_leaky_slopes_are_unchanged(self):
        x = Tensor(self.X, requires_grad=True)
        nn.leaky_relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, np.where(self.X >= 0, 1.0, 0.01))


def assert_same_bits(a, b):
    """Equal dtype, shape and bytes: signed zeros and NaN compare too."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def params_in(dtype, *tensors):
    return [Tensor(p.data, requires_grad=True, dtype=dtype) for p in tensors]


KERNEL_CASES = [(dtype, tiles, c) for dtype in (np.float32, np.float64)
                for tiles in (1, 3) for c in (1, 4, 16, 64)]


class TestBitIdenticalKernels:
    """The channel kernels against the numpy formulas they replaced, bit
    for bit.  Their per-channel sums run through ``einsum`` in the order
    ``ndarray.sum`` adds; a numpy whose einsum adds in another order, or a
    BLAS sum, fails here."""

    @staticmethod
    def reference_bn(xs, g, gamma, beta, eps):
        """batch_norm's forward and backward as np.mean / np.var and whole-
        array expressions, on a tiles x pixels x C input."""
        mu = xs.mean(axis=1, keepdims=True)
        var = xs.var(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        out = gamma * ((xs - mu) * inv) + beta
        n = xs.shape[1]
        xhat = (xs - mu) * inv
        gsum = g.sum(axis=1, keepdims=True)
        gx_sum = (g * xhat).sum(axis=1, keepdims=True)
        dx = (gamma * inv / n) * (n * g - gsum - xhat * gx_sum)
        return out, mu, var, (dx, gx_sum.sum(axis=(0, 1)), gsum.sum(axis=(0, 1)))

    @staticmethod
    def state(c, param_dtype):
        rng = RNG(c)
        s = nn.init_bn(c)
        s.gamma.data = rng.uniform(0.5, 1.5, c)
        s.beta.data = rng.normal(size=c)
        s.running_mean = rng.normal(size=c)
        s.running_var = rng.uniform(0.5, 2.0, c)
        s.gamma, s.beta = params_in(param_dtype, s.gamma, s.beta)
        return s

    def check_bn(self, x, g, tiles, dtype, param_dtype):
        c = x.shape[-1]
        s = self.state(c, param_dtype)
        rm, rv = s.running_mean, s.running_var
        xt = Tensor(x, requires_grad=True, dtype=dtype)
        out = nn.batch_norm(xt, s, tiles=tiles)
        out.backward(g)
        ref, mu, var, grads = self.reference_bn(
            x.reshape(tiles, -1, c), g.astype(out.dtype).reshape(tiles, -1, c),
            s.gamma.data, s.beta.data, nn.BN_EPS)
        assert_same_bits(out.data, ref.reshape(x.shape))
        for t in range(tiles):
            rm = (1 - nn.BN_MOMENTUM) * rm + nn.BN_MOMENTUM * mu[t, 0]
            rv = (1 - nn.BN_MOMENTUM) * rv + nn.BN_MOMENTUM * var[t, 0]
        assert_same_bits(s.running_mean, rm)
        assert_same_bits(s.running_var, rv)
        dx, dgamma, dbeta = grads
        # backward casts each adjoint to its node's dtype
        assert_same_bits(xt.grad, dx.reshape(x.shape).astype(dtype))
        assert_same_bits(s.gamma.grad, dgamma.astype(param_dtype))
        assert_same_bits(s.beta.grad, dbeta.astype(param_dtype))

    def check_bn_inference(self, x, tiles, dtype, param_dtype):
        """Inside ``no_grad``: the running-statistics affine map in the
        input's dtype, its scale and shift computed from the f64 statistics
        and then cast, bit for bit, and not one byte of the state
        written."""
        s = self.state(x.shape[-1], param_dtype)
        rm, rv = s.running_mean, s.running_var
        before = [a.tobytes() for a in (s.gamma.data, s.beta.data, rm, rv)]
        with no_grad():
            out = nn.batch_norm(Tensor(x, dtype=dtype), s, tiles=tiles)
        scale = s.gamma.data / np.sqrt(rv + nn.BN_EPS)
        shift = s.beta.data - rm * scale
        assert_same_bits(out.data, x * scale.astype(dtype) + shift.astype(dtype))
        assert s.running_mean is rm and s.running_var is rv
        assert [a.tobytes() for a in (s.gamma.data, s.beta.data, rm, rv)] \
            == before

    @pytest.mark.parametrize("dtype, tiles, c", KERNEL_CASES)
    def test_batch_norm(self, dtype, tiles, c):
        rng = RNG(tiles * c)
        x = (rng.normal(size=(tiles * 16, 20, c)) * 3.0 + 1.0).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        self.check_bn(x, g, tiles, dtype, dtype)
        self.check_bn_inference(x, tiles, dtype, dtype)

    def test_batch_norm_strided_and_mixed_dtypes(self):
        rng = RNG(70)
        # every third channel of a wider array: reshapes to a strided view
        x = rng.normal(size=(3 * 16, 20, 48)).astype(np.float32)[..., ::3]
        g = rng.normal(size=(3 * 16, 20, 48)).astype(np.float32)[..., ::3]
        assert not x.flags.c_contiguous
        self.check_bn(x, g, 3, np.float32, np.float32)
        # an f32 input with f64 parameters: f64 output and adjoint
        self.check_bn(np.ascontiguousarray(x), g, 3, np.float32, np.float64)

    @pytest.mark.parametrize("dtype, tiles, c", KERNEL_CASES)
    def test_conv_bias_gradients(self, dtype, tiles, c):
        rng = RNG(71 + c)
        p = nn.init_conv(rng, 3, 2, c, padding=1)
        p.kernel, p.bias = params_in(dtype, p.kernel, p.bias)
        out = nn.conv2d(Tensor(rng.normal(size=(tiles * 16, 20, 2)), dtype=dtype),
                        p, tiles=tiles)
        g = rng.normal(size=out.shape).astype(dtype)
        out.backward(g)
        assert_same_bits(p.bias.grad, g.reshape(-1, c).sum(axis=0))

        q = nn.init_convt(rng, 2, 3, c)
        q.kernel, q.bias = params_in(dtype, q.kernel, q.bias)
        xq = Tensor(rng.normal(size=(tiles * 8, 10, 3)), dtype=dtype)
        out = nn.conv2d_transpose(xq, q)
        g = rng.normal(size=out.shape).astype(dtype)
        out.backward(g)
        assert_same_bits(q.bias.grad, g.sum(axis=(0, 1)))
        # a strided adjoint: the sum falls back to ndarray.sum; the first
        # backward freed its graph, so the same op runs again
        q.bias.grad = None
        gs = rng.normal(size=out.shape[:2] + (2 * c,)).astype(dtype)[..., ::2]
        out = nn.conv2d_transpose(xq, q)
        out.backward(gs)
        assert_same_bits(q.bias.grad, gs.sum(axis=(0, 1)))

    @pytest.mark.parametrize("dtype, tiles, c", KERNEL_CASES)
    def test_layer_norm_affine_gradients(self, dtype, tiles, c):
        d = max(c, 2)
        rng = RNG(72 + c)
        p = nn.init_layernorm(d)
        p.gamma, p.beta = params_in(dtype, p.gamma, p.beta)
        for shape in ((tiles * 300, d), (tiles, 300, d)):
            p.gamma.grad = p.beta.grad = None
            x = rng.normal(size=shape).astype(dtype)
            g = rng.normal(size=shape).astype(dtype)
            nn.layer_norm(Tensor(x, requires_grad=True, dtype=dtype), p).backward(g)
            lead = tuple(range(x.ndim - 1))
            mu = x.mean(axis=-1, keepdims=True)
            xhat = (x - mu) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + nn.LN_EPS))
            assert_same_bits(p.gamma.grad, (g * xhat).sum(axis=lead))
            assert_same_bits(p.beta.grad, g.sum(axis=lead))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [nn.LEAKY_SLOPE])
    def test_leaky_relu_forward(self, dtype, slope):
        fi = np.finfo(dtype)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                   fi.smallest_subnormal, -fi.smallest_subnormal,
                   fi.smallest_normal, -fi.smallest_normal, fi.max, -fi.max,
                   -fi.smallest_subnormal * 64, 1.0, -1.0]
        x = np.concatenate([np.array(special, dtype=dtype),
                            RNG(73).normal(size=200).astype(dtype)])
        # the slope factor as arithmetic on the sign test
        f = (x >= 0) * x.dtype.type(1.0 - slope)
        f += slope
        assert_same_bits(nn.leaky_relu(Tensor(x, dtype=dtype)).data, x * f)


class TestConvBn:
    """A conv into a batch norm, as every U-Net encoder and decoder block
    runs it.  While a graph is recorded the batch norm uses batch
    statistics, whatever ran before; inside ``no_grad`` it is the running-
    statistics affine map and changes no state."""

    @staticmethod
    def layer(dtype, seed=80):
        """A 3x3 conv into a batch norm with non-trivial bias, running
        statistics, gamma and beta; the same seed gives an equal copy."""
        rng = RNG(seed)
        conv = nn.init_conv(rng, 3, 3, 4, padding=1)
        conv.bias.data = rng.normal(size=4)
        bn = nn.init_bn(4)
        bn.gamma.data = rng.uniform(0.5, 1.5, 4)
        bn.beta.data = rng.normal(size=4)
        bn.running_mean = rng.normal(size=4)
        bn.running_var = rng.uniform(0.5, 2.0, 4)
        conv.kernel, conv.bias, bn.gamma, bn.beta = params_in(
            dtype, conv.kernel, conv.bias, bn.gamma, bn.beta)
        return conv, bn

    @staticmethod
    def composed(x, conv, bn, tiles=1):
        return nn.batch_norm(nn.conv2d(x, conv, tiles=tiles), bn, tiles=tiles)

    def run(self, x, g, dtype, tiles, infer_first):
        """Output, running statistics and every gradient of one graph-
        recording pass through a fresh layer, after an inference on it
        when ``infer_first``."""
        conv, bn = self.layer(dtype)
        if infer_first:
            with no_grad():
                self.composed(Tensor(x, dtype=dtype), conv, bn, tiles)
        xt = Tensor(x, requires_grad=True, dtype=dtype)
        out = self.composed(xt, conv, bn, tiles)
        out.backward(g)
        return [out.data, bn.running_mean, bn.running_var, xt.grad,
                conv.kernel.grad, conv.bias.grad, bn.gamma.grad, bn.beta.grad]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tiles", [1, 2])
    def test_train_mode_is_the_composition(self, dtype, tiles):
        """With a graph: the conv's output normalized by its own batch
        statistics (``TestBitIdenticalKernels.reference_bn``), and the
        conv's gradients those of that formula's input adjoint."""
        x = RNG(81).normal(size=(tiles * 6, 5, 3)).astype(dtype)
        g = RNG(82).normal(size=(tiles * 6, 5, 4)).astype(dtype)
        got = self.run(x, g, dtype, tiles, infer_first=False)
        conv, bn = self.layer(dtype)
        xr = Tensor(x, requires_grad=True, dtype=dtype)
        y = nn.conv2d(xr, conv, tiles=tiles)
        ref, mu, var, (dy, dgamma, dbeta) = \
            TestBitIdenticalKernels.reference_bn(
                y.data.reshape(tiles, -1, 4), g.reshape(tiles, -1, 4),
                bn.gamma.data, bn.beta.data, nn.BN_EPS)
        rm, rv = bn.running_mean, bn.running_var
        for t in range(tiles):
            rm = (1 - nn.BN_MOMENTUM) * rm + nn.BN_MOMENTUM * mu[t, 0]
            rv = (1 - nn.BN_MOMENTUM) * rv + nn.BN_MOMENTUM * var[t, 0]
        y.backward(dy.reshape(y.shape).astype(dtype))
        want = [ref.reshape(y.shape), rm, rv, xr.grad, conv.kernel.grad,
                conv.bias.grad, dgamma, dbeta]
        for a, b in zip(got, want):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_mode_with_a_graph_is_the_composition(self, dtype):
        """An inference leaves nothing behind: a graph-recording pass after
        one is bit for bit the pass on a fresh layer, and its gradients
        pass ``grad_check``."""
        x = RNG(83).normal(size=(2 * 6, 5, 3)).astype(dtype)
        g = RNG(84).normal(size=(2 * 6, 5, 4)).astype(dtype)
        after = self.run(x, g, dtype, 2, infer_first=True)
        fresh = self.run(x, g, dtype, 2, infer_first=False)
        for a, b in zip(after, fresh):
            assert_same_bits(a, b)
        conv, bn = self.layer(np.float64)
        x1 = t((6, 5, 3), seed=86)
        w = Tensor(RNG(85).normal(size=(6, 5, 4)))
        assert grad_check(lambda v: (self.composed(v, conv, bn) * w).sum(),
                          x1) < TOL

        def fk(kernel):
            q = nn.Conv2dParams(kernel, conv.bias, stride=1, padding=1)
            return (self.composed(x1, q, bn) * w).sum()
        assert grad_check(fk, conv.kernel) < TOL

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tiles", [1, 2])
    def test_eval_mode_without_a_graph_folds(self, dtype, tiles):
        """Inside ``no_grad``: the conv's output times the running-
        statistics scale plus the shift, both cast to the input's dtype,
        bit for bit; in f64 within 1e-12 relative of the running-statistics
        formula; every state byte kept."""
        x = Tensor(RNG(87).normal(size=(tiles * 6, 5, 3)), dtype=dtype)
        conv, bn = self.layer(dtype)
        y = nn.conv2d(x, conv, tiles=tiles).data
        scale = bn.gamma.data / np.sqrt(bn.running_var + nn.BN_EPS)
        shift = bn.beta.data - bn.running_mean * scale
        ref = ((y - bn.running_mean) / np.sqrt(bn.running_var + nn.BN_EPS)
               * bn.gamma.data + bn.beta.data)
        arrays = [conv.kernel.data, conv.bias.data, bn.gamma.data,
                  bn.beta.data, bn.running_mean, bn.running_var]
        before = [a.tobytes() for a in arrays]
        with no_grad():
            out = self.composed(x, conv, bn, tiles)
        assert out._grad_fn is None and not out._parents
        assert_same_bits(out.data, y * scale.astype(dtype) + shift.astype(dtype))
        if dtype == np.float64:
            np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=0)
        assert [a.tobytes() for a in arrays] == before
        assert arrays[4] is bn.running_mean and arrays[5] is bn.running_var


class TestInferencePrecision:
    """Inside ``no_grad`` an op reads its f64 parameters in its input's
    dtype: bit for bit the op on parameters cast to f32 up front, and no
    parameter byte or dtype changes.  With a graph, numpy's promotion
    still decides: an f32 input meets f64 parameters in f64."""

    @staticmethod
    def ops():
        rng = RNG(95)
        conv = nn.init_conv(rng, 3, 3, 4, padding=1)
        convt = nn.init_convt(rng, 2, 3, 4)
        lin = nn.init_linear(rng, 3, 4)
        ln = nn.init_layernorm(3)
        for p in (conv, convt, lin, ln):
            for q in vars(p).values():
                if isinstance(q, Tensor):
                    q.data = q.data + rng.normal(size=q.shape)
        x3 = rng.normal(size=(6, 5, 3)).astype(np.float32)
        x2 = x3.reshape(30, 3)
        return [(nn.conv2d, conv, x3), (nn.conv2d_transpose, convt, x3),
                (nn.linear, lin, x2), (nn.layer_norm, ln, x3)]

    @pytest.mark.parametrize("i", range(4))
    def test_no_grad_reads_parameters_at_the_input_dtype(self, i):
        op, p, x = self.ops()[i]
        tensors = [q for q in vars(p).values() if isinstance(q, Tensor)]
        before = [(q.data, q.data.tobytes()) for q in tensors]
        with no_grad():
            got = op(Tensor(x, dtype=np.float32), p)
        cast = copy.copy(p)
        for name, q in vars(p).items():
            if isinstance(q, Tensor):
                setattr(cast, name, Tensor(q.data, dtype=np.float32))
        with no_grad():
            want = op(Tensor(x, dtype=np.float32), cast)
        assert got.dtype == np.float32
        assert_same_bits(got.data, want.data)
        assert all(q.data is a and q.data.tobytes() == b
                   for q, (a, b) in zip(tensors, before))
        assert op(Tensor(x, dtype=np.float32), p).dtype == np.float64

    @pytest.mark.parametrize("i", range(4))
    def test_fixed_parameters_reuse_each_cast(self, i):
        """Inside a ``fixed_parameters`` block the second call reads the
        same casts as the first and gives the same bits as outside one;
        outside, each call makes its own casts."""
        op, p, x = self.ops()[i]
        tensor = next(q for q in vars(p).values() if isinstance(q, Tensor))
        x = Tensor(x, dtype=np.float32)
        with no_grad():
            want = op(x, p).data
            outside = [nn._param(tensor, x) for _ in range(2)]
            with nn.fixed_parameters():
                got = [op(x, p).data for _ in range(2)]
                inside = [nn._param(tensor, x) for _ in range(2)]
        assert outside[0] is not outside[1]
        assert inside[0] is inside[1]
        assert_same_bits(inside[0], outside[0])
        assert all(g.tobytes() == want.tobytes() for g in got)

    def test_fixed_parameters_fold_each_batch_norm_once(self):
        bn = nn.init_bn(3)
        bn.running_var = RNG(96).uniform(0.5, 2.0, 3)
        f32 = np.dtype(np.float32)
        with nn.fixed_parameters():
            first, second = (nn._once(bn, f32, nn._bn_fold)
                             for _ in range(2))
            assert all(a is b for a, b in zip(first, second))
            assert first[0].dtype == np.float32
        outside = nn._once(bn, f32, nn._bn_fold)
        assert all(a is not b and a.tobytes() == b.tobytes()
                   for a, b in zip(first, outside))

    def test_fixed_parameters_hold_nothing_after_the_block(self):
        assert nn._made.get() is None
        with pytest.raises(KeyError):
            with nn.fixed_parameters():
                nn._once(nn.init_bn(2), np.dtype(np.float64), nn._bn_fold)
                assert len(nn._made.get()) == 1
                raise KeyError
        assert nn._made.get() is None


class TestPatches:
    """``_patches`` builds its windows as an ``ndarray`` over the padded
    block's buffer: the ``as_strided`` windows, byte for byte."""

    @staticmethod
    def reference(xp, k, s, oh, ow):
        s0, s1, s2, s3 = xp.strides
        win = as_strided(xp, (xp.shape[0], oh, ow, k, k, xp.shape[3]),
                         (s0, s * s1, s * s2, s1, s2, s3), writeable=False)
        return win.reshape(-1, k * k * xp.shape[3])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tiles", [1, 2])
    @pytest.mark.parametrize("k,s,pad", [(k, s, pad) for k in (1, 2, 3)
                                         for s in (1, 2) for pad in (0, 1)])
    def test_equals_the_strided_windows(self, k, s, pad, tiles, dtype):
        x = RNG(90).normal(size=(tiles * 7, 6, 3)).astype(dtype)
        xp = nn._pad(x, pad, tiles)
        oh = (7 + 2 * pad - k) // s + 1
        ow = (6 + 2 * pad - k) // s + 1
        got = nn._patches(xp, k, s, oh, ow)
        assert_same_bits(got, self.reference(xp, k, s, oh, ow))
        # a view of the input (1x1, stride 1) is read-only; else a copy
        if np.shares_memory(got, xp):
            assert (k, s) == (1, 1) and not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = 1.0

    @pytest.mark.parametrize("k,s", [(1, 1), (2, 2), (3, 1)])
    def test_a_non_contiguous_input(self, k, s):
        xp = RNG(91).normal(size=(2, 8, 7, 6))[:, :, ::2, ::2]
        assert not xp.flags.c_contiguous
        oh, ow = (8 - k) // s + 1, (4 - k) // s + 1
        got = nn._patches(xp, k, s, oh, ow)
        assert_same_bits(got, self.reference(xp, k, s, oh, ow))
        assert_same_bits(got, nn._patches(np.ascontiguousarray(xp), k, s,
                                          oh, ow))


class TestAttentionAndLinear:
    def test_linear_grad(self):
        p = nn.init_linear(RNG(20), 6, 4)
        assert grad_check(lambda v: nn.linear(v, p).sum(),
                          t((5, 6), seed=21)) < TOL

    def test_mhsa_shape_and_grad(self):
        p = nn.init_mhsa(RNG(22), 8, heads=2)
        x = t((6, 8), seed=23)
        assert nn.mhsa(x, p).shape == (6, 8)
        assert grad_check(lambda v: nn.mhsa(v, p).sum(), x, max_coords=24) < TOL



def reference_mhsa(tokens, p, tiles=1):
    """``nn.mhsa`` as the composition of public ops it replaces: per tile
    and per head, a 2-D product each way and a softmax."""
    rows, d = tokens.shape
    n, dh = rows // tiles, d // p.heads
    scale = 1.0 / np.sqrt(dh)
    q, k, v = (nn.linear(tokens, lin) for lin in (p.wq, p.wk, p.wv))
    tile_outs = []
    for i in range(tiles):
        r = slice(i * n, (i + 1) * n)
        outs = []
        for h in range(p.heads):
            c = slice(h * dh, (h + 1) * dh)
            attn = nn.softmax(matmul(q[r, c], k[r, c].permute(1, 0)) * scale)
            outs.append(matmul(attn, v[r, c]))
        tile_outs.append(concat(outs, axis=1))
    return nn.linear(concat(tile_outs, axis=0), p.wo)


def mhsa_leaves(p):
    return [t for lin in (p.wq, p.wk, p.wv, p.wo) for t in (lin.weight, lin.bias)]


class TestFusedAttention:
    """``nn.mhsa`` is one graph node whose forward and nine gradients are
    those of the per-head composition, bit for bit (up to the sign of a
    zero gradient: the composition adds the heads' zero-padded slices)."""

    @staticmethod
    def forward_and_grads(f, x, p, w, tiles):
        for leaf in [x] + mhsa_leaves(p):
            leaf.grad = None
        y = f(x, p, tiles)
        (y * w).sum().backward()
        return [y.data] + [leaf.grad for leaf in [x] + mhsa_leaves(p)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("tiles", [1, 3])
    def test_equals_the_per_head_composition(self, dtype, heads, tiles):
        rng = RNG(70 + heads)
        p = nn.init_mhsa(rng, 16, heads)
        for leaf in mhsa_leaves(p):
            leaf.data = (leaf.data + 0.1 * rng.normal(size=leaf.shape)).astype(dtype)
        x = Tensor(rng.normal(size=(tiles * 24, 16)), requires_grad=True,
                   dtype=dtype)
        w = Tensor(rng.normal(size=x.shape), dtype=dtype)
        got = self.forward_and_grads(nn.mhsa, x, p, w, tiles)
        want = self.forward_and_grads(reference_mhsa, x, p, w, tiles)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("tiles", [1, 3])
    def test_f32_inference_with_f64_parameters(self, tiles):
        p = nn.init_mhsa(RNG(75), 16, heads=2)
        x = Tensor(RNG(76).normal(size=(tiles * 24, 16)), dtype=np.float32)
        with no_grad():
            got = nn.mhsa(x, p, tiles).data
            want = reference_mhsa(x, p, tiles).data
        assert got.dtype == np.float32 and np.array_equal(got, want)

    @pytest.mark.parametrize("which", ["tokens"] + [
        f"{lin}.{part}" for lin in ("wq", "wk", "wv", "wo")
        for part in ("weight", "bias")])
    def test_grad_check_on_each_input(self, which):
        p = nn.init_mhsa(RNG(77), 8, heads=4)
        x = t((2 * 5, 8), seed=78)
        w = Tensor(RNG(79).normal(size=x.shape))
        if which == "tokens":
            assert grad_check(lambda v: (nn.mhsa(v, p, tiles=2) * w).sum(),
                              x) < TOL
            return
        lin_name, part = which.split(".")

        def f(leaf):
            lin = dataclasses.replace(getattr(p, lin_name), **{part: leaf})
            q = dataclasses.replace(p, **{lin_name: lin})
            return (nn.mhsa(x, q, tiles=2) * w).sum()
        assert grad_check(f, getattr(getattr(p, lin_name), part)) < TOL

    def test_one_call_records_one_node(self):
        p = nn.init_mhsa(RNG(80), 8, heads=2)
        x = t((6, 8), seed=81)
        out = nn.mhsa(x, p)
        assert len(out._parents) == 9
        assert out._parents[0] is x
        assert all(a is b for a, b in zip(out._parents[1:], mhsa_leaves(p)))

    @pytest.mark.parametrize("heads", [0, -2])
    def test_non_positive_head_count_rejected(self, heads):
        with pytest.raises(ValueError, match=f"heads must be positive, got {heads}"):
            nn.init_mhsa(RNG(82), 8, heads)


class TestShortAxisRows:
    """Row maxima and sums over a short last axis go slice by slice, in
    the order of ``ndarray.sum``, so ``softmax`` is the plain formula bit
    for bit; a numpy that sums a short row in another order fails here."""

    @staticmethod
    def plain_softmax(x, g):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        y = e / e.sum(axis=-1, keepdims=True)
        return y, (g - (g * y).sum(axis=-1, keepdims=True)) * y

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", range(2, 17))
    @pytest.mark.parametrize("lead", [(), (5,), (4, 8)])
    def test_row_reductions_equal_numpy(self, dtype, k, lead):
        a = (RNG(k).normal(size=lead + (k,)) * 3).astype(dtype)
        assert_same_bits(nn._row_sum(a), a.sum(axis=-1, keepdims=True))
        assert_same_bits(nn._row_sum(a * 0), (a * 0).sum(axis=-1, keepdims=True))
        assert np.array_equal(nn._row_max(a), a.max(axis=-1, keepdims=True))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", range(2, 17))
    def test_softmax_equals_the_plain_formula(self, dtype, k):
        x = (RNG(k).normal(size=(6, 4, k)) * 4).astype(dtype)
        g = RNG(k + 1).normal(size=x.shape).astype(dtype)
        y_want, gx_want = self.plain_softmax(x, g)
        v = Tensor(x, requires_grad=True, dtype=dtype)
        y = nn.softmax(v)
        y.backward(g)
        assert y.dtype == v.grad.dtype == dtype
        assert np.array_equal(y.data, y_want) and np.array_equal(v.grad, gx_want)
