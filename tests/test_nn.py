"""Neural-network building blocks: forward semantics and gradients."""

import numpy as np
import pytest

from canopyheights import nn
from canopyheights.tensor import Tensor, grad_check

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
            q = nn.ConvT2dParams(kernel, p.bias, stride=k)
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


class TestNorms:
    def test_batch_norm_train_normalizes(self):
        s = nn.init_bn(3)
        x = t((16, 16, 3), seed=10)
        s.train()
        out = nn.batch_norm(x, s).data
        assert np.allclose(out.reshape(-1, 3).mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.reshape(-1, 3).std(axis=0), 1.0, atol=1e-3)

    def test_batch_norm_eval_uses_running_stats(self):
        s = nn.init_bn(2)
        x = t((8, 8, 2), seed=11)
        s.train()
        nn.batch_norm(x, s)
        s.eval()
        y = Tensor(np.zeros((4, 4, 2)))
        out = nn.batch_norm(y, s).data
        expect = (0.0 - s.running_mean) / np.sqrt(s.running_var + s.eps)
        expect = expect * s.gamma.data + s.beta.data
        np.testing.assert_allclose(out[0, 0], expect, atol=1e-12)

    def test_batch_norm_grad(self):
        s = nn.init_bn(2)
        s.train()
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


class TestResizeAndPersistence:
    def test_bilinear_identity(self):
        x = RNG(26).normal(size=(5, 7, 2))
        np.testing.assert_allclose(
            nn.bilinear_resize(Tensor(x), 5, 7).data, x, atol=1e-12)

    def test_bilinear_grad(self):
        assert grad_check(lambda v: nn.bilinear_resize(v, 6, 6).sum(),
                          t((3, 3, 2), seed=27)) < TOL
