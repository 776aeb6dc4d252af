"""Neural network building blocks on top of the tensor engine.

Convolutions, transposed convolutions, normalizations, activations,
multi-head self-attention, and bilinear resampling.  Every op here carries
an exact shape contract (asserted on call) and a hand-written backward.
The tile layout is rows x cols x channels.  Parameters live in plain
dataclass containers; ``train`` saves and restores them as checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from .tensor import Tensor, concat, matmul


# -- parameter containers ---------------------------------------------

@dataclass
class Conv2dParams:
    kernel: Tensor           # k x k x C_in x C_out
    bias: Tensor             # C_out
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        k = self.kernel.shape[0]
        if self.kernel.ndim != 4 or self.kernel.shape[1] != k:
            raise ValueError("conv kernel must be k x k x C_in x C_out")
        if self.stride < 1 or self.padding < 0:
            raise ValueError("invalid stride/padding")


@dataclass
class ConvT2dParams:
    kernel: Tensor           # k x k x C_out x C_in
    bias: Tensor             # C_out
    stride: int = 2

    def __post_init__(self):
        k = self.kernel.shape[0]
        if self.kernel.ndim != 4 or self.kernel.shape[1] != k:
            raise ValueError("convT kernel must be k x k x C_out x C_in")
        if k != self.stride:
            # k = stride keeps the output extent exactly stride * input
            raise ValueError("convT requires kernel size equal to stride")


@dataclass
class BatchNormState:
    gamma: Tensor            # C
    beta: Tensor             # C
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5
    mode: str = "train"      # train | eval

    def train(self):
        self.mode = "train"
        return self

    def eval(self):
        self.mode = "eval"
        return self


@dataclass
class LinearParams:
    weight: Tensor           # D_in x D_out
    bias: Tensor             # D_out


@dataclass
class LayerNormParams:
    gamma: Tensor            # D
    beta: Tensor             # D
    eps: float = 1e-6


@dataclass
class MhsaParams:
    heads: int
    wq: LinearParams
    wk: LinearParams
    wv: LinearParams
    wo: LinearParams

    def __post_init__(self):
        d = self.wq.weight.shape[0]
        if d % self.heads != 0:
            raise ValueError(f"model width {d} not divisible by {self.heads} heads")


# -- initialisation ---------------------------------------------------

def he_uniform(rng: np.random.Generator, shape, fan_in: int, dtype=np.float64) -> Tensor:
    """He-style uniform init, suited to leaky-ReLU nets."""
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


def init_conv(rng, k, c_in, c_out, stride=1, padding=0) -> Conv2dParams:
    kernel = he_uniform(rng, (k, k, c_in, c_out), fan_in=k * k * c_in)
    bias = Tensor(np.zeros(c_out), requires_grad=True)
    return Conv2dParams(kernel, bias, stride, padding)


def init_convt(rng, k, c_in, c_out) -> ConvT2dParams:
    kernel = he_uniform(rng, (k, k, c_out, c_in), fan_in=c_in)
    bias = Tensor(np.zeros(c_out), requires_grad=True)
    return ConvT2dParams(kernel, bias, stride=k)


def init_bn(c: int, momentum=0.1, eps=1e-5) -> BatchNormState:
    return BatchNormState(
        gamma=Tensor(np.ones(c), requires_grad=True),
        beta=Tensor(np.zeros(c), requires_grad=True),
        running_mean=np.zeros(c), running_var=np.ones(c),
        momentum=momentum, eps=eps)


def init_linear(rng, d_in, d_out) -> LinearParams:
    return LinearParams(he_uniform(rng, (d_in, d_out), fan_in=d_in),
                        Tensor(np.zeros(d_out), requires_grad=True))


def init_layernorm(d: int) -> LayerNormParams:
    return LayerNormParams(Tensor(np.ones(d), requires_grad=True),
                           Tensor(np.zeros(d), requires_grad=True))


def init_mhsa(rng, d: int, heads: int) -> MhsaParams:
    return MhsaParams(heads, init_linear(rng, d, d), init_linear(rng, d, d),
                      init_linear(rng, d, d), init_linear(rng, d, d))


# -- convolution ------------------------------------------------------

def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Cross-correlation plus bias over a rows x cols x C_in tile."""
    h, w, c_in = x.shape
    k = p.kernel.shape[0]
    if p.kernel.shape[2] != c_in:
        raise ValueError(f"channel mismatch: input {c_in}, kernel {p.kernel.shape[2]}")
    s, pad = p.stride, p.padding
    if h + 2 * pad < k or w + 2 * pad < k:
        raise ValueError("kernel larger than padded input")
    oh = (h + 2 * pad - k) // s + 1
    ow = (w + 2 * pad - k) // s + 1

    xp = np.pad(x.data, ((pad, pad), (pad, pad), (0, 0))) if pad else x.data
    win = sliding_window_view(xp, (k, k), axis=(0, 1))[::s, ::s]  # oh,ow,Cin,k,k
    out = np.einsum("ijckl,klcf->ijf", win, p.kernel.data, optimize=True)
    out += p.bias.data
    assert out.shape[:2] == (oh, ow)

    def grad_fn(g):
        gk = np.einsum("ijckl,ijf->klcf", win, g, optimize=True)
        gb = g.sum(axis=(0, 1))
        contrib = np.einsum("ijf,klcf->ijklc", g, p.kernel.data, optimize=True)
        gxp = np.zeros_like(xp)
        for ki in range(k):
            for kj in range(k):
                gxp[ki:ki + s * oh:s, kj:kj + s * ow:s] += contrib[:, :, ki, kj]
        gx = gxp[pad:pad + h, pad:pad + w] if pad else gxp
        return (gx, gk, gb)

    return Tensor.from_op(out, (x, p.kernel, p.bias), grad_fn)


def conv2d_transpose(x: Tensor, p: ConvT2dParams) -> Tensor:
    """Adjoint of the matched strided conv2d; output extent = stride * input."""
    h, w, c_in = x.shape
    k = p.kernel.shape[0]
    s = p.stride
    if p.kernel.shape[3] != c_in:
        raise ValueError(f"channel mismatch: input {c_in}, kernel {p.kernel.shape[3]}")
    c_out = p.kernel.shape[2]
    oh, ow = s * h, s * w

    contrib = np.einsum("ijc,klfc->ijklf", x.data, p.kernel.data, optimize=True)
    out = np.zeros((oh, ow, c_out), dtype=x.data.dtype)
    for ki in range(k):
        for kj in range(k):
            out[ki:ki + s * h:s, kj:kj + s * w:s] += contrib[:, :, ki, kj]
    out += p.bias.data

    def grad_fn(g):
        win = sliding_window_view(g, (k, k), axis=(0, 1))[::s, ::s]  # h,w,Cout,k,k
        gx = np.einsum("ijfkl,klfc->ijc", win, p.kernel.data, optimize=True)
        gk = np.einsum("ijc,ijfkl->klfc", x.data, win, optimize=True)
        gb = g.sum(axis=(0, 1))
        return (gx, gk, gb)

    return Tensor.from_op(out, (x, p.kernel, p.bias), grad_fn)


# -- normalisation ----------------------------------------------------

def batch_norm(x: Tensor, s: BatchNormState) -> Tensor:
    """Per-channel normalization over all leading (spatial/batch) axes.

    Train mode normalizes by the current population statistics and updates
    the running estimates; eval mode uses running statistics only.
    """
    c = x.shape[-1]
    axes = tuple(range(x.ndim - 1))
    n = int(np.prod(x.shape[:-1]))
    if s.mode == "train":
        if n < 2:
            raise ValueError("batch_norm train mode needs >= 2 samples per channel")
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
            raise FloatingPointError("non-finite batch statistics")
        s.running_mean = (1 - s.momentum) * s.running_mean + s.momentum * mu
        s.running_var = (1 - s.momentum) * s.running_var + s.momentum * var
    else:
        mu, var = s.running_mean, s.running_var

    inv = 1.0 / np.sqrt(var + s.eps)
    xhat = (x.data - mu) * inv
    out = s.gamma.data * xhat + s.beta.data

    if s.mode == "train":
        def grad_fn(g):
            dgamma = (g * xhat).sum(axis=axes)
            dbeta = g.sum(axis=axes)
            gsum = g.sum(axis=axes)
            gx_sum = (g * xhat).sum(axis=axes)
            dx = (s.gamma.data * inv / n) * (n * g - gsum - xhat * gx_sum)
            return (dx, dgamma, dbeta)
    else:
        def grad_fn(g):
            dgamma = (g * xhat).sum(axis=axes)
            dbeta = g.sum(axis=axes)
            dx = g * s.gamma.data * inv
            return (dx, dgamma, dbeta)

    return Tensor.from_op(out, (x, s.gamma, s.beta), grad_fn)


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    """Normalization over the last axis with affine rescale."""
    d = x.shape[-1]
    if d < 2:
        raise ValueError("layer_norm needs last extent >= 2")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + p.eps)
    xhat = (x.data - mu) * inv
    out = p.gamma.data * xhat + p.beta.data

    def grad_fn(g):
        dgamma = (g * xhat).sum(axis=tuple(range(x.ndim - 1)))
        dbeta = g.sum(axis=tuple(range(x.ndim - 1)))
        gg = g * p.gamma.data
        dx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        return (dx, dgamma, dbeta)

    return Tensor.from_op(out, (x, p.gamma, p.beta), grad_fn)


# -- activations ------------------------------------------------------

def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    mask = np.where(x.data >= 0, 1.0, slope)
    return Tensor.from_op(x.data * mask, (x,), lambda g: (g * mask,))


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) with an overflow-safe branch; strictly positive."""
    out = np.where(x.data > 30.0, x.data + np.log1p(np.exp(-np.abs(x.data))),
                   np.log1p(np.exp(np.minimum(x.data, 30.0))))
    sig = 1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500)))
    return Tensor.from_op(out, (x,), lambda g: (g * sig,))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted stable softmax; slices along ``axis`` sum to 1."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        return ((g - (g * y).sum(axis=axis, keepdims=True)) * y,)

    return Tensor.from_op(y, (x,), grad_fn)


_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x: Tensor) -> Tensor:
    cdf = 0.5 * (1.0 + erf(x.data / _SQRT2))
    out = x.data * cdf
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data ** 2)
    return Tensor.from_op(out, (x,), lambda g: (g * (cdf + x.data * pdf),))


def linear(x: Tensor, p: LinearParams) -> Tensor:
    return matmul(x, p.weight) + p.bias


# -- attention --------------------------------------------------------

def mhsa(tokens: Tensor, p: MhsaParams) -> Tensor:
    """Scaled dot-product attention per head over an N x D token matrix."""
    n, d = tokens.shape
    heads = p.heads
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    q = linear(tokens, p.wq)
    k = linear(tokens, p.wk)
    v = linear(tokens, p.wv)

    outs = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        attn = softmax(matmul(qh, kh.T) * scale, axis=-1)
        outs.append(matmul(attn, vh))
    merged = concat(outs, axis=1)
    return linear(merged, p.wo)


# -- resampling -------------------------------------------------------

def _bilinear_weights(n_in: int, n_out: int):
    """Source indices and weights for align-corners-false sampling."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w = src - i0
    return i0, i1, w


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Align-corners-false bilinear resampling of a rows x cols x C tile."""
    if out_h < 1 or out_w < 1:
        raise ValueError("target extents must be >= 1")
    h, w, c = x.shape
    if (out_h, out_w) == (h, w):
        return Tensor.from_op(x.data.copy(), (x,), lambda g: (g,))
    r0, r1, wr = _bilinear_weights(h, out_h)
    c0, c1, wc = _bilinear_weights(w, out_w)
    wr_ = wr[:, None, None]
    wc_ = wc[None, :, None]

    def sample(arr):
        top = arr[r0][:, c0] * (1 - wc_) + arr[r0][:, c1] * wc_
        bot = arr[r1][:, c0] * (1 - wc_) + arr[r1][:, c1] * wc_
        return top * (1 - wr_) + bot * wr_

    out = sample(x.data)

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        for (ri, rw) in ((r0, 1 - wr_), (r1, wr_)):
            for (ci, cw) in ((c0, 1 - wc_), (c1, wc_)):
                np.add.at(gx, (ri[:, None], ci[None, :]), g * rw * cw)
        return (gx,)

    return Tensor.from_op(out, (x,), grad_fn)
