"""Neural network building blocks on top of the tensor engine.

Convolutions, transposed convolutions, normalizations, activations,
multi-head self-attention, and bilinear resampling.  Every op here carries
an exact shape contract (asserted on call) and a hand-written backward.
The tile layout is rows x cols x channels.  Parameters live in plain
dataclass containers; ``train`` saves and restores them as checkpoints.

Convolutions are matrix products (im2col + GEMM).  A conv kernel is
k x k x C_in x C_out, so ``kmat = kernel.reshape(k*k*C_in, C_out)`` has
its rows in (ki, kj, c) order.  The padded tile is unrolled into an
(oh*ow) x (k*k*C_in) patch matrix with its columns in that same order:
one strided view of the tile, reshaped, which is free for 1x1 stride 1
and one copy otherwise.  The forward is ``patches @ kmat + bias``.  The
backward rebuilds the patch matrix from the padded tile (so the graph
holds the tile, not a k*k-times larger matrix) and takes the kernel
gradient as ``patches.T @ g``.  The input gradient is ``g @ kmat.T``
folded back onto the tile (col2im): a reshape/transpose where windows
tile the input (k = stride), and k*k strided slice-adds of per-tap
blocks where they overlap.  The transposed conv requires k = stride, so
each input pixel owns one k x k output block: its forward is one GEMM
against ``kernel.reshape(k*k*C_out, C_in).T`` followed by a
reshape/transpose, and its backward the inverse reshape and two GEMMs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
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

def _pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero border of ``pad`` rows/cols (``np.pad`` costs ~10x more here)."""
    if not pad:
        return x
    h, w, c = x.shape
    xp = np.zeros((h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[pad:pad + h, pad:pad + w] = x
    return xp


def _patches(xp: np.ndarray, k: int, s: int, oh: int, ow: int) -> np.ndarray:
    """(oh*ow) x (k*k*C) patch matrix of a padded tile, columns in the
    kernel's (ki, kj, c) order: a view for 1x1 stride 1, one copy else."""
    s0, s1, s2 = xp.strides
    win = as_strided(xp, (oh, ow, k, k, xp.shape[2]),
                     (s * s0, s * s1, s0, s1, s2), writeable=False)
    return win.reshape(oh * ow, -1)


def _col2im(g2: np.ndarray, kernel: np.ndarray, shape, s: int, oh: int,
            ow: int) -> np.ndarray:
    """Gradient on the padded tile of ``shape``: ``g2 @ kmat.T`` summed
    back over the windows."""
    k, _, c_in, c_out = kernel.shape
    if k == s:  # windows tile the input: the sum is a reshape
        blocks = (g2 @ kernel.reshape(-1, c_out).T).reshape(oh, ow, k, k, c_in)
        gxp = blocks.transpose(0, 2, 1, 3, 4).reshape(oh * k, ow * k, c_in)
        if gxp.shape == shape:
            return gxp
        full = np.zeros(shape, dtype=gxp.dtype)
        full[:oh * k, :ow * k] = gxp
        return full
    # the same product laid out one contiguous (oh*ow) x C_in block per tap;
    # a contiguous stack of kernel taps keeps the batched product on BLAS
    ktaps = np.ascontiguousarray(
        kernel.reshape(k * k, c_in, c_out).transpose(0, 2, 1))
    taps = np.matmul(g2, ktaps)
    gxp = np.zeros(shape, dtype=taps.dtype)
    taps = taps.reshape(k, k, oh, ow, c_in)
    for ki in range(k):
        for kj in range(k):
            gxp[ki:ki + s * oh:s, kj:kj + s * ow:s] += taps[ki, kj]
    return gxp


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
    c_out = p.kernel.shape[3]

    xp = _pad(x.data, pad)
    out = _patches(xp, k, s, oh, ow) @ p.kernel.data.reshape(-1, c_out)
    out += p.bias.data

    def grad_fn(g):
        # the patch matrix is rebuilt, not kept alive by the graph
        g2 = g.reshape(oh * ow, c_out)
        gk = (_patches(xp, k, s, oh, ow).T @ g2).reshape(p.kernel.shape)
        gb = g2.sum(axis=0)
        gxp = _col2im(g2, p.kernel.data, xp.shape, s, oh, ow)
        gx = gxp[pad:pad + h, pad:pad + w] if pad else gxp
        return (gx, gk, gb)

    return Tensor.from_op(out.reshape(oh, ow, c_out), (x, p.kernel, p.bias),
                          grad_fn)


def conv2d_transpose(x: Tensor, p: ConvT2dParams) -> Tensor:
    """Adjoint of the matched strided conv2d; output extent = stride * input."""
    h, w, c_in = x.shape
    k = p.kernel.shape[0]
    if p.kernel.shape[3] != c_in:
        raise ValueError(f"channel mismatch: input {c_in}, kernel {p.kernel.shape[3]}")
    c_out = p.kernel.shape[2]

    # k = stride, so every input pixel owns one k x k output block
    x2 = x.data.reshape(h * w, c_in)
    kmat = p.kernel.data.reshape(k * k * c_out, c_in)
    blocks = (x2 @ kmat.T).reshape(h, w, k, k, c_out)
    out = blocks.transpose(0, 2, 1, 3, 4).reshape(h * k, w * k, c_out)
    out += p.bias.data

    def grad_fn(g):
        gcols = g.reshape(h, k, w, k, c_out).transpose(0, 2, 1, 3, 4)
        gcols = gcols.reshape(h * w, k * k * c_out)
        gx = (gcols @ kmat).reshape(h, w, c_in)
        gk = (gcols.T @ x2).reshape(p.kernel.shape)
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
