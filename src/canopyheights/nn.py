"""Neural network building blocks on top of the tensor engine.

Convolutions, transposed convolutions, normalizations, activations and
multi-head self-attention.  Every op here carries an exact shape contract
(asserted on call) and a hand-written backward.  The tile layout is
rows x cols x channels.  Parameters live in plain dataclass containers;
``train`` saves and restores them as checkpoints.

A batch of n tiles is one (n*rows) x cols x channels array, the tiles
stacked along rows: the same bytes as n x rows x cols x channels, and
every op keeps its 3-D shape contract.  Elementwise ops, ``layer_norm``,
``softmax``, ``linear``, channel concats, ``conv2d_transpose`` and convs
with k = stride never reach across a row boundary between tiles, so they
run on the stack as on one tall tile.  The ops that would reach across
one take the tile count as ``tiles`` (default 1): ``conv2d`` pads each
tile on its own, ``batch_norm`` normalizes each tile by its own
statistics and updates the running estimates once per tile, in tile
order, and ``mhsa`` attends within each tile's block of token rows.

Batch norm follows ``tensor.no_grad``, the one switch between training
and inference (Ioffe & Szegedy 2015, arXiv 1502.03167, section 3.1):
while a graph is recorded it uses batch statistics and updates the
running estimates; inside ``no_grad`` it uses the running statistics as
one scale and one shift per channel (the inference fold of Jacob et al.
2018, arXiv 1712.05877, section 3.2) and changes no state.  So an
inference run changes no model, and training after it is the training
it would have been without it.

Inside ``no_grad`` every op that reads a parameter reads it in its
input's dtype (``_param``): ``conv2d``, ``conv2d_transpose`` and
``linear`` their kernel or weight and bias, ``layer_norm`` its gamma and
beta, and ``batch_norm`` casts its scale and shift, computed from the
float64 statistics, to the input's dtype.  So a float32 input runs the
whole forward in float32 (see ``train.predict_heights``) without a cast
of the model tree.  While a graph is recorded every op reads
``Tensor.data`` as it is and numpy's promotion rules decide.  Inside a
``fixed_parameters`` block (``train.predict_maps``: one model, many
tiles) each such cast and each batch norm's scale and shift are made
once and reused until the block ends; outside one they are made on
every call.

The graph keeps no array that a backward can rebuild from what it holds
already (Chen et al. 2016, arXiv 1604.06174), and a forward makes only
what it returns or its node keeps, so inside ``no_grad`` it makes no
derivative at all: ``leaky_relu`` rebuilds its mask from its input,
``gelu`` the normal pdf and ``softplus`` its sigmoid, a training
``batch_norm`` its normalized input from the input and the statistics,
and ``conv2d`` its padded tiles.  ``layer_norm`` takes its mean and
variance each from one sum, divided as ``ndarray.mean``/``var`` divide
(``_row_mean``), so they are numpy's bits without the second mean that
``var`` takes; the input is centred once, and that array becomes the
normalized input its node keeps.  ``linear`` is one node, ``x @ weight
+ bias``, with the bits and gradients of ``matmul`` then ``+``.

Per-channel sums over pixels or rows (batch-norm statistics, bias and
affine gradients) use ``tensor._channel_sum``: numpy's own summation
order, vectorised across channels, 3-5x faster at 4-64 channels.  Not a
BLAS ``ones @ x``: it adds in another order, training amplifies the
rounding change, and in a prototype it moved the distillation gate's
last/first loss from 0.474 to 0.548, past its 0.5 threshold.

Multi-head self-attention (``mhsa``) is one graph node over the tokens
and the eight projection tensors, with one hand-written backward, as
fused attention kernels are at full scale (Dao et al. 2022, arXiv
2205.14135).  Its heads are batched: q, k and v are C-contiguous
(tiles*heads) x N x dh stacks, k's transposed to dh x N, so the scores
and the weighted values are one stacked product each way.  Its bits are
those of the per-head composition of ``linear``, slices, ``matmul``,
``softmax`` and ``concat`` (the reference in ``tests/test_nn.py``): each
matrix of a stack is the BLAS call the composition makes on its copy of
one head, and the token gradient is summed as (q part + k part) + v
part, the order in which the composition's graph adds the three.
Another order rounds otherwise, and training amplifies that: in a
prototype a 6-epoch HyTeC run's last loss went from 160.51 to 165.79 or
153.42.  The 1/sqrt(dh) scale is a 0-d array of the scores' dtype, as
``Tensor._coerce`` makes it; a float64 one would widen float32 scores.
The node keeps q, k transposed, v, the attention weights and the merged
heads.  Where the composition adds the heads' zero-padded slices of a
gradient, it turns a -0.0 element into +0.0; this backward keeps -0.0,
equal in value.

``softmax`` and ``mhsa`` share one array-level softmax (``_softmax``).
Over a last axis of at most ``SHORT_AXIS`` its row max and row sums go
slice by slice (``_row_max``, ``_row_sum``): numpy makes one inner-loop
call per row there, ~10x slower at K = 10.  The sums add the slices in
the order of numpy's pairwise sum, so both are bit-identical to
``ndarray.max`` and ``ndarray.sum``.

Convolutions are matrix products (im2col + GEMM).  A conv kernel is
k x k x C_in x C_out, so ``kmat = kernel.reshape(k*k*C_in, C_out)`` has
its rows in (ki, kj, c) order.  The padded tile is unrolled into an
(oh*ow) x (k*k*C_in) patch matrix with its columns in that same order:
an ``ndarray`` of windows over the tile's buffer (bounds-checked by the
constructor, read-only), reshaped, which is free for 1x1 stride 1 and
one copy otherwise.  The forward is ``patches @ kmat + bias``.  The
backward rebuilds the padded tile and the patch matrix from the input
and takes the kernel gradient as ``patches.T @ g``.  The input gradient
is ``g @ kmat.T`` folded back onto the tile (col2im): a
reshape/transpose where windows tile the input (k = stride), and k*k
strided slice-adds of per-tap blocks where they overlap.  A transposed
conv strides by its kernel size k, so each input pixel owns one k x k
output block: its forward is one GEMM against ``kernel.reshape(k*k*C_out,
C_in).T`` followed by a reshape/transpose, and its backward the inverse
reshape and two GEMMs.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import Tensor, _channel_sum, grad_enabled

# batch norm's running-estimate momentum and variance floor, layer norm's
# variance floor, and leaky ReLU's negative slope
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
LN_EPS = 1e-6
LEAKY_SLOPE = 0.01


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

    def __post_init__(self):
        k = self.kernel.shape[0]
        if self.kernel.ndim != 4 or self.kernel.shape[1] != k:
            raise ValueError("convT kernel must be k x k x C_out x C_in")


@dataclass
class BatchNormState:
    gamma: Tensor            # C
    beta: Tensor             # C
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class LinearParams:
    weight: Tensor           # D_in x D_out
    bias: Tensor             # D_out


@dataclass
class LayerNormParams:
    gamma: Tensor            # D
    beta: Tensor             # D


@dataclass
class MhsaParams:
    heads: int
    wq: LinearParams
    wk: LinearParams
    wv: LinearParams
    wo: LinearParams

    def __post_init__(self):
        if self.heads < 1:
            raise ValueError(f"heads must be positive, got {self.heads}")
        d = self.wq.weight.shape[0]
        if d % self.heads != 0:
            raise ValueError(f"model width {d} not divisible by {self.heads} heads")


# -- initialisation ---------------------------------------------------

def he_uniform(rng: Optional[np.random.Generator], shape,
               fan_in: int) -> Tensor:
    """He-style uniform init, suited to leaky-ReLU nets.  ``rng`` None
    draws nothing and leaves the values 0, for a checkpoint to overwrite."""
    if rng is None:
        return Tensor(np.zeros(shape), requires_grad=True)
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def init_conv(rng, k, c_in, c_out, stride=1, padding=0) -> Conv2dParams:
    kernel = he_uniform(rng, (k, k, c_in, c_out), fan_in=k * k * c_in)
    bias = Tensor(np.zeros(c_out), requires_grad=True)
    return Conv2dParams(kernel, bias, stride, padding)


def init_convt(rng, k, c_in, c_out) -> ConvT2dParams:
    kernel = he_uniform(rng, (k, k, c_out, c_in), fan_in=c_in)
    bias = Tensor(np.zeros(c_out), requires_grad=True)
    return ConvT2dParams(kernel, bias)


def init_bn(c: int) -> BatchNormState:
    return BatchNormState(
        gamma=Tensor(np.ones(c), requires_grad=True),
        beta=Tensor(np.zeros(c), requires_grad=True),
        running_mean=np.zeros(c), running_var=np.ones(c))


def init_linear(rng, d_in, d_out) -> LinearParams:
    return LinearParams(he_uniform(rng, (d_in, d_out), fan_in=d_in),
                        Tensor(np.zeros(d_out), requires_grad=True))


def init_layernorm(d: int) -> LayerNormParams:
    return LayerNormParams(Tensor(np.ones(d), requires_grad=True),
                           Tensor(np.zeros(d), requires_grad=True))


def init_mhsa(rng, d: int, heads: int) -> MhsaParams:
    return MhsaParams(heads, init_linear(rng, d, d), init_linear(rng, d, d),
                      init_linear(rng, d, d), init_linear(rng, d, d))


# -- parameters at the input's precision ------------------------------

# what a ``fixed_parameters`` block has made, by (id of its source, dtype);
# None outside one
_made = contextvars.ContextVar("fixed_parameters", default=None)


@contextlib.contextmanager
def fixed_parameters():
    """Inside the block each parameter cast that ``_param`` makes and each
    batch norm's inference scale and shift are made once and reused, so
    many tiles through one model pay for them once.  The parameters and
    batch-norm states read inside must not change there.  All of it is
    dropped on exit, on an exception too."""
    token = _made.set({})
    try:
        yield
    finally:
        _made.reset(token)


def _once(source, dtype, make):
    """``make(source, dtype)``: once per ``fixed_parameters`` block, on
    every call outside one.  The value is held next to ``source``, so no
    other object takes its id while the block lasts.  Callers only read
    it."""
    made = _made.get()
    if made is None:
        return make(source, dtype)
    key = (id(source), dtype)
    if key not in made:
        made[key] = (source, make(source, dtype))
    return made[key][1]


def _param(t: Tensor, x: Tensor) -> np.ndarray:
    """The array an op on ``x`` reads of the parameter ``t``: ``t.data``
    while a graph is recorded or where the dtypes agree, else, inside
    ``no_grad``, a cast of it to ``x``'s dtype (``_once``).  Nothing is
    cached on ``t``: its storage may belong to an optimizer's master
    vector.  The dtypes are compared by identity (numpy's builtin dtypes
    are singletons): ``==`` on dtypes costs more than the rest of this."""
    a = t.data
    dtype = x.data.dtype
    if a.dtype is dtype or grad_enabled():
        return a
    return _once(a, dtype, np.ndarray.astype)


# -- convolution ------------------------------------------------------

def tile_rows(rows: int, tiles: int) -> int:
    """Rows per tile of a stack of ``tiles`` tiles with ``rows`` rows."""
    if tiles < 1 or rows % tiles:
        raise ValueError(f"{rows} rows do not split into {tiles} tiles")
    return rows // tiles


def _pad(x: np.ndarray, pad: int, tiles: int) -> np.ndarray:
    """The tiles of a row-stacked array as a tiles x rows x cols x C block,
    each given its own zero border of ``pad`` rows/cols (``np.pad`` costs
    ~10x more here)."""
    rows, w, c = x.shape
    h = rows // tiles
    x = x.reshape(tiles, h, w, c)
    if not pad:
        return x
    xp = np.zeros((tiles, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x
    return xp


def _patches(xp: np.ndarray, k: int, s: int, oh: int, ow: int) -> np.ndarray:
    """(tiles*oh*ow) x (k*k*C) patch matrix of a block of padded tiles,
    columns in the kernel's (ki, kj, c) order: a view for 1x1 stride 1,
    one copy else."""
    xp = np.ascontiguousarray(xp)
    s0, s1, s2, s3 = xp.strides
    # an ndarray over xp's buffer: the constructor bounds-checks the
    # windows, which ``as_strided`` does not, and skips its Python setup
    win = np.ndarray((xp.shape[0], oh, ow, k, k, xp.shape[3]), xp.dtype, xp,
                     0, (s0, s * s1, s * s2, s1, s2, s3))
    win.flags.writeable = False
    return win.reshape(-1, k * k * xp.shape[3])


def _col2im(g2: np.ndarray, kernel: np.ndarray, shape, s: int, oh: int,
            ow: int) -> np.ndarray:
    """Gradient on the block of padded tiles of ``shape``: ``g2 @ kmat.T``
    summed back over each tile's windows."""
    n = shape[0]
    k, _, c_in, c_out = kernel.shape
    if k == s:  # windows tile the input: the sum is a reshape
        blocks = g2 @ kernel.reshape(-1, c_out).T
        blocks = blocks.reshape(n, oh, ow, k, k, c_in)
        gxp = blocks.transpose(0, 1, 3, 2, 4, 5).reshape(n, oh * k, ow * k, c_in)
        if gxp.shape == shape:
            return gxp
        full = np.zeros(shape, dtype=gxp.dtype)
        full[:, :oh * k, :ow * k] = gxp
        return full
    # the same product laid out one contiguous (n*oh*ow) x C_in block per
    # tap; a contiguous stack of kernel taps keeps the batched product on BLAS
    ktaps = np.ascontiguousarray(
        kernel.reshape(k * k, c_in, c_out).transpose(0, 2, 1))
    taps = np.matmul(g2, ktaps)
    gxp = np.zeros(shape, dtype=taps.dtype)
    taps = taps.reshape(k, k, n, oh, ow, c_in)
    for ki in range(k):
        for kj in range(k):
            gxp[:, ki:ki + s * oh:s, kj:kj + s * ow:s] += taps[ki, kj]
    return gxp


def conv2d(x: Tensor, p: Conv2dParams, tiles: int = 1) -> Tensor:
    """Cross-correlation plus bias over each tile of a row-stacked
    (tiles*rows) x cols x C_in input; every tile is padded on its own."""
    rows, w, c_in = x.shape
    h = tile_rows(rows, tiles)
    k = p.kernel.shape[0]
    if p.kernel.shape[2] != c_in:
        raise ValueError(f"channel mismatch: input {c_in}, kernel {p.kernel.shape[2]}")
    s, pad = p.stride, p.padding
    if h + 2 * pad < k or w + 2 * pad < k:
        raise ValueError("kernel larger than padded input")
    oh = (h + 2 * pad - k) // s + 1
    ow = (w + 2 * pad - k) // s + 1
    c_out = p.kernel.shape[3]

    out = _patches(_pad(x.data, pad, tiles), k, s, oh, ow) \
        @ _param(p.kernel, x).reshape(-1, c_out)
    out += _param(p.bias, x)

    def grad_fn(g):
        # the padded tiles and the patch matrix are rebuilt from the input,
        # not kept alive by the graph
        xp = _pad(x.data, pad, tiles)
        g2 = g.reshape(-1, c_out)
        gk = (_patches(xp, k, s, oh, ow).T @ g2).reshape(p.kernel.shape)
        gb = _channel_sum(g2, (0,))
        if not x.requires_grad:  # a model input: no col2im
            return (None, gk, gb)
        gxp = _col2im(g2, p.kernel.data, xp.shape, s, oh, ow)
        gx = gxp[:, pad:pad + h, pad:pad + w] if pad else gxp
        return (gx.reshape(x.shape), gk, gb)

    return Tensor.from_op(out.reshape(tiles * oh, ow, c_out),
                          (x, p.kernel, p.bias), grad_fn)


def conv2d_transpose(x: Tensor, p: ConvT2dParams) -> Tensor:
    """Adjoint of the k x k stride-k conv2d; output extent = k * input."""
    h, w, c_in = x.shape
    k = p.kernel.shape[0]
    if p.kernel.shape[3] != c_in:
        raise ValueError(f"channel mismatch: input {c_in}, kernel {p.kernel.shape[3]}")
    c_out = p.kernel.shape[2]

    # the stride is k, so every input pixel owns one k x k output block
    x2 = x.data.reshape(h * w, c_in)
    kmat = _param(p.kernel, x).reshape(k * k * c_out, c_in)
    blocks = (x2 @ kmat.T).reshape(h, w, k, k, c_out)
    out = blocks.transpose(0, 2, 1, 3, 4).reshape(h * k, w * k, c_out)
    out += _param(p.bias, x)

    def grad_fn(g):
        gcols = g.reshape(h, k, w, k, c_out).transpose(0, 2, 1, 3, 4)
        gcols = gcols.reshape(h * w, k * k * c_out)
        gx = (gcols @ kmat).reshape(h, w, c_in)
        gk = (gcols.T @ x2).reshape(p.kernel.shape)
        gb = _channel_sum(g, (0, 1))
        return (gx, gk, gb)

    return Tensor.from_op(out, (x, p.kernel, p.bias), grad_fn)


# -- normalisation ----------------------------------------------------

def batch_norm(x: Tensor, s: BatchNormState, tiles: int = 1) -> Tensor:
    """Per-channel normalization over all the leading axes of each tile of
    a row-stacked input.

    While a graph is recorded (training) it normalizes each tile by its own
    population statistics and updates the running estimates once per tile,
    in tile order.  Inside ``tensor.no_grad`` (inference) it is the fixed
    per-channel affine map of the running statistics, ``x * scale + shift``
    with ``scale = gamma / sqrt(running_var + eps)`` and ``shift = beta -
    running_mean * scale``, both computed in the statistics' dtype and then
    cast to the input's, and writes nothing to ``s``.
    """
    tile_rows(x.shape[0], tiles)
    if not grad_enabled():
        scale, shift = _once(s, x.dtype, _bn_fold)
        out = x.data * scale
        out += shift
        return Tensor(out, dtype=out.dtype)
    c = x.shape[-1]
    shape = (tiles, -1, c)
    n = x.size // (tiles * c)          # pixels per tile
    if n < 2:
        raise ValueError("batch_norm training needs >= 2 samples per channel")
    xs = x.data.reshape(shape)
    # np.mean and np.var (a sum over an intp count), centring once
    mu = _channel_sum(xs, (1,), keepdims=True)
    mu /= np.intp(n)
    xc = xs - mu
    var = _channel_sum(np.square(xc), (1,), keepdims=True)
    var /= np.intp(n)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
        raise FloatingPointError("non-finite batch statistics")
    for t in range(tiles):
        s.running_mean = (1 - BN_MOMENTUM) * s.running_mean + BN_MOMENTUM * mu[t, 0]
        s.running_var = (1 - BN_MOMENTUM) * s.running_var + BN_MOMENTUM * var[t, 0]

    inv = 1.0 / np.sqrt(var + BN_EPS)
    xc *= inv                          # xc's dtype covers inv's
    out = s.gamma.data * xc + s.beta.data

    def grad_fn(g):
        # the normalized input is rebuilt, not kept alive by the graph
        xhat = x.data.reshape(shape) - mu
        xhat *= inv
        g = g.reshape(shape)
        gx = g * xhat
        gsum = _channel_sum(g, (1,), keepdims=True)
        gx_sum = _channel_sum(gx, (1,), keepdims=True)
        # in place; g has the output's dtype, the widest of them all
        dx = g * n
        dx -= gsum
        dx -= np.multiply(xhat, gx_sum, out=gx)
        dx *= s.gamma.data * inv / n
        return (dx.reshape(x.shape), gx_sum.sum(axis=(0, 1)),
                gsum.sum(axis=(0, 1)))

    return Tensor.from_op(out.reshape(x.shape), (x, s.gamma, s.beta), grad_fn)


def _bn_fold(s: BatchNormState, dtype) -> tuple:
    """(scale, shift) of batch norm's inference map, computed from the
    float64 statistics and cast to ``dtype``."""
    scale = s.gamma.data / np.sqrt(s.running_var + BN_EPS)
    shift = s.beta.data - s.running_mean * scale
    return scale.astype(dtype, copy=False), shift.astype(dtype, copy=False)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)`` without numpy's Python-level
    ``_mean``: one sum, divided in place by the count as an ``intp``, as
    ``_mean`` divides (for float32 in float64, rounded back)."""
    s = a.sum(axis=-1, keepdims=True)
    return np.true_divide(s, np.intp(a.shape[-1]), out=s, casting="unsafe")


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    """Normalization over the last axis with affine rescale."""
    d = x.shape[-1]
    if d < 2:
        raise ValueError("layer_norm needs last extent >= 2")
    xhat = x.data - _row_mean(x.data)
    inv = 1.0 / np.sqrt(_row_mean(xhat * xhat) + LN_EPS)
    xhat *= inv
    out = _param(p.gamma, x) * xhat + _param(p.beta, x)

    def grad_fn(g):
        dgamma = _channel_sum(g * xhat, tuple(range(x.ndim - 1)))
        dbeta = _channel_sum(g, tuple(range(x.ndim - 1)))
        gg = g * p.gamma.data
        dx = inv * (gg - _row_mean(gg) - xhat * _row_mean(gg * xhat))
        return (dx, dgamma, dbeta)

    return Tensor.from_op(out, (x, p.gamma, p.beta), grad_fn)


# -- activations ------------------------------------------------------

def _leaky_slopes(x: np.ndarray) -> np.ndarray:
    """1 where ``x >= 0``, else ``LEAKY_SLOPE``, in the dtype of ``x``.
    Arithmetic on the sign test: ``np.where`` branches per element and
    costs ~5x more on mixed signs; (1 - slope) + slope rounds to exactly 1,
    in f32 as in f64."""
    f = (x >= 0) * x.dtype.type(1.0 - LEAKY_SLOPE)
    f += LEAKY_SLOPE
    return f


def leaky_relu(x: Tensor) -> Tensor:
    # max(x, slope * x) is x * slope-or-1 bit for bit and twice as fast;
    # the backward rebuilds the slopes, keeps no mask
    out = np.maximum(x.data, x.data * x.dtype.type(LEAKY_SLOPE))
    return Tensor.from_op(out, (x,), lambda g: (g * _leaky_slopes(x.data),))


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) with an overflow-safe branch; strictly positive.
    The backward rebuilds the sigmoid from the input."""
    out = np.where(x.data > 30.0, x.data + np.log1p(np.exp(-np.abs(x.data))),
                   np.log1p(np.exp(np.minimum(x.data, 30.0))))

    def grad_fn(g):
        # f32 overflows past exp(88.7); other dtypes keep the f64 clip
        lim = 80.0 if x.dtype == np.float32 else 500.0
        return (g * (1.0 / (1.0 + np.exp(-np.clip(x.data, -lim, lim)))),)

    return Tensor.from_op(out, (x,), grad_fn)


# the last-axis extent up to which row maxima and sums go slice by slice
SHORT_AXIS = 16


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``.  Over a short last axis numpy
    makes one inner-loop call per row; the maximum of the K slices is the
    same value, exactly, ~10x faster at K = 10."""
    k = a.shape[-1]
    if k > SHORT_AXIS or k < 2:
        return a.max(axis=-1, keepdims=True)
    m = np.maximum(a[..., :1], a[..., 1:2])
    for i in range(2, k):
        np.maximum(m, a[..., i:i + 1], out=m)
    return m


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1, keepdims=True)`` bit for bit.  For a short last
    axis of a C-contiguous float32/float64 array the K slices are added in
    the order of numpy's pairwise sum: left to right below 8; else eight
    accumulators that take every eighth slice, added as ((r0+r1)+(r2+r3))
    + ((r4+r5)+(r6+r7)), then the remaining slices in order.  numpy adds
    that to the reduction's identity, +0.0, which turns a -0.0 row sum
    into +0.0; so does the last step here."""
    k = a.shape[-1]
    if (k > SHORT_AXIS or k < 2 or a.dtype.char not in "fd"
            or not a.flags.c_contiguous):
        return a.sum(axis=-1, keepdims=True)
    c = [a[..., i:i + 1] for i in range(k)]
    if k < 8:
        s = c[0] + c[1]
        rest = c[2:]
    else:
        r = c[:8]
        for i in range(8, k - k % 8, 8):
            r = [r[j] + c[i + j] for j in range(8)]
        s = (r[0] + r[1]) + (r[2] + r[3])
        s += (r[4] + r[5]) + (r[6] + r[7])
        rest = c[k - k % 8:]
    for x in rest:
        s += x
    s += 0.0
    return s


def _softmax(a: np.ndarray) -> np.ndarray:
    """Max-subtracted stable softmax of an array over its last axis."""
    e = np.exp(a - _row_max(a))
    e /= _row_sum(e)
    return e


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Adjoint of ``y = _softmax(x)`` at ``x`` for the output adjoint ``g``."""
    return (g - _row_sum(g * y)) * y


def softmax(x: Tensor) -> Tensor:
    """Max-subtracted stable softmax over the last axis."""
    y = _softmax(x.data)
    return Tensor.from_op(y, (x,), lambda g: (_softmax_grad(g, y),))


# Python floats, so that they take the dtype of the array they meet
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the exact normal cdf; the backward keeps the cdf
    and rebuilds the pdf from the input."""
    # imported here, not at the top: only HyTeC runs GELU, and scipy is
    # most of the package's import time and memory
    from scipy.special import erf
    cdf = 0.5 * (1.0 + erf(x.data / _SQRT2))
    out = x.data * cdf

    def grad_fn(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data ** 2)
        return (g * (cdf + x.data * pdf),)

    return Tensor.from_op(out, (x,), grad_fn)


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """``x @ weight + bias`` as one graph node."""
    w, b = _param(p.weight, x), _param(p.bias, x)
    return Tensor.from_op(x.data @ w + b, (x, p.weight, p.bias), lambda g: (
        g @ w.T, x.data.T @ g, Tensor._unbroadcast(g, b.shape)))


# -- attention --------------------------------------------------------

# a (tiles*N) x D array seen as tiles x N x heads x dh, in head-major
# order: one N x dh block per head (queries, values, their adjoints) or
# one dh x N block (keys); each axis order with its inverse
_ROWS_FIRST = ((0, 2, 1, 3), (0, 2, 1, 3))
_DIMS_FIRST = ((0, 2, 3, 1), (0, 3, 1, 2))


def _split_heads(y: np.ndarray, tiles: int, heads: int, layout) -> np.ndarray:
    """(tiles*heads) x N x dh, or x dh x N, C-contiguous stack of the
    heads of a row-stacked (tiles*N) x D array."""
    rows, d = y.shape
    a = y.reshape(tiles, rows // tiles, heads, d // heads).transpose(layout[0])
    return np.ascontiguousarray(a).reshape((-1,) + a.shape[2:])


def _merge_heads(a: np.ndarray, tiles: int, heads: int, layout) -> np.ndarray:
    """The C-contiguous (tiles*N) x D array that ``_split_heads`` split
    into ``a``."""
    a = a.reshape((tiles, heads) + a.shape[1:]).transpose(layout[1])
    return np.ascontiguousarray(a).reshape(a.shape[0] * a.shape[1], -1)


def mhsa(tokens: Tensor, p: MhsaParams, tiles: int = 1) -> Tensor:
    """Scaled dot-product attention per head over an N x D token matrix,
    or within each tile's N rows of a row-stacked (tiles*N) x D one: one
    graph node over the tokens and the eight projection tensors."""
    rows, d = tokens.shape
    tile_rows(rows, tiles)
    heads = p.heads
    lins = (p.wq, p.wk, p.wv, p.wo)
    x = tokens.data

    def project(a, lin):
        return a @ _param(lin.weight, tokens) + _param(lin.bias, tokens)

    q = _split_heads(project(x, p.wq), tiles, heads, _ROWS_FIRST)
    kt = _split_heads(project(x, p.wk), tiles, heads, _DIMS_FIRST)
    v = _split_heads(project(x, p.wv), tiles, heads, _ROWS_FIRST)
    scores = q @ kt
    # a 0-d array of the scores' dtype: a float64 one would widen float32
    scale = np.asarray(1.0 / math.sqrt(d // heads), dtype=scores.dtype)
    scores *= scale
    attn = _softmax(scores)
    merged = _merge_heads(attn @ v, tiles, heads, _ROWS_FIRST)
    out = project(merged, p.wo)

    def grad_fn(g):
        wq, wk, wv, wo = (lin.weight.data for lin in lins)
        gw = _split_heads(g @ wo.T, tiles, heads, _ROWS_FIRST)
        gs = _softmax_grad(gw @ np.swapaxes(v, -1, -2), attn)
        gs *= scale
        # each projection's output adjoint as a (tiles*N) x D array, turned
        # into its weight and bias gradients and its token-gradient term,
        # then dropped; the token gradient is (q part + k part) + v part,
        # the per-head composition's order
        ga = _merge_heads(gs @ np.swapaxes(kt, -1, -2), tiles, heads,
                          _ROWS_FIRST)
        gx = ga @ wq.T
        grads = [x.T @ ga, _channel_sum(ga, (0,))]
        del ga
        ga = _merge_heads(np.swapaxes(q, -1, -2) @ gs, tiles, heads,
                          _DIMS_FIRST)
        del gs
        gx += ga @ wk.T
        grads += [x.T @ ga, _channel_sum(ga, (0,))]
        del ga
        ga = _merge_heads(np.swapaxes(attn, -1, -2) @ gw, tiles, heads,
                          _ROWS_FIRST)
        del gw
        gx += ga @ wv.T
        grads += [x.T @ ga, _channel_sum(ga, (0,))]
        return [gx] + grads + [merged.T @ g, _channel_sum(g, (0,))]

    return Tensor.from_op(out, (tokens,) + tuple(
        t for lin in lins for t in (lin.weight, lin.bias)), grad_fn)
