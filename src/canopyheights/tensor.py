"""Dense tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays and record the operations that produced them.
``backward(root)`` (or ``root.backward()``) orders the graph below a scalar
root (``Tape.from_root``), walks it in reverse and accumulates gradients
into every leaf that requested them.  Gradients are summed across uses;
callers zero them between steps.  The walk frees the graph behind it, so
a graph serves one backward, as by default in PyTorch.

Every op computes in the dtype of its inputs, and ``backward`` hands each
node its adjoint in that node's own dtype.  64-bit floats are the library
default, so finite-difference checks have enough headroom.  Training runs
its forward and backward on 32-bit working copies of 64-bit master
parameters (see ``train``): its graph holds f32 arrays, and the scalar
losses on top of it are f64.  A U-Net prediction runs in f32 as well,
its ops reading the f64 parameters in f32 inside ``no_grad`` (see
``nn``); teacher maps and HyTeC predictions run in f64.

The TNSR/1 writers and the CLI write each output file through
``atomic_open``: under a temporary name, renamed into place once complete.
``write_csv`` writes every CSV but the column-formatted shot tables.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import math
import os
import struct
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: results of ops keep no parents and
    no gradient function, so inference holds no tape.  Nests, and restores
    the previous setting on exit, on an exception too."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def grad_enabled() -> bool:
    """Whether ops record a graph here: False inside ``no_grad``."""
    return _grad_enabled.get()


def _channel_sum(a: np.ndarray, axis: tuple, keepdims: bool = False) -> np.ndarray:
    """``a.sum(axis=axis, keepdims=keepdims)`` bit for bit, ``axis`` being
    consecutive axes before the last.  ``ndarray.sum`` adds the rows of a
    C-contiguous array in order, one inner-loop call per row of channels;
    unoptimized ``einsum`` adds them in that order in one loop.  One channel
    or another memory order sums pairwise, and under 256 rows einsum's call
    overhead outweighs the gain, so those stay on ``ndarray.sum``."""
    lo, hi = axis[0], axis[-1] + 1
    lead, n, c = a.shape[:lo], math.prod(a.shape[lo:hi]), math.prod(a.shape[hi:])
    if c < 2 or n < 256 or a.dtype.kind != "f" or not a.flags.c_contiguous:
        return a.sum(axis=axis, keepdims=keepdims)
    out = np.einsum("tnc->tc", a.reshape(math.prod(lead), n, c))
    return out.reshape(lead + (1,) * (hi - lo) * keepdims + a.shape[hi:])


class Tensor:
    """A dense n-dimensional value with an optional gradient."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._grad_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None

    # -- construction -------------------------------------------------

    @staticmethod
    def from_op(data: np.ndarray, parents: Sequence["Tensor"],
                grad_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> "Tensor":
        """Create a non-leaf tensor produced by a differentiable op; inside
        ``no_grad`` it is a constant."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = (_grad_enabled.get()
                             and any(p.requires_grad for p in parents))
        out.grad = None
        if out.requires_grad:
            out._parents = tuple(parents)
            out._grad_fn = grad_fn
        else:
            out._parents = ()
            out._grad_fn = None
        return out

    # -- basic properties ---------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    # -- elementwise ops ----------------------------------------------

    @staticmethod
    def _coerce(other, like: "Tensor") -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other, dtype=like.data.dtype)

    @staticmethod
    def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
        """Sum a broadcast gradient back down to the original shape."""
        if grad.shape == shape:
            return grad
        extra = grad.ndim - len(shape)
        if extra > 0:
            grad = _channel_sum(grad, tuple(range(extra)))
        axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
        if axes:
            grad = grad.sum(axis=axes, keepdims=True)
        return grad

    def __add__(self, other):
        other = Tensor._coerce(other, self)
        data = self.data + other.data
        return Tensor.from_op(data, (self, other), lambda g: (
            Tensor._unbroadcast(g, self.shape),
            Tensor._unbroadcast(g, other.shape)))

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._coerce(other, self)
        data = self.data - other.data
        return Tensor.from_op(data, (self, other), lambda g: (
            Tensor._unbroadcast(g, self.shape),
            Tensor._unbroadcast(-g, other.shape)))

    def __rsub__(self, other):
        return Tensor._coerce(other, self) - self

    def __mul__(self, other):
        other = Tensor._coerce(other, self)
        data = self.data * other.data
        return Tensor.from_op(data, (self, other), lambda g: (
            Tensor._unbroadcast(g * other.data, self.shape),
            Tensor._unbroadcast(g * self.data, other.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._coerce(other, self)
        if np.any(other.data == 0):
            raise ZeroDivisionError("division by zero in tensor div")
        inv = 1.0 / other.data
        data = self.data * inv
        return Tensor.from_op(data, (self, other), lambda g: (
            Tensor._unbroadcast(g * inv, self.shape),
            Tensor._unbroadcast(-g * data * inv, other.shape)))

    def __rtruediv__(self, other):
        return Tensor._coerce(other, self) / self

    def __neg__(self):
        return Tensor.from_op(-self.data, (self,), lambda g: (-g,))

    def __pow__(self, p):
        p = float(p)
        data = self.data ** p
        return Tensor.from_op(data, (self,), lambda g: (g * p * self.data ** (p - 1.0),))

    def exp(self):
        data = np.exp(self.data)
        return Tensor.from_op(data, (self,), lambda g: (g * data,))

    def log(self):
        if np.any(self.data <= 0):
            raise ValueError("log of non-positive value")
        return Tensor.from_op(np.log(self.data), (self,), lambda g: (g / self.data,))

    def abs(self):
        # subgradient at 0 is 0
        return Tensor.from_op(np.abs(self.data), (self,),
                              lambda g: (g * np.sign(self.data),))

    def clamp_min(self, lo: float):
        # subgradient at the kink is 0
        data = np.maximum(self.data, lo)
        mask = (self.data > lo).astype(self.data.dtype)
        return Tensor.from_op(data, (self,), lambda g: (g * mask,))

    # -- reductions ---------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            if axis is None:
                return (np.broadcast_to(g, self.shape).astype(self.data.dtype),)
            gg = g
            if not keepdims:
                gg = np.expand_dims(gg, axis)
            return (np.broadcast_to(gg, self.shape).astype(self.data.dtype),)

        return Tensor.from_op(np.asarray(data), (self,), grad_fn)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.size
        else:
            n = int(np.prod([self.shape[a] for a in np.atleast_1d(axis)]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- linear algebra -----------------------------------------------

    def __matmul__(self, other):
        return matmul(self, other)

    # -- structural ops -----------------------------------------------

    def reshape(self, *shape):
        old = self.shape  # numpy raises ValueError for a size mismatch
        return Tensor.from_op(self.data.reshape(shape), (self,),
                              lambda g: (g.reshape(old),))

    def permute(self, *axes):
        inv = np.argsort(axes)
        return Tensor.from_op(np.ascontiguousarray(self.data.transpose(axes)), (self,),
                              lambda g: (g.transpose(tuple(inv)),))

    def __getitem__(self, key):
        data = self.data[key]

        def grad_fn(g):
            full = np.zeros_like(self.data)
            if all(isinstance(k, (int, np.integer, slice)) and not isinstance(k, bool)
                   for k in (key if isinstance(key, tuple) else (key,))):
                # a basic index never repeats an element
                full[key] = g
            else:
                np.add.at(full, key, g)
            return (full,)

        return Tensor.from_op(np.ascontiguousarray(data), (self,), grad_fn)

    # -- backward -----------------------------------------------------

    def backward(self, seed: Optional[np.ndarray] = None):
        backward(self, seed)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors, or a stack of them: two 3-D
    tensors with equal leading extents, one product per leading index."""
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ValueError("matmul expects two 2-D or two 3-D tensors")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"inner extent mismatch: {a.shape} @ {b.shape}")
    data = a.data @ b.data
    return Tensor.from_op(data, (a, b), lambda g: (
        g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along ``axis`` (negative counts from the end); other
    extents must agree, or numpy raises ``ValueError``."""
    rank = tensors[0].ndim
    if not -rank <= axis < rank:
        raise ValueError(f"concat axis {axis} out of range for rank {rank}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return Tensor.from_op(data, tuple(tensors), grad_fn)


def tpow(a: Tensor, b: Tensor) -> Tensor:
    """a ** b with gradients for both operands; requires a > 0."""
    if np.any(a.data <= 0):
        raise ValueError("tpow base must be positive")
    data = a.data ** b.data
    return Tensor.from_op(data, (a, b), lambda g: (
        Tensor._unbroadcast(g * b.data * a.data ** (b.data - 1.0), a.shape),
        Tensor._unbroadcast(g * data * np.log(a.data), b.shape)))


class Tape(NamedTuple):
    """The graph below a root in walk order, parents before children."""

    nodes: list

    @staticmethod
    def from_root(root: Tensor) -> "Tape":
        order: list[Tensor] = []
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
            elif node not in seen:
                seen.add(node)
                stack.append((node, True))
                for p in node._parents:
                    stack.append((p, False))
        return Tape(order)


def _freed(g):
    raise RuntimeError("backward through a graph a previous backward freed")


def backward(root: Tensor, seed: Optional[np.ndarray] = None) -> None:
    """Reverse accumulation from ``root`` over the graph below it; leaves
    receive summed gradients.  Each adjoint is cast to its node's dtype
    before it accumulates, so an f32 node never holds an f64 adjoint an
    f64 loss above it produced.  Nodes key the walk's sets and dicts by
    identity, which holds while ``Tensor`` keeps ``object``'s ``__eq__``.

    The walk frees the graph as it goes: once an op node's gradient
    function has run, or it got no adjoint, it drops its parents and its
    gradient function becomes ``_freed``.  So an array only the graph held
    dies once the walk is past every node that reads it; tensors the
    caller holds, the root among them, keep their ``data``.  A second
    backward through a freed node raises ``RuntimeError``, and so does a
    root that records no graph (built under ``no_grad`` or from tensors
    that need no gradient)."""
    if not root.requires_grad:
        raise RuntimeError("backward from a root that records no graph")
    if seed is None:
        if root.size != 1:
            raise ValueError("backward on a non-scalar root requires a seed gradient")
        seed = np.ones_like(root.data)
    seed = np.asarray(seed, dtype=root.data.dtype).reshape(root.data.shape)

    adjoint: dict[Tensor, np.ndarray] = {root: seed}
    nodes = Tape.from_root(root).nodes
    while nodes:
        node = nodes.pop()
        g = adjoint.pop(node, None)
        if node._grad_fn is None:
            if g is not None:       # a leaf: accumulate
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        if g is not None:
            for p, pg in zip(node._parents, node._grad_fn(g)):
                if pg is None or not p.requires_grad:
                    continue
                pg = pg.astype(p.data.dtype, copy=False)
                prev = adjoint.get(p)
                adjoint[p] = pg if prev is None else prev + pg
        node._parents, node._grad_fn = (), _freed


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5,
               max_coords: Optional[int] = None, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must build a scalar graph from ``x`` deterministically.  The error
    is ``|analytic - numeric| / max(1, |numeric|)`` maximised over coordinates.
    With ``max_coords`` set, a random subset of coordinates is differenced
    (the analytic gradient is still computed in full).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = Tensor(x.data.copy(), requires_grad=True, dtype=np.float64)
    out = f(x)
    if not np.all(np.isfinite(out.data)):
        raise FloatingPointError("non-finite forward value in grad_check")
    out.backward()
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    idx = np.arange(x.size)
    if max_coords is not None and max_coords < x.size:
        idx = np.random.default_rng(seed).choice(x.size, size=max_coords, replace=False)

    flat = x.data.ravel()
    aflat = analytic.ravel()
    worst = 0.0
    for i in idx:
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(Tensor(x.data, dtype=np.float64)).item()
        flat[i] = orig - eps
        lo = f(Tensor(x.data, dtype=np.float64)).item()
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise FloatingPointError("non-finite value in finite differencing")
        num = (hi - lo) / (2.0 * eps)
        worst = max(worst, abs(aflat[i] - num) / max(1.0, abs(num)))
    return float(worst)


# -- TNSR/1 persistence ----------------------------------------------

@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open ``path + ".tmp"`` for writing and rename it onto ``path`` once
    the block exits cleanly.  On an exception the temporary file is
    removed, so ``path`` holds the previous complete file, or none."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header: Sequence, rows) -> None:
    """Write ``header``, then ``rows`` (any iterable, read once), as one
    CSV file through ``atomic_open``: a float or ``np.float64`` as its
    ``repr``, ``None`` as an empty field, ``\\r\\n`` line ends.  An
    ``np.float32`` is no float and comes out short (``0.1``, where the
    float64 it widens to is ``0.10000000149011612``): pass floats."""
    with atomic_open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


_TNSR_MAGIC = b"TNSR"
_DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_CODE_FOR = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}


def write_record(fh, t) -> None:
    """Write an array to an open binary file as one TNSR/1 record
    (little-endian; dtypes other than f8/f4 are stored as f8)."""
    arr = t.data if isinstance(t, Tensor) else np.asarray(t)
    if arr.dtype not in _CODE_FOR:
        arr = arr.astype(np.float64)
    code = _CODE_FOR[arr.dtype]
    fh.write(_TNSR_MAGIC)
    fh.write(struct.pack("<BB", 1, code))
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes())


def read_record(fh, path) -> np.ndarray:
    """Read the next TNSR/1 record from an open binary file; every error
    names ``path``, the file being read."""
    if fh.read(4) != _TNSR_MAGIC:
        raise ValueError(f"{path}: not a TNSR record")
    try:
        version, code, rank = struct.unpack("<BBI", fh.read(6))
    except struct.error:
        raise ValueError(f"{path}: truncated TNSR header") from None
    size = os.fstat(fh.fileno()).st_size
    # checked before the read, which would otherwise ask for 4 * rank bytes
    if 4 * rank > size - fh.tell():
        raise ValueError(f"{path}: rank {rank} needs {4 * rank} shape bytes, "
                         f"the file has {size - fh.tell()} left")
    shape = struct.unpack(f"<{rank}I", fh.read(4 * rank))
    if version != 1:
        raise ValueError(f"{path}: unsupported TNSR version {version}")
    if code not in _DTYPE_CODES:
        raise ValueError(f"{path}: unknown dtype code {code}")
    dtype = _DTYPE_CODES[code]
    # exact integers: a header's extents may overflow int64 in a product
    want = math.prod(shape) * dtype.itemsize
    left = size - fh.tell()
    if want <= left:
        # straight into the array: no bytes object, no second copy
        arr = np.empty(shape, dtype)
        left = fh.readinto(arr)
        if left == want:
            return arr
    raise ValueError(f"{path}: shape {shape} needs {want} payload "
                     f"bytes, the file has {left} left")


def save_tensor(path, t) -> None:
    """Write an array as a TNSR/1 file: one record, renamed into place."""
    with atomic_open(path, "wb") as fh:
        write_record(fh, t)


def load_tensor(path) -> np.ndarray:
    """Read a TNSR/1 file back into a numpy array."""
    with open(path, "rb") as fh:
        arr = read_record(fh, path)
        extra = len(fh.read())
    if extra:
        raise ValueError(f"{path}: {extra} bytes after the TNSR payload")
    return arr
