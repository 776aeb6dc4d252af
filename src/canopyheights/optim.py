"""Optimizers, learning-rate schedules, and parameter traversal.

Models are nested dataclasses holding Tensors; ``collect_tensors`` walks
them to build flat name -> Tensor registries for optimization and
checkpointing.

Each optimizer owns its tensors' storage as one contiguous f64 master
vector, so AdamW steps and ``train._working_copies`` casts all of it in
whole-vector numpy calls.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Iterator

import numpy as np

from .tensor import Tensor

# AdamW's (beta1, beta2), epsilon and decoupled weight decay
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01


def collect_tensors(obj) -> dict:
    """Flatten every trainable Tensor reachable from a model object."""
    return {name: item for name, item in _walk(obj)
            if isinstance(item, Tensor) and item.requires_grad}


def collect_state(obj) -> dict:
    """Flatten non-trainable state arrays (e.g. batch-norm running stats)."""
    return {name: item for name, item in _walk(obj)
            if isinstance(item, np.ndarray)}


def _walk(obj, prefix: str = "") -> Iterator[tuple]:
    """(name, object) of ``obj`` and of everything reachable from it
    through dataclass fields, lists, tuples and dicts (in key order),
    parents before their members."""
    yield prefix, obj
    if isinstance(obj, (Tensor, np.ndarray)):
        return
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _walk(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _walk(item, f"{prefix}.{i}")
    elif isinstance(obj, dict):
        for k in sorted(obj):
            yield from _walk(obj[k], f"{prefix}.{k}")


def set_bn_mode(obj, mode: str) -> None:
    """Does nothing: batch norm follows ``tensor.no_grad`` and keeps no
    mode (see ``nn``).  Kept because ``perfbench/workloads.py`` calls it;
    it goes once the benchmark drops that call."""


def check_shapes(targets: dict, arrays: dict, source: str) -> None:
    """Raise one ``ValueError`` naming ``source`` and every array of
    ``arrays`` whose shape differs from its namesake's in ``targets``."""
    bad = [f"{name} {np.shape(arr)} (expected {targets[name].shape})"
           for name, arr in sorted(arrays.items())
           if name in targets and np.shape(arr) != targets[name].shape]
    if bad:
        raise ValueError(f"{source}: shape mismatch for {len(bad)} arrays: "
                         f"{', '.join(bad)}")


def export_arrays(model) -> dict:
    out = {name: t.data for name, t in collect_tensors(model).items()}
    out.update(collect_state(model))
    return out


# every live optimizer, so that no tensor is taken over twice
_live = weakref.WeakSet()


class _Optimizer:
    """Takes over its tensors' storage: their f64 arrays are concatenated
    into one contiguous ``master`` vector, and each ``Tensor.data`` becomes
    a reshaped view of it, so a whole-vector operation (a step, a cast)
    reaches every tensor at once.  A tensor that a live optimizer already
    holds raises ``ValueError``."""

    def __init__(self, params: dict):
        held = {id(t) for opt in _live for t in opt.params.values()}
        for name, t in params.items():
            if id(t) in held:
                raise ValueError(f"{name} is already held by an optimizer")
            held.add(id(t))
        arrays = [t.data for t in params.values()]
        self.params = params
        self.master = np.concatenate(arrays, axis=None)
        ends = np.cumsum([a.size for a in arrays], dtype=int).tolist()
        self._spans = [(hi - a.size, hi, a.shape)
                       for a, hi in zip(arrays, ends)]
        for t, view in zip(params.values(), self.views(self.master)):
            t.data = view
        _live.add(self)

    def views(self, vector: np.ndarray) -> list:
        """Each tensor's reshaped view of a vector laid out like ``master``,
        in registry order."""
        return [vector[lo:hi].reshape(shape) for lo, hi, shape in self._spans]


class SGD(_Optimizer):
    """Plain stochastic gradient descent over a parameter registry.  The
    step stays a loop over the tensors' views: gathering the gradients
    into one vector costs what a whole-vector update would save."""

    def __init__(self, params: dict, lr: float):
        super().__init__(params)
        self.lr = lr

    def step(self):
        for t in self.params.values():
            if t.grad is not None:
                t.data -= self.lr * t.grad

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def state_arrays(self) -> dict:
        """Checkpoint arrays of the optimizer's own state (SGD has none)."""
        return {}

    def load_state(self, arrays: dict) -> None:
        pass


class AdamW(_Optimizer):
    """Adam with decoupled weight decay (Loshchilov & Hutter 2019, arXiv
    1711.05101) at the paper's ``ADAM_BETAS``, ``ADAM_EPS`` and ``WEIGHT_DECAY``.

    The moments are two vectors laid out like ``master``; ``m`` and ``v``
    map each parameter name to its views of them.  A step gathers the
    gradients of each run of adjacent tensors that have them (one run when
    every tensor has a gradient) with one ``concatenate`` and updates the
    run in about fifteen whole-vector calls.  Each call is an operation of
    the per-tensor formula on the same operands and dtypes, so the results
    are the same bits as long as the gradients share one dtype (as the f32
    gradients of a training step do); a tensor without a gradient keeps
    its value and moments.  The scratch vectors live for one step only."""

    def __init__(self, params: dict, lr: float = 1e-4):
        super().__init__(params)
        self.lr = lr
        self.t = 0
        self._m = np.zeros_like(self.master)
        self._v = np.zeros_like(self.master)
        self.m = dict(zip(params, self.views(self._m)))
        self.v = dict(zip(params, self.views(self._v)))

    def _grad_runs(self) -> list:
        """[lo, hi, grads] of each maximal run of adjacent tensors that have
        gradients."""
        runs, end = [], None
        for (lo, hi, shape), t in zip(self._spans, self.params.values()):
            g = t.grad
            if g is None:
                continue
            if g.shape != shape:
                name = next(k for k, u in self.params.items() if u is t)
                raise ValueError(f"gradient of {name} has shape {g.shape}, "
                                 f"its tensor {shape}")
            if lo != end:
                grads = []
                runs.append([lo, hi, grads])
            runs[-1][1] = end = hi
            grads.append(g)
        return runs

    def step(self):
        self.t += 1
        b1, b2 = ADAM_BETAS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for lo, hi, grads in self._grad_runs():
            g = np.concatenate(grads, axis=None)
            w, m, v = self.master[lo:hi], self._m[lo:hi], self._v[lo:hi]
            # m = b1 * m + (1 - b1) * g, the product in g's dtype
            m *= b1
            scratch = np.multiply(g, 1 - b1)
            m += scratch
            # v = b2 * v + (1 - b2) * g * g
            v *= b2
            np.multiply(g, 1 - b2, out=scratch)
            scratch *= g
            v += scratch
            # w -= lr * (m / bc1 / (sqrt(v / bc2) + eps) + weight_decay * w)
            upd = np.divide(m, bc1)
            denom = np.divide(v, bc2)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            upd /= denom
            np.multiply(w, WEIGHT_DECAY, out=denom)
            upd += denom
            upd *= self.lr
            w -= upd

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def state_arrays(self) -> dict:
        """Moments as ``adam_m.<name>``/``adam_v.<name>`` (live views, which
        the next step overwrites), step as ``adam_t``."""
        out = {f"adam_m.{k}": v for k, v in self.m.items()}
        out.update({f"adam_v.{k}": v for k, v in self.v.items()})
        out["adam_t"] = np.asarray(self.t)
        return out

    def load_state(self, arrays: dict) -> None:
        """Restore what ``state_arrays`` wrote; other names are ignored.  A
        moment whose name matches no parameter, or whose shape differs from
        the parameter's, raises ``ValueError`` before anything is restored."""
        moments = {f"adam_{kind}.{k}": a
                   for kind, views in (("m", self.m), ("v", self.v))
                   for k, a in views.items()}
        unknown = [name for name in sorted(arrays)
                   if name.startswith(("adam_m.", "adam_v."))
                   and name not in moments]
        if unknown:
            raise ValueError(f"moments of no parameter: {', '.join(unknown)}")
        check_shapes(moments, arrays, "optimizer state")
        for name, arr in arrays.items():
            if name == "adam_t":
                self.t = int(arr)
            elif name in moments:
                moments[name][...] = arr


def cosine_lr(epoch: float, max_epochs: int, base_lr: float) -> float:
    """Cosine decay from base_lr to 0 over max_epochs."""
    frac = min(max(epoch / max_epochs, 0.0), 1.0)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * frac))


def warmup_cosine_lr(epoch: float, warmup_epochs: int = 20,
                     lr_start: float = 1e-6, lr_peak: float = 1e-4,
                     max_epochs: int = 250) -> float:
    """Linear warmup from lr_start to lr_peak, then cosine decay to 0."""
    if epoch <= warmup_epochs:
        frac = epoch / warmup_epochs if warmup_epochs else 1.0
        return lr_start + (lr_peak - lr_start) * frac
    return cosine_lr(epoch - warmup_epochs, max_epochs - warmup_epochs, lr_peak)
