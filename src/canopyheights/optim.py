"""Optimizers, learning-rate schedules, and parameter traversal.

Models are nested dataclasses holding Tensors; ``collect_tensors`` walks
them to build flat name -> Tensor registries for optimization and
checkpointing.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

import numpy as np

from .nn import BatchNormState
from .tensor import Tensor


def collect_tensors(obj, prefix: str = "") -> dict:
    """Flatten every trainable Tensor reachable from a model object."""
    out: dict[str, Tensor] = {}
    for name, item in _walk(obj, prefix):
        if isinstance(item, Tensor) and item.requires_grad:
            out[name] = item
    return out


def collect_state(obj, prefix: str = "") -> dict:
    """Flatten non-trainable state arrays (e.g. batch-norm running stats)."""
    out: dict[str, np.ndarray] = {}
    for name, item in _walk(obj, prefix):
        if isinstance(item, np.ndarray):
            out[name] = item
    return out


def _walk(obj, prefix: str) -> Iterator[tuple]:
    if isinstance(obj, (Tensor, np.ndarray)):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _walk(getattr(obj, f.name), f"{prefix}.{f.name}" if prefix else f.name)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _walk(item, f"{prefix}.{i}")
    elif isinstance(obj, dict):
        for k in sorted(obj):
            yield from _walk(obj[k], f"{prefix}.{k}")


def set_bn_mode(obj, mode: str) -> None:
    """Switch every BatchNormState under a model to train or eval."""
    if isinstance(obj, BatchNormState):
        obj.mode = mode
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            set_bn_mode(getattr(obj, f.name), mode)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            set_bn_mode(item, mode)
    elif isinstance(obj, dict):
        for item in obj.values():
            set_bn_mode(item, mode)


def load_into(model, arrays: dict) -> None:
    """Copy checkpointed arrays back into a model's tensors and state."""
    tensors = collect_tensors(model)
    state = collect_state(model)
    for name, arr in arrays.items():
        if name in tensors:
            if tensors[name].data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}")
            tensors[name].data[...] = arr
        elif name in state:
            state[name][...] = arr
        else:
            raise KeyError(f"unknown parameter {name}")


def export_arrays(model) -> dict:
    out = {name: t.data for name, t in collect_tensors(model).items()}
    out.update(collect_state(model))
    return out


class SGD:
    """Plain stochastic gradient descent over a parameter registry."""

    def __init__(self, params: dict, lr: float):
        self.params = params
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


class AdamW:
    """Adam with decoupled weight decay."""

    def __init__(self, params: dict, lr: float = 1e-4, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            mhat = self.m[k] / bc1
            vhat = self.v[k] / bc2
            p.data -= self.lr * (mhat / (np.sqrt(vhat) + self.eps)
                                 + self.weight_decay * p.data)

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def state_arrays(self) -> dict:
        """Moments as ``adam_m.<name>``/``adam_v.<name>``, step as ``adam_t``."""
        out = {f"adam_m.{k}": v for k, v in self.m.items()}
        out.update({f"adam_v.{k}": v for k, v in self.v.items()})
        out["adam_t"] = np.asarray(self.t)
        return out

    def load_state(self, arrays: dict) -> None:
        """Restore what ``state_arrays`` wrote; other names are ignored."""
        for name, arr in arrays.items():
            kind, _, key = name.partition(".")
            if kind == "adam_t":
                self.t = int(arr)
            elif kind == "adam_m":
                self.m[key] = arr.copy()
            elif kind == "adam_v":
                self.v[key] = arr.copy()


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
