"""Loss functions for the height models.

Huber regression loss, weighted cross-entropy over overlapping height bins,
the combined discrete/continuous loss, the two-parameter adaptive robust
loss (learnable shape and scale), and the distillation total loss with
teacher-consensus gating.

Targets are built in f64.  A loss meets them in its prediction's dtype:
per-pixel residuals and gradients take the prediction's dtype, and the
scalar loss value is f64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import nn
from .tensor import Tensor, tpow

LOG_FLOOR = 1e-12
CONSENSUS_EPS = 1e-6


# -- height binning ---------------------------------------------------

@dataclass
class HeightBinning:
    """K overlapping height intervals over the expected canopy range.

    ``base_edges`` are K+1 strictly ascending heights in meters; every base
    interval is expanded by ``overlap`` meters on each side (clipped at 0).
    """

    base_edges: np.ndarray
    overlap: float = 1.5

    def __post_init__(self):
        self.base_edges = np.asarray(self.base_edges, dtype=float)
        if self.base_edges.ndim != 1 or len(self.base_edges) < 2:
            raise ValueError("need at least 2 base edges")
        if not np.all(np.diff(self.base_edges) > 0):
            raise ValueError("base edges must be strictly ascending")
        if self.overlap < 0:
            raise ValueError("overlap must be non-negative")

    @property
    def k(self) -> int:
        return len(self.base_edges) - 1

    @staticmethod
    def default() -> "HeightBinning":
        # 10 bins of 6 m spanning 0-60 m, 1.5 m overlap each side
        return HeightBinning(np.arange(0.0, 61.0, 6.0), overlap=1.5)

    def expanded_intervals(self) -> np.ndarray:
        """(K, 2) array of expanded [lo, hi) intervals."""
        lo = np.maximum(self.base_edges[:-1] - self.overlap, 0.0)
        hi = self.base_edges[1:] + self.overlap
        return np.stack([lo, hi], axis=1)


def bin_assign(h: float, bins: HeightBinning) -> np.ndarray:
    """Uniform probability mass over every expanded interval containing h.

    Heights above the binning range clamp to the last bin; the result
    always sums to 1.
    """
    if h < 0:
        raise ValueError("height must be non-negative")
    eps = 1e-9
    hc = min(h, bins.base_edges[-1] - eps)
    iv = bins.expanded_intervals()
    member = (iv[:, 0] <= hc) & (hc < iv[:, 1])
    if not member.any():
        # above every expanded interval: clamp rule
        member[-1] = True
    out = member.astype(float)
    return out / out.sum()


def bin_assign_map(heights: np.ndarray, mask: np.ndarray,
                   bins: HeightBinning) -> "ClassTarget":
    """Rasterized bin assignment for a sparse height target map.

    Every nonzero-mask pixel gets exactly what ``bin_assign`` gives its
    height; the pixels are assigned in one broadcast test.
    """
    w, h = heights.shape
    valid = np.asarray(mask) != 0
    hv = np.asarray(heights, dtype=float)[valid]
    if np.any(hv < 0):
        raise ValueError("height must be non-negative")
    hc = np.minimum(hv, bins.base_edges[-1] - 1e-9)[:, None]
    iv = bins.expanded_intervals()
    member = (iv[:, 0] <= hc) & (hc < iv[:, 1])
    # above every expanded interval: clamp rule
    member[~member.any(axis=1), -1] = True
    out = member.astype(float)
    t = np.zeros((w, h, bins.k))
    t[valid] = out / out.sum(axis=1, keepdims=True)
    return ClassTarget(t=t, mask=mask.astype(float))


@dataclass
class ClassTarget:
    """True class probabilities per pixel with a validity mask."""

    t: np.ndarray      # W x H x K
    mask: np.ndarray   # W x H, 1 where a target exists

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.mask = np.asarray(self.mask, dtype=float)
        if self.t.shape[:2] != self.mask.shape:
            raise ValueError("target/mask shape mismatch")
        valid = self.mask > 0
        if valid.any():
            sums = self.t[valid].sum(axis=-1)
            if np.any(np.abs(sums - 1.0) > 1e-9):
                raise ValueError("masked-in targets must sum to 1")

    @property
    def n_valid(self) -> int:
        return int((self.mask > 0).sum())


# -- regression losses ------------------------------------------------

def huber(pred: Tensor, target: np.ndarray, mask: np.ndarray,
          delta: float = 3.0) -> Tensor:
    """Mean Huber loss over valid pixels; quadratic below delta, linear above."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    target = np.asarray(target, dtype=pred.dtype)
    mask = np.asarray(mask, dtype=pred.dtype)
    if pred.shape != target.shape or pred.shape != mask.shape:
        raise ValueError("shape mismatch in huber")
    n = mask.sum()
    if n == 0:
        raise ValueError("huber needs at least one valid pixel")

    r = pred.data - target
    a = np.abs(r)
    per = np.where(a < delta, 0.5 * r * r, delta * (a - 0.5 * delta))
    val = float((per * mask).sum() / n)
    dgrad = np.where(a < delta, r, delta * np.sign(r)) * mask / n
    return Tensor.from_op(np.asarray(val), (pred,),
                          lambda g: (dgrad * float(g),))


@dataclass
class AdaptiveLossState:
    """Learnable shape (alpha) and scale (c) of the adaptive robust loss.

    c stays positive by construction: c = softplus(c_raw) + 1e-6.
    """

    alpha: Tensor
    c_raw: Tensor

    @staticmethod
    def create(alpha: float = 2.0, c: float = 1.0) -> "AdaptiveLossState":
        if c <= 0:
            raise ValueError("c must be positive")
        # invert softplus so the initial scale comes out as requested
        raw = np.log(np.expm1(max(c - 1e-6, 1e-12)))
        return AdaptiveLossState(
            alpha=Tensor(np.asarray(float(alpha)), requires_grad=True),
            c_raw=Tensor(np.asarray(float(raw)), requires_grad=True))

    def c_tensor(self) -> Tensor:
        return nn.softplus(self.c_raw) + 1e-6

    @property
    def c_value(self) -> float:
        return float(self.c_tensor().data)

    @property
    def alpha_value(self) -> float:
        return float(self.alpha.data)


def adaptive_loss(r: Tensor, s: AdaptiveLossState,
                  mask: Optional[np.ndarray] = None) -> Tensor:
    """Mean adaptive robust loss over valid residuals.

    Analytic branches at alpha = 2 (scaled L2) and alpha = 0 (Cauchy-like
    log); the generic two-parameter form elsewhere.  Both alpha and c
    receive gradients.
    """
    c = s.c_tensor()
    if float(c.data) <= 0:
        raise ValueError("scale must be positive")
    z = (r / c) ** 2.0
    a = float(s.alpha.data)
    if abs(a - 2.0) < 1e-6:
        rho = z * 0.5
    elif abs(a) < 1e-6:
        rho = (z * 0.5 + 1.0).log()
    else:
        b = (s.alpha - 2.0).abs()
        rho = (b / s.alpha) * (tpow(z / b + 1.0, s.alpha * 0.5) - 1.0)
    if mask is None:
        return rho.mean() if rho.ndim else rho
    mask = np.asarray(mask, dtype=r.dtype)
    n = mask.sum()
    if n == 0:
        raise ValueError("adaptive_loss needs at least one valid pixel")
    return (rho * mask).sum() * (1.0 / n)


# -- classification losses --------------------------------------------

def batch_class_weights(target: ClassTarget) -> np.ndarray:
    """Inverse class-frequency weights from a single batch of targets.

    w_j = N_valid / count_j, with absent classes excluded (weight 0).
    """
    n = target.n_valid
    if n == 0:
        raise ValueError("no valid pixels in batch")
    valid = target.mask > 0
    counts = target.t[valid].sum(axis=0)
    w = np.zeros_like(counts)
    present = counts > 0
    w[present] = n / counts[present]
    return w


def weighted_cross_entropy(p: Tensor, target: ClassTarget,
                           w: np.ndarray) -> Tensor:
    """Class-weighted cross-entropy averaged over valid pixels."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError("class weights must be non-negative")
    n = target.n_valid
    if n == 0:
        raise ValueError("no valid pixels")
    if p.shape != target.t.shape:
        raise ValueError("probability/target shape mismatch")

    wt = (w * target.t * target.mask[:, :, None]).astype(p.dtype, copy=False)
    logp = np.log(p.data + LOG_FLOOR)
    val = float(-(wt * logp).sum() / n)
    dgrad = -wt / (p.data + LOG_FLOOR) / n
    return Tensor.from_op(np.asarray(val), (p,), lambda g: (dgrad * float(g),))


# -- combined and distillation losses ---------------------------------

@dataclass
class HyTecLossConfig:
    betas: tuple = (0.7, 0.7, 0.7, 1.0)
    alpha_cr: float = 1.0
    delta: float = 3.0
    consensus_tol: float = 0.10

    def __post_init__(self):
        if len(self.betas) != 4:
            raise ValueError(f"betas needs 4 values (3 auxiliary terms and "
                             f"the main term), got {len(self.betas)}")
        if any(b < 0 for b in self.betas) or self.alpha_cr < 0:
            raise ValueError("scale factors must be non-negative")
        if self.delta <= 0 or self.consensus_tol <= 0:
            raise ValueError("delta and consensus_tol must be positive")


def combined_cr_loss(probs: Tensor, reg: Tensor, target: ClassTarget,
                     target_h: np.ndarray, cfg: HyTecLossConfig,
                     adaptive_state: Optional[AdaptiveLossState] = None,
                     parts: Optional[dict] = None) -> Tensor:
    """Discrete/continuous loss (Eq. 5): weighted CE plus a scaled
    regression term, the adaptive robust loss when ``adaptive_state`` is
    given and Huber otherwise."""
    w = batch_class_weights(target)
    ce = weighted_cross_entropy(probs, target, w)
    if adaptive_state is not None:
        residual = reg - Tensor(target_h, dtype=reg.dtype)
        reg_loss = adaptive_loss(residual, adaptive_state, mask=target.mask)
    else:
        reg_loss = huber(reg, target_h, target.mask, cfg.delta)
    if parts is not None:
        parts["ce"] = float(ce.data)
        parts["reg"] = float(reg_loss.data)
    return ce + cfg.alpha_cr * reg_loss


def kd_teacher_consensus(t1: np.ndarray, t2: np.ndarray,
                         tol: float = 0.10) -> tuple:
    """Average of two teacher height maps where they relatively agree.

    Per pixel the symmetric relative difference d = |t1-t2| / (mean + 1e-6)
    gates validity at d < tol; the value is the plain average on valid
    pixels (0 elsewhere).
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    if t1.shape != t2.shape:
        raise ValueError("teacher map shape mismatch")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    mean = 0.5 * (t1 + t2)
    d = np.abs(t1 - t2) / (mean + CONSENSUS_EPS)
    valid = d < tol
    value = np.where(valid, mean, 0.0)
    return value, valid


def hytec_total_loss(aux_preds: Sequence[Tensor],
                     aux_targets: Sequence[tuple],
                     main_probs: Tensor, main_reg: Tensor,
                     target: ClassTarget, target_h: np.ndarray,
                     cfg: HyTecLossConfig,
                     adaptive_state: Optional[AdaptiveLossState] = None,
                     parts: Optional[dict] = None) -> Tensor:
    """Distillation total: scaled aux Huber terms plus the main CR loss.

    Aux targets are (value, mask) pairs at the aux resolutions; a level
    with an all-invalid mask contributes 0.
    """
    if len(aux_preds) != 3 or len(aux_targets) != 3:
        raise ValueError("expected three auxiliary levels")
    total = None
    part_vals = {}
    for i, (pred, (tv, tm)) in enumerate(zip(aux_preds, aux_targets)):
        tm = np.asarray(tm, dtype=float)
        if tm.sum() == 0:
            part_vals[f"aux{i + 1}"] = 0.0
            continue
        term = cfg.betas[i] * huber(pred, tv, tm, cfg.delta)
        part_vals[f"aux{i + 1}"] = float(term.data)
        total = term if total is None else total + term

    main = cfg.betas[3] * combined_cr_loss(main_probs, main_reg, target,
                                           target_h, cfg, adaptive_state,
                                           part_vals)
    total = main if total is None else total + main
    if parts is not None:
        parts.update(part_vals)
    return total
