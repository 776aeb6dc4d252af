"""Training loops for the convolutional models and the distilled hybrid
model.

Convolutional variants train with SGD plus cosine decay; the hybrid model
trains with AdamW under a linear warmup followed by cosine decay, against
a mix of sparse LiDAR targets and consensus maps from two frozen
single-modality teachers.  Both run one shared loop that builds each
sample's targets once per run, emits a per-step loss trace, checkpoints
every epoch with a rolling keep-last window (the trace included, so a
resumed run keeps its history), and aborts on non-finite loss.

This module alone knows the checkpoint format.  Each epoch is one file,
``epoch_NNNN.ckpt``: a ``CKPT/1 <count>`` line, then per array its name on
one UTF-8 line followed by a TNSR/1 record.  A save writes
``epoch_NNNN.ckpt.tmp`` and renames it into place, so a crash part-way
through leaves the previous epoch as the newest checkpoint.
"""

from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import optim
from .hytec import HyTecConfig, HyTecParams, hytec_forward, init_hytec
from .losses import (AdaptiveLossState, ClassTarget, HyTecLossConfig,
                     bin_assign_map, combined_cr_loss, huber,
                     hytec_total_loss, kd_teacher_consensus)
from .tensor import (Tape, Tensor, backward, no_grad, read_record,
                     write_record)
from .unet import (DualHeadOutput, UNetConfig, UNetParams, init_unet,
                   teacher_config, teacher_forward, unet_forward)

UNET_ARCHS = ("2mou", "2mdu", "a2mdu", "teacher_s1", "teacher_s2")
TRACE_COLUMNS = ["step", "lr", "total", "aux1", "aux2", "aux3", "ce", "reg"]


class TrainingDiverged(RuntimeError):
    """Raised when the loss turns non-finite; carries diagnostics."""


@dataclass
class Sample:
    """One training example: inputs plus a sparse height target."""

    s2: np.ndarray                 # W x H x 10
    s1: Optional[np.ndarray]       # W x H x 2
    target_h: np.ndarray           # W x H
    mask: np.ndarray               # W x H


@dataclass
class TrainSettings:
    arch: str
    epochs: int = 250
    batch_size: int = 12
    base_lr: Optional[float] = None      # default per optimizer family
    warmup_epochs: int = 20
    lr_start: float = 1e-6
    lr_peak: float = 1e-4
    weight_decay: float = 0.01
    seed: int = 0
    stem_width: int = 16
    loss: HyTecLossConfig = field(default_factory=HyTecLossConfig)
    bins: object = None
    checkpoint_dir: Optional[str] = None
    keep_last: int = 3
    # learning rate for the loss's own scalars (adaptive alpha / scale);
    # kept far below the model lr so the scale cannot inflate and mute
    # the regression gradient before the network has fit the data
    adaptive_lr: float = 1e-5


@dataclass
class TrainResult:
    params: object
    config: object
    adaptive: Optional[AdaptiveLossState]
    trace: list                    # rows matching TRACE_COLUMNS
    epochs_run: int


def samples_from_tiles(tiles, mask_filter=None) -> list:
    """Adapt synthetic dataset tiles into training samples."""
    out = []
    for t in tiles:
        mask = t.mask if mask_filter is None else mask_filter(t)
        out.append(Sample(s2=t.s2, s1=t.s1, target_h=t.target,
                          mask=np.asarray(mask, dtype=float)))
    return out


def make_unet(arch: str, rng: np.random.Generator,
              stem_width: int = 16, bins=None) -> tuple:
    """Model configuration and fresh parameters for a named variant."""
    if arch == "teacher_s1":
        cfg = teacher_config("s1", stem_width)
    elif arch == "teacher_s2":
        cfg = teacher_config("s2", stem_width)
    elif arch == "2mou":
        cfg = UNetConfig(stem_width=stem_width, head_kind="single")
    elif arch in ("2mdu", "a2mdu"):
        cfg = UNetConfig(stem_width=stem_width, head_kind="dual", bins=bins)
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    return init_unet(rng, cfg), cfg


def _model_input(sample: Sample, cfg: UNetConfig) -> tuple:
    """The (first-encoder, second-encoder) inputs a U-Net takes from a
    sample.  A single-encoder model reads the modality whose channel count
    its encoder was built for."""
    if cfg.dual_modality:
        return Tensor(sample.s2), Tensor(sample.s1)
    if cfg.in_channels_s2 == sample.s2.shape[-1]:
        return Tensor(sample.s2), None
    return Tensor(sample.s1), None


def unet_sample_target(sample: Sample, cfg: UNetConfig) -> Optional[ClassTarget]:
    """The class target a dual-head model trains against; None for a
    single head."""
    if cfg.head_kind != "dual":
        return None
    return bin_assign_map(sample.target_h, sample.mask > 0, cfg.bins)


def unet_sample_loss(sample: Sample, target: Optional[ClassTarget],
                     params: UNetParams, cfg: UNetConfig,
                     loss_cfg: HyTecLossConfig,
                     adaptive: Optional[AdaptiveLossState],
                     parts: Optional[dict] = None) -> Tensor:
    """Per-sample loss matching the variant's head and loss pairing;
    ``target`` comes from ``unet_sample_target``.  A dual head regresses
    with the adaptive loss when ``adaptive`` is given, else with Huber."""
    x2, x1 = _model_input(sample, cfg)
    out = unet_forward(x2, x1, params, cfg)
    if isinstance(out, DualHeadOutput):
        loss = combined_cr_loss(out.probs, out.height, target,
                                sample.target_h, loss_cfg,
                                adaptive_state=adaptive, parts=parts)
        if parts is not None:
            parts["height"] = out.height.data
    else:
        loss = huber(out, sample.target_h, sample.mask, loss_cfg.delta)
        if parts is not None:
            parts["reg"] = float(loss.data)
            parts["height"] = out.data
    return loss


# -- checkpointing ----------------------------------------------------

_EPOCH_RE = re.compile(r"^epoch_(\d{4})\.ckpt$")
_HEADER_RE = re.compile(rb"CKPT/1 (\d+)\n")


def _checkpoint_arrays(model, adaptive, extra: Optional[dict] = None) -> dict:
    arrays = dict(optim.export_arrays(model))
    if adaptive is not None:
        arrays["adaptive.alpha"] = adaptive.alpha.data
        arrays["adaptive.c_raw"] = adaptive.c_raw.data
    if extra:
        arrays.update(extra)
    return arrays


def _epoch_files(directory: str) -> list:
    return sorted(f for f in os.listdir(directory) if _EPOCH_RE.match(f))


def _write_arrays(path: str, arrays: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(b"CKPT/1 %d\n" % len(arrays))
        for name in sorted(arrays):
            fh.write(name.encode("utf-8") + b"\n")
            write_record(fh, arrays[name])


def _read_arrays(path: str) -> dict:
    with open(path, "rb") as fh:
        header = _HEADER_RE.fullmatch(fh.readline())
        if header is None:
            raise ValueError(f"{path}: not a checkpoint file")
        count = int(header.group(1))
        arrays = {}
        for i in range(count):
            name = fh.readline()
            if not name.endswith(b"\n"):
                raise ValueError(f"{path}: truncated after {i} of {count} "
                                 f"arrays")
            arrays[name[:-1].decode("utf-8")] = read_record(fh, path)
    return arrays


def save_checkpoint(directory: str, epoch: int, model, adaptive,
                    extra: Optional[dict] = None, keep_last: int = 3) -> str:
    """Write ``epoch_NNNN.ckpt`` under ``directory`` and return its path,
    then delete all but the newest ``keep_last`` epoch files."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"epoch_{epoch:04d}.ckpt")
    try:
        _write_arrays(path + ".tmp", _checkpoint_arrays(model, adaptive, extra))
    except BaseException:
        if os.path.exists(path + ".tmp"):
            os.remove(path + ".tmp")
        raise
    os.replace(path + ".tmp", path)
    for old in _epoch_files(directory)[:-keep_last]:
        os.remove(os.path.join(directory, old))
    return path


def latest_checkpoint(directory: str) -> Optional[tuple]:
    """(epoch, path) of the newest complete checkpoint, or None."""
    if not os.path.isdir(directory):
        return None
    found = _epoch_files(directory)
    if not found:
        return None
    last = found[-1]
    return int(_EPOCH_RE.match(last).group(1)), os.path.join(directory, last)


def load_checkpoint(path: str, model, adaptive=None) -> dict:
    """Restore model (and adaptive loss) arrays from one ``.ckpt`` file, or
    from the newest one in a checkpoints directory; returns leftover
    arrays.  A file that lacks any of the model's arrays (say, one trained
    for another arch) raises ``ValueError`` before anything is restored."""
    if os.path.isdir(path):
        found = latest_checkpoint(path)
        if found is None:
            raise FileNotFoundError(f"no checkpoint under {path}")
        path = found[1]
    extra = _read_arrays(path)
    model_names = set(optim.export_arrays(model))
    missing = sorted(model_names - set(extra))
    if missing:
        raise ValueError(f"{path}: lacks {len(missing)} model arrays: "
                         f"{', '.join(missing)}")
    optim.load_into(model, {name: extra.pop(name) for name in model_names})
    if adaptive is not None:
        for name in ("alpha", "c_raw"):
            if f"adaptive.{name}" in extra:
                getattr(adaptive, name).data[...] = extra.pop(f"adaptive.{name}")
    return extra


def write_trace(rows: Sequence[Sequence], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v
                        for v in row])


# -- the shared training loop -----------------------------------------

def _check_finite(value: float, step: int, parts: dict) -> None:
    if not np.isfinite(value):
        stats = {k: (float(np.nanmin(v)), float(np.nanmax(v)))
                 for k, v in parts.items() if isinstance(v, np.ndarray)}
        raise TrainingDiverged(
            f"non-finite loss {value} at step {step}; output ranges {stats}")


def _fit(samples: Sequence[Sample], settings: TrainSettings, resume: bool,
         model, adaptive: Optional[AdaptiveLossState], optimizers: list,
         lr_at: Callable[[int], float],
         sample_targets: Callable[[Sample], object],
         sample_loss: Callable[[Sample, object, dict], Tensor]) -> list:
    """Train ``model`` in place and return the trace.

    The samples and whatever their targets derive from are fixed for the
    run, so ``sample_targets`` builds each sample's targets once, before
    the first epoch, and every step hands them to ``sample_loss``.
    Each epoch sets the first optimizer's lr from ``lr_at``, walks a
    seeded shuffle in batches, backpropagates each sample's loss scaled by
    the batch size, steps every optimizer, and checkpoints the model, the
    adaptive loss, the optimizers' state and the trace so far.  A resumed
    run restores all of these and replays the shuffle history, so it
    continues exactly where the uninterrupted run would be.
    """
    start_epoch, trace = 0, []
    if resume and settings.checkpoint_dir:
        found = latest_checkpoint(settings.checkpoint_dir)
        if found:
            start_epoch = found[0] + 1
            extra = load_checkpoint(found[1], model, adaptive)
            for opt in optimizers:
                opt.load_state(extra)
            if "trace" in extra:
                trace = [[int(row[0]), *map(float, row[1:])] for row in
                         extra["trace"].reshape(-1, len(TRACE_COLUMNS))]

    order_rng = np.random.default_rng(settings.seed + 1)
    # replay the shuffle history so a resumed run sees the same stream
    for _ in range(start_epoch):
        order_rng.permutation(len(samples))

    targets = [sample_targets(s) for s in samples]
    step = start_epoch * max(1, int(np.ceil(len(samples) / settings.batch_size)))
    for epoch in range(start_epoch, settings.epochs):
        lr = optimizers[0].lr = float(lr_at(epoch))
        order = order_rng.permutation(len(samples))
        for lo in range(0, len(order), settings.batch_size):
            batch = order[lo:lo + settings.batch_size]
            for opt in optimizers:
                opt.zero_grad()
            total = 0.0
            agg = dict.fromkeys(TRACE_COLUMNS[3:], 0.0)
            for k in batch:
                parts: dict = {}
                loss = sample_loss(samples[k], targets[k], parts)
                scaled = loss * (1.0 / len(batch))
                backward(Tape.from_root(scaled), scaled)
                total += float(scaled.data)
                for key in agg:
                    agg[key] += parts.get(key, 0.0) / len(batch)
                _check_finite(float(loss.data), step, parts)
            for opt in optimizers:
                opt.step()
            trace.append([step, lr, total, *agg.values()])
            step += 1
        if settings.checkpoint_dir:
            extra = {"trace": np.asarray(trace, dtype=float)}
            for opt in optimizers:
                extra.update(opt.state_arrays())
            save_checkpoint(settings.checkpoint_dir, epoch, model, adaptive,
                            extra=extra, keep_last=settings.keep_last)
    return trace


def train_unet(samples: Sequence[Sample], settings: TrainSettings,
               resume: bool = False) -> TrainResult:
    """SGD + cosine-decay training for the convolutional variants."""
    if settings.arch not in UNET_ARCHS:
        raise ValueError(f"not a convolutional variant: {settings.arch!r}")
    rng = np.random.default_rng(settings.seed)
    params, cfg = make_unet(settings.arch, rng, settings.stem_width,
                            settings.bins)
    adaptive = AdaptiveLossState.create() if settings.arch == "a2mdu" else None

    base_lr = settings.base_lr if settings.base_lr is not None else 1e-2
    optimizers = [optim.SGD(optim.collect_tensors(params), base_lr)]
    if adaptive is not None:
        optimizers.append(optim.SGD({"adaptive.alpha": adaptive.alpha,
                                     "adaptive.c_raw": adaptive.c_raw},
                                    settings.adaptive_lr))

    trace = _fit(samples, settings, resume, params, adaptive, optimizers,
                 lambda epoch: optim.cosine_lr(epoch, settings.epochs, base_lr),
                 lambda sample: unet_sample_target(sample, cfg),
                 lambda sample, target, parts: unet_sample_loss(
                     sample, target, params, cfg, settings.loss, adaptive,
                     parts))
    return TrainResult(params, cfg, adaptive, trace, settings.epochs)


# -- distillation -----------------------------------------------------

@dataclass
class Teacher:
    params: UNetParams
    config: UNetConfig
    modality: str                  # s1 | s2


def teacher_heights(teacher: Teacher, sample: Sample) -> np.ndarray:
    """Frozen-teacher inference as a plain array (no gradient)."""
    x, _ = _model_input(sample, teacher.config)
    optim.set_bn_mode(teacher.params, "eval")
    with no_grad():
        return teacher_forward(x, teacher.params, teacher.config).data


def _block_reduce(value: np.ndarray, mask: np.ndarray, factor: int) -> tuple:
    """Masked average pooling; a coarse pixel is valid when at least half
    of its covered fine pixels are."""
    w, h = value.shape
    v = (value * mask).reshape(w // factor, factor, h // factor, factor)
    m = mask.reshape(w // factor, factor, h // factor, factor)
    vsum = v.sum(axis=(1, 3))
    frac = m.sum(axis=(1, 3)) / factor ** 2
    out_mask = frac >= 0.5
    out = np.where(out_mask, vsum / np.maximum(m.sum(axis=(1, 3)), 1), 0.0)
    return out, out_mask.astype(float)


def aux_targets_from_teachers(t1_map: np.ndarray, t2_map: np.ndarray,
                              patch: int, tol: float) -> list:
    """Consensus height maps pooled to the three auxiliary resolutions."""
    value, valid = kd_teacher_consensus(t1_map, t2_map, tol)
    out = []
    for factor in (patch, patch // 2, patch // 4):
        out.append(_block_reduce(value, valid.astype(float), factor))
    return out


def hytec_sample_targets(sample: Sample, cfg: HyTecConfig,
                         teachers: Sequence[Teacher],
                         loss_cfg: HyTecLossConfig) -> tuple:
    """(aux consensus targets, class target) of one sample: the frozen
    teachers' pooled agreement and the binned LiDAR heights."""
    t_maps = [teacher_heights(t, sample) for t in teachers]
    aux_t = aux_targets_from_teachers(t_maps[0], t_maps[1], cfg.patch,
                                      loss_cfg.consensus_tol)
    return aux_t, bin_assign_map(sample.target_h, sample.mask > 0, cfg.bins)


def hytec_sample_loss(sample: Sample, targets: tuple, params: HyTecParams,
                      cfg: HyTecConfig, loss_cfg: HyTecLossConfig,
                      adaptive: AdaptiveLossState,
                      parts: Optional[dict] = None) -> Tensor:
    """Distillation loss of one sample; ``targets`` comes from
    ``hytec_sample_targets``."""
    aux_t, target = targets
    out = hytec_forward(Tensor(sample.s2), params, cfg)
    loss = hytec_total_loss(out.aux, aux_t, out.main.probs, out.main.height,
                            target, sample.target_h, loss_cfg,
                            adaptive_state=adaptive, parts=parts)
    if parts is not None:
        parts["height"] = out.main.height.data
    return loss


def train_hytec(samples: Sequence[Sample], teachers: Sequence[Teacher],
                settings: TrainSettings, cfg: Optional[HyTecConfig] = None,
                resume: bool = False) -> TrainResult:
    """AdamW + warmup/cosine distillation training for the hybrid model."""
    if len(teachers) != 2:
        raise ValueError("distillation needs exactly two teachers")
    rng = np.random.default_rng(settings.seed)
    if cfg is None:
        cfg = HyTecConfig()
    params = init_hytec(rng, cfg)
    adaptive = AdaptiveLossState.create()

    registry = optim.collect_tensors(params)
    registry["adaptive.alpha"] = adaptive.alpha
    registry["adaptive.c_raw"] = adaptive.c_raw
    opt = optim.AdamW(registry, lr=settings.lr_peak,
                      weight_decay=settings.weight_decay)

    trace = _fit(samples, settings, resume, params, adaptive, [opt],
                 lambda epoch: optim.warmup_cosine_lr(
                     epoch, settings.warmup_epochs, settings.lr_start,
                     settings.lr_peak, settings.epochs),
                 lambda sample: hytec_sample_targets(
                     sample, cfg, teachers, settings.loss),
                 lambda sample, targets, parts: hytec_sample_loss(
                     sample, targets, params, cfg, settings.loss, adaptive,
                     parts))
    return TrainResult(params, cfg, adaptive, trace, settings.epochs)


def predict_heights(params, cfg, sample: Sample) -> np.ndarray:
    """Inference: the model's height map for one sample, eval-mode."""
    optim.set_bn_mode(params, "eval")
    with no_grad():
        if isinstance(cfg, HyTecConfig):
            return hytec_forward(Tensor(sample.s2), params, cfg).main.height.data
        out = unet_forward(*_model_input(sample, cfg), params, cfg)
    return out.height.data if isinstance(out, DualHeadOutput) else out.data
