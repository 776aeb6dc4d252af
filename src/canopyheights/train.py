"""Training loops for the convolutional models and the distilled hybrid
model.

Convolutional variants train with SGD plus cosine decay; the hybrid model
trains with AdamW under a linear warmup followed by cosine decay, against
a mix of sparse LiDAR targets and consensus maps from two frozen
single-modality teachers.  Each trainer builds each sample's targets
once per run and hands them to one shared loop with its model, lr
schedule and per-sample loss (``unet_sample_loss``, ``hytec_sample_loss``).
The loop emits a per-step loss trace, checkpoints every epoch with a
rolling keep-last window (the trace included, so a resumed run keeps its
history), and aborts on non-finite loss.

``UNET_CONFIGS`` maps each convolutional variant to its inputs, head and
loss, ``_model_input`` stacks the modalities a model config names,
``_forward`` runs either model family, ``_heights`` finds the height map
in either family's output, and ``_infer`` is the one inference behind
``predict_heights`` and ``teacher_heights``.  Batch norm follows
``tensor.no_grad`` (see ``nn``): a step's graph-recording forward uses
batch statistics, and ``_infer``, which records no graph, uses the
running statistics and changes no model.

Each batch is one graph: its tiles are stacked along rows (see ``nn``)
and run through one forward, each tile's outputs are row slices of the
batch outputs, each sample's loss is computed on its slices exactly as
for a lone sample, and one backward runs from the sum of the losses,
each scaled by 1 / batch size.  Inference runs one tile at a time;
``predict_maps`` and ``hytec_sample_targets`` run a model over many
tiles inside one ``nn.fixed_parameters`` block, so each parameter cast
and batch-norm fold is made once per call, and each map is the array a
lone ``predict_heights`` or ``teacher_heights`` call returns.

Precision: the optimizers own float64 master parameters, one contiguous
vector per optimizer (see ``optim``).  Each training step casts each
vector to float32 (``WORK_DTYPE``) in one call and runs its forward and
backward on views of that cast with float32 model inputs, and every
adjoint takes its node's dtype.  The f64 master views are put back
before the optimizers step, so each f32 gradient updates an f64 master
(mixed-precision training, Micikevicius et al. 2018, arXiv 1710.03740,
with f32 as the working precision): an update below f32's spacing at a
parameter's value still moves it.  Parameters, optimizer state,
batch-norm running statistics, checkpoints, ``TrainResult.params`` and
targets stay float64.

A U-Net prediction runs in ``WORK_DTYPE`` too: ``predict_heights`` hands
the forward float32 inputs inside ``no_grad``, each op reads its
parameters in its input's dtype (see ``nn``), and the map is widened to
float64 on return, so prediction files keep their format.  Teacher maps
and HyTeC predictions stay float64, for the reasons given at
``teacher_heights`` and ``predict_heights``.

This module alone knows the checkpoint format.  Each epoch is one file,
``epoch_NNNN.ckpt``: a ``CKPT/1 <count>`` line, then per array its name on
one UTF-8 line followed by a TNSR/1 record.  A save writes
``epoch_NNNN.ckpt.tmp`` and renames it into place (``tensor.atomic_open``),
so a crash part-way through leaves the previous epoch as the newest
checkpoint.
"""

from __future__ import annotations

import contextlib
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import nn, optim
from .hytec import HyTecConfig, HyTecOutputs, hytec_forward, init_hytec
from .losses import (AdaptiveLossState, ClassTarget, HeightBinning,
                     HyTecLossConfig, bin_assign_map, combined_cr_loss,
                     huber, hytec_total_loss, kd_teacher_consensus)
from .tensor import Tensor, atomic_open, no_grad, read_record, write_record
from .unet import (DualHeadOutput, UNetConfig, UNetParams, init_unet,
                   unet_forward)

# each convolutional variant's encoder inputs, dual-head flag and
# adaptive-loss flag; a teacher's encoder reads one modality
UNET_CONFIGS = {
    "2mou": (("s2", "s1"), False, False),
    "2mdu": (("s2", "s1"), True, False),
    "a2mdu": (("s2", "s1"), True, True),
    "teacher_s1": (("s1",), False, False),
    "teacher_s2": (("s2",), False, False),
}
UNET_ARCHS = tuple(UNET_CONFIGS)
TRACE_COLUMNS = ["step", "lr", "total", "aux1", "aux2", "aux3", "ce", "reg"]
# the dtype of a training step's forward and backward; masters stay f64
WORK_DTYPE = np.float32
# epoch checkpoints kept in a run's checkpoint directory, the newest ones
KEEP_LAST = 3


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
    base_lr: float = 1e-2                # SGD's; AdamW's follows lr_peak
    warmup_epochs: int = 20
    lr_start: float = 1e-6
    lr_peak: float = 1e-4
    seed: int = 0
    stem_width: int = 16
    loss: HyTecLossConfig = field(default_factory=HyTecLossConfig)
    bins: object = None
    checkpoint_dir: Optional[str] = None
    # learning rate for the loss's own scalars (adaptive alpha / scale);
    # kept far below the model lr so the scale cannot inflate and mute
    # the regression gradient before the network has fit the data
    adaptive_lr: float = 1e-5

    def __post_init__(self):
        for name in ("epochs", "batch_size", "stem_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got "
                                 f"{getattr(self, name)}")
        for name in ("base_lr", "adaptive_lr", "lr_start", "lr_peak",
                     "warmup_epochs"):
            if not getattr(self, name) >= 0:   # NaN fails too
                raise ValueError(f"{name} must not be negative, got "
                                 f"{getattr(self, name)}")


@dataclass
class TrainResult:
    params: object
    config: object
    adaptive: Optional[AdaptiveLossState]
    trace: list                    # rows matching TRACE_COLUMNS


def samples_from_tiles(tiles) -> list:
    """Adapt synthetic dataset tiles into training samples."""
    return [Sample(s2=t.s2, s1=t.s1, target_h=t.target,
                   mask=np.asarray(t.mask, dtype=float)) for t in tiles]


def make_unet(arch: str, rng: Optional[np.random.Generator],
              stem_width: int = 16, bins=None) -> tuple:
    """Fresh parameters and model configuration for a named variant;
    ``rng`` None draws nothing, for a restore (see ``init_unet``).  A
    dual-head variant given no ``bins`` takes the default binning."""
    if arch not in UNET_CONFIGS:
        raise ValueError(f"unknown architecture {arch!r}")
    inputs, dual, _ = UNET_CONFIGS[arch]
    if dual and bins is None:
        bins = HeightBinning.default()
    cfg = UNetConfig(inputs, stem_width, bins if dual else None)
    return init_unet(rng, cfg), cfg


def _model_input(batch: Sequence[Sample], cfg, dtype=np.float64) -> tuple:
    """The inputs a model takes from a batch of samples, each modality's
    tiles stacked along rows: HyTeC's optical tiles, or a U-Net's
    (first-encoder, second-encoder) pair of its config's modalities, None
    for a lone encoder's second; a sample lacking one is refused by name."""
    def stacked(modality: str) -> Tensor:
        tiles = [getattr(s, modality) for s in batch]
        if any(t is None for t in tiles):
            raise ValueError(f"the model reads {modality}; a sample lacks it")
        return Tensor(np.concatenate(tiles), dtype=dtype)
    if isinstance(cfg, HyTecConfig):
        return (stacked("s2"),)
    return (*map(stacked, cfg.inputs), None)[:2]


def _forward(params, cfg, batch: Sequence[Sample], dtype):
    """The model's outputs on a batch of samples (see ``_model_input``)."""
    model = hytec_forward if isinstance(cfg, HyTecConfig) else unet_forward
    return model(*_model_input(batch, cfg, dtype), params, cfg,
                 tiles=len(batch))


def _heights(out) -> Tensor:
    """The height map in either model family's output."""
    if isinstance(out, HyTecOutputs):
        out = out.main
    return out.height if isinstance(out, DualHeadOutput) else out


def _infer(params, cfg, sample: Sample, dtype) -> np.ndarray:
    """Height map of one sample as a plain array, computed in ``dtype``.
    It records no graph (``no_grad``), so every batch norm uses its
    running statistics, every op reads its parameters in ``dtype`` (see
    ``nn``) and the model is left exactly as it was."""
    with no_grad():
        return _heights(_forward(params, cfg, [sample], dtype)).data


def unet_sample_target(sample: Sample, cfg: UNetConfig) -> Optional[ClassTarget]:
    """The class target a dual-head model trains against; None for a
    single head."""
    if cfg.bins is None:
        return None
    return bin_assign_map(sample.target_h, sample.mask > 0, cfg.bins)


def unet_sample_loss(sample: Sample, target: Optional[ClassTarget], out,
                     loss_cfg: HyTecLossConfig,
                     adaptive: Optional[AdaptiveLossState],
                     parts: Optional[dict] = None) -> Tensor:
    """Per-sample loss on the sample's model output ``out``, matching the
    variant's head and loss pairing; ``target`` comes from
    ``unet_sample_target``.  A dual head regresses with the adaptive loss
    when ``adaptive`` is given, else with Huber."""
    if isinstance(out, DualHeadOutput):
        return combined_cr_loss(out.probs, out.height, target,
                                sample.target_h, loss_cfg,
                                adaptive_state=adaptive, parts=parts)
    loss = huber(out, sample.target_h, sample.mask, loss_cfg.delta)
    if parts is not None:
        parts["reg"] = float(loss.data)
    return loss


# -- checkpointing ----------------------------------------------------

# the names ``epoch_{epoch:04d}`` writes: four digits, or more without a
# leading zero
_EPOCH_RE = re.compile(r"^epoch_(\d{4}|[1-9]\d{4,})\.ckpt$")
_HEADER_RE = re.compile(rb"CKPT/1 (\d+)\n")


def _adaptive_tensors(adaptive: AdaptiveLossState) -> dict:
    """The adaptive loss's scalars by optimizer-registry and checkpoint name."""
    return {"adaptive.alpha": adaptive.alpha, "adaptive.c_raw": adaptive.c_raw}


def _checkpoint_arrays(model_arrays: dict, adaptive,
                       extra: Optional[dict] = None) -> dict:
    """``optim.export_arrays`` of a model, then the adaptive loss's
    scalars and ``extra``."""
    arrays = dict(model_arrays)
    if adaptive is not None:
        arrays.update((k, t.data) for k, t in _adaptive_tensors(adaptive).items())
    if extra:
        arrays.update(extra)
    return arrays


def _epoch_files(directory: str) -> list:
    """The epoch files in ``directory``, oldest epoch first."""
    return sorted((f for f in os.listdir(directory) if _EPOCH_RE.match(f)),
                  key=lambda f: int(_EPOCH_RE.match(f).group(1)))


def _write_arrays(path: str, arrays: dict) -> None:
    with atomic_open(path, "wb") as fh:
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
            try:
                name = name[:-1].decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: the name of array {i} is not "
                                 f"UTF-8") from None
            if name in arrays:
                raise ValueError(f"{path}: array {name!r} appears twice")
            arrays[name] = read_record(fh, path)
        extra = os.fstat(fh.fileno()).st_size - fh.tell()
    if extra:
        raise ValueError(f"{path}: {extra} bytes after its {count} arrays")
    return arrays


def save_checkpoint(directory: str, epoch: int, model, adaptive,
                    extra: Optional[dict] = None) -> str:
    """Write ``epoch_NNNN.ckpt`` under ``directory`` and return its path,
    then delete all but the newest ``KEEP_LAST`` epoch files."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"epoch_{epoch:04d}.ckpt")
    _write_arrays(path, _checkpoint_arrays(optim.export_arrays(model),
                                           adaptive, extra))
    for old in _epoch_files(directory)[:-KEEP_LAST]:
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
    for another arch), or holds one of another shape, raises ``ValueError``
    naming the file (and each such array) before anything is restored."""
    if os.path.isdir(path):
        found = latest_checkpoint(path)
        if found is None:
            raise FileNotFoundError(f"no checkpoint under {path}")
        path = found[1]
    extra = _read_arrays(path)
    model_arrays = optim.export_arrays(model)
    missing = sorted(model_arrays.keys() - extra.keys())
    if missing:
        raise ValueError(f"{path}: lacks {len(missing)} model arrays: "
                         f"{', '.join(missing)}")
    # every shape, the adaptive loss's too, is checked before any restore;
    # a tensor an optimizer holds is written into its master vector
    targets = _checkpoint_arrays(model_arrays, adaptive)
    optim.check_shapes(targets, extra, path)
    for name, data in targets.items():
        if name in extra:
            data[...] = extra.pop(name)
    return extra


# -- the shared training loop -----------------------------------------

def _tile_share(out, t: int, tiles: int):
    """Tile ``t``'s rows of every map in a row-stacked model output (a
    tensor, a list of them, or a dataclass of either)."""
    if isinstance(out, Tensor):
        rows = out.shape[0] // tiles
        return out[t * rows:(t + 1) * rows]
    if isinstance(out, list):
        return [_tile_share(o, t, tiles) for o in out]
    return type(out)(*(_tile_share(v, t, tiles) for v in vars(out).values()))


@contextlib.contextmanager
def _working_copies(optimizers: list):
    """Inside the block every tensor the optimizers own holds its view of
    one ``WORK_DTYPE`` cast of its optimizer's master vector; on exit, its
    master view again, the same array object as before the block."""
    masters = [(t, t.data) for opt in optimizers for t in opt.params.values()]
    for opt in optimizers:
        work = opt.views(opt.master.astype(WORK_DTYPE))
        for t, view in zip(opt.params.values(), work):
            t.data = view
    try:
        yield
    finally:
        for t, master in masters:
            t.data = master


def _backward_batch(out, batch: list, targets: list, sample_loss: Callable,
                    loss_cfg: HyTecLossConfig,
                    adaptive: Optional[AdaptiveLossState], step: int) -> list:
    """Each sample's loss on its share of the batch outputs ``out``, and
    one backward from their mean; returns the trace values after ``lr``.
    A non-finite loss raises ``TrainingDiverged``.  The graph dies during
    the backward, which frees it as it walks; ``total`` keeps its value."""
    total, agg = None, dict.fromkeys(TRACE_COLUMNS[3:], 0.0)
    for t, (sample, target) in enumerate(zip(batch, targets)):
        parts: dict = {}
        share = _tile_share(out, t, len(batch))
        loss = sample_loss(sample, target, share, loss_cfg, adaptive, parts)
        scaled = loss * (1.0 / len(batch))
        total = scaled if total is None else total + scaled
        for key in agg:
            agg[key] += parts.get(key, 0.0) / len(batch)
        if not np.isfinite(loss.data):
            h = _heights(share).data
            stats = {"height": (float(np.nanmin(h)), float(np.nanmax(h)))}
            raise TrainingDiverged(f"non-finite loss {float(loss.data)} at "
                                   f"step {step}; output ranges {stats}")
    total.backward()
    return [float(total.data), *agg.values()]


def _fit(samples: Sequence[Sample], targets: list, settings: TrainSettings,
         resume: bool, model, cfg, adaptive: Optional[AdaptiveLossState],
         optimizers: list, lr_at: Callable[[int], float],
         sample_loss: Callable) -> list:
    """Train ``model`` in place and return the trace.

    Each epoch sets the first optimizer's lr from ``lr_at`` and walks a
    seeded shuffle in batches.  A step runs ``_forward`` once on the
    batch, hands each sample's ``targets`` entry and share of the outputs
    to ``sample_loss`` with ``settings.loss`` and ``adaptive``, runs one
    backward from the sum of the losses scaled by the batch size, and
    steps every optimizer.  The forward and the backward run on f32
    working copies of the optimizers' tensors, and the f64 masters are
    back in place before the optimizers step: gradient functions read
    parameter arrays lazily, so the swap spans both.  Each epoch
    checkpoints the model, the adaptive loss, the optimizers' state and
    the trace so far.  A resumed run restores all of these and replays
    the shuffle history, so it continues exactly where the uninterrupted
    run would be.
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

    step = start_epoch * max(1, int(np.ceil(len(samples) / settings.batch_size)))
    for epoch in range(start_epoch, settings.epochs):
        lr = optimizers[0].lr = float(lr_at(epoch))
        order = order_rng.permutation(len(samples))
        for lo in range(0, len(order), settings.batch_size):
            idx = order[lo:lo + settings.batch_size]
            for opt in optimizers:
                opt.zero_grad()
            with _working_copies(optimizers):
                batch = [samples[k] for k in idx]
                values = _backward_batch(
                    _forward(model, cfg, batch, WORK_DTYPE), batch,
                    [targets[k] for k in idx], sample_loss, settings.loss,
                    adaptive, step)
            for opt in optimizers:
                opt.step()
            trace.append([step, lr, *values])
            step += 1
        if settings.checkpoint_dir:
            extra = {"trace": np.asarray(trace, dtype=float)}
            for opt in optimizers:
                extra.update(opt.state_arrays())
            save_checkpoint(settings.checkpoint_dir, epoch, model, adaptive,
                            extra=extra)
    return trace


def train_unet(samples: Sequence[Sample], settings: TrainSettings,
               resume: bool = False) -> TrainResult:
    """SGD + cosine-decay training for the convolutional variants."""
    rng = np.random.default_rng(settings.seed)
    params, cfg = make_unet(settings.arch, rng, settings.stem_width,
                            settings.bins)
    adaptive = (AdaptiveLossState.create() if UNET_CONFIGS[settings.arch][2]
                else None)

    optimizers = [optim.SGD(optim.collect_tensors(params), settings.base_lr)]
    if adaptive is not None:
        optimizers.append(optim.SGD(_adaptive_tensors(adaptive),
                                    settings.adaptive_lr))

    targets = [unet_sample_target(s, cfg) for s in samples]
    trace = _fit(samples, targets, settings, resume, params, cfg, adaptive,
                 optimizers,
                 lambda epoch: optim.cosine_lr(epoch, settings.epochs,
                                               settings.base_lr),
                 unet_sample_loss)
    return TrainResult(params, cfg, adaptive, trace)


# -- distillation -----------------------------------------------------

@dataclass
class Teacher:
    params: UNetParams
    config: UNetConfig
    modality: str                  # s1 | s2, the one input its config reads

    def __post_init__(self):
        if self.config.inputs != (self.modality,):
            raise ValueError(f"a {self.modality} teacher needs a config that "
                             f"reads {self.modality} alone, got inputs "
                             f"{self.config.inputs}")


def teacher_heights(teacher: Teacher, sample: Sample) -> np.ndarray:
    """Frozen-teacher inference as a plain float64 array (no gradient).
    Float64, not ``WORK_DTYPE``: the maps are distillation targets, and
    float32 maps move the distillation a student trains on."""
    return _infer(teacher.params, teacher.config, sample, np.float64)


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


def hytec_sample_targets(samples: Sequence[Sample], cfg: HyTecConfig,
                         teachers: Sequence[Teacher],
                         loss_cfg: HyTecLossConfig) -> list:
    """(aux consensus targets, class target) of each sample: the frozen
    teachers' pooled agreement and the binned LiDAR heights.  The teacher
    maps are ``teacher_heights`` of each sample, made in one
    ``nn.fixed_parameters`` block."""
    with nn.fixed_parameters():
        t_maps = [[teacher_heights(t, s) for t in teachers] for s in samples]
    return [(aux_targets_from_teachers(m[0], m[1], cfg.patch,
                                       loss_cfg.consensus_tol),
             bin_assign_map(s.target_h, s.mask > 0, cfg.bins))
            for s, m in zip(samples, t_maps)]


def hytec_sample_loss(sample: Sample, targets: tuple, out,
                      loss_cfg: HyTecLossConfig, adaptive: AdaptiveLossState,
                      parts: Optional[dict] = None) -> Tensor:
    """Distillation loss of one sample on its model outputs ``out``;
    ``targets`` comes from ``hytec_sample_targets``."""
    aux_t, target = targets
    return hytec_total_loss(out.aux, aux_t, out.main.probs, out.main.height,
                            target, sample.target_h, loss_cfg,
                            adaptive_state=adaptive, parts=parts)


def train_hytec(samples: Sequence[Sample], teachers: Sequence[Teacher],
                settings: TrainSettings, cfg: HyTecConfig,
                resume: bool = False) -> TrainResult:
    """AdamW + warmup/cosine distillation training for the hybrid model."""
    if len(teachers) != 2:
        raise ValueError("distillation needs exactly two teachers")
    rng = np.random.default_rng(settings.seed)
    params = init_hytec(rng, cfg)
    adaptive = AdaptiveLossState.create()

    registry = optim.collect_tensors(params)
    registry.update(_adaptive_tensors(adaptive))
    opt = optim.AdamW(registry, lr=settings.lr_peak)

    targets = hytec_sample_targets(samples, cfg, teachers, settings.loss)
    trace = _fit(samples, targets, settings, resume, params, cfg, adaptive,
                 [opt],
                 lambda epoch: optim.warmup_cosine_lr(
                     epoch, settings.warmup_epochs, settings.lr_start,
                     settings.lr_peak, settings.epochs),
                 hytec_sample_loss)
    return TrainResult(params, cfg, adaptive, trace)


def predict_heights(params, cfg, sample: Sample) -> np.ndarray:
    """Inference: the model's height map for one sample as a float64 array
    (see ``_infer``).  A U-Net runs in ``WORK_DTYPE`` and its map is
    widened on return; a height below float32's smallest subnormal
    (1.4e-45) would come back as 0, and trained U-Nets stay far above it.
    HyTeC runs in float64: its desk-scale heads output heights down to
    ~1e-47 m, which float32 would flush to 0, and float32 buys it no
    speed."""
    if isinstance(cfg, HyTecConfig):
        return _infer(params, cfg, sample, np.float64)
    return _infer(params, cfg, sample, WORK_DTYPE).astype(np.float64)


def predict_maps(params, cfg, samples: Sequence[Sample]) -> list:
    """``predict_heights`` of each sample, in order: each tile runs alone,
    so each map is the array a lone call returns, and all run in one
    ``nn.fixed_parameters`` block, so each parameter cast and batch-norm
    fold is made once for all of them."""
    with nn.fixed_parameters():
        return [predict_heights(params, cfg, s) for s in samples]
