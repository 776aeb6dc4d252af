"""Command-line entry point tying the pipeline together.

Subcommands: ``synth`` (generate a desk-scale dataset), ``filter``
(LiDAR shot quality filter), ``composite`` (median compositing),
``grid`` (sampling grid of the filtered shots), ``train`` (all variants),
``eval`` (inference + reports), and ``gsi`` (sharpness analysis of
predicted maps).  Everything is seeded; single-threaded runs are
byte-reproducible.  Every output file is written under a temporary name
and renamed into place once complete (``tensor.atomic_open``), so a
crashed stage leaves the previous file, or none, for the next stage to
read.  Each report is one ``tensor.write_csv`` call, a missing statistic
``None``.  ``CANOPY_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import glob
import itertools
import logging
import os
import re
import sys

import numpy as np

from . import config as cfgmod
from . import datapipe as dp
from . import metrics as mt
from . import train as tr
from .hytec import HyTecConfig, init_hytec
from .losses import HeightBinning, HyTecLossConfig
from .tensor import load_tensor, save_tensor, write_csv

log = logging.getLogger("canopyheights")

STACK_FRAMES = 4


def _bins_from_config(cfg) -> HeightBinning:
    return HeightBinning(np.array(cfg.floats("loss", "bin_edges")),
                         overlap=cfg.get("loss", "overlap"))


# -- dataset directory layout -----------------------------------------

TILE_PARTS = ("s2", "s1", "heights", "target", "mask")


def _indexed(directory: str, prefix: str, suffix: str) -> list:
    """Paths of the files ``<prefix><N><suffix>`` in ``directory`` in the
    order of the integer N, so ``tile_1000`` follows ``tile_999``."""
    name = re.compile(re.escape(prefix) + r"(\d+)" + re.escape(suffix))
    found = ((name.fullmatch(os.path.basename(p)), p) for p in glob.glob(
        os.path.join(glob.escape(directory), f"{prefix}*{suffix}")))
    return [p for _, p in sorted((int(m.group(1)), p) for m, p in found if m)]


def _refuse_foreign(directory: str, prefix: str, suffix: str, n: int,
                    what: str) -> None:
    """``ValueError`` naming a file ``<prefix><N><suffix>`` in ``directory``
    that a run writing its ``n`` files ``<prefix>000<suffix>`` ... would not
    overwrite: it would join that run's outputs unnoticed."""
    ours = {f"{prefix}{i:03d}{suffix}" for i in range(n)}
    for path in _indexed(directory, prefix, suffix):
        if os.path.basename(path) not in ours:
            raise ValueError(f"{path} is not {what} of this run's {n};"
                             " remove it or choose another --out")


def write_dataset(tiles, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, t in enumerate(tiles):
        for part in TILE_PARTS:
            save_tensor(os.path.join(out_dir, f"tile_{i:03d}.{part}.tnsr"),
                        np.asarray(getattr(t, part), dtype=float))
    dp.shots_to_csv(np.concatenate([t.shots for t in tiles]),
                    os.path.join(out_dir, "shots.csv"))
    write_csv(os.path.join(out_dir, "labels.csv"), ["tile", "shot", "label"],
              ([i, j, lab] for i, t in enumerate(tiles)
               for j, lab in enumerate(t.shot_labels)))
    write_csv(os.path.join(out_dir, "manifest.csv"),
              ["tile", "xmin", "ymin", "xmax", "ymax", "n_shots"],
              ([i, *t.bounds, len(t.shots)] for i, t in enumerate(tiles)))


def read_dataset(dataset_dir: str) -> list:
    paths = _indexed(dataset_dir, "tile_", ".s2.tnsr")
    if not paths:
        raise FileNotFoundError(f"no tiles under {dataset_dir}")
    tiles = []
    for p in paths:
        stem = p[:-len(".s2.tnsr")]
        parts = {part: load_tensor(f"{stem}.{part}.tnsr")
                 for part in TILE_PARTS}
        extents = parts["s2"].shape[:2]
        for part, arr in parts.items():
            if arr.shape[:2] != extents:
                raise ValueError(f"{stem}.{part}.tnsr: extents {arr.shape[:2]}"
                                 f" differ from its s2's {extents}")
        tiles.append(dp.SynthTile(
            parts["s2"], parts["s1"], parts["heights"], parts["target"],
            parts["mask"] > 0, np.rec.fromrecords([], dtype=dp.SHOT_DTYPE),
            shot_labels=[], bounds=()))
    return tiles


def _samples(cfg) -> list:
    """One deterministic crop (with flips) per dataset tile at the model
    size; train, eval and gsi all see the same crops."""
    size = cfg.get("model", "input_size")
    rng = np.random.default_rng(cfg.get("run", "seed") + 17)
    out = []
    for t in read_dataset(cfg.get("data", "dataset_dir")):
        w, h = t.s2.shape[:2]
        if not 1 <= size <= min(w, h):
            raise ValueError(f"[model] input_size must lie in [1, {min(w, h)}]"
                             f" for {w} x {h} px dataset tiles, got {size}")
        (s2, s1, th, m), _ = dp.sample_patch(
            [t.s2, t.s1, t.target, np.asarray(t.mask, dtype=float)],
            size, rng)
        out.append(tr.Sample(s2=s2, s1=s1, target_h=th, mask=m))
    return out


# -- subcommands ------------------------------------------------------

def cmd_synth(cfg, out_dir: str) -> None:
    seed = cfg.get("run", "seed")
    n_tiles = cfg.get("data", "n_tiles")
    _refuse_foreign(out_dir, "tile_", ".s2.tnsr", n_tiles, "a tile")
    tiles = dp.synth_dataset(n_tiles, cfg.get("data", "tile_size"), seed,
                             shots_per_tile=cfg.get("data", "shots_per_tile"),
                             violation_rate=cfg.get("data", "violation_rate"))
    write_dataset(tiles, out_dir)
    # a small noisy time-series stack over tile 0 for compositing runs
    rng = np.random.default_rng(seed + 1)
    stack_dir = os.path.join(out_dir, "stack")
    os.makedirs(stack_dir, exist_ok=True)
    base = tiles[0].s2
    for k in range(STACK_FRAMES):
        frame = base + rng.normal(scale=0.02, size=base.shape)
        mask = rng.random(base.shape[:2]) > 0.1
        save_tensor(os.path.join(stack_dir, f"frame_{k}.tnsr"), frame)
        save_tensor(os.path.join(stack_dir, f"mask_{k}.tnsr"),
                    mask.astype(float))
    log.info("wrote %d tiles to %s", len(tiles), out_dir)


def cmd_filter(cfg, out_dir: str) -> None:
    shots = dp.shots_from_csv(
        os.path.join(cfg.get("data", "dataset_dir"), "shots.csv"))
    retained, counts = dp.filter_gedi(shots)
    os.makedirs(out_dir, exist_ok=True)
    dp.shots_to_csv(retained, os.path.join(out_dir, "retained.csv"))
    write_csv(os.path.join(out_dir, "filter_report.csv"), ["rule", "rejected"],
              [*([rule, counts[rule]] for rule in dp.FILTER_RULES),
               ["retained", len(retained)]])
    log.info("retained %d of %d shots", len(retained), len(shots))


def cmd_composite(cfg, out_dir: str) -> None:
    stack_dir = os.path.join(cfg.get("data", "dataset_dir"), "stack")
    frames = _indexed(stack_dir, "frame_", ".tnsr")
    if not frames:
        raise FileNotFoundError(f"no frames under {stack_dir}")
    masks = [os.path.join(stack_dir, os.path.basename(f).replace(
        "frame_", "mask_", 1)) for f in frames]
    stack = dp.ImageStack(frames=[load_tensor(f) for f in frames],
                          masks=[load_tensor(m) > 0.5 for m in masks])
    comp, missing = dp.median_composite(stack)
    os.makedirs(out_dir, exist_ok=True)
    save_tensor(os.path.join(out_dir, "composite.tnsr"), comp)
    write_csv(os.path.join(out_dir, "composite_report.csv"),
              ["frames", "missing_pixels"], [[len(frames), missing]])
    log.info("composited %d frames, %d missing pixels", len(frames), missing)


def cmd_grid(cfg, out_dir: str) -> None:
    cell = cfg.get("data", "cell_size_m")
    path = os.path.join(cfg.get("data", "dataset_dir"), "shots.csv")
    shots, _ = dp.filter_gedi(dp.shots_from_csv(path))
    if not len(shots):
        raise ValueError(f"{path}: no shot passes the quality filter")
    x0, x1 = float(shots.lon.min()), float(shots.lon.max())
    y0, y1 = float(shots.lat.min()), float(shots.lat.max())
    bounds = (x0, y0, x0 + np.ceil((x1 - x0) / cell + 1e-9) * cell,
              y0 + np.ceil((y1 - y0) / cell + 1e-9) * cell)
    cells = dp.build_grid(shots, bounds, cell_size=cell,
                          min_shots=cfg.get("data", "min_cell_shots"),
                          seed=cfg.get("run", "seed"))
    os.makedirs(out_dir, exist_ok=True)
    dp.grid_to_csv(cells, os.path.join(out_dir, "grid.csv"))
    log.info("kept %d grid cells", len(cells))


def _settings_from_config(cfg, out_dir: str) -> tr.TrainSettings:
    return tr.TrainSettings(
        arch=cfg.get("run", "arch"),
        epochs=cfg.get("optimizer", "max_epochs"),
        batch_size=cfg.get("optimizer", "batch_size"),
        base_lr=cfg.get("optimizer", "lr"),
        adaptive_lr=cfg.get("optimizer", "lr_adaptive"),
        warmup_epochs=cfg.get("optimizer", "warmup_epochs"),
        lr_start=cfg.get("optimizer", "lr_start"),
        lr_peak=cfg.get("optimizer", "lr_peak"),
        seed=cfg.get("run", "seed"),
        stem_width=cfg.get("model", "stem_width"),
        loss=HyTecLossConfig(betas=tuple(cfg.floats("loss", "betas")),
                             alpha_cr=cfg.get("loss", "alpha_cr"),
                             delta=cfg.get("loss", "delta"),
                             consensus_tol=cfg.get("loss", "consensus_tol")),
        bins=_bins_from_config(cfg),
        checkpoint_dir=os.path.join(out_dir, "checkpoints"))


def _hytec_config(cfg) -> HyTecConfig:
    return HyTecConfig(image_size=cfg.get("model", "input_size"),
                       patch=cfg.get("model", "patch"),
                       embed_dim=cfg.get("model", "embed_dim"),
                       blocks=cfg.get("model", "blocks"),
                       heads=cfg.get("model", "heads"),
                       l_hat=cfg.get("model", "l_hat"),
                       taps=tuple(cfg.ints("model", "taps")),
                       bins=_bins_from_config(cfg))


def _restore_model(cfg, arch: str, key: str) -> tuple:
    """(params, model config) of ``arch``, restored from the checkpoint
    that the config entry ``key`` ("section.name") names.  The tree is
    built without random draws: ``load_checkpoint`` refuses a file that
    lacks any model array, so it overwrites every value."""
    ckpt = cfg.get(*key.split("."))
    if not ckpt:
        raise FileNotFoundError(f"{key} is not set")
    if arch == "hytec":
        mcfg = _hytec_config(cfg)
        params = init_hytec(None, mcfg)
    else:
        params, mcfg = tr.make_unet(arch, None, cfg.get("model", "stem_width"),
                                    _bins_from_config(cfg))
    tr.load_checkpoint(ckpt, params)
    return params, mcfg


def cmd_train(cfg, out_dir: str, resume: bool = False) -> None:
    samples = _samples(cfg)
    os.makedirs(out_dir, exist_ok=True)
    settings = _settings_from_config(cfg, out_dir)
    arch = settings.arch
    if arch == "hytec":
        teachers = [tr.Teacher(*_restore_model(cfg, f"teacher_{m}",
                                               f"data.teacher_{m}"), m)
                    for m in ("s1", "s2")]
        result = tr.train_hytec(samples, teachers, settings,
                                cfg=_hytec_config(cfg), resume=resume)
    else:
        result = tr.train_unet(samples, settings, resume=resume)
    write_csv(os.path.join(out_dir, "trace.csv"), tr.TRACE_COLUMNS,
              result.trace)
    log.info("trained %s for %d epochs; final loss %.6g", arch,
             settings.epochs,
             result.trace[-1][2] if result.trace else float("nan"))


def _write_gsi_csv(path: str, reports: list, tail=()) -> None:
    """One row per sharpness report, then the rows of ``tail``."""
    rows = ([i, r.si_output, r.si_reference, r.gsi, r.effective_resolution_m]
            for i, r in enumerate(reports))
    write_csv(path, ["patch", "si_output", "si_reference", "gsi",
                     "effective_resolution_m"], itertools.chain(rows, tail))


def cmd_eval(cfg, out_dir: str) -> None:
    samples = _samples(cfg)
    _refuse_foreign(out_dir, "pred_", ".tnsr", len(samples), "a prediction")
    params, mcfg = _restore_model(cfg, cfg.get("run", "arch"),
                                  "eval.checkpoint")
    os.makedirs(out_dir, exist_ok=True)
    ys, yhats, reports = [], [], []
    preds = tr.predict_maps(params, mcfg, samples)
    for i, (sample, pred) in enumerate(zip(samples, preds)):
        save_tensor(os.path.join(out_dir, f"pred_{i:03d}.tnsr"), pred)
        sel = sample.mask > 0
        ys.append(sample.target_h[sel])
        yhats.append(pred[sel])
        reports.append(mt.gsi(pred, sample.s2))
    y = np.concatenate(ys)
    yhat = np.concatenate(yhats)

    overall = mt.summary_stats(y, yhat)
    write_csv(os.path.join(out_dir, "overall.csv"), mt.REPORT_COLUMNS[2:],
              [mt.report_row(overall)])
    step = cfg.get("eval", "range_step")
    edges = np.arange(0.0, cfg.get("eval", "range_max") + step, step)
    mt.report_to_csv(mt.binned_report(y, yhat, edges),
                     os.path.join(out_dir, "binned.csv"))
    _write_gsi_csv(os.path.join(out_dir, "gsi.csv"), reports)
    log.info("evaluated %d tiles: rmse %.3f m", len(samples), overall.rmse)


def cmd_gsi(cfg, out_dir: str) -> None:
    pred_dir = cfg.get("eval", "pred_dir")
    preds = _indexed(pred_dir, "pred_", ".tnsr")
    samples = _samples(cfg)
    if len(preds) != len(samples):
        raise ValueError(f"{pred_dir}: {len(preds)} predictions for "
                         f"{len(samples)} dataset tiles")
    # eval writes pred_000 ...: past a gap, each prediction meets another tile
    for i, p in enumerate(preds):
        if os.path.basename(p) != f"pred_{i:03d}.tnsr":
            raise ValueError(f"{pred_dir}: no pred_{i:03d}.tnsr for dataset "
                             f"tile {i}")
    maps = [load_tensor(p) for p in preds]
    for p, m, s in zip(preds, maps, samples):
        if m.shape != s.s2.shape[:2]:
            raise ValueError(f"{p}: shape {m.shape} differs from its dataset "
                             f"crop's {s.s2.shape[:2]}")
    os.makedirs(out_dir, exist_ok=True)
    reports = [mt.gsi(m, s.s2) for m, s in zip(maps, samples)]
    mean_gsi = float(np.mean([r.gsi for r in reports]))
    _write_gsi_csv(os.path.join(out_dir, "gsi.csv"), reports,
                   [["mean", None, None, mean_gsi,
                     mt.resolution_from_gsi(mean_gsi)]])
    log.info("mean gsi %.3f over %d patches", mean_gsi, len(reports))


COMMANDS = {
    "synth": cmd_synth,
    "filter": cmd_filter,
    "composite": cmd_composite,
    "grid": cmd_grid,
    "train": cmd_train,
    "eval": cmd_eval,
    "gsi": cmd_gsi,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canopyheights",
        description="Canopy-height estimation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
        p.add_argument("--out", default=".", help="output directory")
        if name == "train":
            p.add_argument("--resume", action="store_true",
                           help="continue from the latest checkpoint")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("CANOPY_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.load(args.config) if args.config else cfgmod.RunConfig()
        if args.seed is not None:
            cfg.set("run", "seed", args.seed)
        cfg.validate()
        kwargs = {}
        if args.command == "train":
            kwargs["resume"] = args.resume
        COMMANDS[args.command](cfg, args.out, **kwargs)
    except Exception as exc:       # noqa: BLE001 - CLI boundary
        log.error("%s: %s", type(exc).__name__, exc)
        if os.environ.get("CANOPY_LOG", "").upper() == "DEBUG":
            raise
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
