"""The three benchmark workloads and their correctness checks.

Each workload builds its inputs from the seed (``setup``), then runs
rounds of identical work (``run_round``) on those inputs.  A round times
only calls into the program; ``check`` then inspects what the round
produced, against numpy recomputations or properties the method must
have, never against stored copies of earlier output.

``check`` returns the problems it found and how many operations of the
round failed.  An operation fails when the program cannot do what it is
asked; a wrong result from an operation that did not fail is a problem,
which makes the whole run incorrect.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from canopyheights import cli
from canopyheights import datapipe as dp
from canopyheights import metrics as mt
from canopyheights import optim
from canopyheights import train as tr
from canopyheights.hytec import HyTecConfig, hytec_forward, init_hytec
from canopyheights.tensor import Tensor
from canopyheights.unet import unet_forward

TILE = 32          # desk tile and input size of the library workloads
STEM = 4           # desk stem width of the library workloads


@dataclass
class Round:
    """Clock readings around one round's program calls, and what the
    calls produced.  ``finish`` turns the readings into seconds."""

    spans: dict             # name -> (start, end): "pipeline", "train", "cli.<stage>"
    tiles: list             # (start, end, height maps made) per timing
    sample_steps: int
    out: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    tile_s: list = field(default_factory=list)

    def finish(self, seconds) -> None:
        """Apply ``seconds(start, end)`` to every span and tile timing."""
        self.seconds = {k: seconds(a, b) for k, (a, b) in self.spans.items()}
        self.tile_s = [seconds(a, b) / n for a, b, n in self.tiles]


# -- independent readers and checks -------------------------------------

def read_tnsr(path) -> np.ndarray:
    """TNSR/1 reader written apart from the program's own."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"TNSR" or raw[4] != 1:
        raise ValueError(f"{path}: not a TNSR/1 file")
    dtype = {0: "<f8", 1: "<f4"}[raw[5]]
    rank = int.from_bytes(raw[6:10], "little")
    shape = tuple(int.from_bytes(raw[10 + 4 * i:14 + 4 * i], "little")
                  for i in range(rank))
    body = raw[10 + 4 * rank:]
    if len(body) != int(np.prod(shape)) * np.dtype(dtype).itemsize:
        raise ValueError(f"{path}: payload does not match shape {shape}")
    return np.frombuffer(body, dtype=dtype).reshape(shape)


def check_loss_falls(totals, steps_per_epoch: int, problems: list, what: str):
    means = [float(np.mean(totals[i:i + steps_per_epoch]))
             for i in range(0, len(totals), steps_per_epoch)]
    if not (len(means) >= 2 and means[-1] < means[0]):
        problems.append(f"{what}: last epoch's mean loss {means[-1]:.6g} "
                        f"not below the first's {means[0]:.6g}")


def check_heights(preds, problems: list, what: str):
    for i, p in enumerate(preds):
        if not (np.all(np.isfinite(p)) and np.all(p > 0)):
            problems.append(f"{what}: tile {i} has non-finite or non-positive heights")


def check_msd(y, yhat, bias, sdsd, lcs, problems: list, what: str):
    """bias^2 + SDSD + LCS must close on the MSE of the pairs."""
    mse = float(np.mean((np.asarray(yhat) - np.asarray(y)) ** 2))
    if not math.isclose(bias ** 2 + sdsd + lcs, mse, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"{what}: bias^2+SDSD+LCS={bias ** 2 + sdsd + lcs!r} "
                        f"but MSE={mse!r}")


def check_probs(probs, problems: list, what: str):
    err = float(np.max(np.abs(probs.sum(axis=-1) - 1.0)))
    if err > 1e-9:
        problems.append(f"{what}: class probabilities miss 1 by {err:.3g}")


def digest(model) -> str:
    """Hash of every parameter and running statistic of a model."""
    h = hashlib.sha256()
    for name, arr in sorted(optim.export_arrays(model).items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _steps_per_epoch(n: int, batch: int) -> int:
    return -(-n // batch)


# -- library workloads ----------------------------------------------------

class LibraryWorkload:
    """Train through ``train.train_*``, checkpoint each epoch, predict
    held-out tiles, and score them for RMSE and sharpness."""

    def __init__(self, size: dict, clock):
        self.size = size
        self.clock = clock

    def make_tiles(self, seed):
        n = self.size["train"] + self.size["eval"]
        tiles = dp.synth_dataset(n, TILE, seed, shots_per_tile=150,
                                 violation_rate=0.0)
        samples = tr.samples_from_tiles(tiles)
        return samples[:self.size["train"]], samples[self.size["train"]:]

    def attempted(self) -> int:
        return 2 + self.size["eval"]

    def run_round(self, st, rdir) -> Round:
        ckpt = os.path.join(rdir, "checkpoints")
        t0 = self.clock()
        result = self.train(st, ckpt)
        t1 = self.clock()
        preds, tiles = [], []
        for s in st["held"]:
            t = self.clock()
            preds.append(tr.predict_heights(result.params, result.config, s))
            tiles.append((t, self.clock(), 1))
        y = np.concatenate([s.target_h[s.mask > 0] for s in st["held"]])
        yhat = np.concatenate([p[s.mask > 0] for p, s in zip(preds, st["held"])])
        report = mt.summary_stats(y, yhat)
        for p, s in zip(preds, st["held"]):
            mt.gsi(p, s.s2)
        t3 = self.clock()
        return Round(spans={"pipeline": (t0, t3), "train": (t0, t1)},
                     tiles=tiles,
                     sample_steps=len(st["train"]) * self.size["epochs"],
                     out=dict(result=result, preds=preds, y=y, yhat=yhat,
                              report=report, ckpt=ckpt,
                              final_loss=result.trace[-1][2],
                              rmse=report.rmse))

    def check(self, st, rnd: Round) -> tuple:
        problems: list = []
        o = rnd.out
        result = o["result"]
        check_loss_falls([row[2] for row in result.trace],
                         _steps_per_epoch(len(st["train"]), self.size["batch"]),
                         problems, self.name)
        check_heights(o["preds"], problems, self.name)
        rep = o["report"]
        check_msd(o["y"], o["yhat"], rep.bias, rep.sdsd, rep.lcs, problems,
                  self.name)
        check_probs(self.probs(result, st["held"][0]), problems, self.name)
        # reloading the last checkpoint reproduces the predictions exactly
        found = tr.latest_checkpoint(o["ckpt"])
        if found is None or found[0] != self.size["epochs"] - 1:
            return problems + [f"{self.name}: last checkpoint missing"], 0
        params = self.fresh_params(result.config)
        tr.load_checkpoint(found[1], params)
        for i, (s, p) in enumerate(zip(st["held"], o["preds"])):
            if not np.array_equal(tr.predict_heights(params, result.config, s), p):
                problems.append(f"{self.name}: reloaded checkpoint predicts "
                                f"tile {i} differently")
                break
        return problems, 0


class UnetA2mdu(LibraryWorkload):
    name = "unet_a2mdu"

    def setup(self, seed, workdir) -> dict:
        train, held = self.make_tiles(seed)
        return dict(seed=seed, train=train, held=held)

    def train(self, st, ckpt):
        settings = tr.TrainSettings(
            arch="a2mdu", epochs=self.size["epochs"],
            batch_size=self.size["batch"], seed=st["seed"], stem_width=STEM,
            base_lr=1e-2, checkpoint_dir=ckpt)
        return tr.train_unet(st["train"], settings)

    def fresh_params(self, cfg):
        return tr.make_unet("a2mdu", np.random.default_rng(0), STEM, cfg.bins)[0]

    def probs(self, result, s):
        optim.set_bn_mode(result.params, "eval")
        out = unet_forward(Tensor(s.s2), Tensor(s.s1), result.params,
                           result.config)
        return out.probs.data


HYTEC_MINI = dict(image_size=TILE, patch=8, embed_dim=32, blocks=4, heads=2,
                  l_hat=16)


class HytecDistill(LibraryWorkload):
    name = "hytec_distill"

    def setup(self, seed, workdir) -> dict:
        train, held = self.make_tiles(seed)
        teachers = []
        for k, mod in enumerate(("s1", "s2")):
            settings = tr.TrainSettings(
                arch=f"teacher_{mod}", epochs=self.size["teacher_epochs"],
                batch_size=3, seed=seed + 1 + k, stem_width=STEM, base_lr=1e-2)
            res = tr.train_unet(train, settings)
            teachers.append(tr.Teacher(res.params, res.config, mod))
        return dict(seed=seed, train=train, held=held, teachers=teachers,
                    teacher_digests=[digest(t.params) for t in teachers])

    def train(self, st, ckpt):
        settings = tr.TrainSettings(
            arch="hytec", epochs=self.size["epochs"],
            batch_size=self.size["batch"], seed=st["seed"], warmup_epochs=1,
            lr_peak=1e-3, checkpoint_dir=ckpt)
        return tr.train_hytec(st["train"], st["teachers"], settings,
                              cfg=HyTecConfig.desk_scale(**HYTEC_MINI))

    def fresh_params(self, cfg):
        return init_hytec(np.random.default_rng(0), cfg)

    def probs(self, result, s):
        optim.set_bn_mode(result.params, "eval")
        return hytec_forward(Tensor(s.s2), result.params,
                             result.config).main.probs.data

    def check(self, st, rnd: Round) -> tuple:
        problems, failed = super().check(st, rnd)
        for t, before in zip(st["teachers"], st["teacher_digests"]):
            if digest(t.params) != before:
                problems.append(f"{self.name}: teacher_{t.modality} changed "
                                "during distillation")
        return problems, failed


# -- command-line workload ------------------------------------------------

STAGES = ("filter", "composite", "grid", "train", "eval", "gsi")


def write_ini(path, values: dict) -> None:
    with open(path, "w") as fh:
        for section, kv in values.items():
            fh.write(f"[{section}]\n")
            fh.writelines(f"{k} = {v}\n" for k, v in kv.items())
            fh.write("\n")


def crops(dataset_dir, size: int, seed: int) -> list:
    """The eval stage's tile crops, recomputed with numpy: one crop of
    ``size`` pixels plus two seeded flips per tile, drawn in tile order."""
    rng = np.random.default_rng(seed)
    out = []
    for stem in sorted(glob.glob(os.path.join(dataset_dir, "tile_*.s2.tnsr"))):
        stem = stem[:-len(".s2.tnsr")]
        parts = [read_tnsr(f"{stem}.{p}.tnsr") for p in ("s2", "s1", "target", "mask")]
        w, h = parts[0].shape[:2]
        i0 = int(rng.integers(0, w - size + 1))
        j0 = int(rng.integers(0, h - size + 1))
        flip_h, flip_v = bool(rng.integers(0, 2)), bool(rng.integers(0, 2))
        cut = []
        for a in parts:
            a = a[i0:i0 + size, j0:j0 + size]
            a = a[::-1] if flip_h else a
            cut.append(np.ascontiguousarray(a[:, ::-1] if flip_v else a))
        out.append(tr.Sample(s2=cut[0], s1=cut[1], target_h=cut[2], mask=cut[3]))
    return out


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class CliPipeline:
    """``canopyheights`` run in-process through every stage after synth,
    plus one ``train --resume`` continuation on a fixed small dataset."""

    name = "cli_pipeline"
    # the resume continuation's inputs do not depend on the seed
    RESUME = dict(n_tiles=2, tile=32, shots=40, stem=4, epochs=2, batch=2)

    def __init__(self, size: dict, clock):
        self.size = size
        self.clock = clock

    def attempted(self) -> int:
        return len(STAGES) + 1

    def _main(self, args) -> None:
        if cli.main(args) != 0:
            raise RuntimeError(f"canopyheights {' '.join(args)} failed")

    def setup(self, seed, workdir) -> dict:
        z = self.size
        os.makedirs(workdir, exist_ok=True)
        data = os.path.join(workdir, "data")
        config = {
            "run": dict(seed=seed, arch="2mou"),
            "data": dict(dataset_dir=data, n_tiles=z["n_tiles"],
                         tile_size=z["tile"], shots_per_tile=z["shots"],
                         violation_rate=0.2, cell_size_m=160.0,
                         min_cell_shots=z["min_cell_shots"]),
            "model": dict(stem_width=z["stem"], input_size=z["tile"]),
            "optimizer": dict(max_epochs=z["epochs"], batch_size=z["batch"]),
        }
        ini = os.path.join(workdir, "synth.ini")
        write_ini(ini, config)
        t0 = self.clock()
        self._main(["synth", "--config", ini, "--out", data])
        synth_span = (t0, self.clock())

        r = self.RESUME
        rdata = os.path.join(workdir, "resume_data")
        resume_ini = {}
        for epochs in (r["epochs"], 2 * r["epochs"]):
            resume_ini[epochs] = os.path.join(workdir, f"resume_{epochs}.ini")
            write_ini(resume_ini[epochs], {
                "run": dict(seed=0, arch="2mou"),
                "data": dict(dataset_dir=rdata, n_tiles=r["n_tiles"],
                             tile_size=r["tile"], shots_per_tile=r["shots"]),
                "model": dict(stem_width=r["stem"], input_size=r["tile"]),
                "optimizer": dict(max_epochs=epochs, batch_size=r["batch"]),
            })
        self._main(["synth", "--config", resume_ini[r["epochs"]], "--out", rdata])
        return dict(seed=seed, data=data, config=config, synth_span=synth_span,
                    resume_ini=resume_ini)

    def run_round(self, st, rdir) -> Round:
        ini = os.path.join(rdir, "run.ini")
        write_ini(ini, {**st["config"], "eval": dict(
            checkpoint=os.path.join(rdir, "train", "checkpoints"),
            pred_dir=os.path.join(rdir, "eval"))})
        spans = {}
        for stage in STAGES:
            t0 = self.clock()
            self._main([stage, "--config", ini, "--out",
                        os.path.join(rdir, stage)])
            spans[f"cli.{stage}"] = (t0, self.clock())
        r = self.RESUME
        out = os.path.join(rdir, "resume")
        t0 = self.clock()
        self._main(["train", "--config", st["resume_ini"][r["epochs"]],
                    "--out", out])
        self._main(["train", "--config", st["resume_ini"][2 * r["epochs"]],
                    "--out", out, "--resume"])
        spans["cli.resume"] = (t0, self.clock())
        spans["pipeline"] = (spans["cli.filter"][0], spans["cli.resume"][1])
        spans["train"] = spans["cli.train"]
        trace = read_csv(os.path.join(rdir, "train", "trace.csv"))
        overall = dict(zip(*read_csv(os.path.join(rdir, "eval", "overall.csv"))))
        return Round(spans=spans,
                     tiles=[(*spans["cli.eval"], self.size["n_tiles"])],
                     sample_steps=self.size["n_tiles"] * self.size["epochs"],
                     out=dict(rdir=rdir, final_loss=float(trace[-1][2]),
                              rmse=float(overall["rmse"])))

    def check(self, st, rnd: Round) -> tuple:
        problems: list = []
        rdir, data, z = rnd.out["rdir"], st["data"], self.size

        # filter: rejections per rule equal the planted labels
        labels = Counter(row[2] for row in read_csv(os.path.join(data, "labels.csv"))[1:])
        report = {row[0]: int(row[1]) for row in
                  read_csv(os.path.join(rdir, "filter", "filter_report.csv"))[1:]}
        expected = {rule: labels.get(rule, 0) for rule in dp.FILTER_RULES}
        expected["retained"] = labels.get("clean", 0)
        if report != expected:
            problems.append(f"filter: report {report} != planted {expected}")

        # composite: missing pixels are those no frame's mask covers
        masks = [read_tnsr(p) > 0.5 for p in
                 sorted(glob.glob(os.path.join(data, "stack", "mask_*.tnsr")))]
        missing = int((~np.any(masks, axis=0)).sum())
        row = read_csv(os.path.join(rdir, "composite", "composite_report.csv"))[1]
        if int(row[1]) != missing:
            problems.append(f"composite: {row[1]} missing pixels, numpy counts {missing}")

        # train: the loss falls
        trace = read_csv(os.path.join(rdir, "train", "trace.csv"))[1:]
        check_loss_falls([float(r[2]) for r in trace],
                         _steps_per_epoch(z["n_tiles"], z["batch"]), problems,
                         "train")

        # eval: overall.csv agrees with the written predictions
        samples = crops(data, z["tile"], st["seed"] + 17)
        preds = [read_tnsr(p) for p in
                 sorted(glob.glob(os.path.join(rdir, "eval", "pred_*.tnsr")))]
        if len(preds) != len(samples):
            return problems + [f"eval: {len(preds)} predictions for "
                               f"{len(samples)} tiles"], 0
        check_heights(preds, problems, "eval")
        y = np.concatenate([s.target_h[s.mask > 0] for s in samples])
        yhat = np.concatenate([p[s.mask > 0] for p, s in zip(preds, samples)])
        overall = dict(zip(*read_csv(os.path.join(rdir, "eval", "overall.csv"))))
        rmse = float(np.sqrt(np.mean((yhat - y) ** 2)))
        bias = float(np.mean(yhat - y))
        if not (math.isclose(float(overall["rmse"]), rmse, rel_tol=1e-9)
                and math.isclose(float(overall["bias"]), bias, rel_tol=1e-9,
                                 abs_tol=1e-12)):
            problems.append(f"eval: overall.csv rmse/bias {overall['rmse']}/"
                            f"{overall['bias']} != numpy {rmse!r}/{bias!r}")
        check_msd(y, yhat, float(overall["bias"]), float(overall["sdsd"]),
                  float(overall["lcs"]), problems, "eval")

        # reloading the last checkpoint reproduces the written predictions
        found = tr.latest_checkpoint(os.path.join(rdir, "train", "checkpoints"))
        params, cfg = tr.make_unet("2mou", np.random.default_rng(0), z["stem"])
        tr.load_checkpoint(found[1], params)
        if not np.array_equal(tr.predict_heights(params, cfg, samples[0]), preds[0]):
            problems.append("eval: reloaded checkpoint predicts tile 0 differently")

        # gsi: one finite row per prediction plus the mean
        rows = read_csv(os.path.join(rdir, "gsi", "gsi.csv"))[1:]
        if len(rows) != len(preds) + 1 or not np.isfinite(float(rows[-1][3])):
            problems.append("gsi: rows missing or mean GSI not finite")

        # resume: the trace holds every step of the run, in order.  A fault
        # in the program drops the steps before the resume point, so this
        # operation is counted as failed rather than as a wrong result.
        r = self.RESUME
        steps = [int(row[0]) for row in
                 read_csv(os.path.join(rdir, "resume", "trace.csv"))[1:]]
        want = list(range(2 * r["epochs"] * _steps_per_epoch(r["n_tiles"], r["batch"])))
        failed = int(steps != want)
        return problems, failed


SIZES = {
    "unet_a2mdu": {"full": dict(train=12, eval=24, epochs=5, batch=4),
                   "tiny": dict(train=3, eval=2, epochs=3, batch=3)},
    "hytec_distill": {"full": dict(train=9, eval=24, epochs=6, batch=3,
                                   teacher_epochs=4),
                      "tiny": dict(train=3, eval=2, epochs=3, batch=3,
                                   teacher_epochs=1)},
    "cli_pipeline": {"full": dict(n_tiles=6, tile=64, shots=2500, stem=8,
                                  epochs=2, batch=3, min_cell_shots=50),
                     "tiny": dict(n_tiles=2, tile=32, shots=200, stem=4,
                                  epochs=2, batch=1, min_cell_shots=10)},
}

WORKLOADS = {"unet_a2mdu": UnetA2mdu, "hytec_distill": HytecDistill,
             "cli_pipeline": CliPipeline}


def make(name: str, size: str, clock):
    """A workload at a named input size, timing its rounds with ``clock``."""
    return WORKLOADS[name](SIZES[name][size], clock)
