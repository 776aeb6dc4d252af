"""End-to-end command-line pipeline: every subcommand in a temp workspace."""

import csv
import io
import logging
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from canopyheights import cli
from canopyheights import config as cf
from canopyheights import datapipe as dp
from canopyheights import metrics as mt
from canopyheights import optim
from canopyheights import tensor as tn
from canopyheights import train as tr
from canopyheights.hytec import HyTecConfig, init_hytec
from canopyheights.tensor import load_tensor, save_tensor


def small_cfg(**overrides):
    cfg = cf.RunConfig()
    base = {
        ("run", "seed"): 7,
        ("data", "n_tiles"): 3,
        ("data", "tile_size"): 32,
        ("data", "shots_per_tile"): 60,
        ("data", "violation_rate"): 0.3,
        ("data", "cell_size_m"): 160.0,
        ("data", "min_cell_shots"): 5,
        ("model", "input_size"): 32,
        ("model", "stem_width"): 4,
        ("optimizer", "max_epochs"): 2,
        ("optimizer", "batch_size"): 2,
    }
    base.update(overrides)
    for (s, k), v in base.items():
        cfg.set(s, k, v)
    return cfg


def run(cfg, args, tmp_path, name="run.ini"):
    path = str(tmp_path / name)
    cf.save(cfg, path)
    return cli.main([args[0], "--config", path, *args[1:]])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthesized dataset shared by the downstream subcommand tests."""
    root = tmp_path_factory.mktemp("ws")
    cfg = small_cfg()
    ds = str(root / "data")
    assert run(cfg, ["synth", "--out", ds], root) == 0
    cfg.set("data", "dataset_dir", ds)
    return root, cfg, ds


class TestSynth:
    def test_layout(self, workspace):
        _, _, ds = workspace
        names = sorted(os.listdir(ds))
        for i in range(3):
            for part in cli.TILE_PARTS:
                assert f"tile_{i:03d}.{part}.tnsr" in names
        assert {"shots.csv", "labels.csv", "manifest.csv", "stack"} <= set(names)
        stack = sorted(os.listdir(os.path.join(ds, "stack")))
        assert stack == sorted(
            [f"frame_{k}.tnsr" for k in range(cli.STACK_FRAMES)]
            + [f"mask_{k}.tnsr" for k in range(cli.STACK_FRAMES)])

    def test_seed_flag_overrides_config(self, workspace, tmp_path):
        root, cfg, ds = workspace
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(cfg, ["synth", "--seed", "7", "--out", a], tmp_path) == 0
        assert run(cfg, ["synth", "--seed", "8", "--out", b], tmp_path) == 0
        same = load_tensor(os.path.join(ds, "tile_000.s2.tnsr"))
        np.testing.assert_array_equal(
            same, load_tensor(os.path.join(a, "tile_000.s2.tnsr")))
        assert not np.array_equal(
            same, load_tensor(os.path.join(b, "tile_000.s2.tnsr")))

    def test_rerun_with_fewer_tiles_is_refused(self, tmp_path, monkeypatch,
                                               caplog):
        # a tile of the earlier run would join the new dataset unnoticed
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        out, cfg = tmp_path / "d", small_cfg()
        assert run(cfg, ["synth", "--out", str(out)], tmp_path) == 0
        before = (out / "shots.csv").read_bytes()
        cfg.set("data", "n_tiles", 2)
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, ["synth", "--out", str(out)], tmp_path) == 1
        assert (f"ValueError: {out / 'tile_002.s2.tnsr'} is not a tile of "
                "this run's 2") in caplog.text
        assert (out / "shots.csv").read_bytes() == before
        for n_tiles in (3, 4):
            cfg.set("data", "n_tiles", n_tiles)
            assert run(cfg, ["synth", "--out", str(out)], tmp_path) == 0
            assert len(cli.read_dataset(str(out))) == n_tiles


class TestFilter:
    def test_report_counts_are_consistent(self, workspace, tmp_path):
        _, cfg, ds = workspace
        out = str(tmp_path / "filt")
        assert run(cfg, ["filter", "--out", out], tmp_path) == 0
        with open(os.path.join(out, "filter_report.csv")) as fh:
            rows = {r[0]: int(r[1]) for r in list(csv.reader(fh))[1:]}
        n_in = len(dp.shots_from_csv(os.path.join(ds, "shots.csv")))
        assert set(rows) == set(dp.FILTER_RULES) | {"retained"}
        assert sum(rows.values()) == n_in
        retained = dp.shots_from_csv(os.path.join(out, "retained.csv"))
        assert len(retained) == rows["retained"]


def csv_writer_bytes(shots) -> bytes:
    """A shot CSV as ``csv.writer`` writes the shots' fields: ``repr``
    floats, ``int`` ints, ``\\r\\n`` line ends."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(dp.SHOT_FIELDS)
    w.writerows(shots.tolist())
    return buf.getvalue().encode()


def oracle_clean(shot, sigma_cover) -> bool:
    """No quality rule broken, tested on one shot's fields."""
    return not (shot.num_detectedmodes == 0
                or shot.snr_db < 12.0 or shot.view_angle > 5.0
                or shot.sensitivity < 0.95
                or abs(shot.elm - shot.srtm) > 75.0
                or shot.rx_sample_count - shot.search_end <= 1
                or abs(shot.canopy_cover - shot.ndvi30) > 1.5 * sigma_cover)


class TestShotFilesOracle:
    """The CLI's shot files equal, byte for byte, what the per-shot code
    they replace wrote: ``csv.writer`` rows of each shot's fields."""

    def test_shots_and_retained_match_csv_writer(self, workspace, tmp_path):
        _, cfg, ds = workspace
        tiles = dp.synth_dataset(3, 32, 7, shots_per_tile=60,
                                 violation_rate=0.3)
        shots = np.concatenate([t.shots for t in tiles]).view(np.recarray)
        with open(os.path.join(ds, "shots.csv"), "rb") as fh:
            assert fh.read() == csv_writer_bytes(shots)

        out = str(tmp_path / "filt")
        assert run(cfg, ["filter", "--out", out], tmp_path) == 0
        sigma = float(np.std([abs(s.canopy_cover - s.ndvi30)
                              for s in shots]))
        clean = shots[[oracle_clean(s, sigma) for s in shots]]
        assert 0 < len(clean) < len(shots)
        with open(os.path.join(out, "retained.csv"), "rb") as fh:
            assert fh.read() == csv_writer_bytes(clean)


class TestComposite:
    def test_composite_written(self, workspace, tmp_path):
        _, cfg, ds = workspace
        out = str(tmp_path / "comp")
        assert run(cfg, ["composite", "--out", out], tmp_path) == 0
        comp = load_tensor(os.path.join(out, "composite.tnsr"))
        base = load_tensor(os.path.join(ds, "tile_000.s2.tnsr"))
        assert comp.shape == base.shape
        with open(os.path.join(out, "composite_report.csv")) as fh:
            header, row = list(csv.reader(fh))
        assert header == ["frames", "missing_pixels"]
        assert int(row[0]) == cli.STACK_FRAMES

    def test_frame_in_the_dataset_path(self, workspace, tmp_path):
        # only the file name says frame or mask, not the folders above it
        _, cfg, ds = workspace
        moved = tmp_path / "frame_runs" / "ds"
        shutil.copytree(os.path.join(ds, "stack"), moved / "stack")
        cfg = cfg.copy()
        cfg.set("data", "dataset_dir", str(moved))
        assert run(cfg, ["composite", "--out", str(tmp_path / "a")],
                   tmp_path) == 0
        cfg.set("data", "dataset_dir", ds)
        assert run(cfg, ["composite", "--out", str(tmp_path / "b")],
                   tmp_path) == 0
        np.testing.assert_array_equal(
            load_tensor(str(tmp_path / "a" / "composite.tnsr")),
            load_tensor(str(tmp_path / "b" / "composite.tnsr")))


class TestIndexOrder:
    """Indexed files are read in the order of their index: by name,
    ``tile_1000`` would sort between ``tile_100`` and ``tile_101``."""

    N_TILES = 1001

    @pytest.fixture(scope="class")
    def many(self, tmp_path_factory):
        """A dataset of 1,001 tiles of 8 px and one prediction per tile."""
        root = tmp_path_factory.mktemp("many")
        rng = np.random.default_rng(4)
        s2 = rng.random((self.N_TILES, 8, 8, 10))
        for i, bands in enumerate(s2):
            parts = {"s2": bands, "s1": np.zeros((8, 8, 2)),
                     "heights": np.zeros((8, 8)), "target": np.zeros((8, 8)),
                     "mask": np.ones((8, 8))}
            for part, data in parts.items():
                tn.save_tensor(str(root / f"tile_{i:03d}.{part}.tnsr"), data)
            tn.save_tensor(str(root / f"pred_{i:03d}.tnsr"),
                           rng.random((8, 8)))
        cfg = small_cfg()
        cfg.set("model", "input_size", 8)
        cfg.set("data", "dataset_dir", str(root))
        cfg.set("eval", "pred_dir", str(root))
        return root, cfg, s2

    def test_read_dataset(self, many):
        root, _, s2 = many
        tiles = cli.read_dataset(str(root))
        assert len(tiles) == self.N_TILES
        for bands, tile in zip(s2, tiles):
            np.testing.assert_array_equal(tile.s2, bands)

    def test_gsi_pairs_each_prediction_with_its_tile(self, many, tmp_path):
        root, cfg, _ = many
        cli.cmd_gsi(cfg, str(tmp_path))
        with open(tmp_path / "gsi.csv") as fh:
            rows = list(csv.reader(fh))[1:-1]
        samples = cli._samples(cfg)
        assert len(rows) == len(samples) == self.N_TILES
        for k in (2, 101, 1000):
            want = mt.gsi(load_tensor(str(root / f"pred_{k:03d}.tnsr")),
                          samples[k].s2)
            assert [float(v) for v in rows[k][1:3]] == [want.si_output,
                                                        want.si_reference]


class TestGrid:
    def test_grid_csv_written(self, workspace, tmp_path):
        _, cfg, _ = workspace
        out = str(tmp_path / "grid")
        assert run(cfg, ["grid", "--out", out], tmp_path) == 0
        with open(os.path.join(out, "grid.csv")) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1
        sets = {int(r[7]) for r in rows[1:]}
        assert sets <= set(range(1, 10))

    def test_grid_holds_only_retained_shots(self, workspace, tmp_path):
        _, cfg, _ = workspace
        cfg = cfg.copy()
        cfg.set("data", "min_cell_shots", 1)    # every shot's cell is kept
        grid, filt = str(tmp_path / "grid"), str(tmp_path / "filt")
        assert run(cfg, ["grid", "--out", grid], tmp_path) == 0
        assert run(cfg, ["filter", "--out", filt], tmp_path) == 0
        with open(os.path.join(grid, "grid.csv")) as fh:
            gridded = sum(int(r[6]) for r in list(csv.reader(fh))[1:])
        with open(os.path.join(filt, "filter_report.csv")) as fh:
            retained = dict(list(csv.reader(fh))[1:])["retained"]
        assert gridded == int(retained)


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    root, cfg, ds = workspace
    out = str(tmp_path_factory.mktemp("train"))
    assert run(cfg, ["train", "--out", out], root, name="train.ini") == 0
    return out


@pytest.fixture(scope="module")
def evaluated(workspace, trained, tmp_path_factory):
    root, cfg, ds = workspace
    cfg = cfg.copy()
    cfg.set("eval", "checkpoint", os.path.join(trained, "checkpoints"))
    out = str(tmp_path_factory.mktemp("eval"))
    assert run(cfg, ["eval", "--out", out], root, name="eval.ini") == 0
    return cfg, out


class TestTrainEvalGsi:
    def test_train_outputs(self, trained):
        assert os.path.exists(os.path.join(trained, "trace.csv"))
        ckpts = os.listdir(os.path.join(trained, "checkpoints"))
        assert ckpts and all(c.startswith("epoch_") for c in ckpts)

    def test_eval_reports(self, evaluated):
        _, out = evaluated
        for i in range(3):
            assert os.path.exists(os.path.join(out, f"pred_{i:03d}.tnsr"))
        with open(os.path.join(out, "overall.csv")) as fh:
            header, row = list(csv.reader(fh))
        assert header == ["n", "r", "rmse", "rmspe", "bias", "sdsd", "lcs"]
        assert float(row[2]) >= 0.0
        assert os.path.exists(os.path.join(out, "binned.csv"))
        assert os.path.exists(os.path.join(out, "gsi.csv"))

    def test_eval_from_one_checkpoint_file(self, workspace, trained,
                                           evaluated, tmp_path):
        root, cfg, _ = workspace
        _, by_dir = evaluated
        cfg = cfg.copy()
        cfg.set("eval", "checkpoint",
                os.path.join(trained, "checkpoints", "epoch_0001.ckpt"))
        out = str(tmp_path / "eval")
        assert run(cfg, ["eval", "--out", out], tmp_path) == 0
        for i in range(3):
            name = f"pred_{i:03d}.tnsr"
            with open(os.path.join(out, name), "rb") as a, \
                    open(os.path.join(by_dir, name), "rb") as b:
                assert a.read() == b.read()

    def test_eval_with_another_arch_returns_one(self, workspace, trained,
                                                tmp_path, monkeypatch):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        root, cfg, _ = workspace
        cfg = cfg.copy()
        cfg.set("run", "arch", "2mdu")      # trained as 2mou
        cfg.set("eval", "checkpoint", os.path.join(trained, "checkpoints"))
        out = str(tmp_path / "eval")
        assert run(cfg, ["eval", "--out", out], tmp_path) == 1
        assert not os.path.exists(os.path.join(out, "pred_000.tnsr"))

    def test_resume_keeps_the_whole_trace(self, workspace, tmp_path):
        root, cfg, _ = workspace
        out = str(tmp_path / "run")
        assert run(cfg, ["train", "--out", out], tmp_path) == 0
        cfg = cfg.copy()
        cfg.set("optimizer", "max_epochs", 4)
        assert run(cfg, ["train", "--out", out, "--resume"], tmp_path) == 0
        with open(os.path.join(out, "trace.csv")) as fh:
            steps = [int(r[0]) for r in list(csv.reader(fh))[1:]]
        # 3 tiles in batches of 2: two steps per epoch
        assert steps == list(range(4 * 2))

    def test_gsi_command(self, workspace, evaluated, tmp_path_factory):
        root, _, _ = workspace
        cfg, pred_dir = evaluated
        cfg = cfg.copy()
        cfg.set("eval", "pred_dir", pred_dir)
        out = str(tmp_path_factory.mktemp("gsi"))
        assert run(cfg, ["gsi", "--out", out], root, name="gsi.ini") == 0
        with open(os.path.join(out, "gsi.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[-1][0] == "mean"
        assert float(rows[-1][3]) > 0.0

    @pytest.mark.parametrize("indices,message", [
        pytest.param([0, 1], "2 predictions for 3 dataset tiles", id="2-0"),
        pytest.param([0, 1, 2, 3], "4 predictions for 3 dataset tiles",
                     id="3-1"),
        # the count agrees, but pred_003 would be scored against tile 2
        pytest.param([0, 1, 3], "no pred_002.tnsr for dataset tile 2",
                     id="gap")])
    def test_gsi_needs_one_prediction_per_tile(self, evaluated, tmp_path,
                                               indices, message):
        cfg, pred_dir = evaluated
        preds = tmp_path / "preds"
        preds.mkdir()
        for i in indices:
            shutil.copy(os.path.join(pred_dir, f"pred_{i % 3:03d}.tnsr"),
                        preds / f"pred_{i:03d}.tnsr")
        cfg = cfg.copy()
        cfg.set("eval", "pred_dir", str(preds))
        with pytest.raises(ValueError, match=re.escape(f"{preds}: {message}")):
            cli.cmd_gsi(cfg, str(tmp_path / "gsi"))
        assert not os.path.exists(tmp_path / "gsi")

    def test_gsi_refuses_a_prediction_of_another_shape(self, evaluated,
                                                        tmp_path):
        cfg, pred_dir = evaluated
        preds = tmp_path / "preds"
        preds.mkdir()
        for i in range(3):
            shutil.copy(os.path.join(pred_dir, f"pred_{i:03d}.tnsr"),
                        preds / f"pred_{i:03d}.tnsr")
        bad = str(preds / "pred_001.tnsr")
        crop = load_tensor(bad)
        save_tensor(bad, crop[1:])
        cfg = cfg.copy()
        cfg.set("eval", "pred_dir", str(preds))
        with pytest.raises(ValueError, match=re.escape(
                f"{bad}: shape {crop[1:].shape} differs from its dataset "
                f"crop's {crop.shape}")):
            cli.cmd_gsi(cfg, str(tmp_path / "gsi"))
        assert not os.path.exists(tmp_path / "gsi")

    def test_eval_rerun_with_fewer_tiles_is_refused(
            self, workspace, trained, tmp_path, monkeypatch, caplog):
        # a prediction of the earlier eval would outlive the new one's
        # overall.csv and gsi.csv
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        root, cfg, three = workspace
        four = str(tmp_path / "four")
        cfg = cfg.copy()
        cfg.set("data", "n_tiles", 4)
        assert run(cfg, ["synth", "--out", four], tmp_path) == 0
        cfg.set("eval", "checkpoint", os.path.join(trained, "checkpoints"))
        cfg.set("data", "dataset_dir", four)
        out = tmp_path / "eval"
        assert run(cfg, ["eval", "--out", str(out)], tmp_path) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg.set("data", "dataset_dir", three)
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, ["eval", "--out", str(out)], tmp_path) == 1
        assert (f"ValueError: {out / 'pred_003.tnsr'} is not a prediction "
                "of this run's 3") in caplog.text
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        cfg.set("data", "dataset_dir", four)
        assert run(cfg, ["eval", "--out", str(out)], tmp_path) == 0


@pytest.fixture(scope="module")
def hytec_run(workspace, tmp_path_factory):
    """Both teachers, then a desk-scale HyTeC distilled from them, trained
    through the CLI; then ``eval`` and ``gsi`` on the HyTeC checkpoint."""
    _, cfg, _ = workspace
    root = tmp_path_factory.mktemp("hytec")
    cfg = cfg.copy()
    for m in ("s1", "s2"):
        cfg.set("run", "arch", f"teacher_{m}")
        assert run(cfg, ["train", "--out", str(root / f"teacher_{m}")],
                   root) == 0
        cfg.set("data", f"teacher_{m}",
                str(root / f"teacher_{m}" / "checkpoints"))
    for key, value in {("run", "arch"): "hytec", ("model", "patch"): 16,
                       ("model", "embed_dim"): 16, ("model", "blocks"): 2,
                       ("model", "heads"): 2, ("model", "l_hat"): 16,
                       ("model", "taps"): "1,1,2,2",
                       ("optimizer", "warmup_epochs"): 1,
                       ("eval", "checkpoint"): str(root / "hytec" / "checkpoints"),
                       ("eval", "pred_dir"): str(root / "eval")}.items():
        cfg.set(*key, value)
    for stage, out in (("train", "hytec"), ("eval", "eval"), ("gsi", "gsi")):
        assert run(cfg, [stage, "--out", str(root / out)], root) == 0
    return root, cfg


class TestHyTecPipeline:
    def test_eval_writes_the_restored_model_predictions(self, hytec_run):
        root, cfg = hytec_run
        hcfg = HyTecConfig(image_size=32, patch=16, embed_dim=16, blocks=2,
                           heads=2, l_hat=16, taps=(1, 1, 2, 2))
        params = init_hytec(np.random.default_rng(1), hcfg)
        tr.load_checkpoint(str(root / "hytec" / "checkpoints"), params)
        sample = cli._samples(cfg)[0]
        np.testing.assert_array_equal(
            load_tensor(str(root / "eval" / "pred_000.tnsr")),
            tr.predict_heights(params, hcfg, sample))
        with open(root / "gsi" / "gsi.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3 + 1 and rows[-1][0] == "mean"

    def test_unset_teacher_returns_one_naming_the_key(
            self, hytec_run, tmp_path, monkeypatch, caplog):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        _, cfg = hytec_run
        cfg = cfg.copy()
        cfg.set("data", "teacher_s1", "")
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, ["train", "--out", str(tmp_path / "t")],
                       tmp_path) == 1
        assert "data.teacher_s1 is not set" in caplog.text

    def test_zero_heads_returns_one_naming_the_key(
            self, hytec_run, tmp_path, monkeypatch, caplog):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        _, cfg = hytec_run
        cfg = cfg.copy()
        cfg.set("model", "heads", 0)
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, ["train", "--out", str(tmp_path / "t")],
                       tmp_path) == 1
        assert "ValueError: heads must be positive, got 0" in caplog.text
        assert not os.path.exists(tmp_path / "t" / "checkpoints")


def _then_fail(items):
    """The items, then an OSError: a disk that fills part-way through."""
    yield from items
    raise OSError("no space left on device")


class TestRestore:
    """``eval`` (its model) and a HyTeC ``train`` (its teachers) restore
    into a tree built without random draws; every value comes from the
    checkpoint."""

    @pytest.mark.parametrize("arch", [*tr.UNET_ARCHS, "hytec"])
    def test_a_restore_without_draws_predicts_as_a_drawn_one(
            self, arch, tmp_path, monkeypatch):
        cfg = small_cfg()
        for key, value in {("model", "patch"): 16, ("model", "embed_dim"): 16,
                           ("model", "blocks"): 2, ("model", "heads"): 2,
                           ("model", "l_hat"): 16, ("model", "taps"): "1,1,2,2",
                           ("eval", "checkpoint"): str(tmp_path)}.items():
            cfg.set(*key, value)

        def drawn(seed):
            if arch == "hytec":
                mcfg = cli._hytec_config(cfg)
                return init_hytec(np.random.default_rng(seed), mcfg), mcfg
            return tr.make_unet(arch, np.random.default_rng(seed), 4,
                                cli._bins_from_config(cfg))
        trained, mcfg = drawn(5)
        rng = np.random.default_rng(6)
        for arr in optim.collect_state(trained).values():
            arr[...] = rng.uniform(0.5, 2.0, arr.shape)   # running stats
        tr.save_checkpoint(str(tmp_path), 0, trained, None)

        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", None)     # no generator
            restored, rcfg = cli._restore_model(cfg, arch, "eval.checkpoint")
        reference, _ = drawn(0)
        tr.load_checkpoint(str(tmp_path), reference)
        samples = tr.samples_from_tiles(dp.synth_dataset(
            2, 32, seed=3, shots_per_tile=20))
        for s in samples:
            assert np.array_equal(tr.predict_heights(restored, rcfg, s),
                                  tr.predict_heights(reference, mcfg, s))
        got, want = (optim.export_arrays(p) for p in (restored, reference))
        assert got.keys() == want.keys()
        assert all(got[k].tobytes() == want[k].tobytes() for k in got)


class _FullDisk:
    """A ``beam_kind`` whose text raises the OSError of a full disk."""

    def __str__(self):
        raise OSError("no space left on device")


class TestCrashSafeOutputs:
    """An output whose write fails part-way leaves the previous complete
    file in place, or none, and no temporary file."""

    @staticmethod
    def check_kept(path, before):
        folder = os.path.dirname(path)
        assert not [f for f in os.listdir(folder) if f.endswith(".tmp")]
        if before is None:
            assert not os.path.exists(path)
        else:
            with open(path, "rb") as fh:
                assert fh.read() == before

    @pytest.mark.parametrize("previous", [True, False])
    @pytest.mark.parametrize("writer", ["trace", "shots", "grid", "report",
                                        "gsi", "write_csv"])
    def test_interrupted_csv_writer(self, workspace, tmp_path, writer,
                                    previous):
        _, _, ds = workspace
        shots = dp.shots_from_csv(os.path.join(ds, "shots.csv"))
        xs, ys = [s.lon for s in shots], [s.lat for s in shots]
        cells = dp.build_grid(shots, (min(xs), min(ys), max(xs) + 1,
                                      max(ys) + 1), cell_size=160.0,
                              min_shots=1, seed=0)
        rows = {
            "trace": ([[0, 0.1, *range(6)], [1, 0.1, *range(6)]],
                      lambda items, p: tn.write_csv(p, tr.TRACE_COLUMNS,
                                                    items)),
            "shots": (shots, dp.shots_to_csv),
            "grid": (cells, dp.grid_to_csv),
            "report": ([((0.0, 10.0), None), ((10.0, 20.0), None)],
                       mt.report_to_csv),
            "gsi": ([["mean", "", "", "1.0", "10.0"], ["tail", "", "", "", ""]],
                    lambda tail, p: cli._write_gsi_csv(p, [], tail)),
            "write_csv": ([[0, 0.5, None], [1, "a,b", 2.5]],
                          lambda items, p: tn.write_csv(p, ["k", "u", "v"],
                                                        items)),
        }
        items, write = rows[writer]
        path = str(tmp_path / f"{writer}.csv")
        before = None
        if previous:
            write(items, path)
            with open(path, "rb") as fh:
                before = fh.read()
        assert len(items) >= 2
        if writer == "shots":       # a table: its last row fails to format
            failing = items.copy()
            failing.beam_kind[-1] = _FullDisk()
        else:
            failing = _then_fail(items[:-1])
        with pytest.raises(OSError):
            write(failing, path)
        self.check_kept(path, before)

    def test_interrupted_eval_keeps_the_previous_predictions(
            self, workspace, trained, evaluated, tmp_path, monkeypatch):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        root, _, _ = workspace
        cfg, first = evaluated
        out = str(tmp_path / "eval")
        assert run(cfg, ["eval", "--out", out], tmp_path) == 0
        names = sorted(os.listdir(out))
        before = {}
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                before[name] = fh.read()
        write_record = tn.write_record

        def failing(fh, arr):
            if os.path.basename(fh.name).startswith("pred_001.tnsr"):
                fh.write(b"TNSR")
                raise OSError("no space left on device")
            write_record(fh, arr)
        monkeypatch.setattr(tn, "write_record", failing)
        assert run(cfg, ["eval", "--out", out], tmp_path) == 1
        assert sorted(os.listdir(out)) == names
        for name in names:
            self.check_kept(os.path.join(out, name), before[name])


class TestErrors:
    @pytest.mark.parametrize("command", ["filter", "composite", "grid",
                                         "train", "eval", "gsi"])
    def test_unset_dataset_dir_is_named_not_read_from_the_working_folder(
            self, workspace, evaluated, tmp_path, monkeypatch, caplog,
            command):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        _, _, ds = workspace
        cfg, pred_dir = evaluated
        cfg = cfg.copy()
        cfg.set("eval", "pred_dir", pred_dir)
        cfg.set("data", "dataset_dir", "")
        monkeypatch.chdir(ds)           # a whole dataset the stage must not read
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, [command, "--out", str(out)], tmp_path) == 1
        assert "FileNotFoundError: data.dataset_dir is not set" in caplog.text
        assert not out.exists()

    def test_unset_pred_dir_is_named_not_read_from_the_working_folder(
            self, evaluated, tmp_path, monkeypatch, caplog):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        cfg, pred_dir = evaluated
        cfg = cfg.copy()
        cfg.set("eval", "pred_dir", "")
        monkeypatch.chdir(pred_dir)     # every prediction gsi would read
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, ["gsi", "--out", str(out)], tmp_path) == 1
        assert "FileNotFoundError: eval.pred_dir is not set" in caplog.text
        assert not out.exists()

    def test_missing_dataset_returns_one(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        cfg = small_cfg()
        cfg.set("data", "dataset_dir", str(tmp_path / "nope"))
        assert run(cfg, ["filter", "--out", str(tmp_path)], tmp_path) == 1

    def test_malformed_shots_log_the_error_type(self, tmp_path, monkeypatch,
                                                caplog):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "shots.csv").write_text(",".join(dp.SHOT_FIELDS)
                                      + "\n1.0,2.0\n")
        cfg = small_cfg()
        cfg.set("data", "dataset_dir", str(ds))
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, ["filter", "--out", str(tmp_path / "f")],
                       tmp_path) == 1
        assert f"ValueError: {ds / 'shots.csv'}, line 2: " in caplog.text

    def test_debug_log_level_reraises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CANOPY_LOG", "DEBUG")
        cfg = small_cfg()
        cfg.set("data", "dataset_dir", str(tmp_path / "nope"))
        with pytest.raises(FileNotFoundError):
            run(cfg, ["filter", "--out", str(tmp_path)], tmp_path)

    @pytest.mark.parametrize("key,value,message", [
        (("loss", "betas"), "0.7,0.7", "betas needs 4 values"),
        (("optimizer", "batch_size"), 0, "batch_size must be at least 1"),
        (("optimizer", "max_epochs"), -1, "epochs must be at least 1"),
        (("model", "stem_width"), 0, "stem_width must be at least 1"),
        (("optimizer", "lr"), -1.0, "base_lr must not be negative, got -1.0"),
        (("optimizer", "lr_adaptive"), -1e-5,
         "adaptive_lr must not be negative, got -1e-05"),
        (("loss", "consensus_tol"), float("nan"),
         "consensus_tol must be positive, got nan"),
        (("loss", "delta"), float("nan"), "delta must be positive, got nan"),
        (("loss", "overlap"), float("nan"),
         "overlap must be non-negative, got nan"),
    ])
    def test_malformed_training_config_returns_one(
            self, workspace, tmp_path, monkeypatch, caplog, key, value,
            message):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        _, cfg, _ = workspace
        cfg = cfg.copy()
        cfg.set(*key, value)
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, ["train", "--out", str(tmp_path / "t")],
                       tmp_path) == 1
        assert f"ValueError: {message}" in caplog.text
        assert not os.path.exists(tmp_path / "t" / "checkpoints")

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_returns_one(self, tmp_path, monkeypatch, caplog,
                                       where):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        cfg = small_cfg()
        cfg.set("run", "seed", -1 if where == "config" else 7)
        flag = ["--seed", "-1"] if where == "flag" else []
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, ["synth", *flag, "--out", str(tmp_path / "d")],
                       tmp_path) == 1
        assert "ValueError: [run] seed must not be negative, got -1" \
            in caplog.text
        assert not os.path.exists(tmp_path / "d")

    def test_synth_with_no_tiles_returns_one(self, tmp_path, monkeypatch,
                                              caplog):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        cfg = small_cfg()
        cfg.set("data", "n_tiles", 0)
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, ["synth", "--out", str(tmp_path / "d")],
                       tmp_path) == 1
        assert "ValueError: [data] n_tiles must be at least 1, got 0" \
            in caplog.text
        assert not os.path.exists(tmp_path / "d")

    @pytest.mark.parametrize("key,value,message", [
        ("tile_size", 0, "tile_size must be positive, got 0"),
        ("tile_size", -8, "tile_size must be positive, got -8"),
        ("shots_per_tile", -1, "shots_per_tile must not be negative, got -1"),
        ("violation_rate", 1.5, "violation_rate must lie in [0, 1], got 1.5"),
        ("violation_rate", -0.1, "violation_rate must lie in [0, 1], got -0.1"),
        ("violation_rate", float("nan"),
         "violation_rate must lie in [0, 1], got nan"),
    ], ids=["tile_zero", "tile_negative", "shots_negative", "rate_above_1",
            "rate_below_0", "rate_nan"])
    def test_synth_rejects_malformed_data_entry(self, tmp_path, monkeypatch,
                                                caplog, key, value, message):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        cfg = small_cfg()
        cfg.set("data", key, value)
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, ["synth", "--out", str(tmp_path / "d")],
                       tmp_path) == 1
        assert f"ValueError: [data] {message}" in caplog.text
        assert not os.path.exists(tmp_path / "d")

    @pytest.mark.parametrize("command,size", [
        ("train", 64), ("eval", 64), ("gsi", 33), ("train", 0), ("train", -4)])
    def test_input_that_does_not_fit_the_tiles_returns_one(
            self, workspace, tmp_path, monkeypatch, caplog, command, size):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        _, cfg, _ = workspace
        cfg = cfg.copy()
        cfg.set("model", "input_size", size)
        out = tmp_path / "o"
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, [command, "--out", str(out)], tmp_path) == 1
        assert ("ValueError: [model] input_size must lie in [1, 32] for "
                f"32 x 32 px dataset tiles, got {size}") in caplog.text
        assert not os.path.exists(out)

    def test_grid_with_no_retained_shot_returns_one(self, workspace, tmp_path,
                                                    monkeypatch, caplog):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        _, cfg, ds = workspace
        shots = dp.shots_from_csv(os.path.join(ds, "shots.csv"))
        shots.num_detectedmodes = 0         # every shot breaks a rule
        (tmp_path / "ds").mkdir()
        dp.shots_to_csv(shots, str(tmp_path / "ds" / "shots.csv"))
        cfg = cfg.copy()
        cfg.set("data", "dataset_dir", str(tmp_path / "ds"))
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, ["grid", "--out", str(tmp_path / "g")],
                       tmp_path) == 1
        assert "no shot passes the quality filter" in caplog.text

    @pytest.mark.parametrize("command,key,value", [
        ("grid", ("data", "cell_size_m"), 0.0),
        ("grid", ("data", "cell_size_m"), -160.0),
        ("eval", ("eval", "range_step"), 0.0),
        ("eval", ("eval", "range_step"), -5.0),
        ("eval", ("eval", "range_max"), 0.0),
    ])
    def test_non_positive_cell_or_range_returns_one(
            self, workspace, tmp_path, monkeypatch, caplog, command, key,
            value):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        _, cfg, _ = workspace
        cfg = cfg.copy()
        cfg.set(*key, value)
        out = tmp_path / "o"
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, [command, "--out", str(out)], tmp_path) == 1
        assert (f"ValueError: [{key[0]}] {key[1]} must be positive, got "
                f"{value}") in caplog.text
        assert not os.path.exists(out)

    def test_invalid_config_value_returns_one(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        cfg = small_cfg()
        cfg.set("run", "arch", "nonesuch")
        assert run(cfg, ["synth", "--out", str(tmp_path)], tmp_path) == 1

    def test_a_command_refuses_an_entry_it_does_not_read(
            self, workspace, tmp_path, monkeypatch, caplog):
        # filter reads no [eval] entry, yet the config is checked whole
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        _, cfg, _ = workspace
        cfg = cfg.copy()
        cfg.set("eval", "range_step", 0)
        out = tmp_path / "f"
        with caplog.at_level(logging.ERROR, logger="canopyheights"):
            assert run(cfg, ["filter", "--out", str(out)], tmp_path) == 1
        assert ("ValueError: [eval] range_step must be positive, got 0.0"
                in caplog.text)
        assert not os.path.exists(out)

    def test_a_tile_part_of_other_extents_is_named(self, workspace, tmp_path):
        _, _, ds = workspace
        shutil.copytree(ds, tmp_path / "ds")
        mask = tmp_path / "ds" / "tile_001.mask.tnsr"
        save_tensor(str(mask), np.ones((16, 32)))
        with pytest.raises(ValueError, match=re.escape(
                f"{mask}: extents (16, 32) differ from its s2's (32, 32)")):
            cli.read_dataset(str(tmp_path / "ds"))


# A U-Net run end to end, then one GELU: prints the scipy modules loaded
# before the GELU, then whether scipy.special is loaded after it.
COLD_RUN = """
import sys
import numpy as np
import canopyheights.cli
from canopyheights import datapipe, metrics, nn, train
from canopyheights.tensor import Tensor
tiles = datapipe.synth_dataset(2, 32, seed=0, shots_per_tile=20)
samples = train.samples_from_tiles(tiles)
res = train.train_unet(samples, train.TrainSettings(
    arch="a2mdu", epochs=1, batch_size=2, stem_width=4))
for s, t in zip(samples, tiles):
    metrics.gsi(train.predict_heights(res.params, res.config, s), t.s2)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
nn.gelu(Tensor(np.linspace(-3.0, 3.0, 7)))
print("scipy.special" in sys.modules)
"""


class TestColdImport:
    def test_unet_run_never_loads_scipy(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", COLD_RUN], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines() == ["[]", "True"]
