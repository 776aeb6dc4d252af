"""End-to-end command-line pipeline: every subcommand in a temp workspace."""

import csv
import os

import numpy as np
import pytest

from canopyheights import cli
from canopyheights import config as cf
from canopyheights import datapipe as dp
from canopyheights.tensor import load_tensor


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


class TestErrors:
    def test_missing_dataset_returns_one(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        cfg = small_cfg()
        cfg.set("data", "dataset_dir", str(tmp_path / "nope"))
        assert run(cfg, ["filter", "--out", str(tmp_path)], tmp_path) == 1

    def test_debug_log_level_reraises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CANOPY_LOG", "DEBUG")
        cfg = small_cfg()
        cfg.set("data", "dataset_dir", str(tmp_path / "nope"))
        with pytest.raises(FileNotFoundError):
            run(cfg, ["filter", "--out", str(tmp_path)], tmp_path)

    def test_invalid_config_value_returns_one(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CANOPY_LOG", raising=False)
        cfg = small_cfg()
        cfg.set("run", "arch", "nonesuch")
        assert run(cfg, ["synth", "--out", str(tmp_path)], tmp_path) == 1
