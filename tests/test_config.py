"""Configuration: schema typing, canonical serialization, validation."""

import inspect
import re

import numpy as np
import pytest

from canopyheights import config as cf
from canopyheights import datapipe as dp
from canopyheights.hytec import HyTecConfig
from canopyheights.losses import HeightBinning, HyTecLossConfig
from canopyheights.train import TrainSettings


def library_defaults() -> dict:
    """Each config entry that stands for a library default, and that
    default."""
    ts, hc = TrainSettings(arch="2mou"), HyTecConfig()
    lc, bins = HyTecLossConfig(), HeightBinning.default()
    synth = inspect.signature(dp.synth_dataset).parameters
    return {
        ("run", "seed"): ts.seed,
        ("model", "stem_width"): ts.stem_width,
        ("optimizer", "max_epochs"): ts.epochs,
        ("optimizer", "batch_size"): ts.batch_size,
        ("optimizer", "lr"): ts.base_lr,
        ("optimizer", "lr_adaptive"): ts.adaptive_lr,
        ("optimizer", "warmup_epochs"): ts.warmup_epochs,
        ("optimizer", "lr_start"): ts.lr_start,
        ("optimizer", "lr_peak"): ts.lr_peak,
        ("model", "input_size"): hc.image_size,
        ("model", "patch"): hc.patch,
        ("model", "embed_dim"): hc.embed_dim,
        ("model", "blocks"): hc.blocks,
        ("model", "heads"): hc.heads,
        ("model", "l_hat"): hc.l_hat,
        ("model", "taps"): hc.taps,
        ("loss", "betas"): lc.betas,
        ("loss", "alpha_cr"): lc.alpha_cr,
        ("loss", "delta"): lc.delta,
        ("loss", "consensus_tol"): lc.consensus_tol,
        ("loss", "bin_edges"): bins.base_edges,
        ("loss", "overlap"): bins.overlap,
        ("data", "shots_per_tile"): synth["shots_per_tile"].default,
        ("data", "violation_rate"): synth["violation_rate"].default,
        ("data", "cell_size_m"): dp.CELL_SIZE_M,
        ("data", "min_cell_shots"): dp.MIN_CELL_SHOTS,
    }


class TestSchema:
    def test_defaults_populated(self):
        cfg = cf.RunConfig()
        assert cfg.get("run", "seed") == 0
        assert cfg.get("optimizer", "max_epochs") == 250
        assert cfg.get("optimizer", "batch_size") == 12
        assert cfg.get("model", "embed_dim") == 1536

    @pytest.mark.parametrize("entry", library_defaults())
    def test_default_equals_the_library_default(self, entry):
        expected = library_defaults()[entry]
        cfg = cf.RunConfig()
        if isinstance(expected, (tuple, np.ndarray)):
            assert cfg.floats(*entry) == list(expected)
        else:
            actual = cfg.get(*entry)
            assert (type(actual), actual) == (type(expected), expected)

    def test_set_coerces_types(self):
        cfg = cf.RunConfig()
        cfg.set("run", "seed", "17")
        assert cfg.get("run", "seed") == 17

    def test_unknown_entries_rejected(self):
        cfg = cf.RunConfig()
        with pytest.raises(KeyError):
            cfg.get("run", "nope")
        with pytest.raises(KeyError):
            cfg.set("nope", "seed", 1)

    def test_list_accessors(self):
        cfg = cf.RunConfig()
        assert cfg.floats("loss", "betas") == [0.7, 0.7, 0.7, 1.0]
        assert cfg.ints("model", "taps") == [3, 6, 9, 12]

    def test_value_of_the_wrong_type_names_the_entry(self):
        cfg = cf.RunConfig()
        with pytest.raises(ValueError, match=r"\[optimizer\] batch_size: "
                                             r"'twelve' is not of type int"):
            cfg.set("optimizer", "batch_size", "twelve")
        with pytest.raises(ValueError, match=r"\[data\] violation_rate: "
                                             r"'lots' is not of type float"):
            cf.parse("[data]\nviolation_rate = lots\n")

    @pytest.mark.parametrize("section,key,text,accessor,bad", [
        ("model", "taps", "1,x", "ints", "'x' is not of type int"),
        ("model", "taps", "3,6.5", "ints", "'6.5' is not of type int"),
        ("loss", "betas", "0.7,,high", "floats", "'high' is not of type float"),
    ])
    def test_list_item_of_the_wrong_type_names_the_entry(
            self, section, key, text, accessor, bad):
        cfg = cf.parse(f"[{section}]\n{key} = {text}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"[{section}] {key}: {bad}")):
            getattr(cfg, accessor)(section, key)


class TestSerialization:
    def test_roundtrip_is_identity(self):
        cfg = cf.RunConfig()
        cfg.set("run", "seed", 5)
        cfg.set("optimizer", "lr", 0.025)
        text = cf.serialize(cfg)
        again = cf.parse(text)
        assert again == cfg
        assert cf.serialize(again) == text

    def test_parse_rejects_unknown_section(self):
        with pytest.raises(KeyError):
            cf.parse("[mystery]\nx = 1\n")

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(KeyError):
            cf.parse("[run]\nbogus = 1\n")

    def test_save_load(self, tmp_path):
        cfg = cf.RunConfig()
        cfg.set("data", "n_tiles", 3)
        p = tmp_path / "run.ini"
        cf.save(cfg, p)
        assert cf.load(p) == cfg

    def test_a_value_with_percent_signs_reads_back(self, tmp_path):
        """Values are read as written: no ``%`` interpolation."""
        cfg = cf.RunConfig()
        cfg.set("data", "dataset_dir", "runs/50%_cover")
        cfg.set("eval", "pred_dir", "preds/%%(x)s")
        p = tmp_path / "run.ini"
        cf.save(cfg, p)
        again = cf.load(p)
        assert again == cfg
        assert again.get("data", "dataset_dir") == "runs/50%_cover"
        assert again.get("eval", "pred_dir") == "preds/%%(x)s"


class TestLoad:
    """``load`` names the file in every error; ``parse`` and ``set`` keep
    raising ``KeyError`` for an unknown entry."""

    @pytest.mark.parametrize("text,cause", [
        (b"seed = 1\n", "File contains no section headers"),
        (b"[run]\nseed = 1\nseed = 2\n", "already exists"),
        (b"[run]\narch = \xff\n", "'utf-8' codec can't decode byte 0xff"),
        (b"[mystery]\nx = 1\n", "unknown config section [mystery]"),
        (b"[run]\nbogus = 1\n", "unknown config entry [run] bogus"),
        (b"[run]\nseed = one\n", "[run] seed: 'one' is not of type int"),
    ], ids=["no_section", "twice", "not_utf8", "section", "key", "type"])
    def test_every_error_names_the_file(self, tmp_path, text, cause):
        path = tmp_path / "run.ini"
        path.write_bytes(text)
        with pytest.raises(ValueError) as info:
            cf.load(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        assert cause in message
        assert "<string>" not in message


class TestValidation:
    def test_bad_arch_rejected(self):
        cfg = cf.RunConfig()
        cfg.set("run", "arch", "resnet")
        with pytest.raises(ValueError):
            cfg.validate()

    @pytest.mark.parametrize("rule", ["POSITIVE", "AT_LEAST_1",
                                      "NOT_NEGATIVE", "UNIT", "ARCH"])
    def test_every_rule_refuses_nan(self, rule):
        _, test = getattr(cf, rule)
        assert not test(float("nan"))

    @pytest.mark.parametrize("section,key,value,message", [
        ("run", "seed", -1, "must not be negative, got -1"),
        ("run", "arch", "resnet", "must be one of 2mou, 2mdu, a2mdu, "
         "teacher_s1, teacher_s2, hytec, got resnet"),
        ("data", "n_tiles", 0, "must be at least 1, got 0"),
        ("data", "tile_size", 0, "must be positive, got 0"),
        ("data", "shots_per_tile", -1, "must not be negative, got -1"),
        ("data", "violation_rate", float("nan"),
         "must lie in [0, 1], got nan"),
        ("data", "cell_size_m", float("nan"), "must be positive, got nan"),
        ("eval", "range_step", -5.0, "must be positive, got -5.0"),
        ("eval", "range_max", float("nan"), "must be positive, got nan"),
    ])
    def test_an_entry_outside_its_rule_is_named(self, section, key, value,
                                                message):
        cfg = cf.RunConfig()
        cfg.set(section, key, value)
        with pytest.raises(ValueError, match=re.escape(
                f"[{section}] {key} {message}")):
            cfg.validate()
