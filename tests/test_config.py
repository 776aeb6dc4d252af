"""Configuration: schema typing, canonical serialization, validation."""

import re

import pytest

from canopyheights import config as cf


class TestSchema:
    def test_defaults_populated(self):
        cfg = cf.RunConfig()
        assert cfg.get("run", "seed") == 0
        assert cfg.get("optimizer", "max_epochs") == 250
        assert cfg.get("optimizer", "batch_size") == 12
        assert cfg.get("model", "embed_dim") == 1536

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


class TestValidation:
    def test_bad_arch_rejected(self):
        cfg = cf.RunConfig()
        cfg.set("run", "arch", "resnet")
        with pytest.raises(ValueError):
            cfg.validate()
