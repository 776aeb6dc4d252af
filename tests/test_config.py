"""Configuration: schema typing, canonical serialization, validation."""

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
