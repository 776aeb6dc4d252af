"""Run configuration: flat INI-style sections with typed, defaulted keys.

Unknown sections or keys, and values of the wrong type, are rejected so
typos fail loudly; the serialized form is canonical — parse, serialize,
parse is the identity.  ``RunConfig.validate`` checks every ``SCHEMA`` row's
rule; an entry a library dataclass checks, or ``[model] input_size``
(bounded by the dataset's tiles), carries none.
"""

from __future__ import annotations

import configparser
import copy
import io

from .train import UNET_CONFIGS

VALID_ARCHS = (*UNET_CONFIGS, "hytec")

# a rule: (message, test); every test fails on NaN
POSITIVE = ("must be positive", lambda v: v > 0)
AT_LEAST_1 = ("must be at least 1", lambda v: v >= 1)
NOT_NEGATIVE = ("must not be negative", lambda v: v >= 0)
UNIT = ("must lie in [0, 1]", lambda v: 0 <= v <= 1)
ARCH = (f"must be one of {', '.join(VALID_ARCHS)}", lambda v: v in VALID_ARCHS)

# section -> key -> (type, default) or (type, default, rule)
SCHEMA = {
    "run": {
        "seed": (int, 0, NOT_NEGATIVE),
        "arch": (str, "2mou", ARCH),
    },
    "data": {
        "dataset_dir": (str, ""),
        # the compositing stack synth writes is drawn over tile 0
        "n_tiles": (int, 8, AT_LEAST_1),
        "tile_size": (int, 64, POSITIVE),
        "shots_per_tile": (int, 80, NOT_NEGATIVE),
        "violation_rate": (float, 0.2, UNIT),
        "cell_size_m": (float, 7680.0, POSITIVE),
        "min_cell_shots": (int, 600),
        "teacher_s1": (str, ""),
        "teacher_s2": (str, ""),
    },
    "model": {
        "stem_width": (int, 16),
        "input_size": (int, 256),
        "patch": (int, 16),
        "embed_dim": (int, 1536),
        "blocks": (int, 12),
        "heads": (int, 12),
        "l_hat": (int, 256),
        "taps": (str, "3,6,9,12"),
    },
    "optimizer": {
        "lr": (float, 1e-2),
        "lr_adaptive": (float, 1e-5),
        "lr_start": (float, 1e-6),
        "lr_peak": (float, 1e-4),
        "warmup_epochs": (int, 20),
        "max_epochs": (int, 250),
        "batch_size": (int, 12),
    },
    "loss": {
        "delta": (float, 3.0),
        "alpha_cr": (float, 1.0),
        "betas": (str, "0.7,0.7,0.7,1.0"),
        "bin_edges": (str, "0,6,12,18,24,30,36,42,48,54,60"),
        "overlap": (float, 1.5),
        "consensus_tol": (float, 0.1),
    },
    "eval": {
        "checkpoint": (str, ""),
        "pred_dir": (str, ""),
        "range_step": (float, 5.0, POSITIVE),
        "range_max": (float, 55.0, POSITIVE),
    },
}


def _typed(typ, value, section: str, key: str):
    """``typ(value)``, or a ``ValueError`` naming the entry ``[section] key``."""
    try:
        return typ(value)
    except (TypeError, ValueError):
        raise ValueError(f"[{section}] {key}: {value!r} is not of type "
                         f"{typ.__name__}") from None


class RunConfig:
    """Typed view over the schema with attribute-style section access."""

    def __init__(self):
        self._values = {s: {k: row[1] for k, row in keys.items()}
                        for s, keys in SCHEMA.items()}

    def get(self, section: str, key: str):
        try:
            return self._values[section][key]
        except KeyError:
            raise KeyError(f"unknown config entry [{section}] {key}") from None

    def set(self, section: str, key: str, value) -> None:
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise KeyError(f"unknown config entry [{section}] {key}")
        self._values[section][key] = _typed(SCHEMA[section][key][0], value,
                                            section, key)

    def __eq__(self, other) -> bool:
        return isinstance(other, RunConfig) and self._values == other._values

    def copy(self) -> "RunConfig":
        out = RunConfig()
        out._values = copy.deepcopy(self._values)
        return out

    # convenience typed list accessors
    def floats(self, section: str, key: str) -> list:
        return [_typed(float, v, section, key)
                for v in str(self.get(section, key)).split(",") if v]

    def ints(self, section: str, key: str) -> list:
        return [_typed(int, v, section, key)
                for v in str(self.get(section, key)).split(",") if v]

    def validate(self) -> "RunConfig":
        """``ValueError`` naming the first entry outside its row's rule."""
        for section, values in self._values.items():
            for key, value in values.items():
                for message, test in SCHEMA[section][key][2:]:
                    if not test(value):
                        raise ValueError(f"[{section}] {key} {message}, "
                                         f"got {value}")
        return self


def serialize(cfg: RunConfig) -> str:
    """Canonical INI text in schema order."""
    out = io.StringIO()
    for section in SCHEMA:
        out.write(f"[{section}]\n")
        for key in SCHEMA[section]:
            out.write(f"{key} = {cfg.get(section, key)}\n")
        out.write("\n")
    return out.getvalue()


def parse(text: str, source: str = "<string>") -> RunConfig:
    """Parse INI text, rejecting anything outside the schema; configparser's
    errors name ``source``.  Values are read as written: no ``%``
    interpolation, so every value ``serialize`` writes reads back."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text, source)
    cfg = RunConfig()
    for section in cp.sections():
        if section not in SCHEMA:
            raise KeyError(f"unknown config section [{section}]")
        for key, raw in cp.items(section):
            cfg.set(section, key, raw)
    return cfg


def load(path: str) -> RunConfig:
    """The config in the UTF-8 INI file ``path``; anything ``parse``
    refuses, and text that is not UTF-8, raises a ``ValueError`` naming
    the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read(), str(path))
    except (configparser.Error, KeyError, ValueError) as exc:
        cause = exc.args[0] if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: {cause}") from None


def save(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(cfg))
