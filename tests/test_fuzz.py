"""Seeded mutation fuzz of every file format the program reads.

Each format's file is cut, has one bit flipped, has random bytes inserted
and has a span deleted, a fixed number of times each.  Every mutant either
loads or raises a ``ValueError`` whose message contains the file's path.
A flipped payload bit may load: no format carries a checksum.
"""

import pathlib

import numpy as np

from canopyheights import config as cf
from canopyheights import datapipe as dp
from canopyheights import train as tr
from canopyheights.tensor import load_tensor, save_tensor

KINDS = ("cut", "flip", "insert", "delete")
PER_KIND = 25


def mutants(data: bytes, seed: int):
    """(kind, mutated bytes): ``PER_KIND`` mutants of each kind."""
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        for _ in range(PER_KIND):
            at = int(rng.integers(len(data)))
            span = int(rng.integers(1, 9))
            if kind == "cut":
                yield kind, data[:at]
            elif kind == "flip":
                flipped = data[at] ^ (1 << int(rng.integers(8)))
                yield kind, data[:at] + bytes([flipped]) + data[at + 1:]
            elif kind == "insert":
                yield kind, data[:at] + rng.bytes(span) + data[at:]
            else:
                yield kind, data[:at] + data[at + span:]


def check_mutants(path, load, seed: int) -> None:
    """Write each mutant of ``path`` over it and ``load`` it: it loads, or
    its ``ValueError`` names ``path``; at least one mutant is refused."""
    path = pathlib.Path(path)
    whole = path.read_bytes()
    refused = 0
    for kind, data in mutants(whole, seed):
        path.write_bytes(data)
        try:
            load(str(path))
        except ValueError as exc:
            refused += 1
            assert str(path) in str(exc), (kind, exc)
    assert refused


def test_tnsr(tmp_path):
    path = tmp_path / "a.tnsr"
    save_tensor(str(path), np.arange(24.0).reshape(2, 3, 4))
    check_mutants(path, load_tensor, seed=1)


def test_checkpoint(tmp_path):
    params, _ = tr.make_unet("2mou", np.random.default_rng(0), 2)
    path = tr.save_checkpoint(str(tmp_path), 0, params, None)
    check_mutants(path, lambda p: tr.load_checkpoint(p, params), seed=2)


def test_shot_csv(tmp_path):
    tiles = dp.synth_dataset(1, 16, seed=0, shots_per_tile=8)
    path = tmp_path / "shots.csv"
    dp.shots_to_csv(tiles[0].shots, str(path))
    check_mutants(path, dp.shots_from_csv, seed=3)


def test_config(tmp_path):
    cfg = cf.RunConfig()
    cfg.set("run", "seed", 7)
    path = tmp_path / "run.ini"
    cf.save(cfg, str(path))
    check_mutants(path, cf.load, seed=4)
