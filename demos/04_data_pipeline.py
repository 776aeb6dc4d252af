"""The data pipeline: synthesis, quality filtering, compositing, gridding.

Run with:  python3 demos/04_data_pipeline.py
"""

import numpy as np

from canopyheights import datapipe as dp

print("=" * 60)
print("1. Procedural tiles with a realistic, skewed height mix")
print("=" * 60)

tiles = dp.synth_dataset(4, 32, seed=0, shots_per_tile=120,
                         violation_rate=0.25)
heights = np.concatenate([t.heights.ravel() for t in tiles])
print("tiles       :", len(tiles), "of", tiles[0].heights.shape)
print("short (<15m): %.1f%%" % (100 * (heights < 15).mean()))
print("tall  (>35m): %.1f%%" % (100 * (heights > 35).mean()),
      " (rare, like real forests)")

print()
print("=" * 60)
print("2. Shot quality filtering with per-rule attribution")
print("=" * 60)

shots = np.concatenate([t.shots for t in tiles]).view(np.recarray)
retained, counts = dp.filter_gedi(shots)
print("input shots :", len(shots))
for rule in dp.FILTER_RULES:
    print(f"  rejected by {rule:<12}: {counts[rule]}")
print("retained    :", len(retained))

print()
print("=" * 60)
print("3. Median compositing ignores masked pixels per frame")
print("=" * 60)

rng = np.random.default_rng(1)
base = tiles[0].s2
frames = [base + rng.normal(scale=0.05, size=base.shape) for _ in range(5)]
masks = [rng.random(base.shape[:2]) > 0.2 for _ in range(5)]
comp, missing = dp.median_composite(dp.ImageStack(frames, masks))
print("frames      :", len(frames))
print("composite   :", comp.shape, " missing pixels:", missing)

print()
print("=" * 60)
print("4. Grid cells are rebalanced by their height-range mix")
print("=" * 60)

xs, ys = shots.lon, shots.lat
cell = 160.0
bounds = (xs.min(), ys.min(),
          xs.min() + np.ceil(np.ptp(xs) / cell) * cell,
          ys.min() + np.ceil(np.ptp(ys) / cell) * cell)
cells = dp.build_grid(shots, bounds, cell_size=cell, min_shots=5, seed=2)
print("cells kept  :", len(cells))
for c in cells[:4]:
    print(f"  cell {c.cell_id}: set {c.set_id}, split {c.split}, "
          f"duplication {c.duplication}")
listed = dp.training_list(cells)
print("training list with duplication applied:", len(listed), "entries")
