"""Data pipeline: normalization, gating, compositing, filtering, gridding."""

import csv
import hashlib
import inspect
import io
import math
import re

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from canopyheights import datapipe as dp


def clean_shot(**kw):
    """A one-row shot table that breaks no filter rule, with ``kw`` in
    place of its defaults."""
    base = dict(lon=5.0, lat=5.0, rh98=10.0, num_detectedmodes=2,
                snr_db=20.0, view_angle=2.0, sensitivity=0.98,
                elm=200.0, srtm=205.0, rx_sample_count=800,
                search_end=300, canopy_cover=0.5, ndvi30=0.5,
                acquired_at=100, beam_kind="full_power")
    base.update(kw)
    return np.rec.fromrecords([tuple(base[f] for f in dp.SHOT_FIELDS)],
                              dtype=dp.SHOT_DTYPE)


def concat(shots):
    """The given shot tables as one, in order."""
    return np.concatenate(shots).view(np.recarray)


FLOAT_FIELDS = [f for f in dp.SHOT_FIELDS if dp.SHOT_DTYPE[f].kind == "f"]
NUMBER_FIELDS = [f for f in dp.SHOT_FIELDS if f != "beam_kind"]


def oracle_rules(shot, sigma_cover):
    """Every rule one shot breaks, in canonical order, tested one field at
    a time."""
    broken = [
        ("modes", shot.num_detectedmodes == 0),
        ("snr_va", shot.snr_db < 12.0 or shot.view_angle > 5.0),
        ("sensitivity", shot.sensitivity < 0.95),
        ("elevation", abs(shot.elm - shot.srtm) > 75.0),
        ("waveform", shot.rx_sample_count - shot.search_end <= 1),
        ("ndvi", abs(shot.canopy_cover - shot.ndvi30) > 1.5 * sigma_cover),
    ]
    return [rule for rule, hit in broken if hit]


def oracle_grid(shots, area_bounds, cell_size, min_shots, seed):
    """build_grid's cells, bucketed one shot at a time, as plain tuples."""
    xmin, ymin, xmax, ymax = area_bounds
    ncols = int(np.ceil((xmax - xmin) / cell_size))
    nrows = int(np.ceil((ymax - ymin) / cell_size))
    buckets = {}
    for i, s in enumerate(shots):
        c = int((s.lon - xmin) // cell_size)
        r = int((s.lat - ymin) // cell_size)
        if 0 <= c < ncols and 0 <= r < nrows:
            buckets.setdefault((c, r), []).append(i)
    cells = []
    for (c, r), idxs in sorted(buckets.items()):
        if len(idxs) < min_shots:
            continue
        ratios = dp.height_range_ratios([shots[i].rh98 for i in idxs])
        bounds = (xmin + c * cell_size, ymin + r * cell_size,
                  xmin + (c + 1) * cell_size, ymin + (r + 1) * cell_size)
        cells.append([(c, r), bounds, idxs, ratios.tolist(),
                      dp.assign_set(ratios), "train", 0])
    rng = np.random.default_rng(seed)
    for s in range(1, 10):
        members = [cell for cell in cells if cell[4] == s]
        n_train = max(1, int(round(0.75 * len(members))))
        for pos, k in enumerate(rng.permutation(len(members)) if members
                                else []):
            train = pos < n_train
            members[k][5] = "train" if train else "val"
            members[k][6] = dp.SET_DUPLICATIONS[s - 1] if train else 0
    return [tuple(cell) for cell in cells]


class TestBackscatter:
    def test_square_cosine_normalization(self):
        s = dp.BackscatterSample(sigma0=0.25, theta=30.0, theta_ref=40.0)
        expect = 0.25 * math.cos(math.radians(40)) ** 2 \
            / math.cos(math.radians(30)) ** 2
        assert dp.normalize_backscatter(s) == pytest.approx(expect, rel=1e-12)

    def test_reference_angle_is_identity(self):
        s = dp.BackscatterSample(sigma0=0.7, theta=40.0)
        assert dp.normalize_backscatter(s) == pytest.approx(0.7)

    def test_invalid_angles_rejected(self):
        with pytest.raises(ValueError):
            dp.BackscatterSample(sigma0=0.1, theta=95.0)
        with pytest.raises(ValueError):
            dp.BackscatterSample(sigma0=-0.1, theta=30.0)


class TestRainfallGate:
    def test_heavy_rain_shadows_following_days(self):
        rain = {d: 0.0 for d in range(0, 30)}
        rain[10] = 41.0
        acq = list(range(5, 25))
        kept = dp.rainfall_gate(acq, rain)
        # day 10's rain sits inside one of the two windows for days 10..14
        assert [a for a in acq if a not in kept] == [10, 11, 12, 13, 14]

    def test_exactly_limit_is_retained(self):
        rain = {d: 0.0 for d in range(0, 12)}
        rain[6] = 40.0
        assert dp.rainfall_gate([8], rain) == [8]

    def test_split_accumulation_over_window(self):
        # 4-day sums: [a-3, a] = 30, [a-4, a-1] = 41 -> dropped
        rain = {4: 11.0, 5: 30.0, 6: 0.0, 7: 0.0, 8: 0.0}
        assert dp.rainfall_gate([8], rain) == []

    def test_missing_coverage_raises(self):
        with pytest.raises(ValueError):
            dp.rainfall_gate([3], {3: 0.0, 2: 0.0})


class TestComposite:
    def test_median_odd_and_even_counts(self):
        frames = [np.full((1, 1, 1), v, dtype=float) for v in (1, 9, 5, 7)]
        masks = [np.ones((1, 1), dtype=bool)] * 4
        out, missing = dp.median_composite(dp.ImageStack(frames, masks))
        assert out[0, 0, 0] == 6.0       # even count averages 5 and 7
        assert missing == 0
        out, _ = dp.median_composite(dp.ImageStack(frames[:3], masks[:3]))
        assert out[0, 0, 0] == 5.0

    def test_masked_samples_excluded(self):
        frames = [np.full((1, 1, 1), 3.0), np.full((1, 1, 1), 99.0)]
        masks = [np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool)]
        out, missing = dp.median_composite(dp.ImageStack(frames, masks))
        assert out[0, 0, 0] == 3.0 and missing == 0

    def test_all_invalid_pixel_counts_missing(self):
        frames = [np.zeros((2, 1, 1))]
        masks = [np.array([[False], [True]])]
        out, missing = dp.median_composite(dp.ImageStack(frames, masks))
        assert missing == 1 and np.isnan(out[0, 0, 0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dp.ImageStack([np.zeros((2, 2, 1)), np.zeros((3, 3, 1))],
                          [np.ones((2, 2), bool)] * 2)


class TestFilter:
    VIOLATIONS = {
        "modes": dict(num_detectedmodes=0),
        "snr_va": dict(snr_db=10.0),
        "snr_va_angle": dict(view_angle=6.0),
        "sensitivity": dict(sensitivity=0.90),
        "elevation": dict(srtm=300.0),
        "waveform": dict(search_end=799),
        "ndvi": dict(ndvi30=0.5 + 5.0),
    }

    def test_each_rule_triggers(self):
        for label, kw in self.VIOLATIONS.items():
            rule = "snr_va" if label.startswith("snr_va") else label
            shots = concat([clean_shot(), clean_shot(**kw)])
            retained, counts = dp.filter_gedi(shots, sigma_cover=0.02)
            assert len(retained) == 1, label
            assert counts[rule] == 1, label

    def test_counts_plus_retained_sum_to_input(self):
        shots = [clean_shot() for _ in range(5)]
        shots += [clean_shot(**kw) for kw in self.VIOLATIONS.values()]
        shots = concat(shots)
        retained, counts = dp.filter_gedi(shots, sigma_cover=0.02)
        assert len(retained) + sum(counts.values()) == len(shots)

    def test_multi_violation_attributed_to_first_rule(self):
        shot = clean_shot(num_detectedmodes=0, sensitivity=0.5)
        _, counts = dp.filter_gedi(concat([clean_shot(), shot]),
                                   sigma_cover=0.02)
        assert counts["modes"] == 1 and counts["sensitivity"] == 0

    def test_rules_toggleable(self):
        shot = clean_shot(sensitivity=0.5)
        retained, counts = dp.filter_gedi(
            shot, sigma_cover=0.02,
            rules=("modes", "elevation"))
        assert len(retained) == 1 and sum(counts.values()) == 0

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            dp.filter_gedi(clean_shot(), rules=("bogus",))

    def test_generator_labels_reproduced_per_rule(self):
        tiles = dp.synth_dataset(4, 32, seed=42, shots_per_tile=200,
                                 violation_rate=0.3)
        shots = concat([t.shots for t in tiles])
        labels = [l for t in tiles for l in t.shot_labels]
        retained, counts = dp.filter_gedi(shots)
        assert len(retained) == labels.count("clean")
        for rule in dp.FILTER_RULES:
            assert counts[rule] == labels.count(rule), rule

    @staticmethod
    def borderline_shots(n=500, seed=0):
        """Shots whose fields sit around every rule's threshold, so most
        break several rules at once."""
        rng = np.random.default_rng(seed)
        return concat([clean_shot(num_detectedmodes=int(rng.integers(0, 3)),
                                  snr_db=rng.uniform(10.0, 14.0),
                                  view_angle=rng.uniform(4.0, 6.0),
                                  sensitivity=rng.uniform(0.9, 1.0),
                                  srtm=200.0 + rng.uniform(-90.0, 90.0),
                                  search_end=800 - int(rng.integers(0, 4)),
                                  canopy_cover=rng.uniform(0.0, 1.0),
                                  ndvi30=rng.uniform(0.0, 1.0))
                       for _ in range(n)])

    @pytest.mark.parametrize("rules", [
        dp.FILTER_RULES, ("ndvi",), ("waveform", "modes"),
        ("elevation", "sensitivity", "ndvi"), ()])
    def test_table_filter_matches_per_shot_oracle(self, rules):
        shots = self.borderline_shots()
        sigma = float(np.std([abs(s.canopy_cover - s.ndvi30)
                              for s in shots]))
        broken = [oracle_rules(s, sigma) for s in shots]
        assert sum(len(b) >= 3 for b in broken) > 100
        first = [next((r for r in b if r in rules), None) for b in broken]
        retained, counts = dp.filter_gedi(shots, rules=rules)
        assert counts == {r: first.count(r) for r in dp.FILTER_RULES}
        assert retained.tolist() == [row for row, f in zip(shots.tolist(),
                                                           first) if f is None]

    def test_whole_table_and_single_rows_agree(self):
        shots = self.borderline_shots(n=60, seed=1)
        a, counts_a = dp.filter_gedi(shots, sigma_cover=0.1)
        rows = [dp.filter_gedi(shots[i:i + 1], sigma_cover=0.1)
                for i in range(len(shots))]
        b = concat([kept for kept, _ in rows])
        counts_b = {r: sum(c[r] for _, c in rows) for r in dp.FILTER_RULES}
        assert counts_a == counts_b and a.tolist() == b.tolist()
        assert a.dtype == dp.SHOT_DTYPE

    def test_empty_input(self):
        retained, counts = dp.filter_gedi(clean_shot()[:0])
        assert len(retained) == 0 and sum(counts.values()) == 0


class TestRasterize:
    def test_later_acquisition_wins(self):
        bounds = (0.0, 0.0, 20.0, 20.0)
        shots = concat([
            clean_shot(lon=5.0, lat=5.0, rh98=10.0, acquired_at=1),
            clean_shot(lon=6.0, lat=6.0, rh98=30.0, acquired_at=5)])
        target, mask = dp.rasterize_targets(shots, bounds)
        assert mask[0, 0] and target[0, 0] == 30.0

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            dp.rasterize_targets(clean_shot(lon=25.0), (0, 0, 20, 20))

    def test_matches_a_sequential_burn(self):
        """Many shots per pixel and many equal stamps: each pixel keeps the
        latest shot, and of equal stamps the last one, as a burn in input
        order that replaces on ``>=`` does."""
        rng = np.random.default_rng(4)
        bounds = (100.0, 50.0, 160.0, 90.0)
        shots = concat([clean_shot(lon=float(rng.uniform(100.0, 160.0)),
                                   lat=float(rng.uniform(50.0, 90.0)),
                                   rh98=float(k),
                                   acquired_at=int(rng.integers(0, 3)))
                        for k in range(300)])
        want = np.zeros((6, 4))
        stamp = np.full((6, 4), -np.inf)
        for s in shots:
            i, j = int((s.lon - 100.0) // 10.0), int((s.lat - 50.0) // 10.0)
            if s.acquired_at >= stamp[i, j]:
                want[i, j], stamp[i, j] = s.rh98, s.acquired_at
        target, mask = dp.rasterize_targets(shots, bounds)
        np.testing.assert_array_equal(target, want)
        assert mask.all()

    def test_no_shots_burn_nothing(self):
        target, mask = dp.rasterize_targets(clean_shot()[:0],
                                            (0.0, 0.0, 30.0, 20.0))
        assert target.shape == mask.shape == (3, 2)
        assert not target.any() and not mask.any()


class TestGrid:
    def test_height_range_ratios_oracle(self):
        h = np.array([2.0, 5.0, 7.0, 12.0, 38.0, 40.0, 45.0])
        r = dp.height_range_ratios(h)
        assert r[0] == pytest.approx(2 / 7)          # <= 5
        assert r[1] == pytest.approx(1 / 7)          # (5, 10]
        assert r[2] == pytest.approx(1 / 7)          # (10, 15]
        assert r[7] == pytest.approx(2 / 7)          # (35, 40]
        assert r[8] == pytest.approx(2 / 7)          # >= 40 (40 in both)

    def test_assign_set_scans_tall_first(self):
        r = np.zeros(9)
        r[8] = 0.03                                  # > 0.025
        r[0] = 0.97
        assert dp.assign_set(r) == 9

    def test_assign_set_fallback(self):
        r = np.zeros(9)
        r[0] = 0.4                                   # below every threshold
        assert dp.assign_set(r) == 1

    def test_build_grid_drops_sparse_cells_and_splits(self):
        rng = np.random.default_rng(0)
        shots = []
        # cell (0, 0): 20 shots, cell (1, 0): only 3
        for _ in range(20):
            shots.append(clean_shot(lon=rng.uniform(0, 100),
                                    lat=rng.uniform(0, 100),
                                    rh98=rng.uniform(0, 5)))
        for _ in range(3):
            shots.append(clean_shot(lon=rng.uniform(100, 200),
                                    lat=rng.uniform(0, 100)))
        cells = dp.build_grid(concat(shots), (0, 0, 200, 100), cell_size=100.0,
                              min_shots=10, seed=1)
        assert len(cells) == 1
        assert cells[0].set_id == 1 and cells[0].split == "train"

    def test_duplication_matches_table_and_training_only(self):
        rng = np.random.default_rng(2)
        shots = []
        # 8 cells dominated by 20-25 m heights -> ratio[4] = 1 -> set 5
        for c in range(8):
            for _ in range(12):
                shots.append(clean_shot(lon=rng.uniform(c * 50, (c + 1) * 50),
                                        lat=rng.uniform(0, 50),
                                        rh98=rng.uniform(20.5, 24.5)))
        cells = dp.build_grid(concat(shots), (0, 0, 400, 50), cell_size=50.0,
                              min_shots=10, seed=3)
        assert len(cells) == 8
        assert all(c.set_id == 5 for c in cells)
        train = [c for c in cells if c.split == "train"]
        val = [c for c in cells if c.split == "val"]
        assert len(train) == 6 and len(val) == 2     # round(0.75 * 8)
        assert all(c.duplication == dp.SET_DUPLICATIONS[4] for c in train)
        assert all(c.duplication == 0 for c in val)
        listed = dp.training_list(cells)
        assert len(listed) == 6 * (1 + dp.SET_DUPLICATIONS[4])

    def test_split_is_seed_deterministic(self):
        rng = np.random.default_rng(4)
        shots = concat([clean_shot(lon=rng.uniform(0, 400),
                                   lat=rng.uniform(0, 50),
                                   rh98=rng.uniform(0, 4))
                        for _ in range(200)])
        a = dp.build_grid(shots, (0, 0, 400, 50), cell_size=50.0,
                          min_shots=5, seed=7)
        b = dp.build_grid(shots, (0, 0, 400, 50), cell_size=50.0,
                          min_shots=5, seed=7)
        assert [(c.cell_id, c.split) for c in a] == \
            [(c.cell_id, c.split) for c in b]

    @staticmethod
    def edge_case_shots(cell, x0, y0, seed):
        """Shots in a 7 x 3 cell area starting at (x0, y0), in shuffled
        order: many on cell edges, some outside, and in the last column
        one cell of exactly 12 shots and one of 11."""
        rng = np.random.default_rng(seed)
        xs = x0 + cell * np.arange(6)
        ys = y0 + cell * np.arange(4)                # the last is ymax
        spots = [(x, y) for x in xs for y in ys] * 3
        spots += [(x0 - 1e-9, y0), (x0 - cell, y0 + cell),
                  (x0 + 7 * cell, y0), (x0 + 7.5 * cell, y0),
                  (x0, y0 + 3.5 * cell), (x0, y0 - 1e-9)]
        spots += [(x0 + rng.uniform(0, 5) * cell,
                   y0 + rng.uniform(0, 3) * cell) for _ in range(400)]
        spots += [(x0 + 6.5 * cell, y0 + 1.5 * cell)] * 12
        spots += [(x0 + 6.5 * cell, y0 + 2.5 * cell)] * 11
        shots = concat([clean_shot(lon=float(x), lat=float(y),
                                   rh98=float(rng.choice([2.0, 7.0, 22.0,
                                                          44.0])))
                        for x, y in spots])
        return shots[rng.permutation(len(shots))]

    @pytest.mark.parametrize("cell,x0,y0", [(10.0, 0.0, 0.0),
                                            (0.1, 0.3, -0.7),
                                            (160.0, 105.0, 95.0)])
    @pytest.mark.parametrize("via_csv", [False, True])
    def test_build_grid_matches_per_shot_oracle(self, tmp_path, cell, x0, y0,
                                                via_csv):
        """On the table as built, and on it as read back from its CSV."""
        shots = self.edge_case_shots(cell, x0, y0, seed=5)
        area = (x0, y0, x0 + 7 * cell, y0 + 3 * cell)
        want = oracle_grid(shots, area, cell, min_shots=12, seed=3)
        if via_csv:
            dp.shots_to_csv(shots, tmp_path / "shots.csv")
            shots = dp.shots_from_csv(tmp_path / "shots.csv")
        cells = dp.build_grid(shots, area, cell_size=cell, min_shots=12,
                              seed=3)
        got = [(c.cell_id, c.bounds, c.shot_indices, c.ratios.tolist(),
                c.set_id, c.split, c.duplication) for c in cells]
        assert got == want
        kept = {c[0]: len(c[2]) for c in want}
        assert kept[(6, 1)] == 12 and (6, 2) not in kept
        assert len(kept) > 10 and sum(kept.values()) < len(shots)


class TestPatchSampling:
    def test_crop_and_flip_consistency(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(16, 16, 3))
        b = np.arange(256.0).reshape(16, 16)
        (ca, cb), (i0, j0, fh, fv) = dp.sample_patch([a, b], 8,
                                                     np.random.default_rng(6))
        ref = b[i0:i0 + 8, j0:j0 + 8]
        if fh:
            ref = ref[::-1]
        if fv:
            ref = ref[:, ::-1]
        np.testing.assert_array_equal(cb, ref)
        assert ca.shape == (8, 8, 3)

    def test_offsets_cover_full_range(self):
        rng = np.random.default_rng(7)
        a = np.zeros((12, 12))
        seen_i, seen_j = set(), set()
        for _ in range(400):
            _, (i0, j0, _, _) = dp.sample_patch([a], 4, rng)
            seen_i.add(i0)
            seen_j.add(j0)
        assert seen_i == set(range(9)) and seen_j == set(range(9))

    def test_oversized_patch_rejected(self):
        with pytest.raises(ValueError):
            dp.sample_patch([np.zeros((4, 4))], 8, np.random.default_rng(8))


class TestSynthetic:
    def test_dataset_is_seed_deterministic(self):
        a = dp.synth_dataset(2, 32, seed=11, shots_per_tile=40)
        b = dp.synth_dataset(2, 32, seed=11, shots_per_tile=40)
        np.testing.assert_array_equal(a[0].s2, b[0].s2)
        np.testing.assert_array_equal(a[1].heights, b[1].heights)
        assert [s.rh98 for t in a for s in t.shots] == \
            [s.rh98 for t in b for s in t.shots]

    def test_skewed_height_distribution(self):
        tiles = dp.synth_dataset(12, 32, seed=12, shots_per_tile=100,
                                 violation_rate=0.0)
        h = np.concatenate([t.heights.ravel() for t in tiles])
        assert 0.88 <= (h < 15.0).mean() <= 0.98
        assert h.max() <= dp.MAX_HEIGHT_M
        assert (h > 35.0).any()

    def test_tile_contents_consistent(self):
        tiles = dp.synth_dataset(1, 32, seed=13, shots_per_tile=30)
        t = tiles[0]
        assert t.s2.shape == (32, 32, dp.S2_BANDS)
        assert t.s1.shape == (32, 32, dp.S1_BANDS)
        assert t.target.shape == t.mask.shape == (32, 32)
        assert len(t.shots) == len(t.shot_labels) == 30
        assert t.mask.sum() > 0

    def test_shot_csv_roundtrip(self, tmp_path):
        tiles = dp.synth_dataset(1, 32, seed=14, shots_per_tile=10)
        path = tmp_path / "shots.csv"
        dp.shots_to_csv(tiles[0].shots, path)
        back = dp.shots_from_csv(path)
        assert back.tolist() == tiles[0].shots.tolist()


def synth_digest(tiles) -> str:
    """SHA-256 over every tile array, every shot field and every label."""
    h = hashlib.sha256()
    for t in tiles:
        for a in (t.s2, t.s1, t.heights, t.target, t.mask):
            h.update(np.ascontiguousarray(a).tobytes())
        for name in dp.SHOT_FIELDS:
            col = [getattr(s, name) for s in t.shots]
            if dp.SHOT_DTYPE[name] == object:
                h.update("\n".join(col).encode())
            else:
                h.update(np.array(col, dp.SHOT_DTYPE[name]).tobytes())
        h.update("\n".join(t.shot_labels).encode())
        h.update(repr(t.bounds).encode())
    return h.hexdigest()


class TestShotStream:
    """The synthetic shots are the acceptance data: ``synth_dataset`` must
    keep drawing the same values in the same order, and its scalar helpers
    must equal the numpy calls they stand for, bit for bit."""

    # digests of the stream as drawn through numpy's own scalar calls
    # (np.clip, Generator.uniform, Generator.choice)
    @pytest.mark.parametrize("n_tiles,seed,shots,rate,digest", [
        # every shot carries a planted violation, so every branch draws
        (2, 7, 300, 1.0,
         "ab08dfc59d06475955a14852575474842ec1e30f3cac81d8c95f164b7da1432a"),
        (3, 1, 120, 0.2,
         "ac0b9050f7b1c38aed1b98382faa6ee194550b0d0721f7dece0e257d69b6c6de"),
    ])
    def test_stream_is_pinned(self, n_tiles, seed, shots, rate, digest):
        tiles = dp.synth_dataset(n_tiles, 32, seed, shots_per_tile=shots,
                                 violation_rate=rate)
        if rate == 1.0:
            assert set(dp.FILTER_RULES) <= {lab for t in tiles
                                            for lab in t.shot_labels}
        assert synth_digest(tiles) == digest

    @staticmethod
    def bits(values) -> bytes:
        return np.asarray(values, dtype=np.float64).tobytes()

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.0, dp.MAX_HEIGHT_M)])
    def test_clip_is_numpy_clip(self, lo, hi):
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, lo, hi,
                   math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
        assert self.bits([dp._clip(v, lo, hi) for v in special]) == \
            self.bits([float(np.clip(v, lo, hi)) for v in special])
        v = np.random.default_rng(5).normal(hi / 2, hi, 10 ** 5)
        assert self.bits([dp._clip(x, lo, hi) for x in v.tolist()]) == \
            self.bits(np.clip(v, lo, hi))

    # every (lo, hi) that datapipe passes to _uniform
    UNIFORM_BOUNDS = sorted({(float(lo), float(hi)) for lo, hi in re.findall(
        r"_uniform\(rng, ([-\d.]+), ([-\d.]+)\)", inspect.getsource(dp))})

    def test_uniform_bounds_are_found(self):
        assert len(self.UNIFORM_BOUNDS) == 9

    @pytest.mark.parametrize("lo,hi", UNIFORM_BOUNDS)
    def test_uniform_is_generator_uniform(self, lo, hi):
        ours, numpys = np.random.default_rng(6), np.random.default_rng(6)
        got = [dp._uniform(ours, lo, hi) for _ in range(10 ** 5)]
        assert self.bits(got) == self.bits(numpys.uniform(lo, hi, 10 ** 5))
        assert ours.bit_generator.state == numpys.bit_generator.state

    def test_sign_is_generator_choice(self):
        ours, numpys = np.random.default_rng(8), np.random.default_rng(8)
        got = [dp._sign(ours) for _ in range(10 ** 5)]
        assert self.bits(got) == self.bits(numpys.choice([-1.0, 1.0], 10 ** 5))
        assert ours.bit_generator.state == numpys.bit_generator.state


class TestGaussianFilter:
    """``_gaussian_filter`` is ``scipy.ndimage.gaussian_filter`` bit for bit
    at the synthesizer's sigma, size / 16."""

    @pytest.mark.parametrize("shape", [(n, n) for n in (8, 9, 16, 31, 32, 64,
                                                        100, 128, 256)]
                             + [(40, 70)])
    def test_equals_scipy(self, shape):
        sigma = min(shape) / 16
        for seed in range(10):
            for scale in (1.0, 30.0):
                x = scale * np.random.default_rng(seed).normal(size=shape)
                assert np.array_equal(dp._gaussian_filter(x, sigma),
                                      gaussian_filter(x, sigma))

    def test_radius_past_the_extent_is_rejected(self):
        # radius int(4 * 1.0 + 0.5) = 4 would need a second reflection
        with pytest.raises(ValueError, match="radius 4"):
            dp._gaussian_filter(np.zeros((4, 4)), 1.0)


def csv_writer_text(rows, header=dp.SHOT_FIELDS) -> str:
    """What ``csv.writer`` writes for a header and rows."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


class TestShotCsv:
    @staticmethod
    def rows(n=5):
        tiles = dp.synth_dataset(1, 32, seed=14, shots_per_tile=n)
        return [list(row) for row in tiles[0].shots.tolist()]

    @staticmethod
    def write(path, rows, header=dp.SHOT_FIELDS):
        with open(path, "w", newline="") as fh:
            fh.write(csv_writer_text(rows, header))

    def expect_error(self, path, line):
        return pytest.raises(ValueError,
                             match=re.escape(f"{path}, line {line}: "))

    @pytest.mark.parametrize("field", NUMBER_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_shot_rejects_non_finite_numbers(self, field, value):
        shots = concat([clean_shot(), clean_shot(), clean_shot()])
        assert dp._first_bad_shot(shots) is None
        if field in FLOAT_FIELDS:
            shots[field][1] = value
            assert dp._first_bad_shot(shots) == (1, f"{field} must be finite")
        else:
            # an int64 column cannot hold one
            with pytest.raises((ValueError, OverflowError)):
                shots[field][1] = value

    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_reader_rejects_non_finite_numbers(self, tmp_path, field, value):
        rows = self.rows()
        rows[2][dp.SHOT_FIELDS.index(field)] = value
        path = tmp_path / "shots.csv"
        self.write(path, rows)
        with self.expect_error(path, 4):
            dp.shots_from_csv(path)

    def test_one_nan_cover_no_longer_disables_the_ndvi_rule(self, tmp_path):
        tiles = dp.synth_dataset(2, 32, seed=42, shots_per_tile=200,
                                 violation_rate=0.3)
        shots = concat([t.shots for t in tiles])
        path = tmp_path / "shots.csv"
        dp.shots_to_csv(shots, path)
        lines = path.read_text().splitlines()
        cols = lines[7].split(",")
        cols[dp.SHOT_FIELDS.index("canopy_cover")] = "nan"
        lines[7] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with self.expect_error(path, 8):
            dp.shots_from_csv(path)
        shots.canopy_cover[6] = math.nan
        assert dp._first_bad_shot(shots) == (6, "canopy_cover must be finite")

    def test_short_row_names_file_and_line(self, tmp_path):
        rows = self.rows()
        rows[1] = rows[1][:-1]
        path = tmp_path / "shots.csv"
        self.write(path, rows)
        with self.expect_error(path, 3):
            dp.shots_from_csv(path)

    @pytest.mark.parametrize("short,nan", [(4, 2), (2, 4)])
    def test_the_first_bad_row_is_named(self, tmp_path, short, nan):
        # a bad value and a short row: whichever comes first is named
        rows = self.rows()
        rows[short - 2] = rows[short - 2][:-1]
        rows[nan - 2][dp.SHOT_FIELDS.index("elm")] = "nan"
        path = tmp_path / "shots.csv"
        self.write(path, rows)
        with self.expect_error(path, min(short, nan)):
            dp.shots_from_csv(path)

    def test_long_row_names_file_and_line(self, tmp_path):
        rows = self.rows()
        rows[3].append("extra")
        path = tmp_path / "shots.csv"
        self.write(path, rows)
        with self.expect_error(path, 5):
            dp.shots_from_csv(path)

    # Python parses each of these, np.loadtxt none: the line is still named
    @pytest.mark.parametrize("field,value", [
        ("snr_db", "1_000.5"), ("search_end", "1_000"),
        ("snr_db", "\u0661\u0662"), ("rx_sample_count", "\uff11\uff12")])
    def test_a_number_only_python_parses_names_its_line(self, tmp_path,
                                                        field, value):
        rows = self.rows()
        rows[1][dp.SHOT_FIELDS.index(field)] = value
        path = tmp_path / "shots.csv"
        self.write(path, rows)
        with self.expect_error(path, 3):
            dp.shots_from_csv(path)

    def test_whitespace_around_a_number_still_reads(self, tmp_path):
        # np.loadtxt strips it, non-ASCII spaces too; so does the slow parse
        rows = self.rows()
        snr = dp.SHOT_FIELDS.index("snr_db")
        rows[0][snr] = "\u00a0" + str(rows[0][snr])
        rows[2][dp.SHOT_FIELDS.index("elm")] = "nan"
        path = tmp_path / "shots.csv"
        self.write(path, rows)
        with self.expect_error(path, 4):
            dp.shots_from_csv(path)

    @pytest.mark.parametrize("field", [f for f in NUMBER_FIELDS
                                       if f not in FLOAT_FIELDS])
    # the last is past int64
    @pytest.mark.parametrize("value", ["1.5", "1e3", "2.0", "",
                                       "9223372036854775808"])
    def test_float_text_in_an_integer_column_fails(self, tmp_path, field,
                                                   value):
        rows = self.rows()
        rows[0][dp.SHOT_FIELDS.index(field)] = value
        path = tmp_path / "shots.csv"
        self.write(path, rows)
        with self.expect_error(path, 2):
            dp.shots_from_csv(path)

    def test_header_mismatch_shows_both_headers(self, tmp_path):
        header = list(dp.SHOT_FIELDS)
        header[0], header[1] = header[1], header[0]
        path = tmp_path / "shots.csv"
        self.write(path, self.rows(), header)
        with pytest.raises(ValueError) as info:
            dp.shots_from_csv(path)
        assert str(path) in str(info.value)
        assert str(header) in str(info.value)
        assert str(dp.SHOT_FIELDS) in str(info.value)

    def test_beam_kind_round_trips_whole(self, tmp_path):
        rows = self.rows(n=4)
        kinds = ["x" * 500, 'odd, "quoted" kind', "", "coverage"]
        for row, kind in zip(rows, kinds):
            row[-1] = kind
        path = tmp_path / "shots.csv"
        self.write(path, rows)
        table = dp.shots_from_csv(path)
        assert table.beam_kind.tolist() == kinds
        assert table.tolist() == [tuple(r) for r in rows]
        again = tmp_path / "again.csv"
        dp.shots_to_csv(table, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("block_rows", [None, 7])
    def test_writer_matches_csv_writer(self, tmp_path, monkeypatch,
                                       block_rows):
        if block_rows:
            monkeypatch.setattr(dp, "_CSV_BLOCK_ROWS", block_rows)
        tiles = dp.synth_dataset(3, 32, seed=15, shots_per_tile=80,
                                 violation_rate=0.4)
        shots = concat([t.shots for t in tiles])
        path = tmp_path / "shots.csv"
        dp.shots_to_csv(shots, path)
        want = csv_writer_text(shots.tolist())
        assert path.read_bytes() == want.encode()
        table = dp.shots_from_csv(path)
        dp.shots_to_csv(table, path)
        assert path.read_bytes() == want.encode()

    def test_header_only_file_is_an_empty_table(self, tmp_path):
        path = tmp_path / "shots.csv"
        dp.shots_to_csv(clean_shot()[:0], path)
        assert path.read_bytes() == csv_writer_text([]).encode()
        table = dp.shots_from_csv(path)
        assert len(table) == 0 and table.dtype == dp.SHOT_DTYPE
