"""Data preparation: radar normalization, rainfall gating, median
compositing, LiDAR shot filtering, target rasterization, grid sampling with
rebalancing, patch augmentation, and a synthetic desk-scale dataset
generator.

All tiles are plain rasters at a 10 m pixel; coordinates are local meters
(no CRS handling).

LiDAR shots are a shot table: a ``np.recarray`` of ``SHOT_DTYPE``, one
column per field in ``SHOT_FIELDS`` order (float64 and int64 columns, and
an object column of ``str`` for ``beam_kind``).  Its rows read like shots
(``table[i].lon``), and ``table.lon`` is the whole column;
``np.concatenate`` of tables returns a plain structured array, which
``.view(np.recarray)`` makes a table again.  ``synth_dataset`` builds one
per tile and ``shots_from_csv`` parses one; ``filter_gedi`` tests each
rule on whole columns and returns the retained rows as one;
``build_grid`` groups cell ids with one stable sort; ``shots_to_csv``
formats whole columns.

``synth_dataset`` draws every shot from one generator, value by value in
a fixed order; the synthetic and acceptance data are that stream, so its
draws are never reordered or batched.  The per-shot loop keeps numpy's
draws but makes no scalar numpy calls around them: ``_clip``,
``_uniform`` and ``_sign`` return what ``np.clip``,
``Generator.uniform`` and ``Generator.choice`` return, bit for bit and
with the same generator state, in plain Python
(``tests/test_datapipe.py::TestShotStream`` pins both).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .tensor import atomic_open, write_csv

RAIN_LIMIT_MM = 40.0
MIN_CELL_SHOTS = 600
CELL_SIZE_M = 7680.0
PIXEL_SIZE_M = 10.0

# per-set ratio thresholds and training duplication counts, sets 1..9
SET_THRESHOLDS = (0.50, 0.25, 0.10, 0.10, 0.05, 0.025, 0.025, 0.025, 0.025)
SET_DUPLICATIONS = (0, 1, 0, 3, 4, 4, 8, 8, 4)


# -- backscatter ------------------------------------------------------

@dataclass
class BackscatterSample:
    """Linear-scale radar backscatter acquired at some incidence angle."""

    sigma0: float
    theta: float
    theta_ref: float = 40.0

    def __post_init__(self):
        if not 0.0 < self.theta < 90.0:
            raise ValueError("incidence angle must lie in (0, 90) degrees")
        if not 0.0 < self.theta_ref < 90.0:
            raise ValueError("reference angle must lie in (0, 90) degrees")
        if self.sigma0 < 0:
            raise ValueError("linear backscatter must be non-negative")


def normalize_backscatter(s: BackscatterSample) -> float:
    """Square-cosine normalization to the reference incidence angle."""
    t = np.radians(s.theta)
    tr = np.radians(s.theta_ref)
    return float(s.sigma0 * np.cos(tr) ** 2 / np.cos(t) ** 2)


# -- rainfall gating --------------------------------------------------

def rainfall_gate(acquisitions: Sequence[int],
                  rainfall: Mapping[int, float]) -> list:
    """Drop acquisitions following heavy rain.

    An acquisition on day a is dropped when either 4-day rainfall window
    inside the preceding 5 days — days [a-3, a] or [a-4, a-1] — totals
    more than 40 mm.  The rainfall series must cover [a-4, a] for every
    acquisition.
    """
    retained = []
    for a in acquisitions:
        days = [a - k for k in range(5)]
        missing = [d for d in days if d not in rainfall]
        if missing:
            raise ValueError(f"rainfall series missing days {missing}")
        recent = sum(rainfall[a - k] for k in range(4))        # [a-3, a]
        prior = sum(rainfall[a - k] for k in range(1, 5))      # [a-4, a-1]
        if recent <= RAIN_LIMIT_MM and prior <= RAIN_LIMIT_MM:
            retained.append(a)
    return retained


# -- compositing ------------------------------------------------------

@dataclass
class ImageStack:
    """Co-registered time-series frames with per-pixel validity masks."""

    frames: list          # each W x H x C float array
    masks: list           # each W x H bool array

    def __post_init__(self):
        if not self.frames:
            raise ValueError("empty stack")
        shape = self.frames[0].shape
        if any(f.shape != shape for f in self.frames):
            raise ValueError("all frames must share one shape")
        if len(self.masks) != len(self.frames):
            raise ValueError("one mask per frame required")
        if any(m.shape != shape[:2] for m in self.masks):
            raise ValueError("masks must match the frame extent")


def median_composite(stack: ImageStack) -> tuple:
    """Per-pixel per-band median over valid samples.

    Even valid counts average the two middle values.  Pixels with zero
    valid samples come back as NaN; the second return value counts them.
    """
    data = np.stack([np.asarray(f, dtype=float) for f in stack.frames])
    valid = np.stack([np.asarray(m, dtype=bool) for m in stack.masks])
    data = np.where(valid[:, :, :, None], data, np.nan)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="All-NaN slice")
        out = np.nanmedian(data, axis=0)
    missing = int(np.isnan(out).any(axis=-1).sum())
    return out, missing


# -- LiDAR shot filtering ---------------------------------------------

# one spaceborne LiDAR shot with its quality variables
SHOT_DTYPE = np.dtype([
    ("lon", np.float64), ("lat", np.float64), ("rh98", np.float64),
    ("num_detectedmodes", np.int64), ("snr_db", np.float64),
    ("view_angle", np.float64), ("sensitivity", np.float64),
    ("elm", np.float64), ("srtm", np.float64),
    ("rx_sample_count", np.int64), ("search_end", np.int64),
    ("canopy_cover", np.float64), ("ndvi30", np.float64),
    ("acquired_at", np.int64), ("beam_kind", object),
])
SHOT_FIELDS = list(SHOT_DTYPE.names)
# each column's scalar type, which parses its CSV text (np.int64 refuses
# a value past its range) and picks its CSV formatter
_PARSERS = [SHOT_DTYPE[name].type for name in SHOT_FIELDS]
_FLOAT_FIELDS = [n for n in SHOT_FIELDS if SHOT_DTYPE[n].kind == "f"]


def _first_bad_shot(t: np.recarray) -> Optional[tuple]:
    """The shot checks, on every row of a table at once: None when every
    row passes, else (row, cause) for the first row that fails, its cause
    the first check it fails in this order: each float finite (an int64
    column holds nothing else), a sensitivity in [0, 1], rh98 >= 0."""
    checks = [(f"{name} must be finite", np.isfinite(t[name]))
              for name in _FLOAT_FIELDS]
    checks += [("sensitivity must lie in [0, 1]",
                (t.sensitivity >= 0.0) & (t.sensitivity <= 1.0)),
               ("rh98 must be non-negative", t.rh98 >= 0.0)]
    fails = ~np.stack([ok for _, ok in checks])
    rows = np.flatnonzero(fails.any(axis=0))
    if not len(rows):
        return None
    return int(rows[0]), checks[int(fails[:, rows[0]].argmax())][0]


FILTER_RULES = ("modes", "snr_va", "sensitivity", "elevation",
                "waveform", "ndvi")


def filter_gedi(shots: np.recarray, sigma_cover: Optional[float] = None,
                rules: Sequence[str] = FILTER_RULES) -> tuple:
    """Apply the shot quality filter to a shot table.

    Returns (retained shots as a shot table, per-rule rejection counts).
    Each rejected shot is attributed to the first violated rule in the
    canonical order, so the counts plus the retained count sum to the
    input count.  When sigma_cover is omitted it is the population std of
    |cover - ndvi| over the input shots.  ``rules`` restricts which rules
    are active.
    """
    unknown = set(rules) - set(FILTER_RULES)
    if unknown:
        raise ValueError(f"unknown filter rules {sorted(unknown)}")
    gap = np.abs(shots.canopy_cover - shots.ndvi30)
    if sigma_cover is None:
        sigma_cover = float(gap.std()) if len(shots) else 0.0
    broken = {
        "modes": shots.num_detectedmodes == 0,
        "snr_va": (shots.snr_db < 12.0) | (shots.view_angle > 5.0),
        "sensitivity": shots.sensitivity < 0.95,
        "elevation": np.abs(shots.elm - shots.srtm) > 75.0,
        "waveform": shots.rx_sample_count - shots.search_end <= 1,
        "ndvi": gap > 1.5 * sigma_cover,
    }
    active = [r for r in FILTER_RULES if r in rules]
    # a last all-true row stands for "no rule broken", so the argmax is
    # each shot's first broken active rule, or len(active) when clean
    hits = np.stack([broken[r] for r in active] + [np.ones(len(shots), bool)])
    first = hits.argmax(axis=0)
    counts = dict.fromkeys(FILTER_RULES, 0)
    counts.update(zip(active, np.bincount(
        first, minlength=len(active) + 1).tolist()))
    return shots[first == len(active)], counts


# -- rasterization ----------------------------------------------------

def rasterize_targets(shots: np.recarray, bounds: tuple) -> tuple:
    """Burn a shot table's heights into a raster; later-timestamped shots
    win ties.

    ``bounds`` is (xmin, ymin, xmax, ymax) in local meters; shot lon/lat
    are local meter coordinates.  Each pixel keeps the shot with the
    latest ``acquired_at``, and of equal stamps the last one.  Returns
    (target, mask).
    """
    xmin, ymin, xmax, ymax = bounds
    w = int(round((xmax - xmin) / PIXEL_SIZE_M))
    h = int(round((ymax - ymin) / PIXEL_SIZE_M))
    target = np.zeros((w, h))
    mask = np.zeros((w, h), dtype=bool)
    lon, lat, stamp = shots.lon, shots.lat, shots.acquired_at
    if not np.all((xmin <= lon) & (lon < xmax) & (ymin <= lat) & (lat < ymax)):
        raise ValueError("shot outside the tile bounds")
    col = ((lon - xmin) // PIXEL_SIZE_M).astype(np.intp)
    row = ((lat - ymin) // PIXEL_SIZE_M).astype(np.intp)
    cell = np.ravel_multi_index((col, row), (w, h))
    # lexsort is stable, so each pixel's last row in (pixel, stamp) order
    # is its latest shot, and of equal stamps the last in input order
    order = np.lexsort((stamp, cell))
    last = np.ones(len(order), dtype=bool)
    last[:-1] = cell[order[1:]] != cell[order[:-1]]
    won = order[last]
    target.flat[cell[won]] = shots.rh98[won]
    mask.flat[cell[won]] = True
    return target, mask


# -- grid construction ------------------------------------------------

@dataclass
class GridCell:
    """One sampling-grid cell with its rebalancing assignment."""

    cell_id: tuple            # (col, row)
    bounds: tuple             # (xmin, ymin, xmax, ymax) meters
    shot_indices: list
    ratios: np.ndarray        # per-set height-range occupancy, sets 1..9
    set_id: int
    split: str                # train | val
    duplication: int


def height_range_ratios(heights: np.ndarray) -> np.ndarray:
    """Fraction of shots inside each set's height range (sets 1..9).

    Ranges step by 5 m: <=5, (5,10], ..., (35,40], and >=40 for the top
    set (a 40 m shot counts toward the top set only where the overlap
    matters — each entry uses its own range predicate).
    """
    heights = np.asarray(heights, dtype=float)
    n = len(heights)
    if n == 0:
        raise ValueError("no heights")
    out = np.empty(9)
    out[0] = (heights <= 5.0).sum() / n
    for s in range(2, 9):
        lo, hi = 5.0 * (s - 1), 5.0 * s
        out[s - 1] = ((heights > lo) & (heights <= hi)).sum() / n
    out[8] = (heights >= 40.0).sum() / n
    return out


def assign_set(ratios: np.ndarray) -> int:
    """First matching set scanned from the tallest range downward.

    Cells matching no row fall back to set 1.
    """
    for s in range(9, 0, -1):
        if ratios[s - 1] > SET_THRESHOLDS[s - 1]:
            return s
    return 1


def build_grid(shots: np.recarray, area_bounds: tuple,
               cell_size: float = CELL_SIZE_M,
               min_shots: int = MIN_CELL_SHOTS, seed: int = 0) -> list:
    """Tile the area, keep a shot table's well-sampled cells, and rebalance
    by height.

    Cells with fewer than ``min_shots`` shots are dropped.  Each kept cell
    gets a set id from its height-range ratios, a seeded 75/25 train/val
    split within each set, and the set's duplication count (training
    cells only; a duplicated cell appears 1 + n times in a training list).
    Cells come in (col, row) order and list their shots in input order.
    """
    xmin, ymin, xmax, ymax = area_bounds
    ncols = int(np.ceil((xmax - xmin) / cell_size))
    nrows = int(np.ceil((ymax - ymin) / cell_size))
    col = (shots.lon - xmin) // cell_size
    row = (shots.lat - ymin) // cell_size
    idx = np.flatnonzero((col >= 0) & (col < ncols)
                         & (row >= 0) & (row < nrows))
    # one id per cell that sorts like (col, row); the stable sort keeps
    # each cell's shots in input order
    key = col[idx].astype(np.int64) * nrows + row[idx].astype(np.int64)
    order = np.argsort(key, kind="stable")
    idx, key = idx[order], key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    ends = np.append(starts[1:], len(key))

    cells = []
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        if hi - lo < min_shots:
            continue
        members = idx[lo:hi]
        ratios = height_range_ratios(shots.rh98[members])
        set_id = assign_set(ratios)
        c, r = divmod(int(key[lo]), nrows)
        bounds = (xmin + c * cell_size, ymin + r * cell_size,
                  xmin + (c + 1) * cell_size, ymin + (r + 1) * cell_size)
        cells.append(GridCell((c, r), bounds, members.tolist(), ratios,
                              set_id, "train", 0))

    rng = np.random.default_rng(seed)
    for s in range(1, 10):
        members = [c for c in cells if c.set_id == s]
        if not members:
            continue
        order = rng.permutation(len(members))
        n_train = max(1, int(round(0.75 * len(members))))
        for pos, k in enumerate(order):
            cell = members[k]
            if pos < n_train:
                cell.split = "train"
                cell.duplication = SET_DUPLICATIONS[s - 1]
            else:
                cell.split = "val"
                cell.duplication = 0
    return cells


def training_list(cells: Sequence[GridCell]) -> list:
    """Training cells with duplication applied (original + n copies)."""
    out = []
    for c in cells:
        if c.split == "train":
            out.extend([c] * (1 + c.duplication))
    return out


# -- patch sampling ---------------------------------------------------

def sample_patch(arrays: Sequence[np.ndarray], patch: int,
                 rng: np.random.Generator) -> tuple:
    """Uniform random crop plus independent 50% horizontal/vertical flips.

    Every array shares the leading W x H extents and is cropped and
    flipped identically.  Returns (cropped arrays, (i0, j0, flip_h,
    flip_v)).
    """
    w, h = arrays[0].shape[:2]
    if any(a.shape[:2] != (w, h) for a in arrays):
        raise ValueError("arrays disagree on spatial extents")
    if patch > w or patch > h:
        raise ValueError("patch larger than the tile")
    i0 = int(rng.integers(0, w - patch + 1))
    j0 = int(rng.integers(0, h - patch + 1))
    flip_h = bool(rng.integers(0, 2))
    flip_v = bool(rng.integers(0, 2))
    out = []
    for a in arrays:
        p = a[i0:i0 + patch, j0:j0 + patch]
        if flip_h:
            p = p[::-1]
        if flip_v:
            p = p[:, ::-1]
        out.append(np.ascontiguousarray(p))
    return out, (i0, j0, flip_h, flip_v)


# -- synthetic dataset ------------------------------------------------

S2_BANDS = 10
S1_BANDS = 2
MAX_HEIGHT_M = 55.0
BAND_NOISE = 0.01         # std of the seeded noise on every band

# band response to normalized height: offset, linear, quadratic
_S2_COEF = np.stack([
    np.linspace(0.08, 0.35, S2_BANDS),
    np.linspace(0.55, -0.35, S2_BANDS),
    np.linspace(-0.25, 0.45, S2_BANDS),
], axis=1)
_S1_COEF = np.array([[0.30, 0.50, -0.20],
                     [0.10, 0.65, 0.10]])


@dataclass
class SynthTile:
    """One synthetic tile: inputs, dense truth, sparse targets, shots."""

    s2: np.ndarray            # W x H x 10
    s1: np.ndarray            # W x H x 2
    heights: np.ndarray       # W x H dense truth
    target: np.ndarray        # W x H sparse raster
    mask: np.ndarray          # W x H bool
    shots: np.recarray        # shot table
    shot_labels: list         # "clean" or the violated rule name
    bounds: tuple


def _gaussian_filter(x: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(x, sigma)`` of a 2-D float64 array,
    bit for bit (``tests/test_datapipe.py::TestGaussianFilter`` pins it).

    scipy's order-0 kernel of radius ``int(4 sigma + 0.5)``, run along
    axis 0 and then axis 1 in the order ``correlate1d`` runs a symmetric
    kernel: ``x[0]*w[0]``, then ``+= (x[-j] + x[j]) * w[j]`` for j = r
    down to 1.  The border is scipy's ``reflect`` (index -1 reads 0, n
    reads n-1), one reflection deep, so the radius must stay below each
    extent.
    """
    r = int(4.0 * sigma + 0.5)
    taps = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    w = w / w.sum()
    for _ in range(2):      # axis 0, then axis 1 as axis 0 of the transpose
        n = len(x)
        if r >= n:
            raise ValueError(f"blur radius {r} needs an extent above it, got {n}")
        idx = np.arange(-r, n + r)
        idx = np.where(idx < 0, -1 - idx, np.where(idx >= n, 2 * n - 1 - idx, idx))
        xp = x.take(idx, axis=0)
        out = xp[r:r + n] * w[r]
        pair = np.empty_like(out)
        for j in range(r, 0, -1):
            np.add(xp[r - j:r - j + n], xp[r + j:r + j + n], out=pair)
            pair *= w[r + j]
            out += pair
        x = out.T
    return x


def _height_field(rng: np.random.Generator, size: int) -> np.ndarray:
    """Blobby forest patches over a low-vegetation background.

    Roughly 95% of the area stays below 15 m with a tall-tree tail up to
    the generator clamp.
    """
    base = _gaussian_filter(rng.normal(size=(size, size)), size / 16)
    base = 8.0 * (base - base.min()) / (np.ptp(base) + 1e-12)

    forest = np.zeros((size, size))
    ii, jj = np.mgrid[0:size, 0:size]
    n_blobs = max(1, 3 * size // 32)
    for _ in range(n_blobs):
        ci, cj = rng.uniform(0, size, 2)
        radius = rng.uniform(size / 32, size / 10)
        peak = rng.uniform(18.0, 50.0)
        d2 = (ii - ci) ** 2 + (jj - cj) ** 2
        forest = np.maximum(forest, peak * np.exp(-d2 / (2 * radius ** 2)))
    # suppress blob skirts so mid-height cover stays sparse
    forest = np.where(forest > 12.0, forest, 0.0)
    return np.clip(np.maximum(base, forest), 0.0, MAX_HEIGHT_M)


def bands_from_height(heights: np.ndarray,
                      rng: np.random.Generator) -> tuple:
    """Deterministic band responses to height, plus seeded noise of
    standard deviation ``BAND_NOISE``.

    The response compresses toward tall canopies (optical signal
    saturation), so height differences above ~30 m produce only small
    band differences relative to the noise floor.
    """
    u = np.tanh(2.2 * np.asarray(heights, dtype=float) / MAX_HEIGHT_M)
    feats = np.stack([np.ones_like(u), u, u * u], axis=-1)
    s2 = feats @ _S2_COEF.T + rng.normal(scale=BAND_NOISE, size=(*u.shape, S2_BANDS))
    s1 = feats @ _S1_COEF.T + rng.normal(scale=BAND_NOISE, size=(*u.shape, S1_BANDS))
    return s2, s1


def _clip(v: float, lo: float, hi: float) -> float:
    """``float(np.clip(v, lo, hi))`` of Python floats, without numpy's
    per-call cost: ``lo`` below, ``hi`` above, else ``v`` itself, so
    -0.0 and NaN pass through as they do in numpy."""
    return lo if v < lo else hi if v > hi else v


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` as numpy defines it, one ``next_double``
    scaled to [lo, hi): the same value and the same generator state."""
    return lo + (hi - lo) * rng.random()


def _sign(rng: np.random.Generator) -> float:
    """``rng.choice([-1.0, 1.0])`` as numpy draws it, one
    ``integers(0, 2)``, without its array work."""
    return (-1.0, 1.0)[int(rng.integers(0, 2))]


def _make_shot(rng, x, y, rh98, t, violation=None) -> tuple:
    """A clean shot, then at most one planted rule violation, as a row in
    ``SHOT_FIELDS`` order."""
    elm = _uniform(rng, 100.0, 400.0)
    cover = _clip(rh98 / MAX_HEIGHT_M + rng.normal(0, 0.02), 0.0, 1.0)
    modes = int(rng.integers(1, 5))
    snr_db = _uniform(rng, 13.0, 30.0)
    view_angle = _uniform(rng, 0.0, 4.5)
    sensitivity = _uniform(rng, 0.955, 1.0)
    srtm = elm + _uniform(rng, -20.0, 20.0)
    rx_sample_count = int(rng.integers(500, 1000))
    search_end = int(rng.integers(200, 400))
    ndvi30 = _clip(cover + rng.normal(0, 0.01), 0.0, 1.0)
    beam_kind = "full_power" if rng.random() < 0.5 else "coverage"
    if violation == "modes":
        modes = 0
    elif violation == "snr_va":
        if rng.random() < 0.5:
            snr_db = _uniform(rng, 2.0, 11.5)
        else:
            view_angle = _uniform(rng, 5.5, 8.0)
    elif violation == "sensitivity":
        sensitivity = _uniform(rng, 0.5, 0.94)
    elif violation == "elevation":
        srtm = elm + _sign(rng) * _uniform(rng, 80.0, 200.0)
    elif violation == "waveform":
        search_end = rx_sample_count - int(rng.integers(0, 2))
    elif violation == "ndvi":
        ndvi30 = cover + 5.0            # cover lies in [0, 1]
    elif violation is not None:
        raise ValueError(f"unknown violation {violation!r}")
    return (x, y, max(rh98, 0.0), modes, snr_db, view_angle, sensitivity,
            elm, srtm, rx_sample_count, search_end, cover, ndvi30, t,
            beam_kind)


def synth_dataset(n_tiles: int, size: int, seed: int,
                  shots_per_tile: int = 80,
                  violation_rate: float = 0.2) -> list:
    """Procedural tiles with learnable inputs and labeled LiDAR shots.

    Shot labels mark either "clean" or the single planted filter-rule
    violation, providing the ground truth for filter tests.  The "ndvi"
    plant is extreme enough to clear the population threshold regardless
    of the draw.
    """
    rng = np.random.default_rng(seed)
    tiles = []
    for ti in range(n_tiles):
        heights = _height_field(rng, size)
        s2, s1 = bands_from_height(heights, rng)
        x0, y0 = ti * size * PIXEL_SIZE_M, 0.0
        bounds = (x0, y0, x0 + size * PIXEL_SIZE_M, y0 + size * PIXEL_SIZE_M)
        rows, labels = [], []
        for _ in range(shots_per_tile):
            i = int(rng.integers(0, size))
            j = int(rng.integers(0, size))
            x = bounds[0] + (i + 0.5) * PIXEL_SIZE_M
            y = bounds[1] + (j + 0.5) * PIXEL_SIZE_M
            rh = _clip(float(heights[i, j]) + rng.normal(0, 0.3),
                       0.0, MAX_HEIGHT_M)
            violation = None
            if rng.random() < violation_rate:
                violation = FILTER_RULES[int(rng.integers(len(FILTER_RULES)))]
            rows.append(_make_shot(rng, x, y, rh,
                                   t=int(rng.integers(0, 10000)),
                                   violation=violation))
            labels.append(violation or "clean")
        shots = np.rec.fromrecords(rows, dtype=SHOT_DTYPE)
        target, mask = rasterize_targets(shots, bounds)
        tiles.append(SynthTile(s2, s1, heights, target, mask,
                               shots, labels, bounds))
    return tiles


# -- CSV interfaces ---------------------------------------------------

def _csv_text(value) -> str:
    """A text field as ``csv.writer`` writes it (minimal quoting)."""
    value = str(value)
    if any(ch in value for ch in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


_FORMATTERS = {np.float64: repr, np.int64: str, np.object_: _csv_text}
_CSV_BLOCK_ROWS = 512


def shots_to_csv(shots: np.recarray, path: str) -> None:
    """Write a shot table as CSV, formatting a block of rows column by
    column.

    The text is what ``csv.writer`` writes for the rows' Python values: a
    ``SHOT_FIELDS`` header, ``repr`` floats, ``str`` ints and ``\\r\\n``
    line ends.
    """
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(SHOT_FIELDS) + "\r\n")
        # blocks bound the text held at once to about 100 kB
        for lo in range(0, len(shots), _CSV_BLOCK_ROWS):
            block = shots[lo:lo + _CSV_BLOCK_ROWS]
            cols = [map(_FORMATTERS[kind], block[name].tolist())
                    for name, kind in zip(SHOT_FIELDS, _PARSERS)]
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*cols)]))


def _parse_row(row: list, where: str) -> tuple:
    """One CSV row's values in ``SHOT_FIELDS`` order; a ``ValueError``
    naming ``where`` for another field count or a value its column's type
    does not parse.  A number with an underscore (``1_000.5``) or a
    non-ASCII digit parses in Python but not in ``np.loadtxt``, so it is
    refused here too; whitespace around a number passes in both."""
    if len(row) != len(SHOT_FIELDS):
        raise ValueError(f"{where}: {len(row)} fields, expected "
                         f"{len(SHOT_FIELDS)}")
    values = []
    for name, parse, text in zip(SHOT_FIELDS, _PARSERS, row):
        try:
            if parse is not np.object_ and (
                    "_" in text or not text.strip().isascii()):
                raise ValueError(text)
            values.append(parse(text))
        except (ValueError, OverflowError):
            raise ValueError(f"{where}: {name} {text!r} is not a valid "
                             f"{parse.__name__}") from None
    return tuple(values)


def _raise_bad_row(path: str, cause) -> None:
    """Raise on the first bad row of ``path``, naming the file and its
    line; ``cause`` is the fast parse's error.  Rows parse one at a time
    up to the first malformed one, and the shot checks run on all rows
    before it at once."""
    lines, values, malformed = [], [], ValueError(f"{path}: {cause}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        try:
            for row in filter(None, rows):
                values.append(_parse_row(row, f"{path}, line {rows.line_num}"))
                lines.append(rows.line_num)
        except (ValueError, csv.Error) as exc:
            malformed = exc
    bad = _first_bad_shot(np.rec.fromrecords(values, dtype=SHOT_DTYPE))
    if bad is not None:
        raise ValueError(f"{path}, line {lines[bad[0]]}: {bad[1]}")
    raise malformed


def shots_from_csv(path: str) -> np.recarray:
    """Read a shot CSV into a shot table with one structured parse.

    A header other than ``SHOT_FIELDS``, a row with too few or too many
    fields, a value its column's type does not parse (``1.5`` or ``1e3``
    in an integer column, or one past int64) and a row the shot checks
    reject (NaN or infinite values included) raise a ``ValueError`` naming
    the file and the line; text that is not UTF-8, or that ``csv`` cannot
    split, raises one naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader([fh.readline()]), [])
            if header != SHOT_FIELDS:
                raise ValueError(f"{path}: shot CSV header {header} differs "
                                 f"from {SHOT_FIELDS}")
            try:
                with warnings.catch_warnings():
                    # some numpy releases parse "1.5" in an integer column
                    # with only a DeprecationWarning: make it an error
                    warnings.simplefilter("error", DeprecationWarning)
                    warnings.filterwarnings("ignore",
                                            "loadtxt: input contained")
                    t = np.loadtxt(fh, delimiter=",", quotechar='"',
                                   comments=None, dtype=SHOT_DTYPE, ndmin=1)
            except (ValueError, DeprecationWarning) as exc:
                _raise_bad_row(path, exc)
    except (UnicodeDecodeError, csv.Error) as exc:
        # text that does not decode, or a field past csv's size limit
        raise ValueError(f"{path}: {exc}") from None
    t = t.view(np.recarray)
    if _first_bad_shot(t) is not None:
        _raise_bad_row(path, "a row fails the shot checks")
    return t


def grid_to_csv(cells: Sequence[GridCell], path: str) -> None:
    write_csv(path, ["col", "row", "xmin", "ymin", "xmax", "ymax", "n_shots",
                     "set_id", "split", "duplication"],
              ([*c.cell_id, *c.bounds, len(c.shot_indices), c.set_id, c.split,
                c.duplication] for c in cells))
