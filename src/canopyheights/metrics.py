"""Evaluation metrics: summary statistics with the mean-squared-deviation
decomposition, the no-reference blur/sharpness index with its effective
resolution lookup, CDF-based reference upscaling, canopy height model
derivation, and per-height-range reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tensor import write_csv

RMSPE_MIN_HEIGHT_M = 1.0

# effective resolution (m) vs sharpness ratio, measured on reference
# imagery downsampled from 10 m to 40 m
RESOLUTION_TABLE_M = np.array([10, 12.5, 15, 17.5, 20, 22.5, 25, 27.5,
                               30, 32.5, 35, 37.5, 40.0])
GSI_TABLE = np.array([1.0, 1.03, 1.08, 1.14, 1.21, 1.29, 1.37, 1.46,
                      1.56, 1.68, 1.77, 1.88, 2.00])


@dataclass
class MetricsReport:
    """Summary statistics of estimated vs measured heights."""

    n: int
    r: Optional[float]
    rmse: float
    rmspe: Optional[float]      # percent, pairs with y >= 1 m only
    bias: float                 # mean(estimated - measured)
    sdsd: float
    lcs: float
    sd_measured: float
    sd_estimated: float


@dataclass
class SharpnessReport:
    """Output sharpness relative to the reference imagery."""

    si_output: float
    si_reference: float
    gsi: float
    effective_resolution_m: float


# -- summary statistics ------------------------------------------------

def summary_stats(y: np.ndarray, yhat: np.ndarray) -> MetricsReport:
    """Correlation, errors, and the deviation decomposition terms.

    Standard deviations are population (1/N) so that
    mse = bias^2 + SDSD + LCS holds exactly.  r is None when either
    vector has zero variance; RMSPE is None when no measured height
    reaches 1 m.
    """
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1:
        raise ValueError("need two equal-length vectors")
    n = len(y)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    if not (np.isfinite(y).all() and np.isfinite(yhat).all()):
        raise ValueError("inputs must be finite")

    resid = yhat - y
    bias = float(resid.mean())
    rmse = float(np.sqrt((resid ** 2).mean()))
    sd_m = float(y.std())
    sd_s = float(yhat.std())
    if sd_m == 0.0 or sd_s == 0.0:
        r = None
        lcs = 0.0
    else:
        r = float(np.corrcoef(y, yhat)[0, 1])
        lcs = 2.0 * sd_s * sd_m * (1.0 - r)
    sdsd = (sd_s - sd_m) ** 2

    big = y >= RMSPE_MIN_HEIGHT_M
    if big.any():
        rmspe = float(100.0 * np.sqrt((((y[big] - yhat[big]) / y[big]) ** 2).mean()))
    else:
        rmspe = None
    return MetricsReport(n=n, r=r, rmse=rmse, rmspe=rmspe, bias=bias,
                         sdsd=sdsd, lcs=lcs, sd_measured=sd_m, sd_estimated=sd_s)


def msd_decomposition(y: np.ndarray, yhat: np.ndarray) -> tuple:
    """(bias^2, SDSD, LCS, residual) with residual = mse - their sum."""
    rep = summary_stats(y, yhat)
    mse = rep.rmse ** 2
    parts = rep.bias ** 2 + rep.sdsd + rep.lcs
    return rep.bias ** 2, rep.sdsd, rep.lcs, mse - parts


# -- sharpness ---------------------------------------------------------

def _box_blur9(img: np.ndarray, axis: int) -> np.ndarray:
    """``scipy.ndimage.convolve(img, k, mode="nearest")`` with k nine taps
    of 1/9 along ``axis``, bit for bit
    (``tests/test_metrics.py::TestBoxBlur`` pins it).

    convolve sums ``0 + w*x[i-4] + ... + w*x[i+4]`` in tap order.  Every
    tap has the same weight, so the products are formed once, on the
    edge-padded image, and the nine shifted slices are added in order.
    """
    x = img if axis == 0 else img.T
    n = len(x)
    pw = x.take(np.clip(np.arange(-4, n + 4), 0, n - 1), axis=0) * (1.0 / 9.0)
    out = pw[:n] + 0.0      # 0.0 + w*x, as convolve starts its sum
    for t in range(1, 9):
        out += pw[t:t + n]
    return out if axis == 0 else out.T


def _directional_blur(img: np.ndarray, axis: int) -> float:
    """One-direction blur estimate: re-blur with a 9-tap average and
    compare neighbor absolute-difference totals."""
    blurred = _box_blur9(img, axis)

    d_orig = np.abs(np.diff(img, axis=axis))
    d_blur = np.abs(np.diff(blurred, axis=axis))
    s_orig = d_orig.sum()
    if s_orig == 0:
        return math.nan
    s_var = np.maximum(d_orig - d_blur, 0.0).sum()
    return float(max(0.0, 1.0 - s_var / s_orig))


def blur_metric(img: np.ndarray) -> float:
    """No-reference blur estimate in [0, 1]; higher means blurrier.

    The image is re-blurred with 1x9 and 9x1 averaging kernels; the drop
    in neighbor absolute differences measures how much sharpness was left
    to destroy.  Constant images are degenerate and return NaN.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim != 2 or min(img.shape) < 8:
        raise ValueError("need a single-channel image at least 8x8")
    bv = _directional_blur(img, 0)
    bh = _directional_blur(img, 1)
    if math.isnan(bv) or math.isnan(bh):
        return math.nan
    return max(bv, bh)


def resolution_from_gsi(g: float) -> float:
    """Piecewise-linear effective-resolution lookup, clamped to the
    calibrated range (below 1 -> 10 m, above 2 -> 40 m)."""
    return float(np.interp(g, GSI_TABLE, RESOLUTION_TABLE_M))


def gsi(output_map: np.ndarray, reference_bands: np.ndarray) -> SharpnessReport:
    """Sharpness of a height map relative to its reference imagery.

    The reference index is the average blur metric over the reference
    bands; a ratio of 1 means the map resolves as much detail as the
    10 m reference.
    """
    output_map = np.asarray(output_map, dtype=float)
    reference_bands = np.asarray(reference_bands, dtype=float)
    if reference_bands.ndim != 3 or output_map.shape != reference_bands.shape[:2]:
        raise ValueError("output and reference patch sizes must match")
    si_o = blur_metric(output_map)
    si_ref = float(np.mean([blur_metric(reference_bands[:, :, b])
                            for b in range(reference_bands.shape[2])]))
    if math.isnan(si_o) or math.isnan(si_ref) or si_ref == 0:
        return SharpnessReport(si_o, si_ref, math.nan, math.nan)
    g = si_o / si_ref
    return SharpnessReport(si_o, si_ref, g, resolution_from_gsi(g))


# -- reference-map handling -------------------------------------------

def cdf_upscale(highres: np.ndarray, factor: int, q: float = 0.97,
                level: float = 0.1) -> np.ndarray:
    """Coarsen by taking, per block, the smallest 0.1 m level whose
    empirical CDF reaches q."""
    highres = np.asarray(highres, dtype=float)
    w, h = highres.shape
    if factor <= 0 or w % factor or h % factor:
        raise ValueError("factor must divide both extents")
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    blocks = highres.reshape(w // factor, factor, h // factor, factor)
    blocks = blocks.transpose(0, 2, 1, 3).reshape(w // factor, h // factor, -1)
    # quantize up to the 0.1 m grid, then take the q-th order statistic:
    # the smallest level L with #(values <= L)/n >= q
    lev = np.ceil(blocks / level - 1e-9) * level
    srt = np.sort(lev, axis=-1)
    nblk = srt.shape[-1]
    idx = int(np.ceil(q * nblk)) - 1
    return np.round(srt[:, :, idx] / level) * level


def chm(dsm: np.ndarray, dem: np.ndarray) -> np.ndarray:
    """Canopy height model: surface minus terrain, clamped at 0."""
    dsm = np.asarray(dsm, dtype=float)
    dem = np.asarray(dem, dtype=float)
    if dsm.shape != dem.shape:
        raise ValueError("surface/terrain shape mismatch")
    return np.maximum(dsm - dem, 0.0)


# -- binned reporting -------------------------------------------------

def binned_report(y: np.ndarray, yhat: np.ndarray,
                  edges: Sequence[float]) -> list:
    """Per-height-range summary rows: ((lo, hi), MetricsReport | None).

    Pairs are bucketed by the measured height into [lo, hi); buckets with
    fewer than 2 pairs report None.
    """
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if not np.all(np.diff(edges) > 0):
        raise ValueError("edges must be strictly ascending")
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (y >= lo) & (y < hi)
        if sel.sum() < 2:
            rows.append(((float(lo), float(hi)), None))
        else:
            rows.append(((float(lo), float(hi)), summary_stats(y[sel], yhat[sel])))
    return rows


REPORT_COLUMNS = ["range_lo", "range_hi", "n", "r", "rmse", "rmspe",
                  "bias", "sdsd", "lcs"]


def report_to_csv(rows: list, path: str) -> None:
    """Emit binned_report rows as CSV (empty buckets keep their range)."""
    write_csv(path, REPORT_COLUMNS,
              ([lo, hi, 0] + [None] * 6 if rep is None else
               [lo, hi, rep.n, rep.r, rep.rmse, rep.rmspe, rep.bias, rep.sdsd,
                rep.lcs]
               for (lo, hi), rep in rows))
