"""Evaluation metrics: summary stats, decomposition, sharpness, reference maps."""

import math

import numpy as np
import pytest
from scipy.ndimage import convolve, gaussian_filter

from canopyheights import metrics as mx


class TestSummaryStats:
    def test_hand_oracle(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        yhat = np.array([1.5, 2.0, 2.5, 5.0])
        rep = mx.summary_stats(y, yhat)
        resid = yhat - y
        assert rep.bias == pytest.approx(resid.mean())
        assert rep.rmse == pytest.approx(np.sqrt((resid ** 2).mean()))
        assert rep.sd_measured == pytest.approx(y.std())
        assert rep.r == pytest.approx(np.corrcoef(y, yhat)[0, 1])

    def test_rmspe_excludes_sub_meter_targets(self):
        y = np.array([0.5, 2.0])
        yhat = np.array([5.0, 1.0])
        rep = mx.summary_stats(y, yhat)
        assert rep.rmspe == pytest.approx(100.0 * abs(2.0 - 1.0) / 2.0)

    def test_rmspe_none_without_tall_targets(self):
        rep = mx.summary_stats(np.array([0.2, 0.4]), np.array([0.3, 0.1]))
        assert rep.rmspe is None

    def test_zero_variance_r_is_none(self):
        rep = mx.summary_stats(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
        assert rep.r is None and rep.lcs == 0.0

    def test_decomposition_identity_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            y = rng.uniform(0, 50, n)
            yhat = y + rng.normal(0, 3, n)
            b2, sdsd, lcs, resid = mx.msd_decomposition(y, yhat)
            mse = ((yhat - y) ** 2).mean()
            assert abs(resid) <= 1e-9 * max(mse, 1.0)
            assert b2 >= 0 and sdsd >= 0 and lcs >= 0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            mx.summary_stats(np.array([1.0]), np.array([1.0]))


class TestBlurMetric:
    def texture(self, seed=1, n=64):
        return np.random.default_rng(seed).normal(size=(n, n))

    def test_blur_increases_metric(self):
        img = self.texture()
        vals = [mx.blur_metric(gaussian_filter(img, s))
                for s in (0.0, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_range_and_symmetry(self):
        img = self.texture(seed=2)
        v = mx.blur_metric(img)
        assert 0.0 <= v <= 1.0
        assert mx.blur_metric(img.T) == pytest.approx(v)

    def test_constant_image_is_nan(self):
        assert math.isnan(mx.blur_metric(np.full((16, 16), 3.0)))

    def test_small_image_rejected(self):
        with pytest.raises(ValueError):
            mx.blur_metric(np.zeros((4, 4)))


class TestBoxBlur:
    """``_box_blur9`` is ``scipy.ndimage.convolve`` with a 9-tap 1/9
    kernel and ``mode="nearest"``, bit for bit, along either axis."""

    @pytest.mark.parametrize("shape", [(n, n) for n in (8, 9, 16, 31, 32, 64,
                                                        100, 128, 256)]
                             + [(12, 40)])
    def test_equals_scipy(self, shape):
        for seed in range(10):
            for scale in (1.0, 30.0):
                img = scale * np.random.default_rng(seed).normal(size=shape)
                for axis in (0, 1):
                    kshape = [1, 1]
                    kshape[axis] = 9
                    want = convolve(img, (np.ones(9) / 9.0).reshape(kshape),
                                    mode="nearest")
                    assert np.array_equal(mx._box_blur9(img, axis), want)


class TestGsi:
    def test_lookup_table_anchors(self):
        assert mx.resolution_from_gsi(1.0) == 10.0
        assert mx.resolution_from_gsi(1.21) == 20.0
        assert mx.resolution_from_gsi(1.37) == 25.0
        assert mx.resolution_from_gsi(2.00) == 40.0

    def test_lookup_clamps_outside_range(self):
        assert mx.resolution_from_gsi(0.5) == 10.0
        assert mx.resolution_from_gsi(3.0) == 40.0

    def test_lookup_interpolates_between_rows(self):
        mid = mx.resolution_from_gsi(1.015)       # halfway 1.0 -> 1.03
        assert mid == pytest.approx(11.25)

    def test_self_gsi_is_one(self):
        # affine band transforms leave the blur metric unchanged, so a map
        # compared against affine copies of itself scores exactly 1
        tex = np.random.default_rng(3).normal(size=(32, 32))
        bands = np.stack([2.0 * tex + 1.0, -0.5 * tex, tex + 10.0], axis=-1)
        rep = mx.gsi(tex, bands)
        assert abs(rep.gsi - 1.0) < 1e-6
        assert rep.effective_resolution_m == pytest.approx(10.0)

    def test_blurrier_output_scores_higher(self):
        tex = np.random.default_rng(4).normal(size=(48, 48))
        bands = np.stack([tex, tex * 1.5], axis=-1)
        sharp = mx.gsi(tex, bands).gsi
        soft = mx.gsi(gaussian_filter(tex, 2.0), bands).gsi
        assert soft > sharp

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mx.gsi(np.zeros((8, 8)), np.zeros((9, 9, 2)))


class TestReferenceMaps:
    def test_cdf_upscale_hand_oracles(self):
        # single block of 4: levels ceil to 0.1; q=0.97 picks the max
        block = np.array([[0.0, 9.61], [5.0, 5.01]])
        out = mx.cdf_upscale(block, 2, q=0.97)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(9.7)
        # q=0.5 with 4 values -> 2nd order statistic
        assert mx.cdf_upscale(block, 2, q=0.5)[0, 0] == pytest.approx(5.0)
        # exact grid values stay put
        assert mx.cdf_upscale(np.full((2, 2), 5.1), 2)[0, 0] == \
            pytest.approx(5.1)

    def test_cdf_upscale_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            mx.cdf_upscale(np.zeros((4, 4)), 3)

    def test_chm_clamps_below_terrain(self):
        dsm = np.array([[10.0, 4.0]])
        dem = np.array([[6.0, 5.0]])
        np.testing.assert_allclose(mx.chm(dsm, dem), [[4.0, 0.0]])


class TestBinnedReport:
    def test_bucketing_and_sparse_buckets(self):
        y = np.array([1.0, 2.0, 3.0, 12.0])
        yhat = y + 0.5
        rows = mx.binned_report(y, yhat, [0.0, 5.0, 10.0, 15.0])
        assert rows[0][1].n == 3
        assert rows[1][1] is None                 # empty bucket
        assert rows[2][1] is None                 # single pair
        assert rows[0][0] == (0.0, 5.0)

    def test_csv_round_format(self, tmp_path):
        y = np.linspace(1, 20, 40)
        rows = mx.binned_report(y, y + 1.0, [0.0, 10.0, 20.0, 30.0])
        p = tmp_path / "report.csv"
        mx.report_to_csv(rows, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == ",".join(mx.REPORT_COLUMNS)
        assert len(lines) == 4
