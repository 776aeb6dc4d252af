"""Loss functions: values, analytic identities, and gradients."""

import numpy as np
import pytest

from canopyheights import losses
from canopyheights.losses import (AdaptiveLossState, ClassTarget,
                                  HeightBinning, HyTecLossConfig,
                                  adaptive_loss, batch_class_weights,
                                  bin_assign, bin_assign_map,
                                  combined_cr_loss, huber,
                                  hytec_total_loss, kd_teacher_consensus,
                                  weighted_cross_entropy)
from canopyheights.tensor import Tensor, grad_check

TOL = 1e-4


class TestBinning:
    def test_default_has_ten_bins(self):
        b = HeightBinning.default()
        assert b.k == 10
        iv = b.expanded_intervals()
        assert iv.shape == (10, 2)
        np.testing.assert_allclose(iv[0], [0.0, 7.5])   # low edge clips at 0
        np.testing.assert_allclose(iv[1], [4.5, 13.5])

    def test_overlap_region_splits_mass(self):
        b = HeightBinning.default()
        out = bin_assign(5.0, b)        # inside bins 0 and 1 (4.5 <= 5 < 7.5)
        np.testing.assert_allclose(out[:2], [0.5, 0.5])
        assert out[2:].sum() == 0.0

    def test_interior_height_single_bin(self):
        out = bin_assign(9.0, HeightBinning.default())
        np.testing.assert_allclose(out[1], 1.0)

    def test_above_range_clamps_to_last(self):
        out = bin_assign(120.0, HeightBinning.default())
        assert out[-1] == 1.0

    def test_assignment_always_sums_to_one(self):
        b = HeightBinning.default()
        for h in np.linspace(0.0, 80.0, 161):
            assert bin_assign(float(h), b).sum() == pytest.approx(1.0)

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            bin_assign(-0.1, HeightBinning.default())

    def test_bin_assign_map_masks(self):
        h = np.array([[9.0, 0.0], [0.0, 21.0]])
        m = np.array([[1, 0], [0, 1]], dtype=bool)
        tgt = bin_assign_map(h, m, HeightBinning.default())
        assert tgt.n_valid == 2
        assert tgt.t[0, 1].sum() == 0.0

    def test_bin_assign_map_equals_per_pixel_bin_assign(self):
        b = HeightBinning.default()
        iv = b.expanded_intervals()
        edges = np.concatenate([b.base_edges, iv.ravel()])
        special = np.concatenate([edges, np.nextafter(edges, -1.0),
                                  np.nextafter(edges, 100.0),
                                  [0.0, 60.0 - 1e-9, 61.5, 200.0]])
        h = np.abs(np.concatenate([special, np.random.default_rng(3).uniform(
            0.0, 80.0, 400 - special.size)])).reshape(20, 20)
        m = np.random.default_rng(4).random((20, 20)) < 0.9
        m.flat[:special.size] = True
        want = np.zeros((20, 20, b.k))
        for i, j in zip(*np.nonzero(m)):
            want[i, j] = bin_assign(float(h[i, j]), b)
        tgt = bin_assign_map(h, m, b)
        assert np.array_equal(tgt.t, want)
        assert np.array_equal(tgt.mask, m.astype(float))
        empty = bin_assign_map(h, np.zeros((20, 20), dtype=bool), b)
        assert np.array_equal(empty.t, np.zeros((20, 20, b.k)))

    def test_bin_assign_map_rejects_negative_height(self):
        h = np.array([[9.0, -0.1], [-5.0, 21.0]])
        with pytest.raises(ValueError, match="non-negative"):
            bin_assign_map(h, np.array([[1, 1], [0, 1]], dtype=bool),
                           HeightBinning.default())
        # a negative height outside the mask is never assigned
        bin_assign_map(h, np.array([[1, 0], [0, 1]], dtype=bool),
                       HeightBinning.default())


class TestHuber:
    def test_c1_continuity_at_delta(self):
        # both branches evaluate to 4.5 at |r| = delta = 3
        delta = 3.0
        quad = 0.5 * delta ** 2
        lin = delta * (delta - 0.5 * delta)
        assert quad == lin == 4.5
        pred = Tensor(np.array([[3.0]]), requires_grad=True)
        out = huber(pred, np.zeros((1, 1)), np.ones((1, 1)), delta)
        assert out.item() == pytest.approx(4.5)

    def test_value_oracle(self):
        # residuals (1, -5) at delta 3: 0.5*1 + 3*(5-1.5) = 0.5 + 10.5
        pred = Tensor(np.array([[1.0, -5.0]]))
        out = huber(pred, np.zeros((1, 2)), np.ones((1, 2)), 3.0)
        assert out.item() == pytest.approx((0.5 + 10.5) / 2)

    def test_mask_excludes_pixels(self):
        pred = Tensor(np.array([[1.0, 100.0]]))
        out = huber(pred, np.zeros((1, 2)), np.array([[1.0, 0.0]]), 3.0)
        assert out.item() == pytest.approx(0.5)

    def test_grad(self):
        target = np.random.default_rng(0).uniform(0, 10, (4, 4))
        mask = np.random.default_rng(1).integers(0, 2, (4, 4)).astype(float)
        mask[0, 0] = 1.0

        def f(x):
            return huber(x, target, mask, 3.0)
        x = Tensor(np.random.default_rng(2).uniform(0, 12, (4, 4)),
                   requires_grad=True)
        assert grad_check(f, x) < TOL

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            huber(Tensor(np.zeros((2, 2))), np.zeros((2, 2)),
                  np.zeros((2, 2)), 3.0)


class TestAdaptiveLoss:
    def residuals(self):
        return Tensor(np.random.default_rng(3).uniform(-8, 8, (5, 5)),
                      requires_grad=True)

    def test_alpha_2_analytic_limit(self):
        r = self.residuals()
        exact = adaptive_loss(r, AdaptiveLossState.create(alpha=2.0, c=1.3))
        near = adaptive_loss(r, AdaptiveLossState.create(alpha=2.0 + 1e-7,
                                                         c=1.3))
        assert abs(exact.item() - near.item()) < 1e-5

    def test_alpha_0_analytic_limit(self):
        r = self.residuals()
        exact = adaptive_loss(r, AdaptiveLossState.create(alpha=1e-7, c=0.8))
        # generic branch just off zero
        near = adaptive_loss(r, AdaptiveLossState.create(alpha=2e-6, c=0.8))
        assert abs(exact.item() - near.item()) < 1e-5

    def test_alpha_2_equals_half_squared_scaled(self):
        r = self.residuals()
        out = adaptive_loss(r, AdaptiveLossState.create(alpha=2.0, c=2.0))
        ref = 0.5 * ((r.data / 2.0) ** 2).mean()
        assert out.item() == pytest.approx(ref, rel=1e-12)

    def test_alpha_0_is_log_form(self):
        r = self.residuals()
        out = adaptive_loss(r, AdaptiveLossState.create(alpha=0.0 + 1e-9, c=1.0))
        ref = np.log(0.5 * r.data ** 2 + 1.0).mean()
        assert out.item() == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0])
    def test_grads_wrt_residual_alpha_and_c(self, alpha):
        base = np.random.default_rng(4).uniform(-5, 5, (4, 4))
        s = AdaptiveLossState.create(alpha=alpha, c=1.2)
        assert grad_check(lambda x: adaptive_loss(x, s),
                          Tensor(base, requires_grad=True)) < TOL

        def fa(a):
            st = AdaptiveLossState(alpha=a, c_raw=Tensor(s.c_raw.data))
            return adaptive_loss(Tensor(base), st)
        assert grad_check(fa, Tensor(np.asarray(alpha),
                                     requires_grad=True)) < TOL

        def fc(craw):
            st = AdaptiveLossState(alpha=Tensor(np.asarray(alpha)),
                                   c_raw=craw)
            return adaptive_loss(Tensor(base), st)
        assert grad_check(fc, Tensor(s.c_raw.data.copy(),
                                     requires_grad=True)) < TOL

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveLossState.create(alpha=1.0, c=0.0)


class TestCrossEntropy:
    def make_target(self, seed=5):
        rng = np.random.default_rng(seed)
        h = rng.uniform(0, 50, (6, 6))
        m = rng.integers(0, 2, (6, 6)).astype(bool)
        m[0, 0] = True
        return bin_assign_map(h, m, HeightBinning.default())

    def probs(self, k=10, seed=6):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.1, 1.0, (6, 6, k))
        return Tensor(raw / raw.sum(axis=-1, keepdims=True),
                      requires_grad=True)

    def test_uniform_weights_equal_unweighted_bit_exact(self):
        tgt = self.make_target()
        p = self.probs()
        weighted = weighted_cross_entropy(p, tgt, np.ones(10))
        n = tgt.n_valid
        logp = np.log(p.data + losses.LOG_FLOOR)
        unweighted = -(tgt.t * tgt.mask[:, :, None] * logp).sum() / n
        assert weighted.item() == unweighted   # bit-exact

    def test_class_weights_inverse_frequency(self):
        h = np.array([[2.0, 2.0], [2.0, 40.0]])
        m = np.ones((2, 2), dtype=bool)
        tgt = bin_assign_map(h, m, HeightBinning.default())
        w = batch_class_weights(tgt)
        # class mass: 3 pixels in bin 0, 1 pixel in bin 6 (40 m interior)
        assert w[0] == pytest.approx(4 / 3)
        assert w[6] == pytest.approx(4.0)
        assert (w[[1, 2, 3, 4, 5, 7, 8, 9]] == 0).all()

    def test_grad(self):
        tgt = self.make_target(seed=7)
        w = batch_class_weights(tgt)
        p = self.probs(seed=8)
        assert grad_check(lambda v: weighted_cross_entropy(v, tgt, w),
                          p) < TOL


class TestCombinedAndTotal:
    def setup_case(self, seed=9):
        rng = np.random.default_rng(seed)
        h = rng.uniform(0, 50, (8, 8))
        m = (rng.random((8, 8)) < 0.4)
        m[0, 0] = True
        tgt = bin_assign_map(h, m, HeightBinning.default())
        raw = rng.uniform(0.1, 1.0, (8, 8, 10))
        probs = Tensor(raw / raw.sum(axis=-1, keepdims=True),
                       requires_grad=True)
        reg = Tensor(rng.uniform(0, 40, (8, 8)), requires_grad=True)
        return h, tgt, probs, reg

    def test_combined_is_ce_plus_scaled_reg(self):
        h, tgt, probs, reg = self.setup_case()
        cfg = HyTecLossConfig(alpha_cr=2.5)
        parts = {}
        total = combined_cr_loss(probs, reg, tgt, h, cfg, parts=parts)
        assert total.item() == pytest.approx(
            parts["ce"] + 2.5 * parts["reg"], rel=1e-12)

    @pytest.mark.parametrize("betas", [(0.7, 0.7), (0.7, 0.7, 0.7, 1.0, 1.0)])
    def test_betas_other_than_four_rejected(self, betas):
        # 3 auxiliary terms and the main term, one beta each
        with pytest.raises(ValueError, match="betas needs 4 values"):
            HyTecLossConfig(betas=betas)

    def test_eq10_beta_0001_equals_eq5_bit_exact(self):
        h, tgt, probs, reg = self.setup_case(seed=10)
        cfg = HyTecLossConfig(betas=(0.0, 0.0, 0.0, 1.0))
        state = AdaptiveLossState.create()
        aux_preds = [Tensor(np.zeros((4, 4))), Tensor(np.zeros((8, 8))),
                     Tensor(np.zeros((8, 8)))]
        aux_targets = [(np.zeros((4, 4)), np.ones((4, 4)))] + \
                      [(np.zeros((8, 8)), np.ones((8, 8)))] * 2
        total = hytec_total_loss(aux_preds, aux_targets, probs, reg, tgt, h,
                                 cfg, adaptive_state=state)
        eq5 = combined_cr_loss(probs, reg, tgt, h, cfg, adaptive_state=state)
        assert total.item() == eq5.item()   # bit-exact

    def test_total_loss_grad(self):
        h, tgt, probs, reg = self.setup_case(seed=11)
        cfg = HyTecLossConfig()
        state = AdaptiveLossState.create()
        rng = np.random.default_rng(12)
        aux_targets = [(rng.uniform(0, 30, (4, 4)), np.ones((4, 4))),
                       (rng.uniform(0, 30, (8, 8)), np.ones((8, 8))),
                       (rng.uniform(0, 30, (8, 8)), np.ones((8, 8)))]

        def f(a1):
            aux = [a1, Tensor(np.zeros((8, 8))), Tensor(np.zeros((8, 8)))]
            return hytec_total_loss(aux, aux_targets, probs, reg, tgt, h,
                                    cfg, adaptive_state=state)
        a1 = Tensor(rng.uniform(0, 30, (4, 4)), requires_grad=True)
        assert grad_check(f, a1) < TOL

    def test_all_invalid_aux_level_contributes_zero(self):
        h, tgt, probs, reg = self.setup_case(seed=13)
        cfg = HyTecLossConfig(betas=(1.0, 0.0, 0.0, 1.0))
        aux_preds = [Tensor(np.full((4, 4), 99.0)), Tensor(np.zeros((8, 8))),
                     Tensor(np.zeros((8, 8)))]
        aux_targets = [(np.zeros((4, 4)), np.zeros((4, 4)))] + \
                      [(np.zeros((8, 8)), np.ones((8, 8)))] * 2
        parts = {}
        hytec_total_loss(aux_preds, aux_targets, probs, reg, tgt, h, cfg,
                         adaptive_state=AdaptiveLossState.create(),
                         parts=parts)
        assert parts["aux1"] == 0.0


class TestConsensus:
    def test_gate_and_average(self):
        t1 = np.array([[10.0, 10.0]])
        t2 = np.array([[10.5, 14.0]])
        value, valid = kd_teacher_consensus(t1, t2, tol=0.10)
        assert valid[0, 0] and not valid[0, 1]
        assert value[0, 0] == pytest.approx(10.25)
        assert value[0, 1] == 0.0

    def test_tolerance_boundary_is_strict(self):
        t1 = np.array([[10.0]])
        t2 = np.array([[11.0]])   # d ~ 1/10.5 = 0.0952 < 0.1 -> valid
        _, valid = kd_teacher_consensus(t1, t2, tol=0.10)
        assert valid[0, 0]
        _, valid = kd_teacher_consensus(t1, t2, tol=0.0952)
        assert not valid[0, 0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kd_teacher_consensus(np.zeros((2, 2)), np.zeros((3, 3)))
