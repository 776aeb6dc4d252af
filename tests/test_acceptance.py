"""Whole-system acceptance checks.

Each test exercises one end-to-end guarantee of the package: gradient
correctness across every differentiable component, architectural shape
laws, analytic loss identities, the error-decomposition and sharpness
reference tables, the tall-canopy debiasing experiment, distillation
training, the data-quality pipeline, sharpness monotonicity, and
byte-level reproducibility of the command-line pipeline.
"""

import csv
import filecmp
import math
import os
import time

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from canopyheights import cli
from canopyheights import config as cf
from canopyheights import datapipe as dp
from canopyheights import metrics as mx
from canopyheights import nn
from canopyheights import optim
from canopyheights import train as tr
from canopyheights.hytec import (HyTecConfig, db_forward, hytec_forward,
                                 init_hytec, patch_embed, rb_forward,
                                 transformer_block)
from canopyheights.losses import (AdaptiveLossState, HeightBinning,
                                  HyTecLossConfig, adaptive_loss,
                                  batch_class_weights, bin_assign_map,
                                  combined_cr_loss, huber, hytec_total_loss,
                                  weighted_cross_entropy)
from canopyheights.tensor import Tensor, concat, grad_check, load_tensor
from canopyheights.unet import (_init_cdb, _init_ceb, _init_saa, cdb_forward,
                                ceb_forward, head_dual, head_single,
                                saa_forward)

GRAD_TOL = 1e-4
RNG = np.random.default_rng


def t(shape, seed=0, lo=-1.0, hi=1.0):
    return Tensor(RNG(seed).uniform(lo, hi, shape), requires_grad=True)


def mini_hytec_cfg():
    return HyTecConfig.desk_scale(image_size=32, patch=8, embed_dim=32,
                                  blocks=4, heads=2, l_hat=16)


def class_target(seed, shape=(8, 8)):
    rng = RNG(seed)
    h = rng.uniform(0, 50, shape)
    m = np.ones(shape, dtype=bool)
    return h, bin_assign_map(h, m, HeightBinning.default())


def prob_tensor(seed, shape=(8, 8, 10)):
    raw = RNG(seed).uniform(0.1, 1.0, shape)
    return Tensor(raw / raw.sum(axis=-1, keepdims=True), requires_grad=True)


class TestGradientSuite:
    """Numeric-vs-analytic agreement for every differentiable component."""

    def test_all_components_within_tolerance(self):
        start = time.monotonic()
        checks = []

        # scalar/elementwise/shape primitives
        prim = [
            (lambda x: (x + 2.0).sum(), False),
            (lambda x: (x * x).sum(), False),
            (lambda x: (x - 0.5).mean(), False),
            (lambda x: (x / 3.0).sum(), False),
            (lambda x: (2.0 / (x + 3.0)).sum(), False),
            (lambda x: (-x).sum(), False),
            (lambda x: (x ** 3).sum(), False),
            (lambda x: x.exp().sum(), False),
            (lambda x: x.log().sum(), True),
            (lambda x: x.abs().sum(), False),
            (lambda x: x.clamp_min(0.2).sum(), False),
            (lambda x: x.reshape(6, 4).sum(axis=0).mean(), False),
            (lambda x: x.permute(1, 0).sum(), False),
            (lambda x: x[1:3, ::2].sum(), False),
            (lambda x: x.sum(axis=1, keepdims=True).mean(), False),
        ]
        for i, (f, positive) in enumerate(prim):
            x = t((4, 6), seed=i, lo=0.5 if positive else -1.0,
                  hi=2.0 if positive else 1.0)
            checks.append((f"primitive_{i}", grad_check(f, x)))

        b = t((5, 3), seed=100)
        checks.append(("matmul", grad_check(lambda x: (x @ b).sum(),
                                            t((4, 5), seed=101))))
        other = t((2, 6), seed=102)
        checks.append(("concat", grad_check(
            lambda x: concat([x, other], axis=0).mean(), t((3, 6), seed=103))))

        # neural building blocks (input and parameter gradients)
        conv = nn.init_conv(RNG(1), 3, 2, 3, padding=1)
        checks.append(("conv_input", grad_check(
            lambda x: nn.conv2d(x, conv).sum(), t((6, 6, 2), seed=104))))
        cx = Tensor(RNG(2).normal(size=(6, 6, 2)))
        checks.append(("conv_kernel", grad_check(
            lambda k: nn.conv2d(cx, nn.Conv2dParams(
                kernel=k, bias=conv.bias, stride=1, padding=1)).sum(),
            Tensor(conv.kernel.data.copy(), requires_grad=True))))
        convt = nn.init_convt(RNG(3), 2, 3, 2)
        checks.append(("conv_transpose", grad_check(
            lambda x: nn.conv2d_transpose(x, convt).sum(),
            t((4, 4, 3), seed=105))))
        bn = nn.init_bn(3)
        checks.append(("batch_norm", grad_check(
            lambda x: nn.batch_norm(x, bn).sum(), t((5, 5, 3), seed=106))))
        ln = nn.init_layernorm(6)
        checks.append(("layer_norm", grad_check(
            lambda x: nn.layer_norm(x, ln).sum(), t((4, 6), seed=107))))
        lin = nn.init_linear(RNG(4), 6, 3)
        checks.append(("linear", grad_check(
            lambda x: nn.linear(x, lin).sum(), t((4, 6), seed=108))))
        att = nn.init_mhsa(RNG(5), 8, 2)
        checks.append(("attention", grad_check(
            lambda x: nn.mhsa(x, att).sum(), t((5, 8), seed=109))))
        for name, act in [("leaky_relu", nn.leaky_relu),
                          ("softplus", nn.softplus), ("gelu", nn.gelu),
                          ("softmax", nn.softmax)]:
            checks.append((name, grad_check(
                lambda x, a=act: a(x).sum(), t((4, 5), seed=111))))

        # convolutional model blocks
        ceb = _init_ceb(RNG(6), 4)
        checks.append(("encoder_block", grad_check(
            lambda x: ceb_forward(x, ceb).sum(), t((8, 8, 4), seed=112),
            max_coords=16)))
        cdb = _init_cdb(RNG(7), 8)
        skip = Tensor(RNG(8).normal(size=(8, 8, 4)))
        checks.append(("decoder_block", grad_check(
            lambda x: cdb_forward(x, skip, cdb).sum(), t((4, 4, 8), seed=113),
            max_coords=16)))
        saa = _init_saa(RNG(9), 8)
        e2 = Tensor(RNG(10).normal(size=(6, 6, 4)))
        checks.append(("attention_fusion", grad_check(
            lambda x: saa_forward(x, e2, saa).sum(), t((6, 6, 4), seed=114),
            max_coords=16)))
        from canopyheights.unet import DualHeadParams, SingleHeadParams
        dh = DualHeadParams(conv_cls=nn.init_conv(RNG(11), 1, 4, 10),
                            conv_reg=nn.init_conv(RNG(12), 1, 4, 10),
                            conv_out=nn.init_conv(RNG(13), 1, 10, 1))
        checks.append(("dual_head", grad_check(
            lambda x: head_dual(x, dh).height.sum(), t((5, 5, 4), seed=115),
            max_coords=16)))
        sh = SingleHeadParams(conv=nn.init_conv(RNG(14), 1, 4, 1))
        checks.append(("single_head", grad_check(
            lambda x: head_single(x, sh).sum(), t((5, 5, 4), seed=116))))

        # transformer-side blocks
        hcfg = mini_hytec_cfg()
        hp = init_hytec(RNG(15), hcfg)
        checks.append(("transformer_block", grad_check(
            lambda x: transformer_block(x, hp.blocks[0]).sum(),
            t((6, hcfg.embed_dim), seed=117), max_coords=12)))
        checks.append(("reassemble_stage", grad_check(
            lambda x: rb_forward(x, hp.rbs[1]).sum(),
            t((4, 4, hcfg.embed_dim), seed=118), max_coords=12)))
        checks.append(("final_decoder", grad_check(
            lambda x: db_forward(x, hp.db_conv1, hp.db_conv2, hp.db_up).sum(),
            t((4, 4, hcfg.l_hat), seed=119), max_coords=12)))

        # losses, including the adaptive loss's own shape and scale
        target = RNG(16).uniform(0, 10, (4, 4))
        mask = np.ones((4, 4))
        checks.append(("huber", grad_check(
            lambda x: huber(x, target, mask, 3.0),
            t((4, 4), seed=120, lo=0.0, hi=12.0))))
        base = RNG(17).uniform(-5, 5, (4, 4))
        state = AdaptiveLossState.create(alpha=1.0, c=1.2)
        checks.append(("adaptive_residual", grad_check(
            lambda x: adaptive_loss(x, state), t((4, 4), seed=121, lo=-5.0,
                                                hi=5.0))))
        checks.append(("adaptive_alpha", grad_check(
            lambda a: adaptive_loss(Tensor(base), AdaptiveLossState(
                alpha=a, c_raw=Tensor(state.c_raw.data))),
            Tensor(np.asarray(1.0), requires_grad=True))))
        checks.append(("adaptive_scale", grad_check(
            lambda c: adaptive_loss(Tensor(base), AdaptiveLossState(
                alpha=Tensor(np.asarray(1.0)), c_raw=c)),
            Tensor(state.c_raw.data.copy(), requires_grad=True))))
        h, tgt = class_target(18)
        probs = prob_tensor(19)
        w = batch_class_weights(tgt)
        checks.append(("cross_entropy", grad_check(
            lambda p: weighted_cross_entropy(p, tgt, w), probs,
            max_coords=24)))
        reg = t((8, 8), seed=122, lo=0.0, hi=40.0)
        cfg = HyTecLossConfig()
        checks.append(("combined_loss", grad_check(
            lambda r: combined_cr_loss(probs, r, tgt, h, cfg), reg,
            max_coords=24)))
        aux_targets = [(RNG(20).uniform(0, 30, (4, 4)), np.ones((4, 4))),
                       (RNG(21).uniform(0, 30, (8, 8)), np.ones((8, 8))),
                       (RNG(22).uniform(0, 30, (8, 8)), np.ones((8, 8)))]
        st = AdaptiveLossState.create()

        def f_total(a1):
            aux = [a1, Tensor(np.zeros((8, 8))), Tensor(np.zeros((8, 8)))]
            return hytec_total_loss(aux, aux_targets, probs, reg, tgt, h,
                                    cfg, adaptive_state=st)
        checks.append(("total_loss", grad_check(
            f_total, t((4, 4), seed=123, lo=0.0, hi=30.0))))

        failures = [(n, e) for n, e in checks if not e < GRAD_TOL]
        assert not failures, f"gradient checks out of tolerance: {failures}"
        assert time.monotonic() - start < 600.0


class TestShapeLaws:
    @pytest.mark.parametrize("size", [32, 64, 256])
    def test_encoder_and_decoder_block_laws(self, size):
        c = 4
        enc = ceb_forward(t((size, size, c)), _init_ceb(RNG(0), c))
        assert enc.shape == (size // 2, size // 2, 2 * c)
        skip = Tensor(RNG(1).normal(size=(size, size, c)))
        dec = cdb_forward(t((size // 2, size // 2, 2 * c), seed=2), skip,
                          _init_cdb(RNG(3), 2 * c))
        assert dec.shape == (size, size, c)

    @pytest.mark.parametrize("size,patch", [(32, 8), (64, 16), (256, 16)])
    def test_token_count_law(self, size, patch):
        d, bands = 48, 4
        proj = nn.init_linear(RNG(4), patch * patch * bands, d)
        n = (size // patch) ** 2
        out = patch_embed(Tensor(RNG(5).normal(size=(size, size, bands))),
                          proj, Tensor(np.zeros((n, d))), patch)
        assert out.shape == (n, d)

    def test_exact_token_matrix_at_reference_configuration(self):
        # 256-pixel input, 16-pixel patches, two band groups -> 512 x 1536
        cfg = HyTecConfig()
        img = RNG(6).normal(size=(256, 256, 10))
        e1 = nn.init_linear(RNG(7), cfg.patch ** 2 * 4, cfg.embed_dim)
        e2 = nn.init_linear(RNG(8), cfg.patch ** 2 * 6, cfg.embed_dim)
        pos = Tensor(np.zeros((2 * cfg.tokens_per_group, cfg.embed_dim)))
        t1 = patch_embed(Tensor(img[:, :, :4]), e1,
                         pos[:cfg.tokens_per_group], cfg.patch)
        t2 = patch_embed(Tensor(img[:, :, 4:]), e2,
                         pos[cfg.tokens_per_group:], cfg.patch)
        assert concat([t1, t2], axis=0).shape == (512, 1536)

    @pytest.mark.parametrize("grid", [4, 8, 16])
    def test_reassemble_stage_resolutions(self, grid):
        cfg = HyTecConfig.desk_scale(image_size=grid * 8, patch=8,
                                     embed_dim=32, blocks=4, heads=2,
                                     l_hat=16)
        params = init_hytec(RNG(9), cfg)
        f = Tensor(RNG(10).normal(size=(grid, grid, cfg.embed_dim)))
        expect = {1: grid // 2, 2: grid, 3: 2 * grid, 4: 4 * grid}
        for stage in (1, 2, 3, 4):
            out = rb_forward(f, params.rbs[stage - 1])
            assert out.shape == (expect[stage], expect[stage], cfg.l_hat)


class TestLossIdentities:
    def test_huber_is_c1_at_the_switch(self):
        delta = 3.0
        quad = 0.5 * delta ** 2
        lin = delta * (delta - 0.5 * delta)
        assert quad == lin == 4.5
        pred = Tensor(np.array([[3.0]]))
        out = huber(pred, np.zeros((1, 1)), np.ones((1, 1)), delta)
        assert out.item() == pytest.approx(4.5)

    def test_adaptive_analytic_limits(self):
        r = Tensor(RNG(11).uniform(-8, 8, (5, 5)))
        exact2 = adaptive_loss(r, AdaptiveLossState.create(alpha=2.0, c=1.3))
        near2 = adaptive_loss(r, AdaptiveLossState.create(alpha=2.0 + 1e-7,
                                                          c=1.3))
        assert abs(exact2.item() - near2.item()) < 1e-5
        exact0 = adaptive_loss(r, AdaptiveLossState.create(alpha=1e-7, c=0.8))
        near0 = adaptive_loss(r, AdaptiveLossState.create(alpha=2e-6, c=0.8))
        assert abs(exact0.item() - near0.item()) < 1e-5

    def test_uniform_weights_match_unweighted_bit_exact(self):
        from canopyheights.losses import LOG_FLOOR
        _, tgt = class_target(12, shape=(6, 6))
        p = prob_tensor(13, shape=(6, 6, 10))
        weighted = weighted_cross_entropy(p, tgt, np.ones(10))
        logp = np.log(p.data + LOG_FLOOR)
        unweighted = -(tgt.t * tgt.mask[:, :, None] * logp).sum() / tgt.n_valid
        assert weighted.item() == unweighted

    def test_main_only_mixture_equals_combined_bit_exact(self):
        h, tgt = class_target(14)
        probs = prob_tensor(15)
        reg = Tensor(RNG(16).uniform(0, 40, (8, 8)))
        cfg = HyTecLossConfig(betas=(0.0, 0.0, 0.0, 1.0))
        state = AdaptiveLossState.create()
        aux_preds = [Tensor(np.zeros((4, 4))), Tensor(np.zeros((8, 8))),
                     Tensor(np.zeros((8, 8)))]
        aux_targets = [(np.zeros((4, 4)), np.ones((4, 4)))] + \
                      [(np.zeros((8, 8)), np.ones((8, 8)))] * 2
        total = hytec_total_loss(aux_preds, aux_targets, probs, reg, tgt, h,
                                 cfg, adaptive_state=state)
        base = combined_cr_loss(probs, reg, tgt, h, cfg, adaptive_state=state)
        assert total.item() == base.item()


class TestErrorDecompositionAndResolutionTable:
    def test_decomposition_closes_on_thousand_pairs(self):
        rng = RNG(17)
        y = rng.uniform(0, 50, 1000)
        yhat = y + rng.normal(0, 4, 1000) + 1.5
        b2, sdsd, lcs, resid = mx.msd_decomposition(y, yhat)
        mse = ((yhat - y) ** 2).mean()
        assert abs((b2 + sdsd + lcs) - mse) <= 1e-9 * mse
        assert abs(resid) <= 1e-9 * mse

    def test_resolution_table_anchors(self):
        assert mx.resolution_from_gsi(1.0) == 10.0
        assert mx.resolution_from_gsi(1.21) == 20.0
        assert mx.resolution_from_gsi(1.37) == 25.0
        assert mx.resolution_from_gsi(2.00) == 40.0


class TestTallCanopyDebiasing:
    """The adaptive dual-head variant must shrink tall-canopy bias by at
    least 30% versus the plain regression model under an equal budget."""

    @staticmethod
    def tall_bias(arch, samples, holdout):
        settings = tr.TrainSettings(arch=arch, epochs=100, batch_size=4,
                                    seed=0, stem_width=4, base_lr=1e-2,
                                    loss=HyTecLossConfig(alpha_cr=5.0))
        res = tr.train_unet(samples, settings)
        diffs = []
        for s in holdout:
            pred = tr.predict_heights(res.params, res.config, s)
            sel = (s.mask > 0) & (s.target_h > 35.0)
            diffs.append((pred[sel] - s.target_h[sel]))
        diffs = np.concatenate(diffs)
        assert diffs.size > 0
        return float(diffs.mean())

    @pytest.mark.parametrize("data_seed", [100, 200, 300])
    def test_bias_reduction_on_held_out_tall_targets(self, data_seed):
        tiles = dp.synth_dataset(16, 32, data_seed, shots_per_tile=150,
                                 violation_rate=0.0)
        samples = tr.samples_from_tiles(tiles)
        train_set, holdout = samples[:10], samples[10:]
        plain = self.tall_bias("2mou", train_set, holdout)
        adaptive = self.tall_bias("a2mdu", train_set, holdout)
        assert abs(adaptive) <= 0.7 * abs(plain), \
            f"tall bias {adaptive:+.2f} vs plain {plain:+.2f}"


class TestDistillation:
    @staticmethod
    def make_teachers(samples):
        out = []
        for arch, mod in [("teacher_s1", "s1"), ("teacher_s2", "s2")]:
            st = tr.TrainSettings(arch=arch, epochs=30, batch_size=3, seed=1,
                                  stem_width=4, base_lr=1e-2)
            res = tr.train_unet(samples, st)
            out.append(tr.Teacher(res.params, res.config, mod))
        return out

    def test_total_loss_halves_during_training(self):
        tiles = dp.synth_dataset(6, 32, 500, shots_per_tile=120,
                                 violation_rate=0.0)
        samples = tr.samples_from_tiles(tiles)
        teachers = self.make_teachers(samples)
        st = tr.TrainSettings(arch="hytec", epochs=120, batch_size=3, seed=2,
                              warmup_epochs=10, lr_peak=1e-3)
        res = tr.train_hytec(samples, teachers, st, cfg=mini_hytec_cfg())
        first, last = res.trace[0][2], res.trace[-1][2]
        assert last <= 0.5 * first, f"loss only fell {first:.4g}->{last:.4g}"

    def test_gradient_isolation_between_heads(self):
        cfg = mini_hytec_cfg()
        params = init_hytec(RNG(30), cfg)
        registry = optim.collect_tensors(params)
        x = Tensor(RNG(31).uniform(0, 1, (32, 32, 10)))

        # auxiliary-path loss must not touch the main head
        out = hytec_forward(x, params, cfg)
        aux_loss = None
        for a in out.aux:
            term = huber(a, np.zeros(a.shape), np.ones(a.shape), 3.0)
            aux_loss = term if aux_loss is None else aux_loss + term
        aux_loss.backward()
        assert all(v.grad is None for n, v in registry.items()
                   if n.startswith("head."))
        assert any(v.grad is not None for n, v in registry.items()
                   if n.startswith("aux_heads."))

        # main-path loss must not touch the auxiliary heads
        for v in registry.values():
            v.grad = None
        out = hytec_forward(x, params, cfg)
        h, tgt = class_target(32, shape=(32, 32))
        main = combined_cr_loss(out.main.probs, out.main.height, tgt, h,
                                HyTecLossConfig())
        main.backward()
        assert all(v.grad is None for n, v in registry.items()
                   if n.startswith("aux_heads."))
        assert any(v.grad is not None for n, v in registry.items()
                   if n.startswith("head."))


def clean_shot(**kw):
    """A shot row, in ``SHOT_FIELDS`` order, that breaks no filter rule."""
    base = dict(lon=5.0, lat=5.0, rh98=10.0, num_detectedmodes=2,
                snr_db=20.0, view_angle=2.0, sensitivity=0.98,
                elm=200.0, srtm=205.0, rx_sample_count=800,
                search_end=300, canopy_cover=0.5, ndvi30=0.5,
                acquired_at=100, beam_kind="full_power")
    base.update(kw)
    return tuple(base[f] for f in dp.SHOT_FIELDS)


class TestDataQualityPipeline:
    def test_filter_agrees_with_planted_labels_everywhere(self):
        tiles = dp.synth_dataset(4, 32, 42, shots_per_tile=200,
                                 violation_rate=0.35)
        shots = np.concatenate([t.shots for t in tiles]).view(np.recarray)
        labels = [lab for t in tiles for lab in t.shot_labels]
        diffs = np.array([abs(s.canopy_cover - s.ndvi30) for s in shots])
        sigma = float(diffs.std())
        for i, label in enumerate(labels):
            retained, counts = dp.filter_gedi(shots[i:i + 1],
                                              sigma_cover=sigma)
            if label == "clean":
                assert len(retained) == 1, "clean shot was rejected"
            else:
                assert counts[label] == 1, \
                    f"shot planted as {label!r} attributed to {counts}"

    def test_grid_oracle_on_fifty_cells(self):
        # 50 cells in a 10 x 5 layout; cell k is engineered to land in
        # set (k % 9) + 1 by planting just enough shots in that set's
        # height range and parking the rest below 5 m
        thresholds = (0.50, 0.25, 0.10, 0.10, 0.05, 0.025, 0.025, 0.025,
                      0.025)
        duplications = (0, 1, 0, 3, 4, 4, 8, 8, 4)
        n_per_cell = 40
        shots, expected_sets = [], []
        for k in range(50):
            s = k % 9 + 1
            col, row = k % 10, k // 10
            cx, cy = col * 10.0 + 5.0, row * 10.0 + 5.0
            n_tall = math.floor(thresholds[s - 1] * n_per_cell) + 1
            if s == 1:
                heights = [2.0] * n_per_cell
            else:
                tall = 45.0 if s == 9 else 5.0 * (s - 1) + 2.5
                heights = [tall] * n_tall + [2.0] * (n_per_cell - n_tall)
            for i, rh in enumerate(heights):
                shots.append(clean_shot(lon=cx + 0.01 * i, lat=cy, rh98=rh))
            expected_sets.append(s)

        cells = dp.build_grid(np.rec.fromrecords(shots, dtype=dp.SHOT_DTYPE),
                              (0, 0, 100, 50), cell_size=10.0,
                              min_shots=10, seed=9)
        assert len(cells) == 50
        by_id = {c.cell_id: c for c in cells}
        for k, s in enumerate(expected_sets):
            assert by_id[(k % 10, k // 10)].set_id == s

        for s in range(1, 10):
            members = [c for c in cells if c.set_id == s]
            n_train = max(1, int(round(0.75 * len(members))))
            train = [c for c in members if c.split == "train"]
            val = [c for c in members if c.split == "val"]
            assert len(train) == n_train
            assert len(val) == len(members) - n_train
            assert all(c.duplication == duplications[s - 1] for c in train)
            assert all(c.duplication == 0 for c in val)

        listed = dp.training_list(cells)
        assert len(listed) == sum(1 + c.duplication for c in cells
                                  if c.split == "train")


class TestSharpnessIndex:
    def test_strictly_increases_with_blur_on_twenty_patches(self):
        sigmas = (0.5, 1.0, 2.0, 4.0)
        for seed in range(20):
            base = RNG(seed).normal(size=(32, 32))
            bands = np.stack([base, 2.0 * base + 1.0], axis=-1)
            vals = [mx.gsi(gaussian_filter(base, s), bands).gsi
                    for s in sigmas]
            assert all(b > a for a, b in zip(vals, vals[1:])), \
                f"patch {seed}: {vals}"

    def test_self_comparison_scores_one(self):
        base = RNG(99).normal(size=(32, 32))
        bands = np.stack([1.5 * base - 2.0, -base, base + 4.0], axis=-1)
        assert abs(mx.gsi(base, bands).gsi - 1.0) < 1e-6


class TestReproducibility:
    @staticmethod
    def pipeline_cfg():
        cfg = cf.RunConfig()
        for (s, k), v in {
            ("run", "seed"): 11,
            ("data", "n_tiles"): 2,
            ("data", "tile_size"): 32,
            ("data", "shots_per_tile"): 40,
            ("data", "violation_rate"): 0.2,
            ("model", "input_size"): 32,
            ("model", "stem_width"): 4,
            ("optimizer", "max_epochs"): 2,
            ("optimizer", "batch_size"): 2,
        }.items():
            cfg.set(s, k, v)
        return cfg

    @staticmethod
    def run_cli(cfg, args, tmp_path, name):
        path = str(tmp_path / name)
        cf.save(cfg, path)
        assert cli.main([args[0], "--config", path, *args[1:]]) == 0

    @staticmethod
    def assert_trees_identical(a, b):
        names_a = sorted(os.path.join(r, f)[len(str(a)) + 1:]
                         for r, _, fs in os.walk(a) for f in fs)
        names_b = sorted(os.path.join(r, f)[len(str(b)) + 1:]
                         for r, _, fs in os.walk(b) for f in fs)
        assert names_a == names_b
        for rel in names_a:
            assert filecmp.cmp(os.path.join(a, rel), os.path.join(b, rel),
                               shallow=False), f"{rel} differs between runs"

    def test_full_pipeline_is_byte_identical_across_runs(self, tmp_path):
        cfg = self.pipeline_cfg()
        outs = {}
        for run in ("one", "two"):
            root = tmp_path / run
            root.mkdir()
            ds = str(root / "data")
            self.run_cli(cfg, ["synth", "--out", ds], root, "synth.ini")
            run_cfg = cfg.copy()
            run_cfg.set("data", "dataset_dir", ds)
            train_out = str(root / "train")
            self.run_cli(run_cfg, ["train", "--out", train_out], root,
                         "train.ini")
            run_cfg.set("eval", "checkpoint",
                        os.path.join(train_out, "checkpoints"))
            eval_out = str(root / "eval")
            self.run_cli(run_cfg, ["eval", "--out", eval_out], root,
                         "eval.ini")
            outs[run] = (ds, train_out, eval_out)
        for a, b in zip(outs["one"], outs["two"]):
            self.assert_trees_identical(a, b)
