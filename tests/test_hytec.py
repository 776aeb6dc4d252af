"""Hybrid transformer model: token laws, reassembly laws, forwards."""

import numpy as np
import pytest

from canopyheights import nn
from canopyheights.hytec import (HyTecConfig, db_forward, encoder_forward,
                                 hytec_forward, init_hytec, patch_embed,
                                 rb_forward, spatial_concat,
                                 transformer_block)
from canopyheights.tensor import Tensor, grad_check

TOL = 1e-4
RNG = np.random.default_rng


def mini_cfg(image_size=32, **kw):
    args = dict(image_size=image_size, patch=8, embed_dim=32, blocks=4,
                heads=2, l_hat=16, taps=(1, 2, 3, 4))
    args.update(kw)
    return HyTecConfig.desk_scale(**args)


class TestConfig:
    def test_reference_configuration_tokens(self):
        cfg = HyTecConfig()
        assert cfg.grid == 16
        assert cfg.tokens_per_group == 256
        assert cfg.embed_dim == 1536

    @pytest.mark.parametrize("bad", [
        dict(image_size=250),           # not divisible by patch
        dict(embed_dim=1535),           # not divisible by heads
        dict(patch=10),                 # not divisible by 4
        dict(l_hat=100),                # not divisible by 8
        dict(taps=(3, 6, 9)),           # needs 4 taps
        dict(taps=(3, 6, 9, 13)),       # tap beyond stack
    ])
    def test_invalid_configurations_rejected(self, bad):
        with pytest.raises(ValueError):
            HyTecConfig(**bad)

    @pytest.mark.parametrize("field,value", [
        ("image_size", 0), ("patch", 0), ("embed_dim", 0), ("blocks", 0),
        ("heads", 0), ("l_hat", 0), ("heads", -2)])
    def test_non_positive_sizes_rejected_by_name(self, field, value):
        with pytest.raises(ValueError,
                           match=f"^{field} must be positive, got {value}$"):
            mini_cfg(**{field: value})


class TestTokenLaws:
    @pytest.mark.parametrize("size,patch", [(32, 8), (64, 16), (256, 16)])
    def test_token_count_law(self, size, patch):
        # N = (H/P)^2 tokens per band group
        d = 48
        bands = 4
        proj = nn.init_linear(RNG(0), patch * patch * bands, d)
        n = (size // patch) ** 2
        pos = Tensor(np.zeros((n, d)))
        img = Tensor(RNG(1).normal(size=(size, size, bands)))
        assert patch_embed(img, proj, pos, patch).shape == (n, d)

    def test_exact_512x1536_token_matrix_at_256(self):
        # reference configuration: two 256-token groups of width 1536
        cfg = HyTecConfig()
        img = RNG(2).normal(size=(256, 256, 10))
        e1 = nn.init_linear(RNG(3), cfg.patch ** 2 * 4, cfg.embed_dim)
        e2 = nn.init_linear(RNG(4), cfg.patch ** 2 * 6, cfg.embed_dim)
        pos = Tensor(np.zeros((2 * cfg.tokens_per_group, cfg.embed_dim)))
        t1 = patch_embed(Tensor(img[:, :, :4]), e1,
                         pos[:cfg.tokens_per_group], cfg.patch)
        t2 = patch_embed(Tensor(img[:, :, 4:]), e2,
                         pos[cfg.tokens_per_group:], cfg.patch)
        from canopyheights.tensor import concat
        tokens = concat([t1, t2], axis=0)
        assert tokens.shape == (512, 1536)

    def test_patch_flattening_is_row_major(self):
        # a 1-band image whose value equals its patch index must embed to
        # patch-constant rows under an identity-like projection
        patch, size = 2, 4
        img = np.zeros((size, size, 1))
        idx = 0
        for i in range(0, size, patch):
            for j in range(0, size, patch):
                img[i:i + patch, j:j + patch, 0] = idx
                idx += 1
        proj = nn.LinearParams(weight=Tensor(np.ones((patch * patch, 1))),
                               bias=Tensor(np.zeros(1)))
        pos = Tensor(np.zeros((4, 1)))
        out = patch_embed(Tensor(img), proj, pos, patch).data[:, 0]
        np.testing.assert_allclose(out, np.arange(4) * patch * patch)


class TestReassembleLaws:
    @pytest.mark.parametrize("grid", [4, 8, 16])
    def test_stage_resolutions(self, grid):
        # stages map a G-grid to G/2, G, 2G, 4G with l_hat channels
        cfg = mini_cfg(image_size=grid * 8)
        params = init_hytec(RNG(5), cfg)
        f = Tensor(RNG(6).normal(size=(grid, grid, cfg.embed_dim)))
        expect = {1: grid // 2, 2: grid, 3: 2 * grid, 4: 4 * grid}
        for stage in (1, 2, 3, 4):
            out = rb_forward(f, params.rbs[stage - 1])
            assert out.shape == (expect[stage], expect[stage], cfg.l_hat)

    def test_decoder_block_law(self):
        # DB multiplies extent by its stride and divides channels by 8
        up = nn.init_convt(RNG(7), 4, 16, 2)
        c1 = nn.init_conv(RNG(8), 3, 16, 16, padding=1)
        c2 = nn.init_conv(RNG(9), 3, 16, 16, padding=1)
        out = db_forward(Tensor(RNG(10).normal(size=(8, 8, 16))), c1, c2, up)
        assert out.shape == (32, 32, 2)

    def test_spatial_concat_row_major(self):
        tokens = Tensor(np.arange(8.0).reshape(4, 2))
        grid = spatial_concat(tokens, 2)
        assert grid.shape == (2, 2, 2)
        np.testing.assert_allclose(grid.data[0, 1], [2.0, 3.0])

    def test_spatial_concat_rejects_non_square(self):
        with pytest.raises(ValueError):
            spatial_concat(Tensor(np.zeros((5, 2))), 2)


class TestEncoder:
    def test_block_preserves_token_shape(self):
        cfg = mini_cfg()
        params = init_hytec(RNG(11), cfg)
        x = Tensor(RNG(12).normal(size=(10, cfg.embed_dim)))
        assert transformer_block(x, params.blocks[0]).shape == x.shape

    def test_encoder_retains_all_layer_outputs(self):
        cfg = mini_cfg()
        params = init_hytec(RNG(13), cfg)
        x = Tensor(RNG(14).normal(size=(6, cfg.embed_dim)))
        outs = encoder_forward(x, params.blocks)
        assert len(outs) == cfg.blocks
        assert all(o.shape == x.shape for o in outs)


class TestFullForward:
    def test_outputs_shapes_and_invariants(self):
        cfg = mini_cfg()
        params = init_hytec(RNG(15), cfg)
        x = Tensor(RNG(16).normal(size=(32, 32, 10)))
        out = hytec_forward(x, params, cfg)
        assert out.main.height.shape == (32, 32)
        assert (out.main.height.data > 0).all()
        np.testing.assert_allclose(out.main.probs.data.sum(axis=-1), 1.0,
                                   atol=1e-10)
        # aux maps at the three fused levels: G, 2G, 4G (input/patch steps)
        grid = cfg.grid
        assert [a.shape for a in out.aux] == [
            (grid, grid), (2 * grid, 2 * grid), (4 * grid, 4 * grid)]
        assert all((a.data > 0).all() for a in out.aux)

    def test_band_count_enforced(self):
        cfg = mini_cfg()
        params = init_hytec(RNG(17), cfg)
        with pytest.raises(ValueError):
            hytec_forward(Tensor(np.zeros((32, 32, 7))), params, cfg)

    def test_off_size_input_rejected(self):
        cfg = mini_cfg(image_size=32)
        params = init_hytec(RNG(20), cfg)
        with pytest.raises(ValueError, match="16 px.*32 px"):
            hytec_forward(Tensor(np.zeros((16, 16, 10))), params, cfg)

    def test_miniature_model_grad(self):
        cfg = mini_cfg()
        params = init_hytec(RNG(18), cfg)

        def f(x):
            out = hytec_forward(x, params, cfg)
            return out.main.height.sum() + sum(a.sum() for a in out.aux)
        x = Tensor(RNG(19).normal(size=(32, 32, 10)), requires_grad=True)
        assert grad_check(f, x, max_coords=6) < TOL


class TestTileStacking:
    def test_stacked_batch_equals_tile_by_tile(self):
        """Three tiles stacked along rows give each tile's own outputs, and
        the summed gradients of the tiles run one by one."""
        cfg = mini_cfg()
        x = RNG(21).normal(size=(3 * 32, 32, 10))
        w = RNG(22).normal(size=(3 * 32, 32))

        def run(tiles):
            params = init_hytec(RNG(23), cfg)
            maps, total = [], 0.0
            for lo in range(0, 3 * 32, 32 * tiles):
                rows = slice(lo, lo + 32 * tiles)
                out = hytec_forward(Tensor(x[rows]), params, cfg, tiles=tiles)
                maps.append([out.main.height.data, out.main.probs.data,
                             *(a.data for a in out.aux)])
                total = (out.main.height * Tensor(w[rows])).sum() \
                    + sum((a * a).sum() for a in out.aux) + total
            total.backward()
            return ([np.concatenate(m) for m in zip(*maps)],
                    [params.pos.grad, params.embed1.weight.grad,
                     params.blocks[0].attn.wq.weight.grad,
                     params.db_conv1.kernel.grad])

        outs, grads = run(3)
        outs1, grads1 = run(1)
        for got, want in zip(outs, outs1):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for got, want in zip(grads, grads1):
            np.testing.assert_allclose(got, want, rtol=1e-8,
                                       atol=1e-10 * np.max(np.abs(want)))
