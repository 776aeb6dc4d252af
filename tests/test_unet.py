"""Convolutional model family: block shape laws, forwards, gradients."""

import numpy as np
import pytest

from canopyheights import nn, optim
from canopyheights.losses import HeightBinning
from canopyheights.tensor import Tape, Tensor, grad_check
from canopyheights.train import make_unet, UNET_ARCHS
from canopyheights.unet import (BANDS, DualHeadOutput, DualHeadParams,
                                UNetConfig, _init_cdb, _init_ceb, _init_saa,
                                cdb_forward, ceb_forward, head_dual,
                                head_single, init_unet, saa_forward,
                                unet_forward)

TOL = 1e-4
RNG = np.random.default_rng


def t(shape, seed=0):
    return Tensor(RNG(seed).normal(size=shape), requires_grad=True)


class TestBlockShapeLaws:
    @pytest.mark.parametrize("size", [32, 64, 256])
    def test_encoder_block_halves_space_doubles_channels(self, size):
        c = 4
        p = _init_ceb(RNG(0), c)
        out = ceb_forward(t((size, size, c)), p)
        assert out.shape == (size // 2, size // 2, 2 * c)

    @pytest.mark.parametrize("size", [32, 64, 256])
    def test_decoder_block_doubles_space_halves_channels(self, size):
        c = 8
        p = _init_cdb(RNG(1), c)
        skip = t((size * 2, size * 2, c // 2), seed=2)
        out = cdb_forward(t((size, size, c)), skip, p)
        assert out.shape == (size * 2, size * 2, c // 2)

    def test_encoder_decoder_chain_is_symmetric(self):
        c = 4
        x = t((32, 32, c), seed=3)
        e = _init_ceb(RNG(4), c)
        d = _init_cdb(RNG(5), 2 * c)
        down = ceb_forward(x, e)
        up = cdb_forward(down, x, d)
        assert up.shape == x.shape

    def test_saa_preserves_shape(self):
        p = _init_saa(RNG(6), 8)
        e1, e2 = t((4, 4, 4), seed=7), t((4, 4, 4), seed=8)
        assert saa_forward(e1, e2, p).shape == (4, 4, 8)

    def test_saa_single_modality(self):
        p = _init_saa(RNG(9), 4)
        e1 = t((4, 4, 4), seed=10)
        assert saa_forward(e1, None, p).shape == (4, 4, 4)


class TestBlockGradients:
    def test_ceb_grad(self):
        p = _init_ceb(RNG(11), 2)
        assert grad_check(lambda x: ceb_forward(x, p).sum(),
                          t((8, 8, 2), seed=12), max_coords=32) < TOL

    def test_cdb_grad(self):
        p = _init_cdb(RNG(13), 4)
        skip = t((8, 8, 2), seed=14)
        assert grad_check(lambda x: cdb_forward(x, skip, p).sum(),
                          t((4, 4, 4), seed=15), max_coords=32) < TOL

    def test_saa_grad(self):
        p = _init_saa(RNG(16), 4)
        e2 = t((3, 3, 2), seed=17)
        assert grad_check(lambda x: saa_forward(x, e2, p).sum(),
                          t((3, 3, 2), seed=18), max_coords=18) < TOL

    def test_single_head_grad_and_positivity(self):
        from canopyheights.unet import SingleHeadParams
        p = SingleHeadParams(conv=nn.init_conv(RNG(19), 1, 4, 1))
        x = t((5, 5, 4), seed=20)
        assert (head_single(x, p).data > 0).all()
        assert grad_check(lambda v: head_single(v, p).sum(), x,
                          max_coords=30) < TOL

    def test_dual_head_grad_and_invariants(self):
        p = DualHeadParams(conv_cls=nn.init_conv(RNG(21), 1, 4, 10),
                           conv_reg=nn.init_conv(RNG(22), 1, 4, 10),
                           conv_out=nn.init_conv(RNG(23), 1, 10, 1))
        x = t((4, 4, 4), seed=24)
        out = head_dual(x, p)
        np.testing.assert_allclose(out.probs.data.sum(axis=-1), 1.0,
                                   atol=1e-10)
        assert (out.height.data > 0).all()
        assert grad_check(lambda v: head_dual(v, p).height.sum(), x,
                          max_coords=24) < TOL


class TestFullModels:
    def inputs(self, size=32, seed=25):
        rng = RNG(seed)
        return (Tensor(rng.normal(size=(size, size, 10))),
                Tensor(rng.normal(size=(size, size, 2))))

    def test_2mou_single_height_map(self):
        params, cfg = make_unet("2mou", RNG(26), stem_width=4)
        s2, s1 = self.inputs()
        out = unet_forward(s2, s1, params, cfg)
        assert out.shape == (32, 32)
        assert (out.data > 0).all()

    def test_dual_head_model_outputs(self):
        params, cfg = make_unet("2mdu", RNG(27), stem_width=4)
        s2, s1 = self.inputs(seed=28)
        out = unet_forward(s2, s1, params, cfg)
        assert isinstance(out, DualHeadOutput)
        assert out.probs.shape == (32, 32, 10)
        assert out.height.shape == (32, 32)

    def test_teachers_are_single_modality(self):
        for arch, channels in [("teacher_s1", 2), ("teacher_s2", 10)]:
            params, cfg = make_unet(arch, RNG(29), stem_width=4)
            x = Tensor(RNG(30).normal(size=(32, 32, channels)))
            out = unet_forward(x, None, params, cfg)
            assert out.shape == (32, 32)
            assert (out.data > 0).all()

    def test_all_archs_constructible(self):
        for arch in UNET_ARCHS:
            params, cfg = make_unet(arch, RNG(31), stem_width=4)
            assert params is not None and cfg.stem_width == 4

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            make_unet("resnet", RNG(32))

    @pytest.mark.parametrize("inputs", [("s1", "s2"), ("s2", "s2"), (),
                                        ("s3",), "s2"])
    def test_unnamed_inputs_refused(self, inputs):
        with pytest.raises(ValueError, match="is not one of"):
            UNetConfig(inputs=inputs)

    def test_each_encoder_takes_its_modality_bands(self):
        for arch in UNET_ARCHS:
            params, cfg = make_unet(arch, RNG(38), stem_width=4)
            stems = [params.stem_s2, params.stem_s1][:len(cfg.inputs)]
            assert ([p.kernel.shape[2] for p in stems]
                    == [BANDS[m] for m in cfg.inputs]), arch

    def test_head_is_dual_exactly_when_bins_are_set(self):
        assert make_unet("2mou", RNG(39), 4,
                         HeightBinning.default())[1].bins is None
        params, cfg = make_unet("2mdu", RNG(39), 4)       # no bins given
        assert cfg.bins.k == HeightBinning.default().k
        assert isinstance(params.head, DualHeadParams)

    def test_indivisible_extent_rejected(self):
        params, cfg = make_unet("2mou", RNG(33), stem_width=4)
        with pytest.raises(ValueError):
            unet_forward(Tensor(np.zeros((30, 30, 10))),
                         Tensor(np.zeros((30, 30, 2))), params, cfg)

    def test_dual_modality_requires_s1(self):
        params, cfg = make_unet("2mou", RNG(34), stem_width=4)
        with pytest.raises(ValueError):
            unet_forward(Tensor(np.zeros((32, 32, 10))), None, params, cfg)

    def test_miniature_model_grad(self):
        params, cfg = make_unet("2mou", RNG(35), stem_width=2)
        s1 = Tensor(RNG(36).normal(size=(16, 16, 2)))

        def f(x):
            return unet_forward(x, s1, params, cfg).sum()
        x = Tensor(RNG(37).normal(size=(16, 16, 10)), requires_grad=True)
        assert grad_check(f, x, max_coords=12) < TOL


def _graph_bytes(root: Tensor) -> int:
    """Bytes a graph holds beyond its leaves: the data of every op node and
    the arrays its gradient function closes over, each array counted once
    by its base."""
    held = {}
    for node in Tape.from_root(root).nodes:
        if node._grad_fn is None:
            continue
        cells = [c.cell_contents for c in node._grad_fn.__closure__ or ()]
        for a in (node.data, *cells):
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                held[id(a)] = a.nbytes
    return sum(held.values())


class TestTileStacking:
    """A batch runs as one forward over its tiles stacked along rows.  With
    batch norm in train mode, every tile's outputs, the running statistics
    and the gradients equal those of each tile run on its own."""

    def run(self, arch, tiles, seed=40):
        params, cfg = make_unet(arch, RNG(seed), stem_width=4)
        rng = RNG(seed + 1)
        xs = [rng.normal(size=(3, 32, 32, BANDS[m])) for m in cfg.inputs]
        w = rng.normal(size=(3, 32, 32))
        maps, total = [], 0.0
        for lo in range(0, 3, tiles):
            rows = slice(lo, lo + tiles)
            x1, x2 = [Tensor(x[rows].reshape(-1, 32, x.shape[-1]))
                      for x in xs] + [None] * (2 - len(xs))
            out = unet_forward(x1, x2, params, cfg, tiles=tiles)
            height = out.height if isinstance(out, DualHeadOutput) else out
            maps.append([height.data] + ([out.probs.data] if isinstance(
                out, DualHeadOutput) else []))
            total = (height * Tensor(w[rows].reshape(-1, 32))).sum() + total
        total.backward()
        outs = [np.concatenate(m) for m in zip(*maps)]
        grads = {k: v.grad for k, v in optim.collect_tensors(params).items()}
        return outs, grads, optim.collect_state(params)

    @pytest.mark.parametrize("arch", ["2mou", "a2mdu", "teacher_s1"])
    def test_stacked_batch_equals_tile_by_tile(self, arch):
        outs, grads, state = self.run(arch, tiles=3)
        outs1, grads1, state1 = self.run(arch, tiles=1)
        for got, want in zip(outs, outs1):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for name, want in state1.items():
            np.testing.assert_allclose(state[name], want, rtol=1e-12,
                                       err_msg=name)
        scale = max(np.max(np.abs(g)) for g in grads1.values())
        for name, want in grads1.items():
            np.testing.assert_allclose(grads[name], want, rtol=1e-8,
                                       atol=1e-10 * scale, err_msg=name)

    def test_graph_keeps_no_recomputable_array(self):
        # the same walk read 4.72 MB while leaky_relu kept its mask,
        # batch_norm its normalized input and conv2d its padded tile
        params, cfg = make_unet("a2mdu", RNG(44), stem_width=4)
        rng = RNG(45)
        out = unet_forward(Tensor(rng.normal(size=(32, 32, 10))),
                           Tensor(rng.normal(size=(32, 32, 2))), params, cfg)
        assert _graph_bytes(out.height.sum() + out.probs.sum()) <= 0.6 * 4.72e6
