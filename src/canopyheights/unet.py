"""Convolutional encoder-decoder models for canopy height estimation.

The family shares four encoder blocks (halve spatial, double channels),
an attention bottleneck fusing the encoder paths, four decoder blocks
(double spatial, halve channels) with skip connections from the optical
encoder, and one of two output heads: a single regression head or a dual
classification/regression head over overlapping height bins.

``train`` maps each named variant to its config, which names the
modalities its encoders read (each takes its ``datapipe`` band count)
and holds height bins exactly when the head is dual.  A single-encoder
model (a distillation teacher) reads its one modality through the first
path: ``unet_forward(x, None, ...)``.

Every forward takes a batch of ``tiles`` tiles stacked along rows (see
``nn``) and checks its shape laws per tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nn
from .datapipe import S1_BANDS, S2_BANDS
from .losses import HeightBinning
from .tensor import Tensor, concat

DEPTH = 4        # encoder (and decoder) blocks per path
# each modality's channel count, and the encoder inputs a model may read
BANDS = {"s2": S2_BANDS, "s1": S1_BANDS}
INPUTS = (("s2", "s1"), ("s2",), ("s1",))


@dataclass
class UNetConfig:
    inputs: tuple = ("s2", "s1")           # one of INPUTS, first encoder first
    stem_width: int = 16
    bins: Optional[HeightBinning] = None   # set for a dual head

    def __post_init__(self):
        if self.inputs not in INPUTS:
            raise ValueError(f"inputs {self.inputs!r} is not one of {INPUTS}")


# -- block parameter sets ---------------------------------------------

@dataclass
class CebParams:
    conv1: nn.Conv2dParams     # C -> 2C, 3x3 pad 1
    bn1: nn.BatchNormState
    conv2: nn.Conv2dParams     # 2C -> 2C
    bn2: nn.BatchNormState
    down: nn.Conv2dParams      # 2C -> 2C, 2x2 stride 2


@dataclass
class CdbParams:
    up: nn.ConvT2dParams       # C -> C/2, 2x2 stride 2
    conv1: nn.Conv2dParams     # C -> C/2 after skip concat
    bn1: nn.BatchNormState
    conv2: nn.Conv2dParams     # C/2 -> C/2
    bn2: nn.BatchNormState


@dataclass
class SaaParams:
    proj_in: nn.Conv2dParams   # 1x1
    attn: nn.MhsaParams        # single head over flattened positions
    proj_out: nn.Conv2dParams  # 1x1


@dataclass
class SingleHeadParams:
    conv: nn.Conv2dParams      # 1x1, C -> 1


@dataclass
class DualHeadParams:
    conv_cls: nn.Conv2dParams  # 1x1, C -> K (softmax branch)
    conv_reg: nn.Conv2dParams  # 1x1, C -> K
    conv_out: nn.Conv2dParams  # 1x1, K -> 1


@dataclass
class DualHeadOutput:
    probs: Tensor              # W x H x K, slices sum to 1
    height: Tensor             # W x H, strictly positive


@dataclass
class UNetParams:
    stem_s2: nn.Conv2dParams
    cebs_s2: list
    stem_s1: Optional[nn.Conv2dParams]
    cebs_s1: Optional[list]
    saa: SaaParams
    fuse: Optional[nn.Conv2dParams]   # 1x1 back to the single-path width
    cdbs: list
    head: object                      # SingleHeadParams | DualHeadParams


# -- init --------------------------------------------------------------

def _init_ceb(rng, c: int) -> CebParams:
    return CebParams(
        conv1=nn.init_conv(rng, 3, c, 2 * c, stride=1, padding=1),
        bn1=nn.init_bn(2 * c),
        conv2=nn.init_conv(rng, 3, 2 * c, 2 * c, stride=1, padding=1),
        bn2=nn.init_bn(2 * c),
        down=nn.init_conv(rng, 2, 2 * c, 2 * c, stride=2, padding=0))


def _init_cdb(rng, c: int) -> CdbParams:
    half = c // 2
    return CdbParams(
        up=nn.init_convt(rng, 2, c, half),
        conv1=nn.init_conv(rng, 3, c, half, stride=1, padding=1),
        bn1=nn.init_bn(half),
        conv2=nn.init_conv(rng, 3, half, half, stride=1, padding=1),
        bn2=nn.init_bn(half))


def _init_saa(rng, c: int) -> SaaParams:
    return SaaParams(
        proj_in=nn.init_conv(rng, 1, c, c),
        attn=nn.init_mhsa(rng, c, heads=1),
        proj_out=nn.init_conv(rng, 1, c, c))


def init_unet(rng: Optional[np.random.Generator],
              cfg: UNetConfig) -> UNetParams:
    """Fresh parameters; ``rng`` None draws nothing and leaves every drawn
    value 0, for a checkpoint to overwrite (see ``nn.he_uniform``)."""
    f0 = cfg.stem_width
    widths = [f0 * 2 ** i for i in range(DEPTH)]           # per-stage input widths
    bottleneck = f0 * 2 ** DEPTH

    # a lone encoder, s1's too, is stem_s2 and cebs_s2 (its checkpoint names)
    first, *second = (BANDS[m] for m in cfg.inputs)
    stem_s2 = nn.init_conv(rng, 3, first, f0, stride=1, padding=1)
    cebs_s2 = [_init_ceb(rng, w) for w in widths]
    if second:
        stem_s1 = nn.init_conv(rng, 3, second[0], f0, stride=1, padding=1)
        cebs_s1 = [_init_ceb(rng, w) for w in widths]
        saa = _init_saa(rng, 2 * bottleneck)
        fuse = nn.init_conv(rng, 1, 2 * bottleneck, bottleneck)
    else:
        stem_s1, cebs_s1, fuse = None, None, None
        saa = _init_saa(rng, bottleneck)

    cdbs = [_init_cdb(rng, bottleneck // 2 ** i) for i in range(DEPTH)]

    if cfg.bins is None:
        head: object = SingleHeadParams(nn.init_conv(rng, 1, f0, 1))
    else:
        k = cfg.bins.k
        head = DualHeadParams(
            conv_cls=nn.init_conv(rng, 1, f0, k),
            conv_reg=nn.init_conv(rng, 1, f0, k),
            conv_out=nn.init_conv(rng, 1, k, 1))
    return UNetParams(stem_s2, cebs_s2, stem_s1, cebs_s1, saa, fuse, cdbs, head)


# -- block forwards ---------------------------------------------------

def ceb_forward(x: Tensor, p: CebParams, tiles: int = 1) -> Tensor:
    """Encoder block: W x H x C -> W/2 x H/2 x 2C."""
    rows, w, c = x.shape
    h = nn.tile_rows(rows, tiles)
    if h % 2 or w % 2:
        raise ValueError(f"encoder block needs even extents, got {h}x{w}")
    y = nn.leaky_relu(nn.batch_norm(nn.conv2d(x, p.conv1, tiles), p.bn1, tiles))
    y = nn.leaky_relu(nn.batch_norm(nn.conv2d(y, p.conv2, tiles), p.bn2, tiles))
    y = nn.conv2d(y, p.down)
    assert y.shape == (rows // 2, w // 2, 2 * c), f"encoder shape law violated: {y.shape}"
    return y


def cdb_forward(x: Tensor, skip: Tensor, p: CdbParams, tiles: int = 1) -> Tensor:
    """Decoder block: W x H x C with a 2W x 2H x C/2 skip -> 2W x 2H x C/2."""
    rows, w, c = x.shape
    nn.tile_rows(rows, tiles)
    if c % 2:
        raise ValueError("decoder block needs an even channel count")
    if skip.shape != (2 * rows, 2 * w, c // 2):
        raise ValueError(f"skip shape mismatch: {skip.shape} for input {x.shape}")
    y = nn.conv2d_transpose(x, p.up)
    y = concat([y, skip], axis=2)
    y = nn.leaky_relu(nn.batch_norm(nn.conv2d(y, p.conv1, tiles), p.bn1, tiles))
    y = nn.leaky_relu(nn.batch_norm(nn.conv2d(y, p.conv2, tiles), p.bn2, tiles))
    assert y.shape == (2 * rows, 2 * w, c // 2), f"decoder shape law violated: {y.shape}"
    return y


def saa_forward(e1: Tensor, e2: Optional[Tensor], p: SaaParams,
                tiles: int = 1) -> Tensor:
    """Attention bottleneck over the (optionally fused) encoder features.

    Channel-wise concat of the encoder outputs, then one global single-head
    self-attention over each tile's flattened positions with a residual
    connection; shape is preserved.
    """
    if e2 is not None:
        if e1.shape[:2] != e2.shape[:2]:
            raise ValueError("encoder outputs disagree spatially")
        x = concat([e1, e2], axis=2)
    else:
        x = e1
    rows, w, c = x.shape
    z = nn.conv2d(x, p.proj_in)
    tokens = z.reshape(rows * w, c)
    attended = nn.mhsa(tokens, p.attn, tiles=tiles).reshape(rows, w, c)
    return x + nn.conv2d(attended, p.proj_out)


def head_single(x: Tensor, p: SingleHeadParams) -> Tensor:
    """1x1 conv to one channel plus Softplus: strictly positive heights."""
    y = nn.softplus(nn.conv2d(x, p.conv))
    return y.reshape(x.shape[0], x.shape[1])


def head_dual(x: Tensor, p: DualHeadParams) -> DualHeadOutput:
    """Classification branch (softmax over K bins) gating a regression branch."""
    probs = nn.softmax(nn.conv2d(x, p.conv_cls))
    gated = probs * nn.conv2d(x, p.conv_reg)
    height = nn.softplus(nn.conv2d(gated, p.conv_out))
    return DualHeadOutput(probs=probs,
                          height=height.reshape(x.shape[0], x.shape[1]))


# -- full models ------------------------------------------------------

def _encode(x: Tensor, stem: nn.Conv2dParams, cebs: list, tiles: int) -> tuple:
    feats = [nn.conv2d(x, stem, tiles=tiles)]
    for ceb in cebs:
        feats.append(ceb_forward(feats[-1], ceb, tiles))
    return feats[-1], feats[:-1]    # bottleneck, skip features


def unet_forward(s2: Tensor, s1: Optional[Tensor], params: UNetParams,
                 cfg: UNetConfig, tiles: int = 1):
    """Full encoder-decoder forward over ``tiles`` row-stacked tiles.

    Returns the height map for a single head, or a DualHeadOutput for the
    dual head.  Skip connections are taken from the first encoder's path.
    """
    rows, w, _ = s2.shape
    if nn.tile_rows(rows, tiles) % 16 or w % 16:
        raise ValueError("spatial extents must be divisible by 16")
    bot_s2, skips = _encode(s2, params.stem_s2, params.cebs_s2, tiles)
    if len(cfg.inputs) == 2:
        if s1 is None:
            raise ValueError("dual-modality model needs an s1 input")
        bot_s1, _ = _encode(s1, params.stem_s1, params.cebs_s1, tiles)
        fused = saa_forward(bot_s2, bot_s1, params.saa, tiles)
        fused = nn.conv2d(fused, params.fuse)
    else:
        fused = saa_forward(bot_s2, None, params.saa, tiles)

    y = fused
    for cdb, skip in zip(params.cdbs, reversed(skips)):
        y = cdb_forward(y, skip, cdb, tiles)
    assert y.shape[:2] == (rows, w), "decoder failed to restore the input extent"

    if cfg.bins is None:
        return head_single(y, params.head)
    return head_dual(y, params.head)
