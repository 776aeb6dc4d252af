"""Hybrid transformer-encoder / convolutional-decoder height model.

Two band groups (10 m bands and upsampled 20 m bands) are patched and
embedded separately, concatenated into one token matrix with a learnable
positional table, and run through a stack of pre-norm transformer blocks.
Four tapped block outputs are reprojected onto the patch grid at four
resolutions, fused along an upsampling pathway with auxiliary height heads
at the three coarse resolutions, and finished by a decoder block plus the
dual classification/regression head at full resolution.

Every forward takes a batch of ``tiles`` tiles stacked along rows (see
``nn``): token matrices stack each tile's rows of tokens, grids each
tile's rows of patches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import nn
from .losses import HeightBinning
from .tensor import Tensor, concat
from .unet import DualHeadParams, head_dual

MLP_RATIO = 4        # transformer MLP width over the embedding width
GROUP1_BANDS = 4     # R, G, B, NIR
GROUP2_BANDS = 6     # red-edge 1-4, SWIR 1-2


@dataclass
class HyTecConfig:
    image_size: int = 256
    patch: int = 16
    embed_dim: int = 1536
    blocks: int = 12
    heads: int = 12
    l_hat: int = 256
    taps: tuple = (3, 6, 9, 12)
    bins: Optional[HeightBinning] = None

    def __post_init__(self):
        if self.image_size % self.patch:
            raise ValueError("image size must be divisible by the patch size")
        if self.embed_dim % self.heads:
            raise ValueError("embed dim must be divisible by the head count")
        if self.patch % 4:
            raise ValueError("patch size must be divisible by 4")
        if self.l_hat % 8:
            raise ValueError("reprojection width must be divisible by 8")
        if len(self.taps) != 4 or any(t < 1 or t > self.blocks for t in self.taps):
            raise ValueError("need 4 tap indices within the block stack")
        if self.grid % 2:
            raise ValueError("patch grid side must be even")
        if self.bins is None:
            self.bins = HeightBinning.default()

    @property
    def grid(self) -> int:
        return self.image_size // self.patch

    @property
    def tokens_per_group(self) -> int:
        return self.grid ** 2

    @staticmethod
    def desk_scale(image_size=64, patch=16, embed_dim=64, blocks=4, heads=4,
                   l_hat=32, taps=(1, 2, 3, 4), bins=None) -> "HyTecConfig":
        return HyTecConfig(image_size=image_size, patch=patch,
                           embed_dim=embed_dim, blocks=blocks, heads=heads,
                           l_hat=l_hat, taps=taps, bins=bins)


@dataclass
class TransformerBlockParams:
    ln1: nn.LayerNormParams
    attn: nn.MhsaParams
    ln2: nn.LayerNormParams
    mlp_in: nn.LinearParams
    mlp_out: nn.LinearParams


@dataclass
class RbParams:
    proj: nn.Conv2dParams                 # 1x1, D -> l_hat
    resample: Optional[object] = None     # strided conv, convT or None


@dataclass
class HyTecParams:
    embed1: nn.LinearParams               # P*P*B1 -> D
    embed2: nn.LinearParams               # P*P*B2 -> D
    pos: Tensor                           # 2N x D learnable table
    blocks: list
    rbs: list                             # 4 RbParams
    fuse_ups: list                        # 3 ConvT (x2) along the fusion pathway
    aux_heads: list                       # 3 x (1x1 conv to 1)
    db_conv1: nn.Conv2dParams
    db_conv2: nn.Conv2dParams
    db_up: nn.ConvT2dParams               # quadruple spatial, channels / 8
    head: object                          # dual head from the unet module


@dataclass
class HyTecOutputs:
    main: object                          # DualHeadOutput at full resolution
    aux: list                             # 3 height maps, coarse to fine


def init_hytec(rng: Optional[np.random.Generator],
               cfg: HyTecConfig) -> HyTecParams:
    """Fresh parameters; ``rng`` None draws nothing and leaves every drawn
    value 0, for a checkpoint to overwrite (see ``nn.he_uniform``)."""
    p, d = cfg.patch, cfg.embed_dim
    n2 = 2 * cfg.tokens_per_group
    blocks = []
    for _ in range(cfg.blocks):
        blocks.append(TransformerBlockParams(
            ln1=nn.init_layernorm(d),
            attn=nn.init_mhsa(rng, d, cfg.heads),
            ln2=nn.init_layernorm(d),
            mlp_in=nn.init_linear(rng, d, MLP_RATIO * d),
            mlp_out=nn.init_linear(rng, MLP_RATIO * d, d)))

    lhat = cfg.l_hat
    rbs = [
        RbParams(nn.init_conv(rng, 1, d, lhat),
                 nn.init_conv(rng, 2, lhat, lhat, stride=2, padding=0)),
        RbParams(nn.init_conv(rng, 1, d, lhat), None),
        RbParams(nn.init_conv(rng, 1, d, lhat), nn.init_convt(rng, 2, lhat, lhat)),
        RbParams(nn.init_conv(rng, 1, d, lhat), nn.init_convt(rng, 4, lhat, lhat)),
    ]
    fuse_ups = [nn.init_convt(rng, 2, lhat, lhat) for _ in range(3)]
    aux_heads = [nn.init_conv(rng, 1, lhat, 1) for _ in range(3)]

    final_up = cfg.patch // 4             # x4 for the 16-pixel patch
    db_up = nn.init_convt(rng, final_up, lhat, lhat // 8)
    k = cfg.bins.k
    head = DualHeadParams(
        conv_cls=nn.init_conv(rng, 1, lhat // 8, k),
        conv_reg=nn.init_conv(rng, 1, lhat // 8, k),
        conv_out=nn.init_conv(rng, 1, k, 1))

    pos_scale = 0.02
    pos = Tensor(np.zeros((n2, d)) if rng is None else
                 rng.normal(scale=pos_scale, size=(n2, d)), requires_grad=True)
    return HyTecParams(
        embed1=nn.init_linear(rng, p * p * GROUP1_BANDS, d),
        embed2=nn.init_linear(rng, p * p * GROUP2_BANDS, d),
        pos=pos, blocks=blocks, rbs=rbs, fuse_ups=fuse_ups,
        aux_heads=aux_heads,
        db_conv1=nn.init_conv(rng, 3, lhat, lhat, stride=1, padding=1),
        db_conv2=nn.init_conv(rng, 3, lhat, lhat, stride=1, padding=1),
        db_up=db_up, head=head)


# -- forward pieces ---------------------------------------------------

def patch_embed(img_group: Tensor, proj: nn.LinearParams, pos: Tensor,
                patch: int, tiles: int = 1) -> Tensor:
    """Flatten non-overlapping P x P patches row-major, project to D and
    add each tile's positional rows ``pos``."""
    rows, w, b = img_group.shape
    h = nn.tile_rows(rows, tiles)
    if h % patch or w % patch:
        raise ValueError("image extent not divisible by the patch size")
    gh, gw = h // patch, w // patch
    # (tiles*gh, P, gw, P, B) -> (tiles*gh, gw, P, P, B) -> (tiles*N, P*P*B)
    x = img_group.reshape(tiles * gh, patch, gw, patch, b)
    x = x.permute(0, 2, 1, 3, 4).reshape(tiles * gh * gw, patch * patch * b)
    x = nn.linear(x, proj)
    return (x.reshape(tiles, gh * gw, -1) + pos).reshape(tiles * gh * gw, -1)


def transformer_block(x: Tensor, p: TransformerBlockParams,
                      tiles: int = 1) -> Tensor:
    """Pre-norm block: attention residual then GELU MLP residual."""
    x = x + nn.mhsa(nn.layer_norm(x, p.ln1), p.attn, tiles=tiles)
    x = x + nn.linear(nn.gelu(nn.linear(nn.layer_norm(x, p.ln2), p.mlp_in)), p.mlp_out)
    return x


def encoder_forward(tokens: Tensor, blocks: Sequence[TransformerBlockParams],
                    tiles: int = 1) -> list:
    """Run the block stack, retaining every intermediate output."""
    outs = []
    x = tokens
    for blk in blocks:
        x = transformer_block(x, blk, tiles)
        outs.append(x)
    return outs


def spatial_concat(tokens: Tensor, grid: int, tiles: int = 1) -> Tensor:
    """Row-major reshape of an N x D token matrix onto the G x G patch grid
    (of each tile's N rows onto its own grid)."""
    n, d = tokens.shape
    if n != tiles * grid * grid:
        raise ValueError(f"{n} tokens do not form {tiles} {grid}x{grid} grids")
    return tokens.reshape(tiles * grid, grid, d)


def rb_forward(f: Tensor, p: RbParams, tiles: int = 1) -> Tensor:
    """Reproject a G x G x D grid to l_hat channels at the resolution its
    resample parameter sets: none keeps the grid, a strided conv divides
    it by its stride, a transposed conv multiplies it by its kernel size."""
    y = nn.conv2d(f, p.proj)
    g = f.shape[1]
    if p.resample is None:
        expect = g
    elif isinstance(p.resample, nn.ConvT2dParams):
        y = nn.conv2d_transpose(y, p.resample)
        expect = g * p.resample.kernel.shape[0]
    else:
        y = nn.conv2d(y, p.resample)
        expect = g // p.resample.stride
    assert y.shape[:2] == (tiles * expect, expect), \
        f"reprojection shape law violated: {y.shape}"
    return y


def db_forward(f: Tensor, conv1: nn.Conv2dParams, conv2: nn.Conv2dParams,
               up: nn.ConvT2dParams, tiles: int = 1) -> Tensor:
    """Decoder block: two 3x3 convs then a transpose conv that multiplies the
    spatial extent by its kernel size and divides the channels by eight."""
    h, w, c = f.shape
    if c % 8:
        raise ValueError("decoder block needs channels divisible by 8")
    y = nn.conv2d(nn.conv2d(f, conv1, tiles=tiles), conv2, tiles=tiles)
    y = nn.conv2d_transpose(y, up)
    s = up.kernel.shape[0]
    assert y.shape == (s * h, s * w, c // 8), f"decoder shape law violated: {y.shape}"
    return y


def hytec_forward(s2: Tensor, params: HyTecParams, cfg: HyTecConfig,
                  tiles: int = 1) -> HyTecOutputs:
    """Full forward from ``tiles`` row-stacked 10-band optical tiles to main
    + auxiliary outputs."""
    rows, w, c = s2.shape
    h = nn.tile_rows(rows, tiles)
    if h != w or h % cfg.patch:
        raise ValueError("input must be square and divisible by the patch size")
    if c != GROUP1_BANDS + GROUP2_BANDS:
        raise ValueError(f"expected {GROUP1_BANDS + GROUP2_BANDS} bands, got {c}")
    if h != cfg.image_size:
        # the positional rows of group 2 start at tokens_per_group
        raise ValueError(f"input is {h} px but the model is configured for "
                         f"{cfg.image_size} px")

    n, d = cfg.tokens_per_group, cfg.embed_dim
    g = h // cfg.patch
    b1 = GROUP1_BANDS
    t1 = patch_embed(s2[:, :, :b1], params.embed1, params.pos[:n], cfg.patch, tiles)
    t2 = patch_embed(s2[:, :, b1:], params.embed2, params.pos[n:2 * n], cfg.patch, tiles)
    # each tile's token rows: its group-1 tokens, then its group-2 tokens
    tokens = concat([t1.reshape(tiles, n, d), t2.reshape(tiles, n, d)], axis=1)
    layer_outs = encoder_forward(tokens.reshape(tiles * 2 * n, d), params.blocks,
                                 tiles)

    # only the group-1 tokens feed the decoder
    reproj = []
    for tap, rb in zip(cfg.taps, params.rbs):
        tapped = layer_outs[tap - 1].reshape(tiles, 2 * n, d)[:, :n]
        grid = spatial_concat(tapped.reshape(tiles * n, d), g, tiles)
        reproj.append(rb_forward(grid, rb, tiles))

    # fusion pathway: upsample each level by 2 and add the next reprojection
    aux = []
    fused = reproj[0]                               # G/2
    for i in range(3):
        fused = nn.conv2d_transpose(fused, params.fuse_ups[i]) + reproj[i + 1]
        aux_map = nn.softplus(nn.conv2d(fused, params.aux_heads[i]))
        aux.append(aux_map.reshape(aux_map.shape[0], aux_map.shape[1]))

    full = db_forward(fused, params.db_conv1, params.db_conv2, params.db_up, tiles)
    assert full.shape[:2] == (rows, w), "main output must match the input extent"
    main = head_dual(full, params.head)
    return HyTecOutputs(main=main, aux=aux)
