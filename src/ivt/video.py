"""Video transformer core: cross-scale spatial and per-scale temporal attention.

A clip enters as one (T, C, H, W) feature tensor with its (T, 2J, H, W)
offset maps, and each block scale is tokenized in one pass over it. Token
sequences are single tensors of shape (T, N, D): T frames, N blocks per
frame, token length D = J*C_b, one sequence per block scale. CISA attends,
per frame, over the union of tokens from all scales after projecting them
to a common width; ITA attends, per block slot, over the T frames after
flow alignment; MITA runs ITA per scale and merges every scale onto the
finest grid.

A layer composes them with the outer residual on the finest scale
    out = MITA(aligned(CISA(streams))) + streams[0].
A single block size is the one-scale case of the same layer: CISA then
has no projections and is positional embedding plus one self-attention
block, and MITA is one ITA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import (AttentionConfig, block_params, init_linear, linear,
                     transformer_block_cross, transformer_block_self)
from .igt import (GridGeometry, extract_blocks, gather_indices, take_frame_rows,
                  tokenize)
from .tensor import ConfigError, ContractError, NumericError, ShapeError, Tensor, macs


@dataclass(frozen=True)
class ScaleSet:
    """Ordered block sizes (finest first) and the shared projection width."""
    scales: tuple[int, ...]
    d_common: int
    token_dims: tuple[int, ...]  # native token length per scale

    @staticmethod
    def build(scales, joints: int, channels: int) -> "ScaleSet":
        scales = tuple(sorted(int(s) for s in scales))
        dims = tuple(joints * channels * s * s for s in scales)
        # Common width balances projection distortion: the middle scale's dim.
        d_common = dims[len(dims) // 2]
        return ScaleSet(scales, d_common, dims)

    @property
    def projected(self) -> bool:
        """Whether CISA projects to and from d_common.

        Keyed on the scale count, not on d_s == d_common: the middle one
        of several scales has d_s == d_common and keeps its projections.
        """
        return len(self.scales) > 1


# -- flow alignment -------------------------------------------------------------


def block_mean_flow(flow: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Mean (dx, dy) of each block's pixels, shape (N, 2)."""
    k = geom.block_size
    f = flow.reshape(2, geom.n_h, k, geom.n_w, k)
    return f.mean(axis=(2, 4)).reshape(2, geom.n).T


def alignment_maps(flows: list[np.ndarray], geom: GridGeometry, frames: int) -> np.ndarray:
    """Source-row assignment per frame for relocation into the last frame's grid.

    Returns (T, N) int array A with aligned[t, n] = tokens[t, A[t, n]].
    Block flow is the block-mean of the pixel flow, chained across the
    intermediate frames (re-reading the flow at the displaced block each
    step), rounded to the nearest pixel, clamped to the map and divided by
    the block size. Collisions overwrite in row-major grid order; vacated
    cells keep their original token. A non-finite block flow (a NaN or
    infinite flow value, or block means beyond the float64 range) raises
    ``NumericError``.
    """
    if len(flows) != frames - 1:
        raise ContractError(f"alignment_maps: need {frames - 1} flow pairs, got {len(flows)}")
    k = geom.block_size
    h, w = geom.n_h * k, geom.n_w * k
    means = [block_mean_flow(f, geom) for f in flows]
    if not all(np.all(np.isfinite(m)) for m in means):
        raise NumericError("alignment_maps: flow contains non-finite block means")
    rows, cols = np.divmod(np.arange(geom.n), geom.n_w)
    cy = rows * k + k // 2.0
    cx = cols * k + k // 2.0
    out = np.empty((frames, geom.n), dtype=np.int64)
    for t in range(frames):
        px, py = cx.copy(), cy.copy()
        for s in range(t, frames - 1):
            # Clamp before the integer cast, which would wrap flows beyond int64.
            bx = np.clip(np.rint(px), 0, w - 1).astype(np.int64) // k
            by = np.clip(np.rint(py), 0, h - 1).astype(np.int64) // k
            bidx = by * geom.n_w + bx
            px = px + means[s][bidx, 0]
            py = py + means[s][bidx, 1]
        dc = np.clip(np.rint(px), 0, w - 1).astype(np.int64) // k
        dr = np.clip(np.rint(py), 0, h - 1).astype(np.int64) // k
        dest = dr * geom.n_w + dc
        assign = np.arange(geom.n, dtype=np.int64)
        for i in range(geom.n):
            assign[dest[i]] = i
        out[t] = assign
    return out


def align_tokens(tokens: Tensor, assigns: np.ndarray) -> Tensor:
    """Relocate every frame's tokens onto the last frame's grid.

    ``assigns`` is the (T, N) map of ``alignment_maps`` for the tokens' grid.
    """
    if assigns.shape != tokens.shape[:2]:
        raise ShapeError(f"align_tokens: map {assigns.shape} for tokens {tokens.shape}")
    return take_frame_rows(tokens, assigns)


# -- temporal attention ----------------------------------------------------------


def ita(aligned: Tensor, params: dict[str, Tensor], cfg: AttentionConfig) -> Tensor:
    """Cross-attention of every (frame, block) token over its block slot.

    Every query at block i attends to the tokens of block i from all T
    frames, so the temporal stage is one cross block over the T rows of
    each slot.
    """
    _, _, d = aligned.shape
    if d != cfg.d_model:
        raise ConfigError(f"ita: token dim {d} != d_model {cfg.d_model}")
    with macs.scope("ita"):
        slots = T.transpose(aligned, (1, 0, 2))  # (N, T, D)
        out = transformer_block_cross(slots, slots, slots, params, cfg)
        return T.transpose(out, (1, 0, 2))


# -- cross-scale attention ---------------------------------------------------------


def cisa_params(rng: np.random.Generator, scale_set: ScaleSet,
                grids: list[GridGeometry], heads: int) -> dict[str, Tensor | dict[str, Tensor]]:
    p: dict = {"block": block_params(rng, AttentionConfig(scale_set.d_common, heads))}
    for s, d_s, geom in zip(scale_set.scales, scale_set.token_dims, grids):
        p[f"pos{s}"] = Tensor(np.zeros((geom.n, d_s)), requires_grad=True)
        if scale_set.projected:
            p[f"proj{s}_w"], p[f"proj{s}_b"] = init_linear(rng, d_s, scale_set.d_common)
            p[f"back{s}_w"], p[f"back{s}_b"] = init_linear(rng, scale_set.d_common, d_s)
    return p


def cisa(per_scale: list[Tensor], scale_set: ScaleSet, params: dict,
         heads: int) -> list[Tensor]:
    """Project all scales to a common width, attend over the union, back-project.

    With one scale nothing is projected: the stage is the positional
    embedding plus one self-attention block over each frame's tokens.
    """
    if len(per_scale) != len(scale_set.scales):
        raise ConfigError(
            f"cisa: {len(per_scale)} token maps for {len(scale_set.scales)} scales")
    cfg = AttentionConfig(scale_set.d_common, heads)
    with macs.scope("cisa"):
        projected = []
        counts = []
        for tokens, s, d_s in zip(per_scale, scale_set.scales, scale_set.token_dims):
            if tokens.shape[-1] != d_s:
                raise ShapeError(f"cisa: scale {s} token dim {tokens.shape[-1]} != {d_s}")
            x = T.add_bcast(tokens, params[f"pos{s}"])
            if scale_set.projected:
                x = linear(x, params[f"proj{s}_w"], params[f"proj{s}_b"])
            projected.append(x)
            counts.append(tokens.shape[1])
        union = T.concat(projected, axis=1)  # (T, sum N_s, D_common)
        fused = transformer_block_self(union, params["block"], cfg)
        outs = []
        start = 0
        for count, s in zip(counts, scale_set.scales):
            part = T.narrow(fused, 1, start, count)
            if scale_set.projected:
                part = linear(part, params[f"back{s}_w"], params[f"back{s}_b"])
            outs.append(part)
            start += count
        return outs


def split_to_finest(tokens: Tensor, geom: GridGeometry, fine: GridGeometry,
                    joints: int, channels: int) -> Tensor:
    """Redistribute a coarse token map onto the finest grid, losslessly.

    A coarse token is the concatenation of J gathered (C, K, K) blocks;
    each (C, K, K) block re-tiles into r*r fine (C, K_f, K_f) cells with
    r = K / K_f, so one coarse token yields r*r fine tokens exactly.
    """
    k, kf = geom.block_size, fine.block_size
    if k % kf != 0:
        raise ConfigError(f"split_to_finest: {k} not divisible by finest block {kf}")
    r = k // kf
    frames = tokens.shape[0]
    x = T.reshape(tokens, (frames, geom.n_h, geom.n_w, joints, channels, r, kf, r, kf))
    x = T.transpose(x, (0, 1, 5, 2, 7, 3, 4, 6, 8))
    return T.reshape(x, (frames, fine.n, joints * channels * kf * kf))


def mita(per_scale: list[Tensor], params: dict[str, dict[str, Tensor]],
         scale_set: ScaleSet, grids: list[GridGeometry], heads: int,
         joints: int, channels: int) -> tuple[Tensor, list[Tensor]]:
    """Per-scale temporal attention, then frame-wise merge onto the finest grid.

    Returns (merged finest-grid token map, per-scale ITA outputs).
    """
    outs = []
    for tokens, s, d_s in zip(per_scale, scale_set.scales, scale_set.token_dims):
        cfg = AttentionConfig(d_s, heads)
        outs.append(ita(tokens, params[f"ita{s}"], cfg))
    fine = grids[0]
    merged = None
    for out, geom in zip(outs, grids):
        contrib = out if geom.block_size == fine.block_size else split_to_finest(
            out, geom, fine, joints, channels)
        merged = contrib if merged is None else merged + contrib
    return merged, outs


# -- full stack ---------------------------------------------------------------------


@dataclass(frozen=True)
class VideoConfig:
    """Architecture knobs for the stacked video transformer."""
    joints: int
    channels: int
    scales: tuple[int, ...] = (2, 4, 8)
    layers: int = 3
    heads: int = 2
    fuse_heads: int = 2

    def scale_set(self) -> ScaleSet:
        return ScaleSet.build(self.scales, self.joints, self.channels)

    def grids(self, h: int, w: int) -> list[GridGeometry]:
        out = []
        for s in self.scale_set().scales:
            if h % s != 0 or w % s != 0:
                raise ConfigError(f"feature map {h}x{w} not divisible by block size {s}")
            out.append(GridGeometry(s, h // s, w // s))
        return out


def video_params(rng: np.random.Generator, cfg: VideoConfig, h: int, w: int) -> dict:
    """All learned parameters of the tokenizer fusion and the layer stack."""
    sset = cfg.scale_set()
    grids = cfg.grids(h, w)
    p: dict = {}
    for s in sset.scales:
        c_b = cfg.channels * s * s
        p[f"fuse{s}"] = block_params(rng, AttentionConfig(c_b, cfg.fuse_heads))
    draw = {"cisa": lambda: cisa_params(rng, sset, grids, cfg.heads),
            "mita": lambda: {f"ita{s}": block_params(rng, AttentionConfig(d_s, cfg.heads))
                             for s, d_s in zip(sset.scales, sset.token_dims)}}
    # Seeded draw order: one scale draws CISA before MITA, several scales MITA first.
    order = ("cisa", "mita") if len(sset.scales) == 1 else ("mita", "cisa")
    for layer in range(cfg.layers):
        drawn = {key: draw[key]() for key in order}
        p[f"layer{layer}"] = {"cisa": drawn["cisa"], "mita": drawn["mita"]}
    return p


def tokenize_clip(features: Tensor, offsets: np.ndarray, cfg: VideoConfig,
                  params: dict) -> list[Tensor]:
    """Instance-guided tokens per scale, each of shape (T, N_s, D_s): one gather
    of J blocks per token within its frame, one fuse block over all T*N tokens."""
    frames, _, h, w = features.shape
    streams = []
    for geom in cfg.grids(h, w):
        s = geom.block_size
        idx = gather_indices(offsets, geom, cfg.joints).reshape(frames, -1)
        gathered = take_frame_rows(extract_blocks(features, s), idx)  # (T, N*J, C_b)
        gathered = T.reshape(gathered, (frames, geom.n, -1))
        fuse_cfg = AttentionConfig(cfg.channels * s * s, cfg.fuse_heads)
        streams.append(tokenize(gathered, params[f"fuse{s}"], fuse_cfg))
    return streams


def ivt_layer(streams: list[Tensor], maps: list[np.ndarray], params: dict,
              cfg: VideoConfig, grids: list[GridGeometry]) -> list[Tensor]:
    """One layer: CISA, flow alignment, MITA, outer residual on the finest scale.

    Takes and returns one (T, N_s, D_s) stream per scale, finest first;
    ``maps`` holds each scale's ``alignment_maps``. The finest output is the
    merged temporal output plus the layer input; the coarser outputs are
    their scales' ITA outputs.
    """
    sset = cfg.scale_set()
    spatial = cisa(streams, sset, params["cisa"], cfg.heads)
    aligned = [align_tokens(x, m) for x, m in zip(spatial, maps)]
    merged, outs = mita(aligned, params["mita"], sset, grids, cfg.heads,
                        cfg.joints, cfg.channels)
    return [merged + streams[0]] + outs[1:]


def ivt_forward(features: Tensor, offsets: np.ndarray, flows: list[np.ndarray],
                cfg: VideoConfig, params: dict) -> Tensor:
    """IGT per scale over the (T, C, H, W) clip, then the stacked attention layers.

    Returns the finest-scale token sequence (T, N_finest, D_finest).
    """
    frames, _, h, w = features.shape
    grids = cfg.grids(h, w)
    maps = [alignment_maps(flows, geom, frames) for geom in grids]
    streams = tokenize_clip(features, offsets, cfg, params)
    for layer in range(cfg.layers):
        streams = ivt_layer(streams, maps, params[f"layer{layer}"], cfg, grids)
    return streams[0]
