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
from .blocks import block_params, init_linear, transformer_block_self
from .igt import (GridGeometry, extract_blocks, gather_indices, retile,
                  take_frame_rows, tokenize)
from .tensor import ConfigError, ContractError, NumericError, Tensor, macs


@dataclass(frozen=True)
class VideoConfig:
    """Architecture of the stacked video transformer, and every width it implies.

    Every field is required and checked here: ``scales`` are distinct block
    sizes >= 1, kept sorted finest first, and ``layers`` >= 0. Per scale s the
    fuse block is C*s^2 wide and a token is J*C*s^2 wide; CISA runs at ``d_common``.
    ``fuse_heads`` must divide every fuse width and, when there are layers,
    ``heads`` every token width (``d_common`` is one of them).
    """
    joints: int
    channels: int
    scales: tuple[int, ...]
    layers: int
    heads: int
    fuse_heads: int

    def __post_init__(self):
        scales = tuple(int(s) for s in self.scales)
        if not scales or min(scales) < 1 or len(set(scales)) != len(scales):
            raise ConfigError(f"scales = {scales}; need one or more distinct block sizes >= 1")
        if self.layers < 0:
            raise ConfigError(f"layers = {self.layers}; need >= 0")
        object.__setattr__(self, "scales", tuple(sorted(scales)))
        served = [("fuse_heads", self.fuse_heads, self.fuse_dims)]
        if self.layers > 0:
            served.append(("heads", self.heads, self.token_dims))
        for name, heads, dims in served:
            for s, d in zip(self.scales, dims):
                if heads < 1 or d % heads != 0:
                    raise ConfigError(f"{name} = {heads} does not divide the width {d} "
                                      f"it serves at block size {s}")

    @property
    def fuse_dims(self) -> tuple[int, ...]:
        """Fuse-block width C*s^2 per scale."""
        return tuple(self.channels * s * s for s in self.scales)

    @property
    def token_dims(self) -> tuple[int, ...]:
        """Native token length J*C*s^2 per scale."""
        return tuple(self.joints * d for d in self.fuse_dims)

    @property
    def d_common(self) -> int:
        """CISA's width: the middle scale's token length balances projection distortion."""
        dims = self.token_dims
        return dims[len(dims) // 2]

    @property
    def projected(self) -> bool:
        """Whether CISA projects to and from d_common.

        Keyed on the scale count, not on d_s == d_common: the middle one
        of several scales has d_s == d_common and keeps its projections.
        """
        return len(self.scales) > 1

    def grids(self, h: int, w: int) -> list[GridGeometry]:
        out = []
        for s in self.scales:
            if h % s != 0 or w % s != 0:
                raise ConfigError(f"feature map {h}x{w} not divisible by block size {s}")
            out.append(GridGeometry(s, h // s, w // s))
        return out


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
    means = [block_mean_flow(f, geom) for f in flows]
    if not all(np.all(np.isfinite(m)) for m in means):
        raise NumericError("alignment_maps: flow contains non-finite block means")
    cx, cy = geom.centers()
    out = np.empty((frames, geom.n), dtype=np.int64)
    for t in range(frames):
        px, py = cx, cy
        for s in range(t, frames - 1):
            bidx = geom.block_at(px, py)
            px, py = px + means[s][bidx, 0], py + means[s][bidx, 1]
        dest = geom.block_at(px, py)
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
        raise ContractError(f"align_tokens: map {assigns.shape} for tokens {tokens.shape}")
    return take_frame_rows(tokens, assigns)


# -- temporal attention ----------------------------------------------------------


def ita(aligned: Tensor, params: dict[str, Tensor], heads: int) -> Tensor:
    """Self-attention of every (frame, block) token over its block slot.

    Every query at block i attends to the tokens of block i from all T
    frames, so the temporal stage is one self-attention block over the T
    rows of each slot.
    """
    with macs.scope("ita"):
        slots = T.transpose(aligned, (1, 0, 2))  # (N, T, D)
        out = transformer_block_self(slots, params, heads)
        return T.transpose(out, (1, 0, 2))


# -- cross-scale attention ---------------------------------------------------------


def cisa_params(rng: np.random.Generator, cfg: VideoConfig,
                grids: list[GridGeometry]) -> dict[str, Tensor | dict[str, Tensor]]:
    p: dict = {"block": block_params(rng, cfg.d_common)}
    for s, d_s, geom in zip(cfg.scales, cfg.token_dims, grids):
        p[f"pos{s}"] = Tensor(np.zeros((geom.n, d_s)), requires_grad=True)
        if cfg.projected:
            p[f"proj{s}_w"], p[f"proj{s}_b"] = init_linear(rng, d_s, cfg.d_common)
            p[f"back{s}_w"], p[f"back{s}_b"] = init_linear(rng, cfg.d_common, d_s)
    return p


def cisa(per_scale: list[Tensor], params: dict, cfg: VideoConfig) -> list[Tensor]:
    """Project all scales to a common width, attend over the union, back-project.

    With one scale nothing is projected: the stage is the positional
    embedding plus one self-attention block over each frame's tokens.
    """
    if len(per_scale) != len(cfg.scales):
        raise ContractError(f"cisa: {len(per_scale)} token maps for {len(cfg.scales)} scales")
    with macs.scope("cisa"):
        projected = []
        counts = []
        for tokens, s, d_s in zip(per_scale, cfg.scales, cfg.token_dims):
            if tokens.shape[-1] != d_s:
                raise ContractError(f"cisa: scale {s} token dim {tokens.shape[-1]} != {d_s}")
            x = T.add_bcast(tokens, params[f"pos{s}"])
            if cfg.projected:
                x = T.linear(x, params[f"proj{s}_w"], params[f"proj{s}_b"])
            projected.append(x)
            counts.append(tokens.shape[1])
        union = T.concat(projected, axis=1)  # (T, sum N_s, D_common)
        fused = transformer_block_self(union, params["block"], cfg.heads)
        outs = []
        start = 0
        for count, s in zip(counts, cfg.scales):
            part = T.narrow(fused, 1, start, count)
            if cfg.projected:
                part = T.linear(part, params[f"back{s}_w"], params[f"back{s}_b"])
            outs.append(part)
            start += count
        return outs


def split_to_finest(tokens: Tensor, geom: GridGeometry, fine: GridGeometry,
                    joints: int, channels: int) -> Tensor:
    """Redistribute a coarse token map onto the finest grid, losslessly.

    A coarse token is the concatenation of J gathered (C, K, K) blocks, so
    the token map re-tiles into a (T, J*C, H, W) map, which the fine blocks
    tile again: any two block sizes that tile the map do, nested or not.
    """
    return extract_blocks(retile(tokens, geom, joints * channels), fine.block_size)


def mita(per_scale: list[Tensor], params: dict[str, dict[str, Tensor]],
         cfg: VideoConfig, grids: list[GridGeometry]) -> tuple[Tensor, list[Tensor]]:
    """Per-scale temporal attention, then frame-wise merge onto the finest grid.

    Returns (merged finest-grid token map, per-scale ITA outputs).
    """
    outs = [ita(tokens, params[f"ita{s}"], cfg.heads)
            for tokens, s in zip(per_scale, cfg.scales)]
    fine = grids[0]
    merged = None
    for out, geom in zip(outs, grids):
        contrib = out if geom.block_size == fine.block_size else split_to_finest(
            out, geom, fine, cfg.joints, cfg.channels)
        merged = contrib if merged is None else merged + contrib
    return merged, outs


# -- full stack ---------------------------------------------------------------------


def video_params(rng: np.random.Generator, cfg: VideoConfig, h: int, w: int) -> dict:
    """All learned parameters of the tokenizer fusion and the layer stack."""
    grids = cfg.grids(h, w)
    p: dict = {f"fuse{s}": block_params(rng, c_b)
               for s, c_b in zip(cfg.scales, cfg.fuse_dims)}
    draw = {"cisa": lambda: cisa_params(rng, cfg, grids),
            "mita": lambda: {f"ita{s}": block_params(rng, d_s)
                             for s, d_s in zip(cfg.scales, cfg.token_dims)}}
    # Seeded draw order: one scale draws CISA before MITA, several scales MITA first.
    order = ("cisa", "mita") if len(cfg.scales) == 1 else ("mita", "cisa")
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
        streams.append(tokenize(gathered, params[f"fuse{s}"], cfg.fuse_heads))
    return streams


def ivt_layer(streams: list[Tensor], maps: list[np.ndarray], params: dict,
              cfg: VideoConfig, grids: list[GridGeometry]) -> list[Tensor]:
    """One layer: CISA, flow alignment, MITA, outer residual on the finest scale.

    Takes and returns one (T, N_s, D_s) stream per scale, finest first;
    ``maps`` holds each scale's ``alignment_maps``. The finest output is the
    merged temporal output plus the layer input; the coarser outputs are
    their scales' ITA outputs.
    """
    spatial = cisa(streams, params["cisa"], cfg)
    aligned = [align_tokens(x, m) for x, m in zip(spatial, maps)]
    merged, outs = mita(aligned, params["mita"], cfg, grids)
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
