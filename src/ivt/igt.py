"""Instance-guided tokenization: blocks, offset head, gather, fusion.

A frame feature map (C, H, W) is re-tiled into N = (H/K)*(W/K) blocks of
length C_b = C*K*K. For each block, the 2D offset map read at the block's
center pixel points to the J joint locations; the J containing blocks are
gathered (hard, clamped to the grid) and fused by one self-attention block
over the J joint rows into a token of length J*C_b.

Gathering is non-differentiable in the offset argument: gradients flow
through the gathered features only, and the offset head is trained by its
own supervised loss term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import AttentionConfig, init_linear, transformer_block_self
from .tensor import ConfigError, NumericError, Tensor


@dataclass(frozen=True)
class BlockGrid:
    """Tokens of one frame at one block size, with grid geometry."""
    tokens: Tensor  # (N, C_b)
    block_size: int
    n_h: int
    n_w: int

    @property
    def n(self) -> int:
        return self.n_h * self.n_w


def extract_blocks(feat: Tensor, block_size: int) -> BlockGrid:
    """Lossless re-tiling of (C, H, W) into (N, C*K*K), row-major grid order."""
    c, h, w = feat.shape
    k = int(block_size)
    if h % k != 0 or w % k != 0:
        raise ConfigError(f"extract_blocks: {h}x{w} not divisible by block size {k}")
    n_h, n_w = h // k, w // k
    x = T.reshape(feat, (c, n_h, k, n_w, k))
    x = T.transpose(x, (1, 3, 0, 2, 4))  # (n_h, n_w, C, K, K)
    tokens = T.reshape(x, (n_h * n_w, c * k * k))
    return BlockGrid(tokens, k, n_h, n_w)


def retile(grid: BlockGrid, channels: int) -> Tensor:
    """Inverse of extract_blocks; recovers the (C, H, W) map exactly."""
    k = grid.block_size
    x = T.reshape(grid.tokens, (grid.n_h, grid.n_w, channels, k, k))
    x = T.transpose(x, (2, 0, 3, 1, 4))  # (C, n_h, K, n_w, K)
    return T.reshape(x, (channels, grid.n_h * k, grid.n_w * k))


def offset_head_params(rng: np.random.Generator, channels: int, joints: int,
                       hidden: int = 16) -> dict[str, Tensor]:
    """Two stacked 3x3 conv layers; nonlinearity between, linear final."""
    def conv_init(cin, cout):
        bound = 1.0 / np.sqrt(cin * 9)
        w = Tensor(rng.uniform(-bound, bound, size=(cout, cin, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(cout), requires_grad=True)
        return w, b

    p: dict[str, Tensor] = {}
    p["conv1_w"], p["conv1_b"] = conv_init(channels, hidden)
    p["conv2_w"], p["conv2_b"] = conv_init(hidden, 2 * joints)
    return p


def predict_offsets(feat: Tensor, head_params: dict[str, Tensor]) -> Tensor:
    """Per-pixel 2D joint offsets (2J, H, W) from the frame feature map."""
    if head_params["conv1_w"].shape[1] != feat.shape[0]:
        raise ConfigError(
            f"predict_offsets: head expects {head_params['conv1_w'].shape[1]} channels, "
            f"feature map has {feat.shape[0]}")
    h = T.gelu(T.conv2d(feat, head_params["conv1_w"], head_params["conv1_b"]))
    return T.conv2d(h, head_params["conv2_w"], head_params["conv2_b"])


def gather_indices(offsets: np.ndarray, grid: BlockGrid, joints: int) -> np.ndarray:
    """Target block index per (block, joint), shape (N, J).

    The offset pair for joint j is read at each block's center pixel,
    added to that pixel, rounded to the nearest pixel, clamped to the map,
    and integer-divided by the block size.
    """
    if offsets.shape[0] != 2 * joints:
        raise ConfigError(
            f"gather_indices: offset map has {offsets.shape[0]} channels, expected {2 * joints}")
    if not np.all(np.isfinite(offsets)):
        raise NumericError("gather_indices: offset map contains non-finite values")
    k = grid.block_size
    h, w = grid.n_h * k, grid.n_w * k
    rows, cols = np.divmod(np.arange(grid.n), grid.n_w)
    py = rows * k + k // 2
    px = cols * k + k // 2
    dx = offsets[0::2, py, px].T  # (N, J)
    dy = offsets[1::2, py, px].T
    tx = np.clip(np.rint(px[:, None] + dx).astype(np.int64), 0, w - 1)
    ty = np.clip(np.rint(py[:, None] + dy).astype(np.int64), 0, h - 1)
    return (ty // k) * grid.n_w + (tx // k)


def gather_instance(grid: BlockGrid, offsets: np.ndarray, i: int, joints: int) -> Tensor:
    """Concatenate the J gathered block features for block i, joint order."""
    idx = gather_indices(offsets, grid, joints)[i]
    return T.reshape(T.take_rows(grid.tokens, idx), (joints * grid.tokens.shape[1],))


def tokenize(gathered: Tensor, fuse_params: dict[str, Tensor], cfg: AttentionConfig) -> Tensor:
    """Self-attention over the J joint rows of one gathered vector.

    Accepts a flat (J*C_b,) vector or a batch (N, J*C_b); shape preserved.
    """
    c_b = cfg.d_model
    if gathered.shape[-1] % c_b != 0:
        raise T.ContractError(
            f"tokenize: length {gathered.shape[-1]} not divisible by C_b {c_b}")
    joints = gathered.shape[-1] // c_b
    flat = gathered.ndim == 1
    rows = T.reshape(gathered, (1, joints, c_b) if flat else (gathered.shape[0], joints, c_b))
    fused = transformer_block_self(rows, fuse_params, cfg)
    return T.reshape(fused, gathered.shape)


def igt_frame(feat: Tensor, offsets: np.ndarray, block_size: int,
              fuse_params: dict[str, Tensor], cfg: AttentionConfig, joints: int) -> Tensor:
    """Token map (N, J*C_b) for one frame: gather + fuse for every block."""
    grid = extract_blocks(feat, block_size)
    idx = gather_indices(offsets, grid, joints)  # (N, J)
    gathered = T.reshape(T.take_rows(grid.tokens, idx.reshape(-1)),
                         (grid.n, joints * grid.tokens.shape[1]))
    return tokenize(gathered, fuse_params, cfg)
