"""Instance-guided tokenization: blocks, offset head, gather, fusion.

A clip of feature maps (T, C, H, W) is re-tiled into N = (H/K)*(W/K)
blocks per frame of length C_b = C*K*K, giving (T, N, C_b). For each
block, the frame's 2D offset map (T, 2J, H, W) read at the block's center
pixel points to the J joint locations; the J containing blocks of the same
frame are gathered (hard, clamped to the grid) for all T*N blocks at once,
and one self-attention block over the J joint rows of each fuses them into
tokens (T, N, J*C_b).

Gathering is non-differentiable in the offset argument: gradients flow
through the gathered features only, and the offset head is trained by its
own supervised loss term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import init_conv, transformer_block_self
from .tensor import ContractError, NumericError, Tensor


@dataclass(frozen=True)
class GridGeometry:
    """Blocks of size K tiling an (n_h*K, n_w*K) map, in row-major order."""
    block_size: int
    n_h: int
    n_w: int

    @property
    def n(self) -> int:
        return self.n_h * self.n_w

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer (x, y) pixel of each block's center, each of shape (N,)."""
        rows, cols = np.divmod(np.arange(self.n), self.n_w)
        k = self.block_size
        return cols * k + k // 2, rows * k + k // 2

    def block_at(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Row-major index of the block holding each pixel (px, py), rounded and clamped."""
        k = self.block_size
        # Clamp before the integer cast, which would wrap values beyond int64.
        bx = np.clip(np.rint(px), 0, self.n_w * k - 1).astype(np.int64) // k
        by = np.clip(np.rint(py), 0, self.n_h * k - 1).astype(np.int64) // k
        return by * self.n_w + bx


def extract_blocks(feat: Tensor, block_size: int) -> Tensor:
    """Lossless re-tiling of (T, C, H, W) into (T, N, C*K*K), row-major grid order."""
    frames, c, h, w = feat.shape
    k = int(block_size)
    if h % k != 0 or w % k != 0:
        raise ContractError(f"extract_blocks: {h}x{w} not divisible by block size {k}")
    n_h, n_w = h // k, w // k
    x = T.reshape(feat, (frames, c, n_h, k, n_w, k))
    x = T.transpose(x, (0, 2, 4, 1, 3, 5))  # (T, n_h, n_w, C, K, K)
    return T.reshape(x, (frames, n_h * n_w, c * k * k))


def retile(tokens: Tensor, geom: GridGeometry, channels: int) -> Tensor:
    """Inverse of extract_blocks; recovers the (T, C, H, W) maps exactly."""
    frames, k = tokens.shape[0], geom.block_size
    x = T.reshape(tokens, (frames, geom.n_h, geom.n_w, channels, k, k))
    x = T.transpose(x, (0, 3, 1, 4, 2, 5))  # (T, C, n_h, K, n_w, K)
    return T.reshape(x, (frames, channels, geom.n_h * k, geom.n_w * k))


def offset_head_params(rng: np.random.Generator, channels: int, joints: int,
                       hidden: int) -> dict[str, Tensor]:
    """Two stacked 3x3 conv layers; nonlinearity between, linear final."""
    p: dict[str, Tensor] = {}
    p["conv1_w"], p["conv1_b"] = init_conv(rng, channels, hidden)
    p["conv2_w"], p["conv2_b"] = init_conv(rng, hidden, 2 * joints)
    return p


def predict_offsets(feat: Tensor, head_params: dict[str, Tensor]) -> Tensor:
    """Per-pixel 2D joint offsets (T, 2J, H, W) from the (T, C, H, W) feature maps."""
    if head_params["conv1_w"].shape[1] != feat.shape[1]:
        raise ContractError(
            f"predict_offsets: head expects {head_params['conv1_w'].shape[1]} channels, "
            f"feature map has {feat.shape[1]}")
    h = T.gelu(T.conv2d(feat, head_params["conv1_w"], head_params["conv1_b"]))
    return T.conv2d(h, head_params["conv2_w"], head_params["conv2_b"])


def gather_indices(offsets: np.ndarray, geom: GridGeometry, joints: int) -> np.ndarray:
    """Target block index per (frame, block, joint), shape (T, N, J).

    The offset pair for joint j is read at each block's center pixel,
    added to that pixel, rounded to the nearest pixel, clamped to the map,
    and integer-divided by the block size.
    """
    if offsets.ndim != 4 or offsets.shape[1] != 2 * joints:
        raise ContractError(f"gather_indices: offset maps {offsets.shape}, expected "
                            f"(T, {2 * joints}, H, W)")
    if not np.all(np.isfinite(offsets)):
        raise NumericError("gather_indices: offset map contains non-finite values")
    px, py = geom.centers()
    dx = offsets[:, 0::2, py, px].transpose(0, 2, 1)  # (T, N, J)
    dy = offsets[:, 1::2, py, px].transpose(0, 2, 1)
    return geom.block_at(px[:, None] + dx, py[:, None] + dy)


def take_frame_rows(tokens: Tensor, rows: np.ndarray) -> Tensor:
    """out[t, i] = tokens[t, rows[t, i]] for (T, N, D) tokens and (T, M) rows,
    as one gather over the flattened T*N rows."""
    frames, n, d = tokens.shape
    flat = T.reshape(tokens, (frames * n, d))
    idx = (rows + (np.arange(frames) * n)[:, None]).reshape(-1)
    return T.reshape(T.take_rows(flat, idx), (frames, rows.shape[1], d))


def tokenize(gathered: Tensor, fuse_params: dict[str, Tensor], heads: int) -> Tensor:
    """One self-attention block over the J joint rows of every (..., J*C_b) vector;
    C_b is the fuse block's width."""
    c_b = fuse_params["wq"].shape[0]
    if gathered.shape[-1] % c_b != 0:
        raise ContractError(
            f"tokenize: length {gathered.shape[-1]} not divisible by C_b {c_b}")
    rows = T.reshape(gathered, (-1, gathered.shape[-1] // c_b, c_b))
    fused = transformer_block_self(rows, fuse_params, heads)
    return T.reshape(fused, gathered.shape)
