"""Composite training objective: masked L1 offsets + weighted L2 heatmap.

Each term is the mean over a clip's frames of its per-frame value. The
two L1 terms are mean absolute error over ground-truth center pixels
only (mean over persons and channels); the heatmap term is mean squared
error over all pixels, scaled by alpha. Whole-map L1 would be dominated
by the zero padding outside centers, hence the masking.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ContractError, Tensor


def masked_l1(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean over frames of |pred - target| averaged over each frame's mask pixels
    and all channels; pred, target (T, ch, H, W), mask (T, H, W). A frame
    without mask pixels adds 0 but still counts in the 1/T."""
    frames, ch, h, w = pred.shape
    if target.shape != pred.shape or mask.shape != (frames, h, w):
        raise ContractError(f"masked_l1: {pred.shape} pred, {target.shape} target, {mask.shape} mask")
    counts = mask.reshape(frames, h * w).sum(axis=1)
    if np.any(target[counts == 0] != 0):
        raise ContractError("masked_l1: empty mask with nonzero targets")
    idx = np.flatnonzero(mask)  # rows of the (T*H*W, ch) pixel table
    cols = T.transpose(T.reshape(pred, (frames, ch, h * w)), (0, 2, 1))
    sel = T.take_rows(T.reshape(cols, (frames * h * w, ch)), idx)
    tgt = target.reshape(frames, ch, h * w).transpose(0, 2, 1).reshape(-1, ch)[idx]
    weight = 1.0 / (frames * ch * counts[idx // (h * w)])
    return T.tsum(T.absolute(sel - Tensor(tgt)) * Tensor(np.repeat(weight[:, None], ch, axis=1)))


def total_loss(pred: tuple[Tensor, Tensor, Tensor],
               target: tuple[np.ndarray, np.ndarray, np.ndarray],
               masks: tuple[np.ndarray, np.ndarray],
               alpha: float) -> tuple[Tensor, dict[str, float]]:
    """Scalar objective plus per-term values for logging, means over frames.

    pred/target order: heatmaps (T, h, w), 3D offsets (T, 3J, h, w), 2D
    offsets (T, 2J, H, W). ``masks`` are the center-pixel masks of the 3D
    and of the 2D offset maps, (T, h, w) and (T, H, W); ``alpha`` >= 0
    weights the heatmap term.
    """
    if alpha < 0:
        raise ContractError(f"total_loss: alpha must be nonnegative, got {alpha}")
    pred_hm, pred_o3, pred_o2 = pred
    tgt_hm, tgt_o3, tgt_o2 = target
    mask3d, mask2d = masks
    if pred_hm.shape != tgt_hm.shape:
        raise ContractError(f"heatmap shapes differ: {pred_hm.shape} vs {tgt_hm.shape}")
    l1_3d = masked_l1(pred_o3, tgt_o3, mask3d)
    l1_2d = masked_l1(pred_o2, tgt_o2, mask2d)
    diff = pred_hm - Tensor(tgt_hm)
    l2_hm = T.tmean(diff * diff)
    total = l1_3d + l1_2d + T.scale(l2_hm, alpha)
    terms = {"l1_3d": l1_3d.item(), "l1_2d": l1_2d.item(),
             "l2_hm": l2_hm.item(), "total": total.item()}
    return total, terms
