"""Evaluation metrics: MPJPE, Procrustes-aligned MPJPE, depth error.

PA-MPJPE aligns the prediction to the ground truth with the optimal
similarity transform (rotation restricted to det +1, scale, translation)
before measuring.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .codec import Pose3D
from .tensor import ContractError


def _check_joints(pred: Pose3D, gt: Pose3D) -> None:
    if pred.joints.shape != gt.joints.shape:
        raise ContractError(
            f"joint count mismatch: {pred.joints.shape} vs {gt.joints.shape}")


def mpjpe(pred: Pose3D, gt: Pose3D, root_align: bool = False) -> float:
    """Mean per-joint Euclidean distance, optionally after root translation.

    Root-aligned averages exclude the root joint: its error is zero by
    construction and would only dilute the mean.
    """
    _check_joints(pred, gt)
    p, g = pred.joints, gt.joints
    if root_align:
        p = (p - p[0])[1:]
        g = (g - g[0])[1:]
        if p.shape[0] == 0:
            return 0.0
    return float(np.mean(np.linalg.norm(p - g, axis=1)))


def procrustes_align(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, bool]:
    """Similarity-align pred onto gt; returns (aligned, performed).

    Degenerate targets (collinear joints) skip the alignment and report
    performed=False. Reflections are forbidden: the orthogonal factor is
    forced to determinant +1.
    """
    pm, gm = pred.mean(axis=0), gt.mean(axis=0)
    pc, gc = pred - pm, gt - gm
    if pred.shape[0] < 3 or np.linalg.matrix_rank(gc, tol=1e-12) < 2:
        return pred, False
    u, s, vt = np.linalg.svd(pc.T @ gc)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    flip = np.ones(3)
    flip[-1] = d
    rot = vt.T @ np.diag(flip) @ u.T
    denom = float((pc * pc).sum())
    k = float((s * flip).sum()) / denom if denom > 0 else 1.0
    return (k * pc @ rot.T) + gm, True


def pa_mpjpe(pred: Pose3D, gt: Pose3D) -> float:
    """MPJPE after optimal similarity (Procrustes) alignment."""
    _check_joints(pred, gt)
    aligned, _ = procrustes_align(pred.joints, gt.joints)
    return float(np.mean(np.linalg.norm(aligned - gt.joints, axis=1)))


def depth_error(pred: Pose3D, gt: Pose3D) -> float:
    """Mean absolute depth difference after root alignment (root excluded)."""
    _check_joints(pred, gt)
    pz = (pred.joints[:, 2] - pred.joints[0, 2])[1:]
    gz = (gt.joints[:, 2] - gt.joints[0, 2])[1:]
    if pz.shape[0] == 0:
        return 0.0
    return float(np.mean(np.abs(pz - gz)))


@dataclass
class FrameEval:
    frame: int
    persons_matched: int
    misses: int
    mpjpe: Optional[float]
    pa_mpjpe: Optional[float]
    depth_error: Optional[float]


@dataclass
class EvalReport:
    frames: list[FrameEval] = field(default_factory=list)

    @property
    def matched_pairs(self) -> int:
        return sum(f.persons_matched for f in self.frames)

    @property
    def missed(self) -> int:
        return sum(f.misses for f in self.frames)

    def _aggregate(self, attr: str) -> Optional[float]:
        num, den = 0.0, 0
        for f in self.frames:
            if f.persons_matched and getattr(f, attr) is not None:
                num += getattr(f, attr) * f.persons_matched
                den += f.persons_matched
        return num / den if den else None

    @property
    def mpjpe(self) -> Optional[float]:
        return self._aggregate("mpjpe")

    @property
    def pa_mpjpe(self) -> Optional[float]:
        return self._aggregate("pa_mpjpe")

    @property
    def depth_error(self) -> Optional[float]:
        return self._aggregate("depth_error")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame", "persons_matched", "misses", "mpjpe", "pa_mpjpe",
                             "depth_error"])
            fmt = lambda v: "" if v is None else format(v, ".17g")
            for f in self.frames:
                writer.writerow([f.frame, f.persons_matched, f.misses,
                                 fmt(f.mpjpe), fmt(f.pa_mpjpe), fmt(f.depth_error)])
            writer.writerow(["aggregate", self.matched_pairs, self.missed,
                             fmt(self.mpjpe), fmt(self.pa_mpjpe), fmt(self.depth_error)])


def greedy_match(preds: list[Pose3D], gts: list[Pose3D]) -> list[tuple[int, int]]:
    """Match predictions to ground truths by ascending root distance."""
    pairs = []
    for gi, g in enumerate(gts):
        for pi, p in enumerate(preds):
            pairs.append((float(np.linalg.norm(p.root - g.root)), gi, pi))
    pairs.sort()
    used_g: set[int] = set()
    used_p: set[int] = set()
    matches = []
    for _, gi, pi in pairs:
        if gi in used_g or pi in used_p:
            continue
        used_g.add(gi)
        used_p.add(pi)
        matches.append((pi, gi))
    return matches


def match_and_evaluate(pred_frames: list[list[Pose3D]],
                       gt_frames: list[list[Pose3D]]) -> EvalReport:
    """Per-frame greedy matching; unmatched ground truths count as misses.
    The two lists must hold the same number of frames."""
    if len(pred_frames) != len(gt_frames):
        raise ContractError(f"match_and_evaluate: {len(pred_frames)} predicted frames "
                            f"!= {len(gt_frames)} ground-truth frames")
    report = EvalReport()
    for t, (preds, gts) in enumerate(zip(pred_frames, gt_frames)):
        matches = greedy_match(preds, gts)
        misses = len(gts) - len(matches)
        if matches:
            ms = [mpjpe(preds[pi], gts[gi]) for pi, gi in matches]
            pas = [pa_mpjpe(preds[pi], gts[gi]) for pi, gi in matches]
            des = [depth_error(preds[pi], gts[gi]) for pi, gi in matches]
            report.frames.append(FrameEval(t, len(matches), misses,
                                           float(np.mean(ms)), float(np.mean(pas)),
                                           float(np.mean(des))))
        else:
            report.frames.append(FrameEval(t, 0, misses, None, None, None))
    return report
