"""Heatmap + offset encoding and decoding of multi-person 3D poses.

Targets follow the center-offset convention: the root joint's (x, y)
pixel carries a Gaussian peak in the center heatmap and the exact
per-joint offsets in the offset maps; all other pixels hold zeros.
Decoding reads offsets at surviving heatmap peaks after keypoint NMS.
x, y are in feature-cell units; z is absolute depth against a zero-depth
datum, stored directly in the offset channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ContractError


@dataclass
class Pose3D:
    """One person: (J, 3) joint coordinates, joint 0 the root, and a detection score."""
    joints: np.ndarray
    score: float = 1.0

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float64)
        if self.joints.ndim != 2 or self.joints.shape[1] != 3:
            raise ContractError(f"Pose3D: joints must be (J, 3), got {self.joints.shape}")

    @property
    def root(self) -> np.ndarray:
        return self.joints[0]


def encode_heatmap(poses: list[Pose3D], h: int, w: int, sigma: float) -> np.ndarray:
    """(h, w) center heatmap: the pixel-wise max of per-person Gaussians centered
    on the root joint."""
    if sigma <= 0:
        raise ContractError(f"encode_heatmap: sigma must be positive, got {sigma}")
    hm = np.zeros((h, w))
    ys, xs = np.mgrid[0:h, 0:w]
    for pose in poses:
        cx, cy = pose.root[0], pose.root[1]
        g = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
        np.maximum(hm, g, out=hm)
    return hm


def encode_offsets(poses: list[Pose3D], joints: int, h: int, w: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(3J, h, w) offsets and the (h, w) mask of the pixels that hold them.

    Each person's offsets go to its center pixel, the pixel nearest the
    root, which must lie in the map; collisions go to the nearest center.
    Channels 3j, 3j+1 and 3j+2 hold joint j's x and y offsets from that
    pixel and its depth, so the 2D offsets are the x and y channels.
    """
    off3d = np.zeros((3 * joints, h, w))
    owner_dist = np.full((h, w), np.inf)
    for idx, pose in enumerate(poses):
        if pose.joints.shape[0] != joints:
            raise ContractError(f"encode_offsets: pose {idx} has "
                                f"{pose.joints.shape[0]} joints, expected {joints}")
        cx, cy = pose.root[0], pose.root[1]
        if not (-0.5 <= cx < w - 0.5 and -0.5 <= cy < h - 0.5):
            raise ContractError(f"encode_offsets: pose {idx} center ({cx}, {cy}) outside map")
        px, py = int(round(cx)), int(round(cy))
        d = (cx - px) ** 2 + (cy - py) ** 2
        if d < owner_dist[py, px]:
            owner_dist[py, px] = d
            off3d[:, py, px] = (pose.joints - (px, py, 0.0)).reshape(-1)
    return off3d, owner_dist < np.inf


def keypoint_nms(hm: np.ndarray) -> np.ndarray:
    """Keep pixels equal to their 3x3 neighborhood max; ties kept."""
    padded = np.pad(hm, 1, constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
    local_max = windows.max(axis=(2, 3))
    return np.where(hm >= local_max, hm, 0.0)


def decode_poses(hm: np.ndarray, off3d: np.ndarray, threshold: float,
                 max_people: int) -> list[Pose3D]:
    """Poses at the ``max_people`` top peaks >= ``threshold``: joint j = (px, py, 0) + offsets."""
    if threshold <= 0:
        raise ContractError(f"decode_poses: threshold must be positive, got {threshold}")
    if max_people < 1:
        raise ContractError(f"decode_poses: max_people must be >= 1, got {max_people}")
    peaks = keypoint_nms(hm)
    w = hm.shape[1]
    flat = peaks.reshape(-1)
    keep = np.flatnonzero(flat >= threshold)
    # Descending confidence; ties broken by row-major pixel index.
    order = keep[np.lexsort((keep, -flat[keep]))][:max_people]
    poses = []
    for p in order:
        py, px = divmod(int(p), w)
        pj = off3d[:, py, px].reshape(-1, 3).copy()  # encode_offsets' layout; a view, so copied
        pj[:, 0] += px
        pj[:, 1] += py
        poses.append(Pose3D(pj, score=float(flat[p])))
    return poses


def poses_to_lines(frame: int, poses: list[Pose3D]) -> list[str]:
    """Line-oriented text form: 'frame person score j0x j0y j0z ...'."""
    lines = []
    for i, pose in enumerate(poses):
        coords = " ".join(format(v, ".17g") for v in pose.joints.reshape(-1))
        lines.append(f"{frame} {i} {format(pose.score, '.17g')} {coords}")
    return lines


def poses_from_lines(lines: list[str]) -> dict[int, list[Pose3D]]:
    """Inverse of poses_to_lines, grouped by frame index; each frame's person
    column must count 0, 1, 2, ... in order."""
    frames: dict[int, list[Pose3D]] = {}
    for line in lines:
        parts = line.split()
        if len(parts) < 3 or (len(parts) - 3) % 3 != 0:
            raise ContractError(f"poses_from_lines: malformed line {line!r}")
        frame = int(parts[0])
        poses = frames.setdefault(frame, [])
        if parts[1] != str(len(poses)):
            raise ContractError(f"poses_from_lines: line {line!r} has person {parts[1]!r}; "
                                f"need {len(poses)}")
        score = float(parts[2])
        joints = np.array([float(v) for v in parts[3:]]).reshape(-1, 3)
        poses.append(Pose3D(joints, score=score))
    return frames
