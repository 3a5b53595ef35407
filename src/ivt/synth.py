"""Deterministic synthetic multi-person video scenes with exact ground truth.

Stick-figure skeletons move on seeded sinusoidal trajectories quantized to
integer cells per frame, so the ground-truth flow field is exact and
warping checks hold bitwise-tight. Joints are rendered as Gaussian
feature blobs with per-joint channel signatures; the rendered maps stand
in for a learned backbone, and the exact flow stands in for a learned
motion network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import Pose3D
from .tensor import ConfigError


@dataclass(frozen=True)
class SceneSpec:
    """The defaults, seed 0, are the convergence fixture's scene; a test pins perfbench's copy."""
    seed: int = 0
    persons: int = 1
    joints: int = 2
    frames: int = 5
    height: int = 64
    width: int = 64
    channels: int = 1
    amplitude: float = 0.0      # root motion amplitude, cells
    depth_min: float = 0.0
    depth_max: float = 4.0
    blob_sigma: float = 1.5
    body_radius: float = 5.0    # max joint offset from the root, cells

    def __post_init__(self):
        for key, ok, need in (
                ("seed", self.seed >= 0, ">= 0"),
                ("persons", self.persons >= 0, ">= 0"),
                ("joints", self.joints >= 1, ">= 1"),
                ("frames", self.frames >= 1, ">= 1"),
                ("height", self.height >= 1, ">= 1"),
                ("width", self.width >= 1, ">= 1"),
                ("channels", self.channels >= 1, ">= 1"),
                ("amplitude", 0 <= self.amplitude < math.inf, "finite and >= 0"),
                ("depth_min", math.isfinite(self.depth_min), "finite"),
                ("depth_max", math.isfinite(self.depth_max), "finite"),
                ("blob_sigma", 0 < self.blob_sigma < math.inf, "finite and > 0"),
                # Joints lie between 1 cell and body_radius from the root.
                ("body_radius", 1 <= self.body_radius < math.inf, "finite and >= 1")):
            if not ok:
                raise ConfigError(f"invalid scene spec: {key} = {getattr(self, key)}; "
                                  f"need {need}")
        if self.persons and any(lo > hi for lo, hi in _root_box(self)):
            raise ConfigError(f"invalid scene spec: a figure of body_radius = "
                              f"{self.body_radius} moving by amplitude = {self.amplitude} "
                              f"would exit the {self.height}x{self.width} grid")


@dataclass
class SceneTruth:
    poses: list[list[Pose3D]]          # per frame
    flows: list[np.ndarray]            # per adjacent pair, (2, H, W)


def _blob_radius(spec: SceneSpec) -> int:
    return int(np.ceil(3.0 * spec.blob_sigma))


def _root_box(spec: SceneSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """((lo_x, hi_x), (lo_y, hi_y)): where a root may rest so that, moved by up to
    ``amplitude``, every joint's blob window stays inside the map."""
    margin = _blob_radius(spec) + spec.body_radius + 1
    lo = margin + spec.amplitude
    return ((lo, spec.width - 1 - margin - spec.amplitude),
            (lo, spec.height - 1 - margin - spec.amplitude))


def _trajectories(spec: SceneSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Integer root positions (P, T, 2) and static joint offsets (P, J, 3)."""
    box = _root_box(spec)
    roots = np.zeros((spec.persons, spec.frames, 2), dtype=np.int64)
    offs = np.zeros((spec.persons, spec.joints, 3))
    for p in range(spec.persons):
        base = np.array([rng.integers(int(lo), int(hi) + 1) for lo, hi in box], dtype=np.int64)
        phase = rng.uniform(0, 2 * np.pi, size=2)
        freq = rng.uniform(0.5, 1.5, size=2)
        t = np.arange(spec.frames)
        dx = np.rint(spec.amplitude * np.sin(2 * np.pi * freq[0] * t / max(spec.frames, 2) + phase[0]))
        dy = np.rint(spec.amplitude * np.sin(2 * np.pi * freq[1] * t / max(spec.frames, 2) + phase[1]))
        roots[p, :, 0] = base[0] + dx.astype(np.int64)
        roots[p, :, 1] = base[1] + dy.astype(np.int64)
        # Root keeps offset (0, 0); other joints spread inside the body radius.
        ang = rng.uniform(0, 2 * np.pi, size=spec.joints - 1)
        rad = rng.uniform(1.0, spec.body_radius, size=spec.joints - 1)
        offs[p, 1:, 0] = rad * np.cos(ang)
        offs[p, 1:, 1] = rad * np.sin(ang)
        offs[p, :, 2] = rng.uniform(spec.depth_min, spec.depth_max, size=spec.joints)
    return roots, offs


def _render_frame(spec: SceneSpec, poses: list[Pose3D], signatures: np.ndarray) -> np.ndarray:
    feat = np.zeros((spec.channels, spec.height, spec.width))
    r = _blob_radius(spec)
    win = np.arange(-r, r + 1)
    wy, wx = np.meshgrid(win, win, indexing="ij")
    for pose in poses:
        for j, (jx, jy, _z) in enumerate(pose.joints):
            cy, cx = int(np.rint(jy)), int(np.rint(jx))
            g = np.exp(-(((wx + cx) - jx) ** 2 + ((wy + cy) - jy) ** 2)
                       / (2.0 * spec.blob_sigma ** 2))
            ys, xs = slice(cy - r, cy + r + 1), slice(cx - r, cx + r + 1)
            feat[:, ys, xs] += signatures[j][:, None, None] * g
    return feat


def generate(spec: SceneSpec) -> tuple[np.ndarray, SceneTruth]:
    """Rendered (T, C, H, W) feature maps plus exact poses and flows, deterministic in seed."""
    rng = np.random.default_rng(spec.seed)
    roots, offs = _trajectories(spec, rng)
    signatures = rng.uniform(0.5, 1.5, size=(spec.joints, spec.channels))
    poses_per_frame: list[list[Pose3D]] = []
    for t in range(spec.frames):
        frame_poses = []
        for p in range(spec.persons):
            joints = offs[p].copy()
            joints[:, 0] += roots[p, t, 0]
            joints[:, 1] += roots[p, t, 1]
            frame_poses.append(Pose3D(joints))
        poses_per_frame.append(frame_poses)

    features = np.stack([_render_frame(spec, poses, signatures) for poses in poses_per_frame])

    r = _blob_radius(spec)
    flows = []
    for t in range(spec.frames - 1):
        flow = np.zeros((2, spec.height, spec.width))
        owner = np.full((spec.height, spec.width), -1, dtype=np.int64)
        dist = np.full((spec.height, spec.width), np.inf)
        ys, xs = np.mgrid[0:spec.height, 0:spec.width]
        for p in range(spec.persons):
            support = np.zeros((spec.height, spec.width), dtype=bool)
            for jx, jy, _z in poses_per_frame[t][p].joints:
                cy, cx = int(np.rint(jy)), int(np.rint(jx))
                support[cy - r:cy + r + 1, cx - r:cx + r + 1] = True
            d = (xs - roots[p, t, 0]) ** 2 + (ys - roots[p, t, 1]) ** 2
            closer = support & (d < dist)
            owner[closer] = p
            dist[closer] = d[closer]
        for p in range(spec.persons):
            step = roots[p, t + 1] - roots[p, t]
            flow[0][owner == p] = step[0]
            flow[1][owner == p] = step[1]
        flows.append(flow)

    return features, SceneTruth(poses_per_frame, flows)

