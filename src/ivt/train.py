"""Toy optimization driver: full model, Adam updates, logging, evaluation.

One training step runs the whole pipeline on one scene clip: predicted 2D
offsets guide tokenization (optionally teacher-forced from ground truth),
the stacked video transformer produces finest-scale tokens, convolutional
heads regress the center heatmap and 3D offsets at the token grid
resolution, and the composite loss drives adaptive-moment updates.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .checkpoint import load_params, save_params
from .codec import Pose3D, center_mask, decode_poses, encode_targets
from .igt import BlockGrid, offset_head_params, predict_offsets, retile
from .losses import LossWeights, total_loss
from .metrics import EvalReport, match_and_evaluate
from .synth import SceneSpec, SceneTruth, generate, gt_feature_provider
from .tensor import ContractError, NumericError, Tensor
from .video import VideoConfig, ivt_forward, video_params


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    lr: float = 5e-4
    # Fractions of total steps where the rate drops 10x (mirrors a 30/40-of-50
    # epoch schedule).
    milestones: tuple[float, ...] = (0.6, 0.8)
    seed: int = 0
    clip_norm: float = 5.0
    frames: int = 5
    layers: int = 3
    alpha: float = 10.0
    scales: tuple[int, ...] = (2, 4, 8)
    heads: int = 2
    fuse_heads: int = 2
    head_hidden: int = 16
    head_sigma: float = 1.0
    teacher_forcing: bool = True
    threshold: float = 0.3
    max_people: int = 8

    def __post_init__(self):
        if self.steps < 1 or self.lr <= 0:
            raise ContractError(f"invalid train config: steps={self.steps}, lr={self.lr}")


@dataclass
class ModelOutput:
    heatmaps: list[Tensor]    # per frame, (n_h, n_w), logistic-activated
    offsets3d: list[Tensor]   # per frame, (3J, n_h, n_w)
    offsets2d: list[Tensor]   # per frame, (2J, H, W)


class IVTModel:
    """All learned parameters plus the end-to-end forward pass."""

    def __init__(self, video_cfg: VideoConfig, h: int, w: int, seed: int,
                 head_hidden: int = 16):
        self.cfg = video_cfg
        self.h, self.w = h, w
        rng = np.random.default_rng(seed)
        joints = video_cfg.joints
        fine = min(video_cfg.scales)
        self.fine_k = fine
        d_fine = joints * video_cfg.channels * fine * fine
        self.tree: dict = {
            "video": video_params(rng, video_cfg, h, w),
            "offset_head": offset_head_params(rng, video_cfg.channels, joints, head_hidden),
        }
        bound = 1.0 / np.sqrt(d_fine * 9)
        self.tree["pred_head"] = {
            "w": Tensor(rng.uniform(-bound, bound, size=(1 + 3 * joints, d_fine, 3, 3)),
                        requires_grad=True),
            "b": Tensor(np.zeros(1 + 3 * joints), requires_grad=True),
        }

    # -- parameter bookkeeping ------------------------------------------------

    def named_params(self) -> dict[str, Tensor]:
        flat: dict[str, Tensor] = {}

        def walk(prefix: str, node):
            if isinstance(node, Tensor):
                flat[prefix] = node
                return
            for key in node:
                walk(f"{prefix}.{key}" if prefix else key, node[key])

        walk("", self.tree)
        return flat

    def load_named(self, flat: dict[str, Tensor]) -> None:
        def walk(prefix: str, node):
            for key in list(node):
                name = f"{prefix}.{key}" if prefix else key
                if isinstance(node[key], Tensor):
                    if name not in flat:
                        raise ContractError(f"checkpoint missing parameter {name}")
                    if flat[name].shape != node[key].shape:
                        raise ContractError(f"checkpoint shape mismatch for {name}")
                    node[key] = flat[name]
                else:
                    walk(name, node[key])

        walk("", self.tree)

    # -- forward ----------------------------------------------------------------

    def forward(self, features: list[Tensor], flows: list[np.ndarray],
                gather_offsets: list[np.ndarray] | None = None) -> ModelOutput:
        """Run the pipeline; gather_offsets overrides the predicted 2D offsets
        for the token-gather step (teacher forcing)."""
        pred_off2d = [predict_offsets(f, self.tree["offset_head"]) for f in features]
        if gather_offsets is None:
            gather_offsets = [o.data for o in pred_off2d]
        tokens = ivt_forward(features, gather_offsets, flows, self.cfg, self.tree["video"])
        frames, n, d = tokens.shape
        n_h, n_w = self.h // self.fine_k, self.w // self.fine_k
        hm_list, o3_list = [], []
        for t in range(frames):
            frame_tokens = T.reshape(T.narrow(tokens, 0, t, 1), (n, d))
            spatial = retile(BlockGrid(frame_tokens, 1, n_h, n_w), d)
            out = T.conv2d(spatial, self.tree["pred_head"]["w"], self.tree["pred_head"]["b"])
            hm_list.append(T.sigmoid(T.reshape(T.narrow(out, 0, 0, 1), (n_h, n_w))))
            o3_list.append(T.narrow(out, 0, 1, 3 * self.cfg.joints))
        return ModelOutput(hm_list, o3_list, pred_off2d)


# -- optimizer --------------------------------------------------------------------


class Adam:
    """Adaptive-moment gradient descent: decay 0.9/0.999, epsilon 1e-8."""

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def clip_gradients(self, max_norm: float) -> float:
        total = 0.0
        for p in self.params.values():
            if p.grad is not None:
                total += float((p.grad * p.grad).sum())
        norm = np.sqrt(total)
        if max_norm > 0 and norm > max_norm:
            factor = max_norm / norm
            for p in self.params.values():
                if p.grad is not None:
                    p.grad = p.grad * factor
        return norm

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            p.data[...] = p.data - lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + self.eps)
            p.grad = None


def lr_at(cfg: TrainConfig, step: int) -> float:
    lr = cfg.lr
    for frac in cfg.milestones:
        if step >= int(frac * cfg.steps):
            lr *= 0.1
    return lr


# -- training --------------------------------------------------------------------


def scaled_targets(truth: SceneTruth, frame: int, n_h: int, n_w: int, k: int,
                   sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ground-truth heatmap/3D-offset targets at the head (token grid) resolution."""
    scaled = [Pose3D(np.column_stack([p.joints[:, 0] / k, p.joints[:, 1] / k,
                                      p.joints[:, 2]]))
              for p in truth.poses[frame]]
    hm, o3, _ = encode_targets(scaled, n_h, n_w, sigma)
    mask = center_mask(scaled, n_h, n_w)
    return hm, o3, mask


def clip_loss(model: IVTModel, out: ModelOutput, truth: SceneTruth,
              cfg: TrainConfig) -> tuple[Tensor, dict[str, float]]:
    """Mean of the per-frame composite losses over the clip."""
    k = model.fine_k
    n_h, n_w = model.h // k, model.w // k
    weights = LossWeights(cfg.alpha)
    total = None
    sums = {"l1_3d": 0.0, "l1_2d": 0.0, "l2_hm": 0.0, "total": 0.0}
    frames = len(out.heatmaps)
    for t in range(frames):
        hm_t, o3_t, mask_head = scaled_targets(truth, t, n_h, n_w, k, cfg.head_sigma)
        mask_feat = center_mask(truth.poses[t], model.h, model.w)
        loss_t, terms = total_loss(
            (out.heatmaps[t], out.offsets3d[t], out.offsets2d[t]),
            (hm_t, o3_t, truth.offsets2d[t]),
            weights, (mask_head, mask_feat))
        total = loss_t if total is None else total + loss_t
        for key in sums:
            sums[key] += terms[key] / frames
    return T.scale(total, 1.0 / frames), sums


@dataclass
class TrainResult:
    model: IVTModel
    loss_history: list[float]
    log_rows: list[dict] = field(default_factory=list)

    def write_log(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["step", "lr", "l1_3d", "l1_2d",
                                                    "l2_hm", "total"])
            writer.writeheader()
            writer.writerows(self.log_rows)


def train(scene: SceneSpec, cfg: TrainConfig, checkpoint_path=None) -> TrainResult:
    """Optimize the full model on one synthetic scene clip.

    Deterministic given (scene seed, train seed, config). A NaN loss
    aborts with the step index after saving the last good parameters to
    checkpoint_path (when given).
    """
    spec = replace(scene, frames=cfg.frames)
    features_np, truth = generate(spec)
    features = gt_feature_provider(features_np)
    video_cfg = VideoConfig(joints=spec.joints, channels=spec.channels,
                            scales=tuple(cfg.scales), layers=cfg.layers,
                            heads=cfg.heads, fuse_heads=cfg.fuse_heads)
    model = IVTModel(video_cfg, spec.height, spec.width, cfg.seed, cfg.head_hidden)
    optimizer = Adam(model.named_params())
    gather = truth.offsets2d if cfg.teacher_forcing else None

    history: list[float] = []
    rows: list[dict] = []
    for step in range(cfg.steps):
        out = model.forward(features, truth.flows, gather)
        loss, terms = clip_loss(model, out, truth, cfg)
        if not np.isfinite(loss.item()):
            if checkpoint_path is not None:
                save_params(checkpoint_path, model.named_params())
            raise NumericError(f"train: NaN loss at step {step}")
        T.backward(loss)
        optimizer.clip_gradients(cfg.clip_norm)
        optimizer.step(lr_at(cfg, step))
        history.append(terms["total"])
        rows.append({"step": step, "lr": lr_at(cfg, step), **terms})
    if checkpoint_path is not None:
        save_params(checkpoint_path, model.named_params())
    return TrainResult(model, history, rows)


# -- evaluation --------------------------------------------------------------------


def decode_output(model: IVTModel, out: ModelOutput, threshold: float,
                  max_people: int) -> list[list[Pose3D]]:
    """Decoded poses per frame, rescaled from head grid to feature cells."""
    k = model.fine_k
    decoded = []
    for hm, o3 in zip(out.heatmaps, out.offsets3d):
        poses = decode_poses(hm.data, o3.data, threshold, max_people)
        for pose in poses:
            pose.joints[:, 0] *= k
            pose.joints[:, 1] *= k
        decoded.append(poses)
    return decoded


def evaluate(model: IVTModel, scene: SceneSpec, cfg: TrainConfig) -> EvalReport:
    """Full-pipeline report on a synthetic scene.

    No teacher forcing: tokens are always gathered at the model's own
    predicted 2D offsets, whatever ``cfg.teacher_forcing`` says.
    """
    spec = replace(scene, frames=cfg.frames)
    features_np, truth = generate(spec)
    features = gt_feature_provider(features_np)
    out = model.forward(features, truth.flows)
    decoded = decode_output(model, out, cfg.threshold, cfg.max_people)
    return match_and_evaluate(decoded, truth.poses)


def build_model(scene: SceneSpec, cfg: TrainConfig) -> IVTModel:
    video_cfg = VideoConfig(joints=scene.joints, channels=scene.channels,
                            scales=tuple(cfg.scales), layers=cfg.layers,
                            heads=cfg.heads, fuse_heads=cfg.fuse_heads)
    return IVTModel(video_cfg, scene.height, scene.width, cfg.seed, cfg.head_hidden)


def load_model(scene: SceneSpec, cfg: TrainConfig, checkpoint_path) -> IVTModel:
    model = build_model(scene, cfg)
    model.load_named(load_params(checkpoint_path))
    return model
