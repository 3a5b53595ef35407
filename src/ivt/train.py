"""Toy optimization driver: full model, Adam updates, logging, evaluation.

One training step runs each stage once over the whole clip: predicted 2D
offsets (T, 2J, H, W) guide tokenization (optionally teacher-forced from
ground truth), the stacked video transformer produces finest-scale tokens
(T, N, D), a convolutional head regresses the center heatmaps and 3D
offsets at the token grid resolution, and one composite loss against
targets built once per run drives adaptive-moment updates.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import init_conv
from .checkpoint import load_params, save_params
from .codec import Pose3D, decode_poses, encode_heatmap, encode_offsets
from .igt import GridGeometry, offset_head_params, predict_offsets, retile
from .losses import total_loss
from .metrics import EvalReport, match_and_evaluate
from .synth import SceneSpec, SceneTruth, _root_box, generate
from .tensor import ConfigError, ContractError, NumericError, Tensor
from .video import VideoConfig, ivt_forward, video_params


@dataclass(frozen=True)
class TrainConfig:
    """The defaults, seed 0, are the convergence fixture's run; a test pins perfbench's copy."""
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
    scales: tuple[int, ...] = (8,)
    heads: int = 2
    fuse_heads: int = 2
    head_hidden: int = 8
    teacher_forcing: bool = True
    threshold: float = 0.3

    def __post_init__(self):
        # check_run checks the rest: frames, the architecture and the scene.
        for key, ok, need in (
                ("steps", self.steps >= 1, ">= 1"),
                ("lr", 0 < self.lr < math.inf, "finite and > 0"),
                ("seed", self.seed >= 0, ">= 0"),
                ("milestones", all(0 <= m <= 1 for m in self.milestones),
                 "fractions in [0, 1]"),
                ("clip_norm", 0 <= self.clip_norm < math.inf, "finite and >= 0"),
                ("alpha", 0 <= self.alpha < math.inf, "finite and >= 0"),
                ("head_hidden", self.head_hidden >= 1, ">= 1"),
                ("threshold", 0 < self.threshold < math.inf, "finite and > 0")):
            if not ok:
                raise ConfigError(f"invalid train config: {key} = {getattr(self, key)}; "
                                  f"need {need}")


@dataclass
class ModelOutput:
    """The model's three output maps for a clip of T frames."""
    heatmap: Tensor    # (T, n_h, n_w), logistic-activated
    offset3d: Tensor   # (T, 3J, n_h, n_w)
    offset2d: Tensor   # (T, 2J, H, W)

    # The tape roots as lists, as perfbench's tracer reads them.
    heatmaps = property(lambda self: [self.heatmap])
    offsets3d = property(lambda self: [self.offset3d])
    offsets2d = property(lambda self: [self.offset2d])


class IVTModel:
    """All learned parameters plus the end-to-end forward pass."""

    def __init__(self, video_cfg: VideoConfig, h: int, w: int, seed: int,
                 head_hidden: int):
        self.cfg = video_cfg
        self.h, self.w = h, w
        rng = np.random.default_rng(seed)
        joints = video_cfg.joints
        self.fine_k = video_cfg.scales[0]
        self.tree: dict = {  # drawn in this order
            "video": video_params(rng, video_cfg, h, w),
            "offset_head": offset_head_params(rng, video_cfg.channels, joints, head_hidden),
            "pred_head": dict(zip("wb", init_conv(rng, video_cfg.token_dims[0], 1 + 3 * joints))),
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
        """Replace every parameter by the one of the same name in ``flat``, which
        must name exactly the model's parameters, each with its shape."""
        own = self.named_params()
        unexpected = [name for name in flat if name not in own]
        if unexpected:
            raise ContractError(f"checkpoint has unexpected parameter {unexpected[0]}")
        for name, param in own.items():
            if name not in flat:
                raise ContractError(f"checkpoint missing parameter {name}")
            if flat[name].shape != param.shape:
                raise ContractError(f"checkpoint shape mismatch for {name}")
        for name, param in own.items():
            param.data = flat[name].data

    # -- forward ----------------------------------------------------------------

    def forward(self, features: Tensor, flows: list[np.ndarray],
                gather_offsets: np.ndarray | None = None) -> ModelOutput:
        """Run the pipeline on a (T, C, H, W) clip; gather_offsets (T, 2J, H, W)
        override the predicted 2D offsets for the token gather (teacher forcing)."""
        off2d = predict_offsets(features, self.tree["offset_head"])
        if gather_offsets is None:
            gather_offsets = off2d.data
        tokens = ivt_forward(features, gather_offsets, flows, self.cfg, self.tree["video"])
        grid = GridGeometry(1, self.h // self.fine_k, self.w // self.fine_k)
        return ModelOutput(*prediction_head(tokens, grid, self.tree["pred_head"]), off2d)


def prediction_head(tokens: Tensor, grid: GridGeometry,
                    params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """One 3x3 conv over the finest (T, N, D) tokens retiled onto ``grid`` (one-pixel
    blocks): logistic center heatmap (T, n_h, n_w) and 3D offsets (T, 3J, n_h, n_w)."""
    frames, _, d = tokens.shape
    spatial = retile(tokens, grid, d)  # (T, D, n_h, n_w)
    out = T.conv2d(spatial, params["w"], params["b"])
    heatmap = T.sigmoid(T.reshape(T.narrow(out, 1, 0, 1), (frames, grid.n_h, grid.n_w)))
    return heatmap, T.narrow(out, 1, 1, out.shape[1] - 1)


# -- optimizer --------------------------------------------------------------------


class Adam:
    """Adaptive-moment gradient descent with fixed decays and epsilon."""
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def clip_gradients(self, max_norm: float) -> float:
        """Global gradient norm before clipping; rescales to max_norm when above it (> 0)."""
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
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v = self.m[k], self.v[k]
            m *= self.BETA1
            m += (1 - self.BETA1) * g
            g2 = (1 - self.BETA2) * g
            g2 *= g
            v *= self.BETA2
            v += g2
            denom = np.sqrt(np.divide(v, bc2, out=g2), out=g2)
            denom += self.EPS
            update = m / bc1
            update *= lr
            p.data -= np.divide(update, denom, out=update)
            p.grad = None


def lr_at(cfg: TrainConfig, step: int) -> float:
    lr = cfg.lr
    for frac in cfg.milestones:
        if step >= int(frac * cfg.steps):
            lr *= 0.1
    return lr


# -- training --------------------------------------------------------------------


HEAD_SIGMA = 1.0  # width of the heatmap targets' Gaussians, in head cells


def clip_targets(scene: SceneSpec, truth: SceneTruth, k: int) -> tuple:
    """The (targets, masks) of ``total_loss`` for the clip, stacked over frames:
    heatmaps, 3D offsets and their mask on the head's grid (feature cells over
    the finest block size k); 2D offsets, the x and y channels of the 3D
    offsets, and their mask at feature resolution."""
    joints, h, w = scene.joints, scene.height, scene.width
    per_frame = []
    for poses in truth.poses:
        scaled = [Pose3D(p.joints / (k, k, 1.0)) for p in poses]
        per_frame.append((encode_heatmap(scaled, h // k, w // k, HEAD_SIGMA),
                          *encode_offsets(scaled, joints, h // k, w // k),
                          *encode_offsets(poses, joints, h, w)))
    hm, o3, mask_head, o3_feat, mask_feat = (np.stack(maps) for maps in zip(*per_frame))
    o2 = o3_feat.reshape(-1, joints, 3, h, w)[:, :, :2].reshape(-1, 2 * joints, h, w)
    return (hm, o3, o2), (mask_head, mask_feat)


def clip_loss(out: ModelOutput, targets: tuple,
              cfg: TrainConfig) -> tuple[Tensor, dict[str, float]]:
    """Mean over the clip's frames of the per-frame composite loss."""
    target, masks = targets
    return total_loss((out.heatmap, out.offset3d, out.offset2d), target, masks, cfg.alpha)


@dataclass
class TrainResult:
    model: IVTModel
    log_rows: list[dict]  # one per step, in the columns of train_log.csv

    @property
    def loss_history(self) -> list[float]:
        return [row["total"] for row in self.log_rows]

    def write_log(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(self.log_rows[0]))
            writer.writeheader()
            writer.writerows(self.log_rows)


BYTES_PER_PARAM = 32  # float64 value, gradient, and Adam's m and v


def param_count(cfg: VideoConfig, h: int, w: int, head_hidden: int) -> int:
    """The number of values ``IVTModel`` holds, from the shapes its init draws."""
    block = lambda d: 12 * d * d + 13 * d  # q, k, v, out, the 4x FFN and two norms
    conv = lambda c_in, c_out: c_out * (9 * c_in + 1)  # 3x3 weight and bias
    # A layer: CISA's block, and per scale CISA's positional embedding and MITA's block.
    layer = block(cfg.d_common) + sum(geom.n * d + block(d)
                                      for geom, d in zip(cfg.grids(h, w), cfg.token_dims))
    if cfg.projected:  # CISA's projections to and from d_common
        layer += sum((2 * cfg.d_common + 1) * d + cfg.d_common for d in cfg.token_dims)
    return (sum(map(block, cfg.fuse_dims)) + cfg.layers * layer
            + conv(cfg.channels, head_hidden) + conv(head_hidden, 2 * cfg.joints)
            + conv(cfg.token_dims[0], 1 + 3 * cfg.joints))


def _check_root_cells(scene: SceneSpec, cfg: TrainConfig) -> None:
    """``clip_targets`` encodes a root at pixel x in head cell x / k, with k the
    finest block size, which must round into the head grid for every root the
    scene can place (``encode_offsets``' rule)."""
    k = min(cfg.scales)
    for key, side, (_, hi) in zip(("width", "height"), (scene.width, scene.height),
                                  _root_box(scene)):
        reach = int(hi) + int(np.rint(scene.amplitude))  # roots move by up to rint(amplitude)
        if scene.persons and reach / k >= side // k - 0.5:
            raise ConfigError(f"scales = {cfg.scales}: a root can reach pixel {reach} of the "
                              f"scene {key} {side}, past the last head cell at block size {k}; "
                              "need a smaller finest scale or more margin (body_radius, "
                              "blob_sigma, amplitude)")


def check_run(scene: SceneSpec, cfg: TrainConfig) -> VideoConfig:
    """The architecture a scene and a train config name, once the one check of a
    run passes before anything is generated or built: one clip length,
    ``VideoConfig``'s rules, block sizes that tile the map, a head cell for
    every root the scene can place, and parameters with their gradients and
    Adam's moments that fit in physical memory beside the clip ``generate``
    makes. Else ``ConfigError``. Arithmetic only: nothing is allocated."""
    if scene.frames != cfg.frames:
        raise ConfigError(f"scene frames = {scene.frames} but train frames = "
                          f"{cfg.frames}; the two must be equal")
    video_cfg = VideoConfig(joints=scene.joints, channels=scene.channels,
                            scales=cfg.scales, layers=cfg.layers,
                            heads=cfg.heads, fuse_heads=cfg.fuse_heads)
    video_cfg.grids(scene.height, scene.width)
    _check_root_cells(scene, cfg)
    count = param_count(video_cfg, scene.height, scene.width, cfg.head_hidden)
    # The float64 clip generate makes: (T, C, H, W) features, T - 1 (2, H, W)
    # flows and P (J, 3) poses per frame.
    t, hw = scene.frames, scene.height * scene.width
    clip = 8 * (t * scene.channels * hw + 2 * (t - 1) * hw + scene.persons * t * scene.joints * 3)
    params = count * BYTES_PER_PARAM
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if params + clip > have:
        raise ConfigError(f"the model has {count:,} parameters, {params / 2**30:.1f} GiB with their "
                          f"gradients and Adam's moments, and the clip takes {clip / 2**30:.1f} "
                          f"GiB, together above the {have / 2**30:.1f} GiB of physical memory; "
                          "need fewer frames or persons, a smaller map, or smaller scales, "
                          "joints, channels or layers")
    return video_cfg


def train(scene: SceneSpec, cfg: TrainConfig, checkpoint_path=None) -> TrainResult:
    """Optimize the full model on one synthetic scene clip.

    Deterministic given (scene seed, train seed, config). The parameters
    go to checkpoint_path (when given) after the last step. A non-finite
    value raises ``NumericError`` naming the step, and then no checkpoint
    is written. A scene and config that ``check_run`` rejects raise
    ``ConfigError`` before anything is generated or built.
    """
    check_run(scene, cfg)
    features_np, truth = generate(scene)
    features = Tensor(features_np)
    model = build_model(scene, cfg)
    optimizer = Adam(model.named_params())
    targets = clip_targets(scene, truth, model.fine_k)
    gather = targets[0][2] if cfg.teacher_forcing else None

    rows: list[dict] = []
    for step in range(cfg.steps):
        try:
            out = model.forward(features, truth.flows, gather)
            loss, terms = clip_loss(out, targets, cfg)
            finite = np.isfinite(loss.item())
            if finite:
                T.backward(loss)
                norm = optimizer.clip_gradients(cfg.clip_norm)
                optimizer.step(lr_at(cfg, step))
        except NumericError as exc:
            raise NumericError(f"train: step {step}: {exc}") from exc
        if not finite:
            raise NumericError(f"train: NaN loss at step {step}")
        rows.append({"step": step, "lr": lr_at(cfg, step), **terms,
                     "grad_norm": float(norm), "clipped": int(0 < cfg.clip_norm < norm)})
    if checkpoint_path is not None:
        save_params(checkpoint_path, model.named_params())
    return TrainResult(model, rows)


# -- evaluation --------------------------------------------------------------------

MAX_PEOPLE = 8  # poses decoded per frame, at most


def decode_output(model: IVTModel, out: ModelOutput, threshold: float,
                  max_people: int) -> list[list[Pose3D]]:
    """Decoded poses per frame, rescaled from head grid to feature cells."""
    k = model.fine_k
    decoded = []
    for hm, o3 in zip(out.heatmap.data, out.offset3d.data):
        poses = decode_poses(hm, o3, threshold, max_people)
        for pose in poses:
            pose.joints[:, :2] *= k
        decoded.append(poses)
    return decoded


def evaluate(model: IVTModel, scene: SceneSpec, cfg: TrainConfig) -> EvalReport:
    """Full-pipeline report on a synthetic scene.

    No teacher forcing: tokens are always gathered at the model's own
    predicted 2D offsets, whatever ``cfg.teacher_forcing`` says. The scene
    and config must pass ``check_run`` and describe the model.
    """
    video_cfg = check_run(scene, cfg)
    if (video_cfg, scene.height, scene.width) != (model.cfg, model.h, model.w):
        raise ConfigError(f"evaluate: a {scene.height}x{scene.width} scene of {video_cfg}, "
                          f"but the model is {model.cfg} on {model.h}x{model.w}")
    features, truth = generate(scene)
    out = model.forward(Tensor(features), truth.flows)
    decoded = decode_output(model, out, cfg.threshold, MAX_PEOPLE)
    return match_and_evaluate(decoded, truth.poses)


def build_model(scene: SceneSpec, cfg: TrainConfig) -> IVTModel:
    return IVTModel(check_run(scene, cfg), scene.height, scene.width, cfg.seed,
                    cfg.head_hidden)


def load_model(scene: SceneSpec, cfg: TrainConfig, checkpoint_path) -> IVTModel:
    model = build_model(scene, cfg)
    model.load_named(load_params(checkpoint_path))
    return model
