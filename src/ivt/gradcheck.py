"""Finite-difference gradient checking against the reverse-mode tape.

``GRAD_UNITS`` names the differentiable units that ``ivt gradcheck`` and the
acceptance suite check: each entry maps a seeded generator and a step size
to the max relative error of one small instance of the unit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import tensor as T
from .blocks import block_params, init_conv
from .igt import GridGeometry, tokenize
from .losses import total_loss
from .synth import SceneSpec, generate
from .tensor import ContractError, NumericError, Tensor, backward
from .train import TrainConfig, build_model, clip_loss, clip_targets, prediction_head
from .video import VideoConfig, alignment_maps, cisa, cisa_params, ita, ivt_layer


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    Error per component is |analytic - numeric| / max(1, |analytic|, |numeric|).
    eps must lie in [1e-7, 1e-4].
    """
    if not (1e-7 <= eps <= 1e-4):
        raise ContractError(f"grad_check: eps {eps} outside [1e-7, 1e-4]")
    leaf = Tensor(x.data.copy(), requires_grad=True)
    out = f(leaf)
    if out.size != 1:
        raise ContractError("grad_check: f must return a scalar")
    backward(out)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

    flat = leaf.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        probe = flat.copy()
        probe[i] = orig + eps
        fp = f(Tensor(probe.reshape(x.shape))).item()
        probe[i] = orig - eps
        fm = f(Tensor(probe.reshape(x.shape))).item()
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"grad_check: non-finite probe at component {i}")
        numeric[i] = (fp - fm) / (2.0 * eps)

    a = analytic.reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
    return float(np.max(np.abs(a - numeric) / denom)) if flat.size else 0.0


# -- gradient-check registry -----------------------------------------------------


def _unit_mhsa(rng: np.random.Generator, eps: float) -> float:
    """The block's attention branch, x + MHSA(LN(x)), on 3 tokens of width 8."""
    p = block_params(rng, 8)
    x = Tensor(rng.uniform(-1, 1, size=(3, 8)))
    return grad_check(lambda t: T.tsum(T.attention_branch(
        t, p["ln1_g"], p["ln1_b"], p["wq"], p["bq"], p["wk"], p["bk"], p["wv"], p["bv"],
        p["wo"], p["bo"], 2)), x, eps)


def _unit_ffn(rng: np.random.Generator, eps: float) -> float:
    """The block's FFN branch, x + FFN(LN(x)), on 3 tokens of width 8."""
    p = block_params(rng, 8)
    x = Tensor(rng.uniform(-1, 1, size=(3, 8)))
    return grad_check(lambda t: T.tsum(T.ffn_branch(
        t, p["ln2_g"], p["ln2_b"], p["ffn_w1"], p["ffn_b1"], p["ffn_w2"], p["ffn_b2"])), x, eps)


def _unit_igt(rng: np.random.Generator, eps: float) -> float:
    params = block_params(rng, 4)
    gathered = Tensor(rng.uniform(-1, 1, size=(3 * 4,)))
    return grad_check(lambda t: T.tsum(tokenize(t, params, 2)), gathered, eps)


def _unit_isa(rng: np.random.Generator, eps: float) -> float:
    """One-scale CISA on 4 tokens of width 8: positional embedding plus one attention block."""
    cfg = VideoConfig(joints=2, channels=1, scales=(2,), layers=3, heads=2, fuse_heads=2)
    params = cisa_params(rng, cfg, [GridGeometry(2, 2, 2)])
    tokens = Tensor(rng.uniform(-1, 1, size=(2, 4, 8)))
    return grad_check(lambda t: T.tsum(cisa([t], params, cfg)[0]), tokens, eps)


def _unit_ita(rng: np.random.Generator, eps: float) -> float:
    params = block_params(rng, 8)
    tokens = Tensor(rng.uniform(-1, 1, size=(3, 2, 8)))
    return grad_check(lambda t: T.tsum(ita(t, params, 2)), tokens, eps)


def _unit_cisa_mita(rng: np.random.Generator, eps: float) -> float:
    """One cross-scale layer on a 2-scale, 2-frame toy clip."""
    h = w = 8
    cfg = VideoConfig(joints=2, channels=1, scales=(2, 4), layers=1, heads=2, fuse_heads=2)
    grids = cfg.grids(h, w)
    cp = cisa_params(rng, cfg, grids)
    mp = {f"ita{s}": block_params(rng, d) for s, d in zip(cfg.scales, cfg.token_dims)}
    frames = 2
    maps = [alignment_maps([np.zeros((2, h, w))], geom, frames) for geom in grids]
    coarse = Tensor(rng.uniform(-1, 1, size=(frames, grids[1].n, cfg.token_dims[1])))
    fine = Tensor(rng.uniform(-1, 1, size=(frames, grids[0].n, cfg.token_dims[0])))

    def f(t):
        return T.tsum(ivt_layer([t, coarse], maps, {"cisa": cp, "mita": mp}, cfg, grids)[0])

    return grad_check(f, fine, eps)


def _unit_heads(rng: np.random.Generator, eps: float) -> float:
    """The model's prediction head on a 2-frame 4x4 grid, wrt the tokens and the weight."""
    joints, d = 2, 8
    grid = GridGeometry(1, 4, 4)
    w, _ = init_conv(rng, d, 1 + 3 * joints)
    b = Tensor(rng.uniform(-0.1, 0.1, size=(1 + 3 * joints,)))
    x = Tensor(rng.uniform(-1, 1, size=(2, grid.n, d)))

    def head(x, w):
        heatmap, offset3d = prediction_head(x, grid, {"w": w, "b": b})
        return T.tsum(heatmap) + T.tsum(offset3d)

    return max(grad_check(lambda t: head(t, w), x, eps),
               grad_check(lambda t: head(x, t), w, eps))


def _unit_loss(rng: np.random.Generator, eps: float) -> float:
    """The composite loss on a 2-frame clip with one and two centers."""
    joints = 2
    frames, h, w = 2, 4, 4
    tgt_hm = rng.uniform(0, 1, size=(frames, h, w))
    tgt_o3 = np.zeros((frames, 3 * joints, h, w))
    tgt_o2 = np.zeros((frames, 2 * joints, h, w))
    mask = np.zeros((frames, h, w), dtype=bool)
    for t, y, x in ((0, 1, 2), (1, 0, 0), (1, 3, 1)):
        mask[t, y, x] = True
        tgt_o3[t, :, y, x] = rng.uniform(-1, 1, size=3 * joints)
        tgt_o2[t, :, y, x] = rng.uniform(-1, 1, size=2 * joints)
    ch = 1 + 3 * joints + 2 * joints
    x = Tensor(rng.uniform(0.1, 0.9, size=(frames, ch, h, w)))

    def f(t):
        hm = T.reshape(T.narrow(t, 1, 0, 1), (frames, h, w))
        o3 = T.narrow(t, 1, 1, 3 * joints)
        o2 = T.narrow(t, 1, 1 + 3 * joints, 2 * joints)
        return total_loss((hm, o3, o2), (tgt_hm, tgt_o3, tgt_o2), (mask, mask), 10.0)[0]

    return grad_check(f, x, eps)


def _unit_full(rng: np.random.Generator, eps: float) -> float:
    """Loss of the whole pipeline wrt one frame's feature map."""
    scene = SceneSpec(seed=int(rng.integers(0, 2**31)), frames=2, height=16, width=16,
                      blob_sigma=0.8, body_radius=1.5)
    cfg = TrainConfig(steps=1, frames=2, layers=1, scales=(4,), head_hidden=4)
    features_np, truth = generate(scene)
    # Dither the flat background: constant-zero blocks sit in the
    # zero-variance regime of the normalization, where the curvature blows
    # up and finite differences lose accuracy without any gradient bug.
    features_np = features_np + rng.uniform(0.05, 0.5, size=features_np.shape)
    model = build_model(scene, cfg)
    targets = clip_targets(scene, truth, model.fine_k)
    rest = Tensor(features_np[1:])

    def f(t):
        out = model.forward(T.concat([t, rest]), truth.flows, targets[0][2])
        return clip_loss(out, targets, cfg)[0]

    return grad_check(f, Tensor(features_np[:1]), eps)


GRAD_UNITS = {
    "mhsa": _unit_mhsa,
    "ffn": _unit_ffn,
    "igt": _unit_igt,
    "isa": _unit_isa,
    "ita": _unit_ita,
    "cisa-mita": _unit_cisa_mita,
    "heads": _unit_heads,
    "loss": _unit_loss,
    "full": _unit_full,
}
