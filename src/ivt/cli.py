"""Command-line entry point: gradient checks, training, evaluation, benchmarks.

Exit codes are a stable contract: 0 success, 2 usage or config error,
3 numeric failure. Every run writes a JSON manifest sufficient to
reproduce it (command, config snapshot, seeds, artifact paths, input
hashes, timestamps).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
import time
from dataclasses import asdict, fields as dc_fields, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .blocks import AttentionConfig, block_params, ffn, layer_norm, multi_head_self_attention
from .gradcheck import grad_check
from .losses import LossWeights, total_loss
from .synth import SceneSpec, export_manifest, generate, gt_feature_provider, import_manifest
from .tensor import NumericError, Tensor, macs
from .train import (IVTModel, TrainConfig, build_model, clip_loss, decode_output,
                    evaluate, load_model, train)
from .video import (GridGeometry, ScaleSet, VideoConfig, cisa, cisa_params, ita,
                    ivt_forward, ivt_layer, video_params)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

GRAD_TOL = 1e-5


# -- gradient-check registry -----------------------------------------------------


def _unit_mhsa(rng: np.random.Generator, eps: float) -> float:
    cfg = AttentionConfig(8, 2)
    params = block_params(rng, cfg)
    x = Tensor(rng.uniform(-1, 1, size=(3, 8)))
    return grad_check(lambda t: T.tsum(multi_head_self_attention(t, params, cfg)), x, eps)


def _unit_ffn(rng: np.random.Generator, eps: float) -> float:
    cfg = AttentionConfig(8, 2)
    params = block_params(rng, cfg)
    x = Tensor(rng.uniform(-1, 1, size=(3, 8)))

    def f(t):
        return T.tsum(ffn(layer_norm(t, params["ln2_g"], params["ln2_b"]), params))

    return grad_check(f, x, eps)


def _unit_igt(rng: np.random.Generator, eps: float) -> float:
    from .igt import fuse_config, tokenize

    cfg = fuse_config(c_b=4, heads=2)
    params = block_params(rng, cfg)
    gathered = Tensor(rng.uniform(-1, 1, size=(3 * 4,)))
    return grad_check(lambda t: T.tsum(tokenize(t, params, cfg)), gathered, eps)


def _unit_isa(rng: np.random.Generator, eps: float) -> float:
    """One-scale CISA: positional embedding plus one self-attention block."""
    sset = ScaleSet.build((2,), joints=2, channels=1)  # 4 tokens of width 8 per frame
    params = cisa_params(rng, sset, [GridGeometry(2, 2, 2)], heads=2)
    tokens = Tensor(rng.uniform(-1, 1, size=(2, 4, 8)))
    return grad_check(lambda t: T.tsum(cisa([t], sset, params, 2)[0]), tokens, eps)


def _unit_ita(rng: np.random.Generator, eps: float) -> float:
    cfg = AttentionConfig(8, 2)
    params = block_params(rng, cfg)
    tokens = Tensor(rng.uniform(-1, 1, size=(3, 2, 8)))
    return grad_check(lambda t: T.tsum(ita(t, params, cfg)), tokens, eps)


def _unit_cisa_mita(rng: np.random.Generator, eps: float) -> float:
    """One cross-scale layer on a 2-scale, 2-frame toy clip."""
    joints, channels = 2, 1
    h = w = 8
    cfg = VideoConfig(joints=joints, channels=channels, scales=(2, 4), layers=1, heads=2)
    sset = cfg.scale_set()
    grids = cfg.grids(h, w)
    cp = cisa_params(rng, sset, grids, cfg.heads)
    mp = {f"ita{s}": block_params(rng, AttentionConfig(d, cfg.heads))
          for s, d in zip(sset.scales, sset.token_dims)}
    frames = 2
    flows = [np.zeros((2, h, w))]
    coarse = Tensor(rng.uniform(-1, 1, size=(frames, grids[1].n, sset.token_dims[1])))
    fine = Tensor(rng.uniform(-1, 1, size=(frames, grids[0].n, sset.token_dims[0])))

    def f(t):
        return T.tsum(ivt_layer([t, coarse], flows, {"cisa": cp, "mita": mp}, cfg, grids)[0])

    return grad_check(f, fine, eps)


def _unit_heads(rng: np.random.Generator, eps: float) -> float:
    joints = 2
    d = 8
    bound = 1.0 / np.sqrt(d * 9)
    w = Tensor(rng.uniform(-bound, bound, size=(1 + 3 * joints, d, 3, 3)))
    b = Tensor(rng.uniform(-0.1, 0.1, size=(1 + 3 * joints,)))
    x = Tensor(rng.uniform(-1, 1, size=(d, 4, 4)))

    def f(t):
        out = T.conv2d(t, w, b)
        hm = T.sigmoid(T.narrow(out, 0, 0, 1))
        return T.tsum(hm) + T.tsum(T.narrow(out, 0, 1, 3 * joints))

    return grad_check(f, x, eps)


def _unit_loss(rng: np.random.Generator, eps: float) -> float:
    joints = 2
    h = w = 4
    tgt_hm = rng.uniform(0, 1, size=(h, w))
    tgt_o3 = np.zeros((3 * joints, h, w))
    tgt_o2 = np.zeros((2 * joints, h, w))
    mask = np.zeros((h, w), dtype=bool)
    mask[1, 2] = True
    tgt_o3[:, 1, 2] = rng.uniform(-1, 1, size=3 * joints)
    tgt_o2[:, 1, 2] = rng.uniform(-1, 1, size=2 * joints)
    ch = 1 + 3 * joints + 2 * joints
    x = Tensor(rng.uniform(0.1, 0.9, size=(ch, h, w)))

    def f(t):
        hm = T.reshape(T.narrow(t, 0, 0, 1), (h, w))
        o3 = T.narrow(t, 0, 1, 3 * joints)
        o2 = T.narrow(t, 0, 1 + 3 * joints, 2 * joints)
        return total_loss((hm, o3, o2), (tgt_hm, tgt_o3, tgt_o2),
                          LossWeights(10.0), mask)[0]

    return grad_check(f, x, eps)


def _unit_full(rng: np.random.Generator, eps: float) -> float:
    """Loss of the whole pipeline wrt one frame's feature map."""
    scene = SceneSpec(seed=int(rng.integers(0, 2**31)), persons=1, joints=2,
                      frames=2, height=16, width=16, channels=1, amplitude=0.0,
                      blob_sigma=0.8, body_radius=1.5)
    cfg = TrainConfig(steps=1, frames=2, layers=1, scales=(4,), heads=2,
                      fuse_heads=2, head_hidden=4)
    features_np, truth = generate(scene)
    # Dither the flat background: constant-zero blocks sit in the
    # zero-variance regime of the normalization, where the curvature blows
    # up and finite differences lose accuracy without any gradient bug.
    features_np = [f + rng.uniform(0.05, 0.5, size=f.shape) for f in features_np]
    model = build_model(scene, cfg)
    rest = [Tensor(f) for f in features_np[1:]]

    def f(t):
        out = model.forward([t] + rest, truth.flows, truth.offsets2d)
        return clip_loss(model, out, truth, cfg)[0]

    return grad_check(f, Tensor(features_np[0]), eps)


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


def cmd_gradcheck(args) -> int:
    units = list(GRAD_UNITS) if args.unit == "all" else [args.unit]
    for unit in units:
        if unit not in GRAD_UNITS:
            print(f"error: unknown gradcheck unit {unit!r}; "
                  f"known: {', '.join(GRAD_UNITS)}", file=sys.stderr)
            return EXIT_USAGE
    worst = 0.0
    for unit in units:
        rng = np.random.default_rng(args.seed)
        err = GRAD_UNITS[unit](rng, args.eps)
        worst = max(worst, err)
        status = "ok" if err <= GRAD_TOL else "FAIL"
        print(f"{unit:10s} max_rel_err={err:.3e} [{status}]")
    return EXIT_OK if worst <= GRAD_TOL else 1


# -- config files ------------------------------------------------------------------


def read_config(path, seed_override=None) -> tuple[SceneSpec, TrainConfig]:
    """Flat key = value config with [scene] and [train] sections."""
    scene_kwargs: dict = {}
    train_kwargs: dict = {}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ValueError(f"config file {path} not found or unreadable")
        scene_fields = {f.name: f.type for f in dc_fields(SceneSpec)}
        train_fields = {f.name: f.type for f in dc_fields(TrainConfig)}
        for section, fields, kwargs in (("scene", scene_fields, scene_kwargs),
                                        ("train", train_fields, train_kwargs)):
            if not parser.has_section(section):
                continue
            for key, value in parser.items(section):
                if key not in fields:
                    raise ValueError(f"config [{section}]: unknown key {key!r}")
                kwargs[key] = _parse_field(key, value)
    scene = SceneSpec(**scene_kwargs)
    cfg = TrainConfig(**train_kwargs)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    return scene, cfg


def _parse_field(key: str, value: str):
    if key in ("scales", "milestones"):
        parts = [v for v in value.replace(",", " ").split() if v]
        return tuple(int(v) if key == "scales" else float(v) for v in parts)
    if key == "teacher_forcing":
        return value.strip().lower() in ("1", "true", "yes", "on")
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    raise ValueError(f"config: cannot parse {key} = {value!r}")


def _hash_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict, seed,
                   artifacts: list[str], inputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "artifacts": artifacts,
        "input_hashes": {str(p): _hash_file(p) for p in inputs if Path(p).is_file()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


# -- train / eval / bench / scene ---------------------------------------------------


def cmd_train(args) -> int:
    scene, cfg = read_config(args.config, args.seed)
    if args.scene:
        scene, _ = import_manifest(args.scene)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = out_dir / "checkpoint.ivtc"
    try:
        result = train(scene, cfg, checkpoint_path=ckpt)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    result.write_log(out_dir / "train_log.csv")
    write_manifest(out_dir, "train", {"scene": asdict(scene), "train": asdict(cfg)},
                   cfg.seed, ["checkpoint.ivtc", "train_log.csv"],
                   [p for p in (args.config, args.scene) if p])
    print(f"final loss {result.loss_history[-1]:.6g} after {cfg.steps} steps")
    return EXIT_OK


def cmd_eval(args) -> int:
    scene, cfg = read_config(args.config, args.seed)
    if args.scene:
        scene, _ = import_manifest(args.scene)
    if args.threshold is not None:
        cfg = replace(cfg, threshold=args.threshold)
    if args.oracle:
        # Splice ground truth in place of predictions: checks the
        # matching/metric/report path end to end (all errors must be zero).
        from .metrics import match_and_evaluate
        _, truth = generate(replace(scene, frames=cfg.frames))
        report = match_and_evaluate(truth.poses, truth.poses)
    else:
        if not args.checkpoint:
            print("error: eval needs --checkpoint (or --oracle)", file=sys.stderr)
            return EXIT_USAGE
        model = load_model(scene, cfg, args.checkpoint)
        report = evaluate(model, scene, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "eval.csv")
    write_manifest(out_dir, "eval", {"scene": asdict(scene), "train": asdict(cfg),
                                     "oracle": args.oracle},
                   cfg.seed, ["eval.csv"],
                   [p for p in (args.config, args.scene, args.checkpoint) if p])
    agg = report.mpjpe
    print(f"matched={report.matched_pairs} missed={report.missed} "
          f"mpjpe={'n/a' if agg is None else format(agg, '.6g')}")
    return EXIT_OK


def temporal_macs(frames: int, scales: tuple[int, ...], seed: int) -> tuple[int, float]:
    """Multiply-accumulate count of the temporal stage for one forward pass."""
    scene = SceneSpec(seed=seed, persons=1, joints=2, frames=frames, height=16,
                      width=16, channels=1, amplitude=1.0, blob_sigma=0.8,
                      body_radius=2.0)
    cfg = VideoConfig(joints=scene.joints, channels=scene.channels,
                      scales=scales, layers=1, heads=2)
    features_np, truth = generate(scene)
    rng = np.random.default_rng(seed)
    params = video_params(rng, cfg, scene.height, scene.width)
    features = gt_feature_provider(features_np)
    macs.reset()
    start = time.perf_counter()
    with macs.counting():
        ivt_forward(features, truth.offsets2d, truth.flows, cfg, params)
    wall = time.perf_counter() - start
    return macs.by_scope.get("ita", 0), wall


def cmd_bench(args) -> int:
    frames = [int(v) for v in args.frames.split(",")] if args.frames else [1, 3, 5, 7, 9]
    scales = tuple(int(v) for v in args.scales.split(",")) if args.scales else (4,)
    rows = []
    print(f"{'frames':>6s} {'temporal_macs':>14s} {'wall_s':>8s}")
    for t in frames:
        counts = []
        walls = []
        for _ in range(args.repeats):
            c, wsec = temporal_macs(t, scales, args.seed)
            counts.append(c)
            walls.append(wsec)
        rows.append({"frames": t, "temporal_macs": counts[0],
                     "wall_s": min(walls)})
        print(f"{t:6d} {counts[0]:14d} {min(walls):8.3f}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        import csv as _csv
        with open(out_dir / "bench.csv", "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=["frames", "temporal_macs", "wall_s"])
            writer.writeheader()
            writer.writerows(rows)
        write_manifest(out_dir, "bench",
                       {"frames": frames, "scales": list(scales), "repeats": args.repeats},
                       args.seed, ["bench.csv"], [])
    return EXIT_OK


def cmd_scene(args) -> int:
    scene, _ = read_config(args.config, None)
    if args.seed is not None:
        scene = replace(scene, seed=args.seed)
    _, truth = generate(scene)
    export_manifest(args.out, scene, truth)
    print(f"wrote scene manifest to {args.out}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ivt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gradcheck", help="finite-difference checks per unit")
    g.add_argument("--unit", default="all")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--eps", type=float, default=1e-6)

    t = sub.add_parser("train", help="toy training on a synthetic scene")
    t.add_argument("--config", default=None)
    t.add_argument("--scene", default=None, help="scene manifest path")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a scene")
    e.add_argument("--checkpoint", default=None)
    e.add_argument("--oracle", action="store_true",
                   help="evaluate ground truth against itself (pipeline check)")
    e.add_argument("--config", default=None)
    e.add_argument("--scene", default=None)
    e.add_argument("--seed", type=int, default=None)
    e.add_argument("--threshold", type=float, default=None)
    e.add_argument("--out", required=True)

    b = sub.add_parser("bench", help="temporal-stage cost sweep over frame counts")
    b.add_argument("--frames", default=None, help="comma list, default 1,3,5,7,9")
    b.add_argument("--scales", default=None, help="comma list of block sizes")
    b.add_argument("--repeats", type=int, default=1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default=None)

    s = sub.add_parser("scene", help="export a replayable scene manifest")
    s.add_argument("--config", default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)
    return parser


COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "train": cmd_train,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "scene": cmd_scene,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
