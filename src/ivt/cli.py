"""Command-line entry point: gradient checks, training, evaluation, benchmarks.

Exit codes are a stable contract: 0 success, 1 a gradient check above
its tolerance (``ivt gradcheck``), 2 usage or config error (``ConfigError``,
``ContractError``), 3 numeric failure (``NumericError``). ``ivt train`` and
``ivt eval`` write a JSON manifest into ``--out``, and ``ivt bench`` does
when given ``--out``. It is sufficient to reproduce the run (command, config
snapshot with its seeds, artifact paths, input hashes, timestamps) and holds
the machine facts that bitwise results depend on (Python, numpy and BLAS
versions, BLAS thread variables, git revision). ``ivt scene`` writes a
settings file that replays a run instead, and ``ivt gradcheck`` writes none.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .gradcheck import GRAD_TOL, GRAD_UNITS
from .codec import poses_from_lines, poses_to_lines
from .blocks import block_params
from .checkpoint import save_params
from .synth import SceneSpec, generate
from .tensor import ConfigError, NumericError, Tensor, macs
from .train import TrainConfig, check_run, evaluate, load_model, train
from .video import ita

EXIT_OK = 0
EXIT_GRAD_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"gradcheck: --seed {args.seed}; need a seed >= 0")
    units = list(GRAD_UNITS) if args.unit == "all" else [args.unit]
    worst = 0.0
    for unit in units:
        rng = np.random.default_rng(args.seed)
        err = GRAD_UNITS[unit](rng)
        worst = max(worst, err)
        status = "ok" if err <= GRAD_TOL else "FAIL"
        print(f"{unit:10s} max_rel_err={err:.3e} [{status}]")
    return EXIT_OK if worst <= GRAD_TOL else EXIT_GRAD_FAIL


# -- config files ------------------------------------------------------------------


def read_config(path) -> tuple[SceneSpec, TrainConfig]:
    """INI settings file: [scene] and [train] set SceneSpec and TrainConfig fields.

    Each value is parsed as the type of its field's default. An optional
    [poses] section holds the scene's poses in the codec's line format and
    must equal, bitwise, the poses generated from [scene]. `ivt scene`
    writes all three sections, so its manifest replays a run on its own.
    Every command applies the same rules: the two must pass ``check_run``.
    """
    parser = _ini()
    if path is not None:
        try:
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"config file {path} not found or unreadable")
        except configparser.Error as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
        unknown = set(parser) - {parser.default_section, "scene", "train", "poses"}
        if unknown:
            raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}")
    scene = _read_section(parser, path, "scene", SceneSpec)
    cfg = _read_section(parser, path, "train", TrainConfig)
    check_run(scene, cfg)
    if parser.has_section("poses"):
        _check_poses(path, scene, list(parser["poses"]))
    return scene, cfg


def _ini() -> configparser.ConfigParser:
    # Pose lines are keys without values.
    return configparser.ConfigParser(allow_no_value=True, interpolation=None)


def _read_section(parser, path, name: str, cls):
    if not parser.has_section(name):
        return cls()
    defaults = asdict(cls())
    section = parser[name]
    kwargs = {}
    for key, text in section.items():
        if key not in defaults:
            raise ConfigError(f"{path} [{name}]: unknown key {key!r}")
        default = defaults[key]
        try:
            if text is None:
                raise ValueError("no value")
            if isinstance(default, bool):
                kwargs[key] = section.getboolean(key)
            elif isinstance(default, tuple):
                kwargs[key] = tuple(type(default[0])(v) for v in text.replace(",", " ").split())
            else:
                kwargs[key] = type(default)(text)
        except ValueError as exc:
            raise ConfigError(f"{path} [{name}] {key} = {text!r}: expected "
                              f"{type(default).__name__} ({exc})") from None
    return cls(**kwargs)


def _check_poses(path, scene: SceneSpec, lines: list[str]) -> None:
    try:
        got = poses_from_lines(lines)
    except ValueError as exc:
        raise ConfigError(f"{path} [poses]: {exc}") from None
    want = dict(enumerate(generate(scene)[1].poses))

    def bits(poses):
        return [(p.score, p.joints.tobytes()) for p in poses]

    for t in sorted(set(got) | set(want)):
        if bits(got.get(t, [])) != bits(want.get(t, [])):
            raise ConfigError(f"{path} [poses]: frame {t} differs from the "
                              "poses generated from [scene]")


def _hash_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_revision(root: Path) -> str:
    """HEAD commit read from root/.git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    """Versions, BLAS build and threads, and the source revision of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_revision": git_revision(Path(__file__).resolve().parents[2]),
    }


def write_manifest(out_dir: Path, command: str, config: dict, artifacts: list[str],
                   inputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "artifacts": artifacts,
        "input_hashes": {str(p): _hash_file(p) for p in inputs if p and Path(p).is_file()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine_facts(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


# -- train / eval / bench / scene ---------------------------------------------------


def _check_out_dir(out) -> None:
    if out and Path(out).exists() and not Path(out).is_dir():
        raise ConfigError(f"--out {out} exists and is not a directory")


def cmd_train(args) -> int:
    _check_out_dir(args.out)
    scene, cfg = read_config(args.config)
    result = train(scene, cfg)  # a failed run leaves no --out directory
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_params(out_dir / "checkpoint.ivtc", result.model.named_params())
    result.write_log(out_dir / "train_log.csv")
    write_manifest(out_dir, "train", {"scene": asdict(scene), "train": asdict(cfg)},
                   ["checkpoint.ivtc", "train_log.csv"], [args.config])
    print(f"final loss {result.loss_history[-1]:.6g} after {cfg.steps} steps")
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_out_dir(args.out)
    scene, cfg = read_config(args.config)
    if args.oracle:
        # Splice ground truth in place of predictions: checks the
        # matching/metric/report path end to end (all errors must be zero).
        from .metrics import match_and_evaluate
        _, truth = generate(scene)
        report = match_and_evaluate(truth.poses, truth.poses)
    else:
        model = load_model(scene, cfg, args.checkpoint)
        report = evaluate(model, scene, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "eval.csv")
    write_manifest(out_dir, "eval", {"scene": asdict(scene), "train": asdict(cfg),
                                     "oracle": args.oracle},
                   ["eval.csv"], [args.config, args.checkpoint])
    agg = report.mpjpe
    print(f"matched={report.matched_pairs} missed={report.missed} "
          f"mpjpe={'n/a' if agg is None else format(agg, '.6g')}")
    return EXIT_OK


def temporal_macs(frames: int, scene: SceneSpec, cfg: TrainConfig) -> tuple[int, float]:
    """Multiply-accumulate count and wall time of one layer's temporal stage.

    Runs ITA once per scale of the run's model (``check_run``) on random
    (frames, N_s, D_s) tokens, with N_s and D_s those of the scene's map.
    """
    video_cfg = check_run(scene, cfg)
    rng = np.random.default_rng(0)
    macs.reset()
    wall = 0.0
    for geom, d_s in zip(video_cfg.grids(scene.height, scene.width), video_cfg.token_dims):
        params = block_params(rng, d_s)
        tokens = Tensor(rng.uniform(-1, 1, size=(frames, geom.n, d_s)))
        start = time.perf_counter()
        with macs.counting():
            ita(tokens, params, video_cfg.heads)
        wall += time.perf_counter() - start
    return macs.by_scope.get("ita", 0), wall


def _frame_counts(text: str) -> list[int]:
    try:
        frames = [int(v) for v in text.split(",")]
    except ValueError:
        frames = []
    if not frames or min(frames) < 1:
        raise ConfigError(f"bench: --frames {text!r}; need a comma list of frame counts >= 1")
    return frames


def cmd_bench(args) -> int:
    _check_out_dir(args.out)
    frames = _frame_counts(args.frames)
    scene, cfg = read_config(args.config)
    rows = []
    print(f"{'frames':>6s} {'temporal_macs':>14s} {'wall_s':>8s}")
    for t in frames:
        count, wall = temporal_macs(t, scene, cfg)
        rows.append({"frames": t, "temporal_macs": count, "wall_s": wall})
        print(f"{t:6d} {count:14d} {wall:8.3f}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "bench.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["frames", "temporal_macs", "wall_s"])
            writer.writeheader()
            writer.writerows(rows)
        write_manifest(out_dir, "bench", {"scene": asdict(scene), "train": asdict(cfg),
                                          "frames": frames},
                       ["bench.csv"], [args.config])
    return EXIT_OK


def cmd_scene(args) -> int:
    scene, cfg = read_config(args.config)
    _, truth = generate(scene)
    manifest = _ini()
    for name, section in (("scene", scene), ("train", cfg)):
        manifest[name] = {key: ", ".join(map(str, v)) if isinstance(v, tuple) else str(v)
                          for key, v in asdict(section).items()}
    manifest["poses"] = dict.fromkeys(line for t, poses in enumerate(truth.poses)
                                      for line in poses_to_lines(t, poses))
    with open(args.out, "w", encoding="utf-8") as fh:
        manifest.write(fh)
    print(f"wrote settings file to {args.out}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ivt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gradcheck", help="finite-difference checks per unit")
    g.set_defaults(run=cmd_gradcheck)
    g.add_argument("--unit", default="all", choices=["all", *GRAD_UNITS])
    g.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("train", help="toy training on a synthetic scene")
    t.set_defaults(run=cmd_train)
    t.add_argument("--config", default=None)
    t.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a scene")
    e.set_defaults(run=cmd_eval)
    source = e.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint", default=None)
    source.add_argument("--oracle", action="store_true",
                        help="evaluate ground truth against itself (pipeline check)")
    e.add_argument("--config", default=None)
    e.add_argument("--out", required=True)

    b = sub.add_parser("bench", help="temporal-stage cost sweep over frame counts")
    b.set_defaults(run=cmd_bench)
    b.add_argument("--config", default=None)
    b.add_argument("--frames", default="1,3,5,7,9", help="comma list of frame counts")
    b.add_argument("--out", default=None)

    s = sub.add_parser("scene", help="write a settings file, poses included, that replays a run")
    s.set_defaults(run=cmd_scene)
    s.add_argument("--config", default=None)
    s.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
