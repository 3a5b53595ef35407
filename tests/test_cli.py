"""Command-line interface: exit codes, artifacts, manifests, reproducibility."""

import argparse
import json
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ivt.checkpoint import save_params
from ivt.cli import build_parser, git_revision, main, read_config
from ivt.codec import poses_from_lines
from ivt.gradcheck import GRAD_UNITS
from ivt.synth import generate
from ivt.tensor import Tensor, macs
from ivt.train import TrainConfig, build_model

TINY_CONFIG = """\
[scene]
seed = 7
persons = 1
joints = 2
frames = 2
height = 16
width = 16
channels = 1
amplitude = 0.0
blob_sigma = 0.8
body_radius = 1.5

[train]
steps = {steps}
frames = 2
layers = 1
scales = 4
heads = 2
fuse_heads = 2
head_hidden = 4
seed = 3
threshold = 0.05
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG.format(steps=10))
    return str(path)


def test_gradcheck_known_unit_exit_zero(capsys):
    assert main(["gradcheck", "--unit", "mhsa", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "mhsa" in out and "ok" in out


def test_gradcheck_unknown_unit_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--unit", "bogus"])
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_gradcheck_full_pipeline_unit_passes(capsys):
    assert main(["gradcheck", "--unit", "full"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("full") and "[ok]" in out


def test_gradcheck_above_tolerance_exit_one(monkeypatch, capsys):
    monkeypatch.setitem(GRAD_UNITS, "mhsa", lambda rng: 1.0)
    assert main(["gradcheck", "--unit", "mhsa"]) == 1
    assert "mhsa" in (out := capsys.readouterr().out) and "[FAIL]" in out


def test_gradcheck_negative_seed_exit_two_and_name_the_flag(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--seed" in captured.err
    assert captured.out == ""  # rejected before the first unit


def test_diverging_train_exits_three_names_the_step_and_saves_nothing(tmp_path):
    # A subprocess, because the run's overflow warnings are errors under pytest.
    config = tmp_path / "diverge.cfg"
    config.write_text(TINY_CONFIG.format(steps=10) + "lr = 1e200\nclip_norm = 0\n")
    out = tmp_path / "run"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "ivt.cli", "train", "--config", str(config),
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 3, proc.stderr[-2000:]
    assert "numeric failure: train: step " in proc.stderr
    assert not out.exists()


def test_train_then_eval_end_to_end(tmp_path, tiny_config, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", tiny_config, "--out", str(out)]) == 0
    assert (out / "checkpoint.ivtc").is_file()
    assert (out / "train_log.csv").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["train"]["steps"] == 10
    assert "checkpoint.ivtc" in manifest["artifacts"]
    machine = manifest["machine"]
    assert machine["python"] == platform.python_version()
    assert machine["numpy"] == np.__version__
    assert {"blas", "blas_version"} <= set(machine)
    assert set(machine["blas_thread_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS"}
    assert machine["git_revision"] == "unknown" or len(machine["git_revision"]) == 40

    eval_out = tmp_path / "eval"
    code = main(["eval", "--checkpoint", str(out / "checkpoint.ivtc"),
                 "--config", tiny_config, "--out", str(eval_out)])
    assert code == 0
    assert (eval_out / "eval.csv").is_file()
    assert (eval_out / "manifest.json").is_file()


def test_git_revision_reads_loose_and_packed_refs(tmp_path):
    assert git_revision(tmp_path) == "unknown"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs\n" + "a" * 40 + " refs/heads/main\n")
    assert git_revision(tmp_path) == "a" * 40
    (git / "refs" / "heads" / "main").write_text("b" * 40 + "\n")
    assert git_revision(tmp_path) == "b" * 40
    (git / "HEAD").write_text("c" * 40 + "\n")  # detached
    assert git_revision(tmp_path) == "c" * 40


def test_train_reruns_give_identical_checkpoints(tmp_path, tiny_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", tiny_config, "--out", str(out_a)]) == 0
    assert main(["train", "--config", tiny_config, "--out", str(out_b)]) == 0
    assert (out_a / "checkpoint.ivtc").read_bytes() == (out_b / "checkpoint.ivtc").read_bytes()
    assert (out_a / "train_log.csv").read_text() == (out_b / "train_log.csv").read_text()


def test_eval_oracle_splice_reports_zero_error(tmp_path, tiny_config):
    out = tmp_path / "oracle"
    assert main(["eval", "--oracle", "--config", tiny_config, "--out", str(out)]) == 0
    lines = (out / "eval.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    mpjpe_col = header.index("mpjpe")
    for line in lines[1:]:
        value = line.split(",")[mpjpe_col]
        assert float(value) == 0.0


@pytest.mark.parametrize("command", ["train", "eval", "bench"])
def test_out_that_is_a_file_exits_two_before_the_run(tmp_path, tiny_config, capsys,
                                                     monkeypatch, command):
    def run(*args):
        pytest.fail(f"{command} ran although --out is a file")

    monkeypatch.setattr("ivt.cli.train", run)
    monkeypatch.setattr("ivt.cli.evaluate", run)
    monkeypatch.setattr("ivt.cli.temporal_macs", run)
    ckpt = tmp_path / "model.ivtc"
    save_params(ckpt, build_model(*read_config(tiny_config)).named_params())
    out = tmp_path / "taken"
    out.write_text("kept\n")
    extra = {"train": ["--config", tiny_config],
             "eval": ["--config", tiny_config, "--checkpoint", str(ckpt)],
             "bench": ["--config", tiny_config, "--frames", "1,3"]}[command]
    assert main([command, *extra, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err
    assert captured.out == ""
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("given", ["neither", "both"])
def test_eval_without_checkpoint_or_oracle_exit_two(tmp_path, tiny_config, capsys, given):
    # --checkpoint and --oracle are the two sources of predictions: exactly one is given.
    ckpt = tmp_path / "x.ivtc"
    ckpt.write_bytes(b"never read")
    flags = ["--oracle", "--checkpoint", str(ckpt)] if given == "both" else []
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", tiny_config, *flags, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "--checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_scene_comes_only_from_the_config(tmp_path, tiny_config, capsys, command):
    manifest = tmp_path / "scene.ini"
    assert main(["scene", "--config", tiny_config, "--out", str(manifest)]) == 0
    extra = ["--oracle"] if command == "eval" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", tiny_config, *extra, "--scene", str(manifest),
              "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "--scene" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_eval_threshold_comes_only_from_the_config(tmp_path, tiny_config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--oracle", "--config", tiny_config, "--threshold", "0.5",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "--threshold" in capsys.readouterr().err


def test_scene_export_and_train_from_manifest(tmp_path, tiny_config):
    scene_path = tmp_path / "scene.txt"
    assert main(["scene", "--config", tiny_config, "--out", str(scene_path)]) == 0
    assert scene_path.is_file()
    out = tmp_path / "run"
    assert main(["train", "--config", str(scene_path), "--out", str(out)]) == 0


def test_bench_emits_frame_sweep(tmp_path, tiny_config):
    out = tmp_path / "bench"
    assert main(["bench", "--config", tiny_config, "--frames", "1,3", "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "frames,temporal_macs,wall_s"
    assert len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    assert int(rows[1][1]) > int(rows[0][1])  # more frames, more work


def test_bench_takes_odd_block_sizes(tmp_path, tiny_config):
    # Block size 1 gives the fuse block width 1, which only one head divides.
    config = tmp_path / "odd.cfg"
    config.write_text(Path(tiny_config).read_text().replace("scales = 4\n", "scales = 1, 2\n")
                      .replace("fuse_heads = 2\n", "fuse_heads = 1\n"))
    assert main(["bench", "--config", str(config), "--frames", "1,2"]) == 0


def test_bench_takes_scales_that_do_not_divide_16(tmp_path, tiny_config, capsys):
    """(2, 3) tile an 18x18 map; block size 3 gives the fuse block width 9."""
    config = tmp_path / "18.cfg"
    config.write_text(Path(tiny_config).read_text().replace("scales = 4\n", "scales = 2, 3\n")
                      .replace("fuse_heads = 2\n", "fuse_heads = 1\n")
                      .replace("height = 16\n", "height = 18\n")
                      .replace("width = 16\n", "width = 18\n"))
    assert main(["bench", "--config", str(config), "--frames", "1"]) == 0
    frames, count, _ = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert frames == "1" and int(count) > 0


# The fixture is the defaults; the multi-scale clip is the defaults plus these.
BENCH_RUNS = {"fixture": "", "multiscale": "[scene]\npersons = 2\namplitude = 1.0\n\n"
                                           "[train]\nscales = 2, 4, 8\n"}


@pytest.mark.parametrize("run", list(BENCH_RUNS))
def test_bench_measures_the_configured_model(tmp_path, capsys, run):
    """Bench's row at the run's clip length is one layer's ITA MACs in the
    run's own model forward."""
    config = tmp_path / "run.ini"
    config.write_text(BENCH_RUNS[run])
    scene, cfg = read_config(config)
    assert main(["bench", "--config", str(config), "--frames", str(scene.frames)]) == 0
    row = capsys.readouterr().out.strip().splitlines()[-1].split()
    features, truth = generate(scene)
    macs.reset()
    with macs.counting():
        build_model(scene, cfg).forward(Tensor(features), truth.flows)
    assert int(row[1]) * cfg.layers == macs.by_scope["ita"]


@pytest.mark.parametrize("flag, value", [
    ("--frames", "0"), ("--frames", "3,-1"), ("--frames", ""), ("--frames", "x"),
    ("--frames", "1,,3"),
])
def test_bench_rejects_bad_values_and_names_the_key(tmp_path, capsys, flag, value):
    out = tmp_path / "bench"
    assert main(["bench", f"{flag}={value}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert not out.exists()
    assert captured.out == ""  # rejected before the table header


@pytest.mark.parametrize("keep", [5, "half"])
def test_eval_on_a_cut_checkpoint_exit_two_and_name_the_file(tmp_path, tiny_config, capsys,
                                                             keep):
    ckpt = tmp_path / "model.ivtc"
    save_params(ckpt, build_model(*read_config(tiny_config)).named_params())
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[:len(raw) // 2 if keep == "half" else keep])
    out = tmp_path / "eval"
    assert main(["eval", "--config", tiny_config, "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 2
    assert f"{ckpt}: byte " in capsys.readouterr().err
    assert not out.exists()


def test_config_unknown_key_exit_two(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[train]\nnonsense = 1\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_exit_two(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def _edit_pose_line(text):
    """Move frame 1's root x by half a cell."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("1 0 "))
    parts = lines[i].split()
    parts[3] = repr(float(parts[3]) + 0.5)
    lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


# (file edited, edit, text the error must name). "config" edits the tiny
# config; "scene" edits the settings file that `ivt scene` writes from it.
# Either is then passed as --config.
BAD_INPUTS = {
    "manifest-unknown-key": ("scene", lambda t: t.replace("[scene]\n", "[scene]\nbogus = 1\n"),
                             "bogus"),
    "float-persons": ("config", lambda t: t.replace("persons = 1\n", "persons = 2.0\n"),
                      "persons"),
    "float-seed": ("config", lambda t: t.replace("seed = 7\n", "seed = 1.5\n"), "seed"),
    "no-section-header": ("config", lambda t: t.replace("[scene]\n", ""), "seed"),
    "duplicate-section": ("config", lambda t: t + "[scene]\nseed = 8\n", "scene"),
    "bad-boolean": ("config", lambda t: t + "teacher_forcing = maybe\n", "teacher_forcing"),
    "edited-pose-line": ("scene", _edit_pose_line, "frame 1"),
    "pose-person-not-an-int": ("scene", lambda t: t.replace("\n1 0 ", "\n1 banana ", 1),
                               "banana"),
    "pose-person-out-of-order": ("scene", lambda t: t.replace("\n1 0 ", "\n1 7 ", 1),
                                 "person '7'"),
    "frames-mismatch": ("config", lambda t: t.replace("frames = 2\n", "frames = 3\n", 1),
                        "frames"),
    "zero-scale": ("config", lambda t: t.replace("scales = 4\n", "scales = 0\n"), "scales"),
    "negative-scale": ("config", lambda t: t.replace("scales = 4\n", "scales = -8\n"),
                       "scales"),
    "repeated-scale": ("config", lambda t: t.replace("scales = 4\n", "scales = 8 8\n"),
                       "scales"),
    "no-scales": ("config", lambda t: t.replace("scales = 4\n", "scales =\n"), "scales"),
    "negative-layers": ("config", lambda t: t.replace("layers = 1\n", "layers = -1\n"),
                        "layers"),
    # The one scale's token is J*C*4^2 = 32 wide and its fuse block C*4^2 = 16.
    "indivisible-heads": ("config", lambda t: t.replace("heads = 2\n", "heads = 3\n", 1),
                          "heads = 3"),
    "indivisible-fuse-heads": ("config",
                               lambda t: t.replace("fuse_heads = 2\n", "fuse_heads = 3\n"),
                               "fuse_heads"),
    # The scene's roots reach pixel 9, and 9 / 16 rounds past the one block-16 head cell.
    "root-beyond-head-grid": ("config", lambda t: t.replace("scales = 4\n", "scales = 16\n"),
                              "scales"),
    "indivisible-map": ("config", lambda t: t.replace("scales = 4\n", "scales = 3\n"),
                        "block size 3"),
    "zero-threshold": ("config", lambda t: t.replace("threshold = 0.05\n", "threshold = 0\n"),
                       "threshold"),
    "negative-alpha": ("config", lambda t: t + "alpha = -1\n", "alpha"),
    # Values the scene generator or the model cannot run with, rejected before
    # anything is written.
    "zero-channels": ("config", lambda t: t.replace("channels = 1\n", "channels = 0\n"),
                      "channels"),
    "zero-head-hidden": ("config",
                         lambda t: t.replace("head_hidden = 4\n", "head_hidden = 0\n"),
                         "head_hidden"),
    "nan-lr": ("config", lambda t: t + "lr = nan\n", "lr"),
    "nan-clip-norm": ("config", lambda t: t + "clip_norm = nan\n", "clip_norm"),
    "nan-milestones": ("config", lambda t: t + "milestones = 0.5 nan\n", "milestones"),
    "zero-blob-sigma": ("config", lambda t: t.replace("blob_sigma = 0.8\n", "blob_sigma = 0\n"),
                        "blob_sigma"),
    "negative-train-seed": ("config", lambda t: t.replace("seed = 3\n", "seed = -1\n"),
                            "seed = -1"),
    "negative-scene-seed": ("config", lambda t: t.replace("seed = 7\n", "seed = -1\n"),
                            "seed = -1"),
    "negative-body-radius": ("config",
                             lambda t: t.replace("body_radius = 1.5\n", "body_radius = -1\n"),
                             "body_radius"),
    "nan-amplitude": ("config", lambda t: t.replace("amplitude = 0.0\n", "amplitude = nan\n"),
                      "amplitude"),
    "amplitude-exits-grid": ("config",
                             lambda t: t.replace("amplitude = 0.0\n", "amplitude = 9.0\n"),
                             "amplitude"),
    "nan-depth-max": ("config", lambda t: t.replace("[train]\n", "depth_max = nan\n\n[train]\n"),
                      "depth_max"),
    "zero-height": ("config", lambda t: t.replace("height = 16\n", "height = 0\n"), "height"),
    # SceneSpec has no target_sigma: the 2D offset targets need no sigma.
    "target-sigma": ("config",
                     lambda t: t.replace("[scene]\n", "[scene]\ntarget_sigma = 2.0\n"),
                     "target_sigma"),
    # TrainConfig has no head_sigma or max_people: both are constants of ivt.train.
    "head-sigma": ("config", lambda t: t + "head_sigma = 1.0\n", "head_sigma"),
    "max-people": ("config", lambda t: t + "max_people = 8\n", "max_people"),
}


# The commands that read a settings file, each with the flags it needs besides
# --config and --out; every one applies the same rules.
SETTINGS_COMMANDS = (("train", []), ("eval", ["--oracle"]), ("scene", []), ("bench", []))


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_settings_exit_two_and_name_the_key(tmp_path, tiny_config, capsys, case):
    target, edit, named = BAD_INPUTS[case]
    path = tmp_path / "bad.ini"
    if target == "config":
        path.write_text(edit(Path(tiny_config).read_text()))
    else:
        assert main(["scene", "--config", tiny_config, "--out", str(path)]) == 0
        path.write_text(edit(path.read_text()))
    capsys.readouterr()
    for command, extra in SETTINGS_COMMANDS:
        out = tmp_path / f"{command}-out"
        assert main([command, "--config", str(path), *extra, "--out", str(out)]) == 2, command
        assert named in capsys.readouterr().err, command
        assert not out.exists(), command  # rejected before the run starts


# Settings files no machine can hold, each with what check_run reports.
TOO_BIG = {
    # The defaults before the convergence fixture became them (J=15, C=16,
    # scales (2, 4, 8), head_hidden 16): parameters, their gradients and
    # Adam's moments.
    "[scene]\njoints = 15\nchannels = 16\n\n[train]\nscales = 2, 4, 8\nhead_hidden = 16\n":
        "10,076,531,324 parameters, 300.3 GiB",
    # The defaults' 64x64 clip over 10**9 frames, and with 10**12 persons:
    # features, flows and poses.
    "[scene]\nframes = 1000000000\n\n[train]\nframes = 1000000000\n":
        "the clip takes 91597.4 GiB",
    "[scene]\npersons = 1000000000000\n": "the clip takes 223517.4 GiB",
}


def test_settings_too_big_for_memory_exit_two_before_anything_is_built(tmp_path, capsys,
                                                                       monkeypatch):
    def built(*args):
        pytest.fail("a model or a scene was built")

    for name in ("ivt.train.IVTModel", "ivt.train.generate", "ivt.cli.generate"):
        monkeypatch.setattr(name, built)
    path = tmp_path / "too-big.ini"
    for text, need in TOO_BIG.items():
        path.write_text(text)
        for command, extra in SETTINGS_COMMANDS:
            out = tmp_path / f"{command}-out"
            assert main([command, "--config", str(path), *extra, "--out", str(out)]) == 2, command
            err = capsys.readouterr().err
            assert need in err and "physical memory" in err, (command, err)
            assert not out.exists(), command


def test_config_values_typed_by_field(tmp_path):
    path = tmp_path / "typed.cfg"
    path.write_text("[scene]\namplitude = 1\n\n"
                    "[train]\nscales = 2, 4\nmilestones = 0.5\nteacher_forcing = off\n")
    scene, cfg = read_config(path)
    assert type(scene.amplitude) is float and scene.amplitude == 1.0
    assert cfg.scales == (2, 4) and cfg.milestones == (0.5,)
    assert cfg.teacher_forcing is False


# -- scene manifests ------------------------------------------------------------------

MANIFEST_SCENE = """\
[scene]
seed = 21
persons = 2
joints = 3
frames = 4
height = 32
width = 32
channels = 4
amplitude = 1.5
blob_sigma = 1.0
body_radius = 3.0

[train]
frames = 4
"""


def test_manifest_round_trip(tmp_path):
    config = tmp_path / "scene.cfg"
    config.write_text(MANIFEST_SCENE.replace("seed = 21\n", "seed = 22\n"))
    manifest = tmp_path / "scene.ini"
    assert main(["scene", "--config", str(config), "--out", str(manifest)]) == 0
    scene = read_config(config)[0]
    assert scene.seed == 22
    assert read_config(manifest) == (scene, TrainConfig(frames=4))  # checks [poses] too
    lines = [line for line in manifest.read_text().split("[poses]\n")[1].splitlines() if line]
    back = poses_from_lines(lines)
    _, truth = generate(scene)
    assert [len(back[t]) for t in range(scene.frames)] == [2] * scene.frames
    for t, frame in enumerate(truth.poses):
        for want, got in zip(frame, back[t]):
            assert got.joints.tobytes() == want.joints.tobytes() and got.score == want.score


@pytest.mark.parametrize("command", ["scene", "train", "eval", "bench"])
def test_scene_seed_comes_only_from_the_config(tmp_path, capsys, command):
    # Each seed comes only from its section: [scene] seed or [train] seed.
    config = tmp_path / "scene.cfg"
    config.write_text(MANIFEST_SCENE)
    args = ["--config", str(config)]
    args += ["--oracle"] if command == "eval" else []  # eval's one required choice
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--seed", "3", "--out", str(tmp_path / "s.ini")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "s.ini").exists()


def test_manifest_replays_same_scene(tmp_path, tiny_config):
    # The settings file `ivt scene` writes holds every [train] field, defaults
    # included, tuples and booleans too, so it replays the run with no edit.
    config = tmp_path / "run.cfg"
    config.write_text(Path(tiny_config).read_text().replace("scales = 4\n", "scales = 4, 8\n")
                      + "milestones = 0.25, 0.75\nteacher_forcing = off\nlr = 0.0007\n")
    manifest = tmp_path / "scene.ini"
    assert main(["scene", "--config", str(config), "--out", str(manifest)]) == 0
    assert read_config(manifest) == read_config(config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(manifest), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(config), "--out", str(out_b)]) == 0
    assert (out_a / "checkpoint.ivtc").read_bytes() == (out_b / "checkpoint.ivtc").read_bytes()


# Every flag of every command. A flag added or removed is a change to this set
# and to the README's command-line section.
FLAGS = {
    "gradcheck": {"--unit", "--seed"},
    "train": {"--config", "--out"},
    "eval": {"--checkpoint", "--oracle", "--config", "--out"},
    "bench": {"--config", "--frames", "--out"},
    "scene": {"--config", "--out"},
}


def test_flag_inventory():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    got = {name: {flag for action in sub._actions for flag in action.option_strings}
           - {"-h", "--help"} for name, sub in commands.items()}
    assert got == FLAGS
    assert sum(map(len, FLAGS.values())) == 13


def readme_commands() -> list[list[str]]:
    """The `ivt ...` lines of the README's "Command line" block, as argv lists."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("ivt ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # The block shows every command, each writing its own --out directory;
    # `ivt scene` writes the settings file the others read.
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(FLAGS)
    outs = [(argv[0], argv[argv.index("--out") + 1]) for argv in commands if "--out" in argv]
    assert len({out for _, out in outs}) == len(outs)
    assert not [out for command, out in outs if command != "scene" and Path(out).suffix]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        if argv[0] == "scene":  # cut the 500-step default run to 2 steps
            path = Path(argv[argv.index("--out") + 1])
            text = path.read_text()
            assert "\nsteps = 500\n" in text
            path.write_text(text.replace("\nsteps = 500\n", "\nsteps = 2\n"))
