"""Command-line interface: exit codes, artifacts, manifests, reproducibility."""

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from ivt.cli import git_revision, main, read_config
from ivt.codec import poses_from_lines
from ivt.synth import generate
from ivt.train import TrainConfig

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
    assert main(["gradcheck", "--unit", "bogus"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_gradcheck_eps_out_of_range_exit_two():
    assert main(["gradcheck", "--unit", "mhsa", "--eps", "1.0"]) == 2


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


def test_eval_without_checkpoint_or_oracle_exit_two(tmp_path, tiny_config):
    assert main(["eval", "--config", tiny_config, "--out", str(tmp_path / "x")]) == 2


def test_scene_export_and_train_from_manifest(tmp_path, tiny_config):
    scene_path = tmp_path / "scene.txt"
    assert main(["scene", "--config", tiny_config, "--out", str(scene_path)]) == 0
    assert scene_path.is_file()
    out = tmp_path / "run"
    code = main(["train", "--config", tiny_config, "--scene", str(scene_path),
                 "--out", str(out)])
    assert code == 0


def test_bench_emits_frame_sweep(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--frames", "1,3", "--scales", "8",
                 "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "frames,temporal_macs,wall_s"
    assert len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    assert int(rows[1][1]) > int(rows[0][1])  # more frames, more work


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
# config passed as --config; "scene" edits a manifest from `ivt scene`
# passed as --scene.
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
    "frames-mismatch": ("config", lambda t: t.replace("frames = 2\n", "frames = 3\n", 1),
                        "frames"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_settings_exit_two_and_name_the_key(tmp_path, tiny_config, capsys, case):
    target, edit, named = BAD_INPUTS[case]
    path = tmp_path / "bad.ini"
    if target == "config":
        path.write_text(edit(Path(tiny_config).read_text()))
        argv = ["train", "--config", str(path)]
    else:
        assert main(["scene", "--config", tiny_config, "--out", str(path)]) == 0
        path.write_text(edit(path.read_text()))
        argv = ["train", "--config", tiny_config, "--scene", str(path)]
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()  # rejected before the run starts


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
"""


def test_manifest_round_trip(tmp_path):
    config = tmp_path / "scene.cfg"
    config.write_text(MANIFEST_SCENE.replace("seed = 21\n", "seed = 22\n"))
    manifest = tmp_path / "scene.ini"
    assert main(["scene", "--config", str(config), "--out", str(manifest)]) == 0
    scene = read_config(config)[0]
    assert scene.seed == 22
    assert read_config(manifest) == (scene, TrainConfig())  # checks [poses] too
    lines = [line for line in manifest.read_text().split("[poses]\n")[1].splitlines() if line]
    back = poses_from_lines(lines)
    _, truth = generate(scene)
    assert [len(back[t]) for t in range(scene.frames)] == [2] * scene.frames
    for t, frame in enumerate(truth.poses):
        for want, got in zip(frame, back[t]):
            assert got.joints.tobytes() == want.joints.tobytes() and got.score == want.score


def test_scene_seed_comes_only_from_the_config(tmp_path, capsys):
    # `--seed` means the train seed; `ivt scene` has no such option.
    config = tmp_path / "scene.cfg"
    config.write_text(MANIFEST_SCENE)
    with pytest.raises(SystemExit) as exc:
        main(["scene", "--config", str(config), "--seed", "3", "--out", str(tmp_path / "s.ini")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "s.ini").exists()


def test_manifest_replays_same_scene(tmp_path, tiny_config):
    manifest = tmp_path / "scene.ini"
    assert main(["scene", "--config", tiny_config, "--out", str(manifest)]) == 0
    text = Path(tiny_config).read_text()
    manifest.write_text(manifest.read_text() + text[text.index("[train]"):])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(manifest), "--out", str(out_a)]) == 0
    assert main(["train", "--config", tiny_config, "--out", str(out_b)]) == 0
    assert (out_a / "checkpoint.ivtc").read_bytes() == (out_b / "checkpoint.ivtc").read_bytes()
