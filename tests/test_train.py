"""Training loop: optimizer, schedule, determinism, checkpoints, evaluation."""

import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_ops
from ivt import igt, video
from ivt import tensor as T
from ivt.blocks import block_params, transformer_block_self
from ivt.cli import BLAS_THREAD_VARS
from ivt.checkpoint import load_params, save_params
from ivt.codec import Pose3D, encode_heatmap, encode_offsets
from ivt.metrics import match_and_evaluate
from ivt.synth import SceneSpec, generate
from ivt.tensor import ConfigError, ContractError, NumericError, Tensor
from ivt.losses import total_loss
from ivt.train import (Adam, IVTModel, ModelOutput, TrainConfig, _check_root_cells,
                       build_model, clip_loss, clip_targets, decode_output, evaluate,
                       load_model, lr_at, param_count, train)

RNG = np.random.default_rng


def tiny_scene(**kw):
    base = dict(seed=7, frames=2, height=16, width=16, blob_sigma=0.8, body_radius=1.5)
    base.update(kw)
    return SceneSpec(**base)


def tiny_config(**kw):
    base = dict(steps=2, frames=2, layers=1, scales=(4,), head_hidden=4, seed=3)
    base.update(kw)
    return TrainConfig(**base)


# -- checkpoint format ------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = RNG(0)
    params = {
        "a.weight": Tensor(rng.standard_normal((3, 4))),
        "b.bias": Tensor(rng.standard_normal(7)),
        "scalar": Tensor(np.array(np.pi)),
    }
    path = tmp_path / "p.ivtc"
    save_params(path, params)
    back = load_params(path)
    assert list(back) == list(params)
    for name in params:
        np.testing.assert_array_equal(back[name].data, params[name].data)
        assert back[name].data.dtype == np.float64


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ivtc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_params(path)


def test_cut_checkpoint_reads_whole_records_or_names_the_offset(tmp_path):
    rng = RNG(2)
    params = {"w": Tensor(rng.standard_normal((2, 3))), "s": Tensor(np.array(0.5)),
              "b": Tensor(rng.standard_normal(2))}
    path = tmp_path / "full.ivtc"
    save_params(path, params)
    raw = path.read_bytes()
    ends = {}  # file length after the first i whole records
    for i in range(len(params) + 1):
        part = tmp_path / f"first{i}.ivtc"
        save_params(part, dict(list(params.items())[:i]))
        ends[part.stat().st_size] = i
    cut = tmp_path / "cut.ivtc"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        if n in ends:
            back = load_params(cut)
            assert list(back) == list(params)[:ends[n]]
            for name, t in back.items():
                assert t.shape == params[name].shape
                assert t.data.tobytes() == params[name].data.tobytes()
        else:
            with pytest.raises(ValueError, match=rf"^{re.escape(str(cut))}: byte \d+: "):
                load_params(cut)


def test_checkpoint_that_repeats_a_name_names_the_offset(tmp_path):
    # One checkpoint followed by the records of another: the second "w" would
    # silently replace the first.
    first, second = tmp_path / "a.ivtc", tmp_path / "b.ivtc"
    save_params(first, {"w": Tensor(np.ones(2))})
    save_params(second, {"w": Tensor(np.full(2, 5.0))})
    joined = tmp_path / "joined.ivtc"
    joined.write_bytes(first.read_bytes() + second.read_bytes()[6:])
    offset = first.stat().st_size
    with pytest.raises(ValueError, match=rf"^{re.escape(str(joined))}: byte {offset}: "
                                         r"parameter 'w' is repeated"):
        load_params(joined)


def test_checkpoint_with_huge_name_length_names_the_offset(tmp_path):
    path = tmp_path / "p.ivtc"
    save_params(path, {"w": Tensor(np.ones(2))})
    raw = path.read_bytes()
    path.write_bytes(raw[:6] + b"\xff\xff\xff\xff" + raw[10:])
    with pytest.raises(ValueError, match="byte 10: need 4294967295 bytes"):
        load_params(path)


def test_checkpoint_file_is_byte_deterministic(tmp_path):
    rng = RNG(1)
    params = {"w": Tensor(rng.standard_normal((2, 2)))}
    p1, p2 = tmp_path / "a.ivtc", tmp_path / "b.ivtc"
    save_params(p1, params)
    save_params(p2, params)
    assert p1.read_bytes() == p2.read_bytes()


# -- optimizer and schedule ----------------------------------------------------------


def test_adam_moves_against_gradient():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.5, -0.5])
    opt = Adam({"p": p})
    before = p.data.copy()
    opt.step(0.1)
    assert p.data[0] < before[0] and p.data[1] > before[1]
    assert p.grad is None


def test_adam_first_step_size_is_lr():
    # With bias correction the first update has magnitude lr per coordinate.
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([3.0])
    Adam({"p": p}).step(0.01)
    assert p.data[0] == pytest.approx(-0.01, rel=1e-6)


def test_gradient_clipping_caps_global_norm():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.full(4, 10.0)
    opt = Adam({"p": p})
    norm = opt.clip_gradients(1.0)
    assert norm == pytest.approx(20.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)


def test_gradient_clipping_rescales_each_buffer_in_place():
    """Clipping keeps every leaf's gradient buffer and gives the bits of
    g * factor; backward leaves each leaf a buffer of its own."""
    rng = np.random.default_rng(5)
    params = block_params(rng, 8)
    x = Tensor(rng.uniform(-1, 1, size=(3, 8)), requires_grad=True)
    T.backward(T.tsum(transformer_block_self(x, params, 2)))
    grads = {k: p.grad for k, p in params.items()}
    assert all(g.base is None for g in grads.values())
    want = {k: g.copy() for k, g in grads.items()}
    norm = Adam(params).clip_gradients(1e-3)
    assert norm > 1e-3
    for k, p in params.items():
        assert p.grad is grads[k]
        assert p.grad.tobytes() == (want[k] * (1e-3 / norm)).tobytes(), k


def test_lr_schedule_two_milestone_drops():
    cfg = tiny_config(steps=100, lr=1e-3, milestones=(0.6, 0.8))
    assert lr_at(cfg, 0) == pytest.approx(1e-3)
    assert lr_at(cfg, 59) == pytest.approx(1e-3)
    assert lr_at(cfg, 60) == pytest.approx(1e-4)
    assert lr_at(cfg, 80) == pytest.approx(1e-5)
    assert lr_at(cfg, 99) == pytest.approx(1e-5)


def test_invalid_train_config_rejected():
    with pytest.raises(ConfigError, match="steps"):
        tiny_config(steps=0)
    with pytest.raises(ConfigError, match="lr"):
        tiny_config(lr=0.0)


# -- training ------------------------------------------------------------------------


def test_zero_lr_keeps_loss_constant():
    result = train(tiny_scene(), tiny_config(steps=3, lr=1e-30))
    hist = result.loss_history
    assert hist[0] == pytest.approx(hist[1], rel=1e-9)
    assert hist[0] == pytest.approx(hist[2], rel=1e-9)


def test_single_step_changes_parameters():
    scene, cfg = tiny_scene(), tiny_config(steps=1)
    before = {k: v.data.copy() for k, v in build_model(scene, cfg).named_params().items()}
    result = train(scene, cfg)
    after = result.model.named_params()
    changed = [k for k in before if not np.array_equal(before[k], after[k].data)]
    assert changed


def test_loss_history_deterministic_bitwise():
    scene, cfg = tiny_scene(), tiny_config(steps=3)
    a = train(scene, cfg).loss_history
    b = train(scene, cfg).loss_history
    assert a == b


# The convergence fixture (the defaults, seed 42), 3 steps; and perfbench's
# tiny 2-scale clip, whose CISA projects both scales to a common width.
BLOCK_CHAIN_RUNS = {
    "fixture": (SceneSpec(seed=42), TrainConfig(seed=42, steps=3)),
    "two-scale": (tiny_scene(height=32, width=32, amplitude=1.0, blob_sigma=1.0,
                             body_radius=2.0),
                  tiny_config(scales=(4, 8), steps=2)),
}


@pytest.mark.parametrize("run", BLOCK_CHAIN_RUNS, ids=list(BLOCK_CHAIN_RUNS))
def test_training_through_the_block_chain_is_bitwise_the_same(run, monkeypatch):
    """Every block (tokenizer fuse, CISA, ITA) built as the chain of one-op
    nodes trains to the same loss history, float.hex for float.hex, and
    charges the same MACs per scope."""
    scene, cfg = BLOCK_CHAIN_RUNS[run]
    features_np, truth = generate(scene)

    def history_and_macs():
        model = build_model(scene, cfg)
        macs = T.macs
        macs.reset()
        with macs.counting():
            model.forward(Tensor(features_np), truth.flows)
        counts = (macs.total, dict(macs.by_scope))
        return [float.hex(v) for v in train(scene, cfg).loss_history], counts

    fused = history_and_macs()
    calls = []

    def chain(*args):
        calls.append(1)
        return reference_ops.transformer_block_self(*args)

    for module in (igt, video):
        monkeypatch.setattr(module, "transformer_block_self", chain)
    assert history_and_macs() == fused
    assert calls and fused[1][1]["ita"] > 0 and fused[1][1]["cisa"] > 0


# Two steps on the 3-scale clip of perfbench's multiscale-train workload, whose
# attention matmuls are large enough for the BLAS to split them over threads.
MULTISCALE_HISTORY = """
import json
from ivt.synth import SceneSpec
from ivt.train import TrainConfig, train
scene = SceneSpec(seed=42, persons=2, amplitude=1.0)
cfg = TrainConfig(seed=42, steps=2, scales=(2, 4, 8))
print(json.dumps([float.hex(x) for x in train(scene, cfg).loss_history]))
"""


def test_loss_history_does_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parent.parent / "src")
    histories = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        env.update({v: threads for v in BLAS_THREAD_VARS})
        proc = subprocess.run([sys.executable, "-c", MULTISCALE_HISTORY], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        histories.append(json.loads(proc.stdout))
    assert len(histories[0]) == 2
    assert histories[0] == histories[1]


def test_defaults_are_the_benchmark_fixture():
    """perfbench keeps its own copy of the pinned runs. The fixture is the
    defaults, and the multi-scale run is the defaults with three overrides."""
    wl = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" /
                            "workloads.py"), run_name="perfbench_workloads")
    for s in (0, wl["BASE_SEED"]):
        assert SceneSpec(seed=s, **wl["FIXTURE_SCENE"]) == SceneSpec(seed=s)
        assert TrainConfig(seed=s, steps=500, **wl["FIXTURE_TRAIN"]) == TrainConfig(seed=s)
        assert (SceneSpec(seed=s, **wl["MULTISCALE_SCENE"])
                == SceneSpec(seed=s, persons=2, amplitude=1.0))
        assert (TrainConfig(seed=s, **wl["MULTISCALE_TRAIN"])
                == TrainConfig(seed=s, scales=(2, 4, 8)))


def test_import_ivt_loads_every_module_and_exports_no_names():
    # perfbench imports the package once and then looks each module up by name.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import json, sys, types, ivt; assert isinstance(ivt.train, types.ModuleType); "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ivt.'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == [f"ivt.{m}" for m in (
        "blocks", "checkpoint", "codec", "gradcheck", "igt", "losses", "metrics", "synth",
        "tensor", "train", "video")]


def test_scene_and_config_frames_must_agree():
    scene, cfg = tiny_scene(frames=3), tiny_config()
    with pytest.raises(ConfigError, match="frames"):
        train(scene, cfg)
    with pytest.raises(ConfigError, match="frames"):
        evaluate(build_model(scene, cfg), scene, cfg)


# The tiny scene's roots reach pixel 9: head cell 9 / 8 = 1.125 rounds into the
# 2x2 grid of block size 8, and 9 / 16 = 0.5625 out of the 1x1 grid of size 16.
def test_roots_in_the_last_head_block_train_for_every_seed():
    for seed in range(20):
        assert len(train(tiny_scene(seed=seed), tiny_config(scales=(8,), steps=1)).log_rows) == 1


def built(*args):
    pytest.fail("the check ran after the scene or the model was built")


def test_roots_beyond_the_head_grid_are_rejected_for_every_seed(monkeypatch):
    monkeypatch.setattr("ivt.train.generate", built)
    monkeypatch.setattr("ivt.train.build_model", built)
    for seed in range(20):
        with pytest.raises(ConfigError, match="scales"):
            train(tiny_scene(seed=seed), tiny_config(scales=(16,)))


def test_a_block_size_that_does_not_tile_the_map_is_rejected_before_generate(monkeypatch):
    monkeypatch.setattr("ivt.train.generate", built)
    monkeypatch.setattr("ivt.train.build_model", built)
    with pytest.raises(ConfigError, match="not divisible by block size 6"):
        train(SceneSpec(), TrainConfig(scales=(6,)))


def test_evaluate_rejects_a_scene_the_model_was_not_built_for(monkeypatch):
    model = build_model(SceneSpec(), TrainConfig())  # 64x64
    monkeypatch.setattr("ivt.train.generate", built)
    with pytest.raises(ConfigError, match="32x32 scene .* on 64x64"):
        evaluate(model, SceneSpec(height=32, width=32), TrainConfig())
    with pytest.raises(ConfigError, match="layers=2"):
        evaluate(model, SceneSpec(), TrainConfig(layers=2))


# The parameter counts of the fixture, the multi-scale run and the two-scale tiny run.
PARAM_COUNTS = {"fixture": ((SceneSpec(), TrainConfig()), 1_272_635),
                "multiscale": ((SceneSpec(persons=2, amplitude=1.0), TrainConfig(scales=(2, 4, 8))),
                               834_823),
                "two-scale": (BLOCK_CHAIN_RUNS["two-scale"], 510_195)}


@pytest.mark.parametrize("run", PARAM_COUNTS, ids=list(PARAM_COUNTS))
def test_param_count_is_the_built_models(run):
    (scene, cfg), count = PARAM_COUNTS[run]
    model = build_model(scene, cfg)
    assert sum(p.size for p in model.named_params().values()) == count
    assert param_count(model.cfg, scene.height, scene.width, cfg.head_hidden) == count


@settings(deadline=None, max_examples=8)
@given(scales=st.sampled_from([(4, 8), (8,)]), frames=st.integers(2, 3),
       seed=st.integers(0, 2**16), teacher=st.booleans())
def test_equal_frames_give_equal_outputs(scales, frames, seed, teacher):
    """A clip of equal frames with zero flows, gathered at the same offsets in
    every frame (given, or the model's own), gives the same heatmap, 3D-offset
    and 2D-offset maps in every frame, to 1e-12. Every parameter is perturbed
    first, so positional embeddings and output projections are not zero."""
    scene = tiny_scene(height=32, width=32, frames=frames, amplitude=1.0, blob_sigma=1.0,
                       body_radius=2.0)
    model = build_model(scene, tiny_config(frames=frames, scales=scales))
    rng = RNG(seed)
    for p in model.named_params().values():
        p.data = p.data + rng.uniform(-0.2, 0.2, size=p.shape)
    clip = np.repeat(generate(scene)[0][:1], frames, axis=0)
    flows = [np.zeros((2, 32, 32))] * (frames - 1)
    offsets = rng.uniform(-4, 4, size=(1, 2 * scene.joints, 32, 32))
    out = model.forward(Tensor(clip), flows,
                        np.repeat(offsets, frames, axis=0) if teacher else None)
    for name, m in (("heatmap", out.heatmap), ("offset3d", out.offset3d),
                    ("offset2d", out.offset2d)):
        np.testing.assert_allclose(m.data, np.repeat(m.data[:1], frames, axis=0),
                                   rtol=0, atol=1e-12, err_msg=name)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**16), persons=st.integers(1, 3), height=st.integers(16, 32),
       width=st.integers(16, 32), amplitude=st.floats(0.0, 3.0),
       blob_sigma=st.floats(0.3, 1.5), body_radius=st.floats(1.0, 5.0),
       scales=st.sets(st.integers(1, 8), min_size=1, max_size=3))
def test_accepted_scales_give_every_root_a_head_cell(scales, **kw):
    try:
        scene = tiny_scene(frames=3, **kw)
        cfg = tiny_config(frames=3, scales=tuple(scales), fuse_heads=1)
        _check_root_cells(scene, cfg)
    except ConfigError:
        assume(False)
    clip_targets(scene, generate(scene)[1], min(scales))


def test_training_log_columns(tmp_path):
    result = train(tiny_scene(), tiny_config(steps=2))
    path = tmp_path / "log.csv"
    result.write_log(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,lr,l1_3d,l1_2d,l2_hm,total,grad_norm,clipped"
    assert len(lines) == 3


def test_training_log_records_returned_grad_norm(monkeypatch):
    returned = []
    clip = Adam.clip_gradients

    def recording(self, max_norm):
        returned.append(clip(self, max_norm))
        return returned[-1]

    monkeypatch.setattr(Adam, "clip_gradients", recording)

    def logged(clip_norm):
        returned.clear()
        rows = train(tiny_scene(), tiny_config(steps=2, clip_norm=clip_norm)).log_rows
        assert [row["grad_norm"] for row in rows] == returned
        return [row["clipped"] for row in rows]

    assert logged(1e6) == [0, 0]
    first = returned[0]  # the first step's norm does not depend on clipping
    assert 1e-3 < first < 1e6
    assert logged(1e-3) == [1, 1]
    assert logged(first)[0] == 0  # clipped only when the norm exceeds the bound
    assert logged(0.0) == [0, 0]  # a zero bound disables clipping


def test_checkpoint_must_match_the_model_exactly(tmp_path):
    scene = tiny_scene()
    path = tmp_path / "model.ivtc"
    save_params(path, build_model(scene, tiny_config(layers=3)).named_params())
    with pytest.raises(ContractError, match="unexpected parameter video.layer1."):
        load_model(scene, tiny_config(layers=1), path)
    save_params(path, build_model(scene, tiny_config(layers=1)).named_params())
    with pytest.raises(ContractError, match="missing parameter video.layer1."):
        load_model(scene, tiny_config(layers=3), path)


def test_checkpoint_round_trip_preserves_evaluation(tmp_path):
    scene, cfg = tiny_scene(), tiny_config(steps=2)
    path = tmp_path / "model.ivtc"
    result = train(scene, cfg, checkpoint_path=path)
    direct = evaluate(result.model, scene, cfg)
    loaded = evaluate(load_model(scene, cfg, path), scene, cfg)
    assert direct.matched_pairs == loaded.matched_pairs
    assert direct.mpjpe == loaded.mpjpe
    assert direct.pa_mpjpe == loaded.pa_mpjpe


# -- evaluation -----------------------------------------------------------------------


def test_untrained_model_evaluates_without_error():
    scene, cfg = tiny_scene(), tiny_config()
    report = evaluate(build_model(scene, cfg), scene, cfg)
    assert report.matched_pairs + report.missed >= cfg.frames  # one gt per frame


def test_evaluate_gathers_at_predicted_offsets_even_with_teacher_forcing():
    scene, cfg = tiny_scene(), tiny_config(teacher_forcing=True)
    model = build_model(scene, cfg)
    forward, seen = model.forward, []

    def spy(features, flows, gather_offsets=None):
        seen.append(gather_offsets)
        return forward(features, flows, gather_offsets)

    model.forward = spy
    evaluate(model, scene, cfg)
    assert seen == [None]


def test_oracle_splice_gives_zero_mpjpe():
    # Feeding ground-truth poses as predictions must report exactly zero.
    scene = tiny_scene(frames=3)
    _, truth = generate(scene)
    report = match_and_evaluate(truth.poses, truth.poses)
    assert report.mpjpe == 0.0 and report.missed == 0


def test_decode_output_rescales_to_feature_cells():
    scene, cfg = tiny_scene(), tiny_config()
    model = build_model(scene, cfg)
    features, truth = generate(scene)
    (_, _, o2), _ = clip_targets(scene, truth, model.fine_k)
    out = model.forward(Tensor(features), truth.flows, o2)
    # Build a perfect head output at token-grid resolution and decode it.
    k = model.fine_k
    n = scene.height // k
    scaled = [Pose3D(np.column_stack([p.joints[:, 0] / k, p.joints[:, 1] / k,
                                      p.joints[:, 2]]))
              for p in truth.poses[0]]
    hm = encode_heatmap(scaled, n, n, 1.0)
    o3, _ = encode_offsets(scaled, scene.joints, n, n)
    out.heatmap = Tensor(np.stack([hm] * cfg.frames))
    out.offset3d = Tensor(np.stack([o3] * cfg.frames))
    decoded = decode_output(model, out, threshold=0.9, max_people=4)
    got = decoded[0][0].joints
    want = truth.poses[0][0].joints
    np.testing.assert_allclose(got[:, :2], want[:, :2], atol=1e-9)
    np.testing.assert_allclose(got[:, 2], want[:, 2], atol=1e-9)


# -- targets ---------------------------------------------------------------------------


def test_clip_targets_2d_offsets_are_the_xy_channels():
    scene = tiny_scene(persons=2, joints=3, frames=4, height=32, width=32, amplitude=1.0,
                       seed=9, blob_sigma=1.0, body_radius=3.0)
    _, truth = generate(scene)
    k, h, w = 4, scene.height, scene.width
    (hm, o3, o2), (mask_head, mask_feat) = clip_targets(scene, truth, k)
    assert o2.shape == (scene.frames, 2 * scene.joints, h, w)
    for t, poses in enumerate(truth.poses):
        off, mask = encode_offsets(poses, scene.joints, h, w)
        for j in range(scene.joints):
            np.testing.assert_array_equal(o2[t, 2 * j], off[3 * j])
            np.testing.assert_array_equal(o2[t, 2 * j + 1], off[3 * j + 1])
        np.testing.assert_array_equal(mask_feat[t], mask)
        scaled = [Pose3D(p.joints / (k, k, 1.0)) for p in poses]
        off, mask = encode_offsets(scaled, scene.joints, h // k, w // k)
        np.testing.assert_array_equal(o3[t], off)
        np.testing.assert_array_equal(mask_head[t], mask)
        np.testing.assert_array_equal(hm[t], encode_heatmap(scaled, h // k, w // k, 1.0))


def test_scene_without_people_gives_full_shape_zero_targets():
    scene = tiny_scene(persons=0, frames=3)
    _, truth = generate(scene)
    (hm, o3, o2), (mask_head, mask_feat) = clip_targets(scene, truth, 4)
    assert hm.shape == (3, 4, 4) and o3.shape == (3, 6, 4, 4) and o2.shape == (3, 4, 16, 16)
    assert mask_head.shape == (3, 4, 4) and mask_feat.shape == (3, 16, 16)
    for target in (hm, o3, o2, mask_head, mask_feat):
        assert not target.any()


def test_teacher_forcing_gathers_at_the_targets_2d_offsets(monkeypatch):
    scene, cfg = tiny_scene(), tiny_config(steps=1)
    seen = []
    forward = IVTModel.forward

    def spy(self, features, flows, gather_offsets=None):
        seen.append(gather_offsets)
        return forward(self, features, flows, gather_offsets)

    monkeypatch.setattr(IVTModel, "forward", spy)
    train(scene, cfg)
    (_, _, o2), _ = clip_targets(scene, generate(scene)[1], 4)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], o2)


def test_non_finite_loss_names_the_step_and_writes_no_checkpoint(tmp_path):
    # With the op checks off, the diverging run first shows as a non-finite loss.
    ckpt = tmp_path / "model.ivtc"
    prev = T.set_debug_checks(False)
    try:
        with np.errstate(all="ignore"), pytest.raises(NumericError,
                                                      match=r"NaN loss at step [1-9]"):
            train(tiny_scene(), tiny_config(steps=10, lr=1e200, clip_norm=0.0), ckpt)
    finally:
        T.set_debug_checks(prev)
    assert not ckpt.exists()


# -- loss ------------------------------------------------------------------------------


def test_clip_loss_is_mean_of_per_frame_losses():
    # Frames with 2, 0 and 1 centers: pooling the masked means over the clip
    # instead of averaging each frame's mean would weigh the centers equally.
    rng = RNG(4)
    joints, h, w, k = 2, 4, 4, 2
    centers = ([(0, 1), (3, 2)], [], [(2, 2)])
    frames = len(centers)
    mask_feat = np.zeros((frames, h, w), dtype=bool)
    mask_head = np.zeros((frames, h // k, w // k), dtype=bool)
    o2 = np.zeros((frames, 2 * joints, h, w))
    o3 = np.zeros((frames, 3 * joints, h // k, w // k))
    for t, frame in enumerate(centers):
        for y, x in frame:
            mask_feat[t, y, x] = mask_head[t, y // k, x // k] = True
            o2[t, :, y, x] = rng.uniform(-2, 2, size=2 * joints)
            o3[t, :, y // k, x // k] = rng.uniform(-2, 2, size=3 * joints)
    hm = rng.uniform(0, 1, size=(frames, h // k, w // k))
    out = ModelOutput(Tensor(rng.uniform(0, 1, size=hm.shape)),
                      Tensor(rng.standard_normal(o3.shape)),
                      Tensor(rng.standard_normal(o2.shape)))
    cfg = tiny_config(alpha=3.0)
    loss, terms = clip_loss(out, ((hm, o3, o2), (mask_head, mask_feat)), cfg)
    def frame(t):
        pred = tuple(Tensor(x.data[t:t + 1]) for x in (out.heatmap, out.offset3d, out.offset2d))
        return total_loss(pred, (hm[t:t + 1], o3[t:t + 1], o2[t:t + 1]),
                          (mask_head[t:t + 1], mask_feat[t:t + 1]), 3.0)[1]

    per_frame = [frame(t) for t in range(frames)]
    assert per_frame[1]["l1_3d"] == per_frame[1]["l1_2d"] == 0.0
    for key in ("l1_3d", "l1_2d", "l2_hm", "total"):
        assert terms[key] == pytest.approx(np.mean([f[key] for f in per_frame]), abs=1e-12)
    assert loss.item() == terms["total"]


def _root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _cell_values(value, kind):
    """The instances of ``kind`` in one closure cell, looking into tuples and lists."""
    if isinstance(value, kind):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _cell_values(item, kind)


# The arrays beyond the tape that a residual branch keeps for backward: the
# layer norm's row statistics, and what costs an attention to rebuild.
BRANCH_KEEPS = {"attention_branch": {"mu", "inv", "a", "lse"},
                "ffn_branch": {"mu", "inv"}}


def test_training_tape_closures_keep_tape_arrays_and_row_statistics():
    """On a multi-scale training forward (perfbench's tiny sizes: scales
    (4, 8), two heads), every Tensor a backward closure holds is one of its
    op's inputs, and every float array it holds is a view of an input's
    data, of its own output, or one of the arrays its residual branch keeps
    (``BRANCH_KEEPS``): the layer norm's mean and inverse deviation (one
    number per row), sdpa's logsumexp (one per row and head), or the
    attention output (one row per row). No other op keeps an array beside
    its inputs and output. Layer-norm and GELU outputs, gelu's tanh term, a
    branch's q, k, v and FFN pre-activation, sdpa's per-head copies and
    conv2d's im2col are rebuilt in backward, not kept."""
    scene = tiny_scene(height=32, width=32, amplitude=1.0, blob_sigma=1.0, body_radius=2.0)
    cfg = tiny_config(scales=(4, 8), steps=1)
    features_np, truth = generate(scene)
    model = build_model(scene, cfg)
    targets = clip_targets(scene, truth, model.fine_k)
    out = model.forward(Tensor(features_np), truth.flows, targets[0][2])
    loss, _ = clip_loss(out, targets, cfg)
    nodes, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    ops, kept = set(), {}
    for node in nodes:
        fn = node._backward_fn
        if fn is None:
            continue
        op = fn.__qualname__.split(".")[0]
        ops.add(op)
        cells = dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__ or ())))
        held = [t for v in cells.values() for t in _cell_values(v, Tensor)]
        for t in held:
            assert any(t._vertex() is p for p in node._parents), (
                f"{fn.__qualname__} holds a Tensor {t.shape} that is not one of its inputs")
        inputs = [p.data for p in node._parents] + [t.data for t in held] + [node.data]
        own = {id(_root(a)) for a in inputs if a is not None}
        rows = int(np.prod(node.shape[:-1], dtype=np.int64))
        for name, value in cells.items():
            for a in _cell_values(value, np.ndarray):
                if a.dtype.kind != "f" or id(_root(a)) in own:
                    continue
                assert name in BRANCH_KEEPS.get(op, ()), (
                    f"{fn.__qualname__} keeps {name} {a.shape} beside its inputs and output "
                    f"{node.shape}")
                kept.setdefault(op, set()).add(name)
                if name in ("mu", "inv"):
                    assert a.size == rows, (op, name)
                elif name == "lse":
                    assert a.size == rows * cells["heads"], (op, name)
                else:
                    assert a.shape[:-1] == node.shape[:-1], (op, name)
    assert kept == BRANCH_KEEPS
    assert {"gelu", "conv2d"} <= ops
    T.backward(loss)


def _tape_size(roots) -> int:
    """Tape vertices reachable from roots along the edges backward follows."""
    seen, stack = set(), [r for r in roots if r.requires_grad]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(p for p in node._parents if p.requires_grad)
    return len(seen)


def test_multiscale_forward_builds_the_same_tape():
    """Splitting the tape vertex from the value keeps every vertex: a
    multi-scale forward at perfbench's tiny sizes builds 168 with the loss
    and 146 without (the counts the tape had when each node held its data)."""
    scene = tiny_scene(height=32, width=32, amplitude=1.0, blob_sigma=1.0, body_radius=2.0)
    cfg = tiny_config(scales=(4, 8), steps=1)
    features_np, truth = generate(scene)
    model = build_model(scene, cfg)
    targets = clip_targets(scene, truth, model.fine_k)
    out = model.forward(Tensor(features_np), truth.flows, targets[0][2])
    assert _tape_size([clip_loss(out, targets, cfg)[0]]) == 168
    out = model.forward(Tensor(features_np), truth.flows)
    assert _tape_size(out.heatmaps + out.offsets3d + out.offsets2d) == 146
