"""Training loop: optimizer, schedule, determinism, checkpoints, evaluation."""

import numpy as np
import pytest

from ivt import tensor as T
from ivt.checkpoint import load_params, save_params
from ivt.codec import Pose3D
from ivt.metrics import match_and_evaluate
from ivt.synth import SceneSpec, generate
from ivt.tensor import ContractError, Tensor
from ivt.train import (Adam, TrainConfig, build_model, decode_output, evaluate,
                       load_model, lr_at, train)

RNG = np.random.default_rng


def tiny_scene(**kw):
    base = dict(seed=7, persons=1, joints=2, frames=2, height=16, width=16,
                channels=1, amplitude=0.0, blob_sigma=0.8, body_radius=1.5)
    base.update(kw)
    return SceneSpec(**base)


def tiny_config(**kw):
    base = dict(steps=2, frames=2, layers=1, scales=(4,), heads=2, fuse_heads=2,
                head_hidden=4, seed=3)
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


def test_lr_schedule_two_milestone_drops():
    cfg = tiny_config(steps=100, lr=1e-3, milestones=(0.6, 0.8))
    assert lr_at(cfg, 0) == pytest.approx(1e-3)
    assert lr_at(cfg, 59) == pytest.approx(1e-3)
    assert lr_at(cfg, 60) == pytest.approx(1e-4)
    assert lr_at(cfg, 80) == pytest.approx(1e-5)
    assert lr_at(cfg, 99) == pytest.approx(1e-5)


def test_invalid_train_config_rejected():
    with pytest.raises(ContractError):
        tiny_config(steps=0)
    with pytest.raises(ContractError):
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


def test_training_log_columns(tmp_path):
    result = train(tiny_scene(), tiny_config(steps=2))
    path = tmp_path / "log.csv"
    result.write_log(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,lr,l1_3d,l1_2d,l2_hm,total"
    assert len(lines) == 3


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
    _, truth = generate(scene)
    from ivt.synth import gt_feature_provider

    features, _ = generate(scene)
    out = model.forward(gt_feature_provider(features), truth.flows, truth.offsets2d)
    # Build a perfect head output at token-grid resolution and decode it.
    k = model.fine_k
    n = scene.height // k
    scaled = [Pose3D(np.column_stack([p.joints[:, 0] / k, p.joints[:, 1] / k,
                                      p.joints[:, 2]]))
              for p in truth.poses[0]]
    from ivt.codec import encode_targets

    hm, o3, _ = encode_targets(scaled, n, n, 1.0)
    out.heatmaps = [Tensor(hm)] * cfg.frames
    out.offsets3d = [Tensor(o3)] * cfg.frames
    decoded = decode_output(model, out, threshold=0.9, max_people=4)
    got = decoded[0][0].joints
    want = truth.poses[0][0].joints
    np.testing.assert_allclose(got[:, :2], want[:, :2], atol=1e-9)
    np.testing.assert_allclose(got[:, 2], want[:, 2], atol=1e-9)
