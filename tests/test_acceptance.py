"""Acceptance suite: one test per release criterion, one printed verdict each.

Criteria:
  1. gradient checks for every differentiable unit (>= 20 instances each)
  2. attention algebra properties (>= 200 cases)
  3. residual layer structure (zeroed blocks double the tokens)
  4. codec round-trip on >= 50 scenes + bitwise NMS idempotence
  5. metric correctness (>= 500 pairs)
  6. temporal-attention cost linearity + 5-row frame sweep
  7. toy convergence fixture (seed 42, recorded thresholds)
  8. determinism: criteria 1, 4 and 7 reproduce bitwise
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from ivt import tensor as T
from ivt.blocks import block_params, zero_block_outputs
from ivt.codec import Pose3D, decode_poses, encode_heatmap, encode_offsets, keypoint_nms
from ivt.gradcheck import GRAD_UNITS
from ivt.metrics import mpjpe, pa_mpjpe
from ivt.synth import SceneSpec, generate
from ivt.tensor import Tensor, macs
from ivt.train import TrainConfig, evaluate, train
from ivt.video import GridGeometry, VideoConfig, alignment_maps, ivt_layer, video_params
from reference_ops import multi_head_self_attention, softmax

RNG = np.random.default_rng

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "convergence.json"

GRAD_TOL = 1e-5
GRAD_SEEDS = 20
# The gated differentiable units; "full" is a CLI extra, not part of the gate.
GRAD_UNIT_NAMES = ("mhsa", "ffn", "igt", "isa", "ita", "cisa-mita", "heads", "loss")


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# -- shared runs (criterion 8 reruns 1, 4 and 7) ------------------------------------


def run_gradient_suite() -> dict[str, float]:
    errors = {}
    for unit in GRAD_UNIT_NAMES:
        worst = 0.0
        for seed in range(GRAD_SEEDS):
            rng = RNG(seed)
            worst = max(worst, GRAD_UNITS[unit](rng, 1e-6))
        errors[unit] = worst
    return errors


def run_codec_round_trip() -> tuple[float, list[np.ndarray]]:
    worst = 0.0
    decoded_all = []
    for seed in range(50):
        rng = RNG(1000 + seed)
        persons = int(rng.integers(1, 5))
        h = w = 20
        sites = [(y, x) for y in (4, 10, 16) for x in (4, 10, 16)]
        picks = rng.choice(len(sites), size=persons, replace=False)
        poses = []
        for c in picks:
            cy, cx = sites[int(c)]
            joints = np.empty((4, 3))
            joints[:, 0] = cx + rng.integers(-2, 3, size=4)
            joints[:, 1] = cy + rng.integers(-2, 3, size=4)
            joints[:, 2] = rng.uniform(0, 5, size=4)
            joints[0, :2] = (cx, cy)
            poses.append(Pose3D(joints))
        hm = encode_heatmap(poses, h, w, 2.0)
        off3d, _ = encode_offsets(poses, 4, h, w)
        decoded = decode_poses(hm, off3d, threshold=0.9, max_people=8)
        assert len(decoded) == persons
        got = sorted(decoded, key=lambda p: tuple(p.root[:2]))
        want = sorted(poses, key=lambda p: tuple(p.root[:2]))
        err = float(np.mean([mpjpe(g, p) for g, p in zip(got, want)]))
        worst = max(worst, err)
        decoded_all.append(np.concatenate([p.joints.reshape(-1) for p in got]))
    return worst, decoded_all


def convergence_fixture() -> tuple[SceneSpec, TrainConfig]:
    # The defaults are the fixture; only the seeds differ.
    return SceneSpec(seed=42), TrainConfig(seed=42)


def run_convergence(tmp_dir: Path, tag: str):
    scene, cfg = convergence_fixture()
    ckpt = tmp_dir / f"convergence-{tag}.ivtc"
    result = train(scene, cfg, checkpoint_path=ckpt)
    report = evaluate(result.model, scene, cfg)
    return result, report, ckpt.read_bytes()


@pytest.fixture(scope="module")
def gradient_run():
    """Criterion 1's gradient suite and its wall time, which criterion 8 reruns."""
    start = time.perf_counter()
    errors = run_gradient_suite()
    return errors, time.perf_counter() - start


@pytest.fixture(scope="module")
def convergence_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    start = time.perf_counter()
    first = run_convergence(tmp, "a")
    first_wall = time.perf_counter() - start
    second = run_convergence(tmp, "b")
    return first, second, first_wall


# -- criteria ------------------------------------------------------------------------


def test_criterion_1_gradient_suite(gradient_run):
    errors, wall = gradient_run
    worst = max(errors.values())
    ok = worst <= GRAD_TOL and wall < 300
    detail = (f"{GRAD_SEEDS} instances x {len(errors)} units, "
              f"max rel err {worst:.3e} (tol {GRAD_TOL}), {wall:.1f}s")
    verdict(1, "gradient suite", ok, detail)


def test_criterion_2_attention_algebra():
    cases = 0
    ok = True
    for seed in range(50):
        rng = RNG(seed)
        # Softmax rows sum to one.
        x = Tensor(rng.uniform(-5, 5, size=(4, 6)))
        s = softmax(x).data
        ok &= bool(np.all(np.abs(s.sum(axis=-1) - 1.0) <= 1e-12))
        cases += 1
        # A single key returns its value row exactly.
        q, k, v = (Tensor(rng.uniform(-1, 1, size=sh))
                   for sh in ((3, 4), (1, 4), (1, 4)))
        out = T.sdpa(q, k, v, 1).data
        ok &= bool(all(np.array_equal(out[i], v.data[0]) for i in range(3)))
        cases += 1
        # Permutation equivariance of self-attention (no positional term).
        params = block_params(rng, 8)
        xs = rng.uniform(-1, 1, size=(5, 8))
        perm = rng.permutation(5)
        base = multi_head_self_attention(Tensor(xs), params, 2).data
        moved = multi_head_self_attention(Tensor(xs[perm]), params, 2).data
        ok &= bool(np.max(np.abs(moved - base[perm])) <= 1e-12)
        cases += 1
        # Single-head degeneracy: MHA equals attention in projections.
        p1 = block_params(rng, 6)
        y = Tensor(rng.uniform(-1, 1, size=(4, 6)))
        got = multi_head_self_attention(y, p1, 1).data
        qp = T.linear(y, p1["wq"], p1["bq"])
        kp = T.linear(y, p1["wk"], p1["bk"])
        vp = T.linear(y, p1["wv"], p1["bv"])
        want = T.linear(T.sdpa(qp, kp, vp, 1), p1["wo"], p1["bo"]).data
        ok &= bool(np.max(np.abs(got - want)) <= 1e-12)
        cases += 1
    verdict(2, "attention algebra", ok and cases >= 200, f"{cases} cases checked")


def test_criterion_3_residual_structure():
    ok = True
    for seed in range(5):
        rng = RNG(seed)
        # One block size K=2 on a 4x4 map: 4 tokens of width J*C*K*K = 8.
        cfg = VideoConfig(joints=2, channels=1, scales=(2,), layers=1, heads=2, fuse_heads=2)
        params = video_params(rng, cfg, 4, 4)["layer0"]
        zero_block_outputs(params["cisa"]["block"])
        params["cisa"]["pos2"] = Tensor(np.zeros((4, 8)))
        zero_block_outputs(params["mita"]["ita2"])
        tokens = Tensor(rng.uniform(-1, 1, size=(3, 4, 8)))
        geom = GridGeometry(2, 2, 2)
        maps = [alignment_maps([np.zeros((2, 4, 4)) for _ in range(2)], geom, 3)]
        out = ivt_layer([tokens], maps, params, cfg, [geom])[0].data
        ok &= bool(np.array_equal(out, 2.0 * tokens.data))
    verdict(3, "residual structure", ok,
            "zeroed inner blocks double the tokens exactly (5 seeds)")


def test_criterion_4_codec_round_trip():
    worst, _ = run_codec_round_trip()
    nms_ok = True
    for seed in range(20):
        hm = RNG(seed).uniform(0, 1, size=(12, 12))
        once = keypoint_nms(hm)
        nms_ok &= bool(np.array_equal(keypoint_nms(once), once))
    ok = worst <= 1e-9 and nms_ok
    verdict(4, "codec round-trip", ok,
            f"50 scenes, worst MPJPE {worst:.3e}; NMS idempotent: {nms_ok}")


def test_criterion_5_metric_correctness():
    def rotation(ax, ay, az):
        cx, sx = np.cos(ax), np.sin(ax)
        cy, sy = np.cos(ay), np.sin(ay)
        cz, sz = np.cos(az), np.sin(az)
        rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
        ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
        rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
        return rz @ ry @ rx

    ok = True
    pairs = 0
    worst_orbit = 0.0
    for seed in range(500):
        rng = RNG(seed)
        g = Pose3D(rng.uniform(-5, 5, size=(6, 3)))
        p = Pose3D(rng.uniform(-5, 5, size=(6, 3)))
        ok &= pa_mpjpe(p, g) <= mpjpe(p, g, root_align=True) + 1e-9
        pairs += 1
        if seed < 100:
            r = rotation(*rng.uniform(0, 2 * np.pi, size=3))
            s = rng.uniform(0.3, 3.0)
            t = rng.uniform(-10, 10, size=3)
            moved = Pose3D(s * g.joints @ r.T + t)
            worst_orbit = max(worst_orbit, pa_mpjpe(moved, g))
            acc = np.mean([np.sqrt(((p.joints[j] - g.joints[j]) ** 2).sum())
                           for j in range(6)])
            ok &= abs(mpjpe(p, g) - acc) <= 1e-12
    ok &= worst_orbit <= 1e-9
    verdict(5, "metric correctness", ok and pairs >= 500,
            f"{pairs} pairs; similarity-orbit worst {worst_orbit:.3e}")


def test_criterion_6_temporal_cost_linearity(tmp_path):
    from ivt.blocks import block_params as bp
    from ivt.cli import main as cli_main
    from ivt.video import ita

    rng = RNG(0)
    params = bp(rng, 16)

    def count(frames):
        macs.reset()
        x = Tensor(rng.uniform(-1, 1, size=(frames, 4, 16)))
        with macs.counting():
            ita(x, params, 2)
        return macs.by_scope["ita"]

    ratio = count(8) / count(4)

    rc = cli_main(["bench", "--frames", "1,3,5,7,9", "--out", str(tmp_path)])
    rows = (tmp_path / "bench.csv").read_text().strip().splitlines()
    header, data = rows[0], rows[1:]
    counts = [int(r.split(",")[1]) for r in data]
    monotone = all(a < b for a, b in zip(counts, counts[1:]))
    ok = (1.9 <= ratio <= 2.1 and rc == 0 and len(data) == 5
          and header == "frames,temporal_macs,wall_s" and monotone)
    verdict(6, "temporal cost linearity", ok,
            f"T=8/T=4 MAC ratio {ratio:.4f}; bench sweep rows {len(data)}, "
            f"counts {counts}")


def test_criterion_7_convergence_fixture(convergence_runs):
    (result, report, _), _, wall = convergence_runs
    recorded = json.loads(FIXTURE_PATH.read_text())
    hist = result.loss_history
    ratio = hist[-1] / hist[0]
    ma50 = lambda i: float(np.mean(hist[max(0, i - 50):i]))
    monotone = ma50(500) < ma50(50)
    within_5pct = abs(report.mpjpe - recorded["mpjpe"]) <= 0.05 * recorded["mpjpe"]
    ok = (ratio <= 0.1 and report.mpjpe <= recorded["mpjpe_threshold"]
          and within_5pct and monotone and wall < 900)
    verdict(7, "convergence fixture", ok,
            f"loss ratio {ratio:.5f} (<= 0.1), mpjpe {report.mpjpe:.5f} "
            f"(threshold {recorded['mpjpe_threshold']}), {wall:.0f}s")


def test_criterion_8_determinism(gradient_run, convergence_runs):
    errs_a, _ = gradient_run
    errs_b = run_gradient_suite()
    grad_same = errs_a == errs_b

    worst_a, decoded_a = run_codec_round_trip()
    worst_b, decoded_b = run_codec_round_trip()
    codec_same = worst_a == worst_b and all(
        np.array_equal(x, y) for x, y in zip(decoded_a, decoded_b))

    (res_a, rep_a, bytes_a), (res_b, rep_b, bytes_b), _ = convergence_runs
    ckpt_same = bytes_a == bytes_b
    loss_same = res_a.loss_history == res_b.loss_history
    report_same = (rep_a.mpjpe == rep_b.mpjpe and rep_a.pa_mpjpe == rep_b.pa_mpjpe
                   and rep_a.depth_error == rep_b.depth_error
                   and rep_a.matched_pairs == rep_b.matched_pairs)
    ok = grad_same and codec_same and ckpt_same and loss_same and report_same
    verdict(8, "determinism", ok,
            f"gradients {grad_same}, codec {codec_same}, checkpoint bytes "
            f"{ckpt_same}, loss history {loss_same}, report {report_same}")
