"""Metrics: MPJPE, Procrustes alignment, depth error, matching, reports."""

import numpy as np
import pytest

from ivt.codec import Pose3D
from ivt.metrics import (EvalReport, FrameEval, depth_error, greedy_match,
                         match_and_evaluate, mpjpe, pa_mpjpe, procrustes_align)
from ivt.tensor import ContractError

RNG = np.random.default_rng


def rand_pose(rng, joints=6):
    return Pose3D(rng.uniform(-5, 5, size=(joints, 3)))


def rotation(ax, ay, az):
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


# -- mpjpe -------------------------------------------------------------------------


def test_identical_poses_zero_error():
    p = rand_pose(RNG(0))
    assert mpjpe(p, p) == 0.0
    assert mpjpe(p, p, root_align=True) == 0.0


def test_uniform_345_displacement():
    g = rand_pose(RNG(1))
    p = Pose3D(g.joints + np.array([3.0, 4.0, 0.0]))
    assert mpjpe(p, g) == pytest.approx(5.0, abs=1e-12)
    # Uniform translation vanishes under root alignment.
    assert mpjpe(p, g, root_align=True) == pytest.approx(0.0, abs=1e-12)


def test_mpjpe_matches_scalar_loop():
    rng = RNG(2)
    p, g = rand_pose(rng), rand_pose(rng)
    acc = [np.sqrt(sum((p.joints[j, c] - g.joints[j, c]) ** 2 for c in range(3)))
           for j in range(6)]
    assert mpjpe(p, g) == pytest.approx(np.mean(acc), abs=1e-12)


def test_mpjpe_triangle_consistency():
    rng = RNG(3)
    for _ in range(50):
        a, b, c = (rand_pose(rng) for _ in range(3))
        assert mpjpe(a, c) <= mpjpe(a, b) + mpjpe(b, c) + 1e-9


def test_joint_count_mismatch_rejected():
    with pytest.raises(ContractError):
        mpjpe(rand_pose(RNG(0), 5), rand_pose(RNG(0), 6))


# -- Procrustes --------------------------------------------------------------------


def test_pa_zero_on_similarity_orbit():
    rng = RNG(4)
    for _ in range(25):
        g = rand_pose(rng)
        r = rotation(*rng.uniform(0, 2 * np.pi, size=3))
        s = rng.uniform(0.3, 3.0)
        t = rng.uniform(-10, 10, size=3)
        p = Pose3D(s * g.joints @ r.T + t)
        assert pa_mpjpe(p, g) <= 1e-9


def test_pa_identical_poses_zero():
    p = rand_pose(RNG(5))
    assert pa_mpjpe(p, p) == pytest.approx(0.0, abs=1e-12)


def test_pa_invariant_under_similarity_of_prediction():
    rng = RNG(6)
    p, g = rand_pose(rng), rand_pose(rng)
    base = pa_mpjpe(p, g)
    r = rotation(0.3, -1.1, 2.0)
    moved = Pose3D(1.7 * p.joints @ r.T + np.array([4.0, -2.0, 9.0]))
    assert pa_mpjpe(moved, g) == pytest.approx(base, abs=1e-9)


def test_pa_never_exceeds_root_aligned_mpjpe():
    rng = RNG(7)
    for _ in range(100):
        p, g = rand_pose(rng), rand_pose(rng)
        assert pa_mpjpe(p, g) <= mpjpe(p, g, root_align=True) + 1e-9


def test_pa_rejects_reflection():
    rng = RNG(8)
    g = rand_pose(rng)
    mirrored = Pose3D(g.joints * np.array([1.0, 1.0, -1.0]))
    # A reflected copy cannot be brought to zero with det +1 rotations.
    assert pa_mpjpe(mirrored, g) > 1e-6
    aligned, ok = procrustes_align(mirrored.joints, g.joints)
    assert ok


def test_pa_degenerate_target_skips_alignment():
    pred = RNG(9).uniform(-1, 1, size=(4, 3))
    gt = np.zeros((4, 3))
    gt[:, 0] = [0, 1, 2, 3]  # collinear
    aligned, performed = procrustes_align(pred, gt)
    assert not performed
    np.testing.assert_array_equal(aligned, pred)


def oracle_pa(pred, gt, grid=14, rounds=60):
    """Numerical Procrustes: Euler-angle grid search plus local refinement."""
    pc = pred - pred.mean(axis=0)
    gc = gt - gt.mean(axis=0)

    def objective(angles):
        r = rotation(*angles)
        rp = pc @ r.T
        denom = (rp * rp).sum()
        # Scale must stay nonnegative: a negative scale would sneak a
        # reflection past the det +1 rotation constraint.
        k = max((rp * gc).sum() / denom, 0.0) if denom > 0 else 1.0
        res = k * rp - gc
        return (res * res).sum(), float(np.mean(np.linalg.norm(res, axis=1)))

    best, best_dist, best_angles = np.inf, None, None
    ticks = np.linspace(0, 2 * np.pi, grid, endpoint=False)
    for ax in ticks:
        for ay in ticks:
            for az in ticks:
                val, dist = objective((ax, ay, az))
                if val < best:
                    best, best_dist, best_angles = val, dist, (ax, ay, az)
    angles = np.array(best_angles)
    step = 2 * np.pi / grid
    while step > 1e-10:
        improved = True
        while improved:
            improved = False
            for i in range(3):
                for delta in (-step, step):
                    trial = angles.copy()
                    trial[i] += delta
                    val, dist = objective(trial)
                    if val < best:
                        best, best_dist, angles = val, dist, trial
                        improved = True
        step *= 0.5
    return best_dist


def test_pa_matches_numerical_minimization_oracle():
    rng = RNG(10)
    for seed in range(3):
        p, g = rand_pose(RNG(40 + seed), 4), rand_pose(RNG(80 + seed), 4)
        assert pa_mpjpe(p, g) == pytest.approx(oracle_pa(p.joints, g.joints), abs=1e-6)


def test_pa_alignment_removes_scale():
    rng = RNG(11)
    g = rand_pose(rng)
    p = Pose3D(2.0 * g.joints)
    assert pa_mpjpe(p, g) <= 1e-9


# -- depth error --------------------------------------------------------------------


def test_depth_identical_zero():
    p = rand_pose(RNG(12))
    assert depth_error(p, p) == 0.0


def test_uniform_depth_shift_on_non_root_joints():
    g = rand_pose(RNG(13))
    shifted = g.joints.copy()
    shifted[1:, 2] += 2.0
    assert depth_error(Pose3D(shifted), g) == pytest.approx(2.0, abs=1e-12)


def test_depth_error_matches_scalar_loop():
    rng = RNG(14)
    p, g = rand_pose(rng), rand_pose(rng)
    acc = [abs((p.joints[j, 2] - p.joints[0, 2]) - (g.joints[j, 2] - g.joints[0, 2]))
           for j in range(1, 6)]
    assert depth_error(p, g) == pytest.approx(np.mean(acc), abs=1e-12)


def test_depth_error_bounded_by_root_aligned_mpjpe():
    rng = RNG(15)
    for _ in range(100):
        p, g = rand_pose(rng), rand_pose(rng)
        assert depth_error(p, g) <= mpjpe(p, g, root_align=True) + 1e-9


# -- matching and reports --------------------------------------------------------------


def test_identical_lists_match_perfectly():
    rng = RNG(16)
    gts = [rand_pose(rng) for _ in range(3)]
    report = match_and_evaluate([gts], [gts])
    assert report.matched_pairs == 3 and report.missed == 0
    assert report.mpjpe == 0.0


def test_empty_predictions_counted_as_misses():
    rng = RNG(17)
    gts = [rand_pose(rng) for _ in range(2)]
    report = match_and_evaluate([[]], [gts])
    assert report.missed == 2 and report.matched_pairs == 0
    assert report.mpjpe is None and report.pa_mpjpe is None


def test_greedy_matching_agrees_with_exhaustive_on_two_by_two():
    from itertools import permutations

    rng = RNG(18)
    for _ in range(50):
        preds = [rand_pose(rng) for _ in range(2)]
        gts = [rand_pose(rng) for _ in range(2)]
        matches = greedy_match(preds, gts)
        dist = lambda pi, gi: np.linalg.norm(preds[pi].root - gts[gi].root)
        # Greedy picks the overall closest pair first; verify each matched
        # pair distance appears in the best exhaustive assignment sequence.
        first = min(((pi, gi) for pi in range(2) for gi in range(2)),
                    key=lambda m: dist(*m))
        assert first in matches
        assert len(matches) == 2


def test_aggregate_weighted_by_person_count():
    report = EvalReport([
        FrameEval(0, 2, 0, 1.0, 1.0, 1.0),
        FrameEval(1, 1, 0, 4.0, 4.0, 4.0),
    ])
    assert report.mpjpe == pytest.approx((2 * 1.0 + 1 * 4.0) / 3)


def test_report_csv_round_trip(tmp_path):
    report = EvalReport([FrameEval(0, 1, 0, 0.5, 0.25, 0.125),
                         FrameEval(1, 0, 2, None, None, None)])
    path = tmp_path / "eval.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "frame,persons_matched,misses,mpjpe,pa_mpjpe,depth_error"
    assert lines[1].startswith("0,1,0,0.5,0.25,0.125")
    assert lines[2] == "1,0,2,,,"  # every person missed, not an empty frame
    assert lines[3].startswith("aggregate,1,2,0.5")
