"""Pose codec: target encoding, keypoint NMS, peak decoding, text format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ivt.codec import (Pose3D, decode_poses, encode_heatmap, encode_offsets,
                       keypoint_nms, poses_from_lines, poses_to_lines)
from ivt.tensor import ContractError

RNG = np.random.default_rng


def random_scene(rng, persons, joints=4, h=16, w=16):
    """Pixel-centered, non-colliding random poses."""
    cells = rng.choice(h * w, size=persons, replace=False)
    poses = []
    for c in cells:
        cy, cx = divmod(int(c), w)
        j = np.empty((joints, 3))
        j[:, 0] = cx + rng.integers(-2, 3, size=joints)
        j[:, 1] = cy + rng.integers(-2, 3, size=joints)
        j[:, 2] = rng.uniform(1, 5, size=joints)
        j[0] = (cx, cy, rng.uniform(1, 5))  # root defines the center pixel
        poses.append(Pose3D(j))
    return poses


def encode(poses, h, w, sigma):
    """Heatmap and 3D offsets of a non-empty frame."""
    return (encode_heatmap(poses, h, w, sigma),
            encode_offsets(poses, poses[0].joints.shape[0], h, w)[0])


# -- encoding -----------------------------------------------------------------------


def test_centered_person_has_unit_peak():
    pose = Pose3D(np.array([[5.0, 6.0, 2.0], [6.0, 7.0, 2.5]]))
    hm = encode_heatmap([pose], 12, 12, 2.0)
    assert hm[6, 5] == 1.0
    assert hm.max() == 1.0


def test_zero_persons_give_zero_targets():
    hm = encode_heatmap([], 8, 8, 2.0)
    assert hm.shape == (8, 8) and not hm.any()
    off3d, mask = encode_offsets([], 3, 8, 6)
    assert off3d.shape == (9, 8, 6) and not off3d.any()
    assert mask.shape == (8, 6) and mask.dtype == bool and not mask.any()


def test_two_person_heatmap_is_max_of_gaussians():
    sigma = 2.0
    p1 = Pose3D(np.array([[3.0, 3.0, 1.0]]))
    p2 = Pose3D(np.array([[9.0, 5.0, 1.0]]))
    hm = encode_heatmap([p1, p2], 12, 12, sigma)
    want = np.zeros((12, 12))
    for y in range(12):
        for x in range(12):
            for cx, cy in ((3.0, 3.0), (9.0, 5.0)):
                g = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sigma * sigma))
                want[y, x] = max(want[y, x], g)
    np.testing.assert_allclose(hm, want, atol=1e-15)


def test_offsets_written_only_at_center_pixels():
    rng = RNG(0)
    poses = random_scene(rng, 3)
    off3d, mask = encode_offsets(poses, 4, 16, 16)
    assert not off3d[:, ~mask].any()
    for pose in poses:
        px, py = int(round(pose.root[0])), int(round(pose.root[1]))
        for j in range(pose.joints.shape[0]):
            assert off3d[3 * j, py, px] == pose.joints[j, 0] - px
            assert off3d[3 * j + 1, py, px] == pose.joints[j, 1] - py
            assert off3d[3 * j + 2, py, px] == pose.joints[j, 2]


def test_center_outside_map_rejected():
    # The center pixel is the one nearest the root, and it must lie in the map.
    for x in (20.0, 7.5, -0.6):
        with pytest.raises(ContractError):
            encode_offsets([Pose3D(np.array([[x, 2.0, 1.0]]))], 1, 8, 8)
    off, mask = encode_offsets([Pose3D(np.array([[7.4, 2.0, 1.0]]))], 1, 8, 8)
    assert mask[2, 7] and off[0, 2, 7] == 7.4 - 7


def test_wrong_joint_count_rejected():
    poses = [Pose3D(np.zeros((2, 3))), Pose3D(np.ones((3, 3)))]
    with pytest.raises(ContractError, match="pose 1 has 3 joints, expected 2"):
        encode_offsets(poses, 2, 8, 8)


def test_nonpositive_sigma_rejected():
    with pytest.raises(ContractError, match="^encode_heatmap: sigma must be positive"):
        encode_heatmap([], 8, 8, 0.0)


@st.composite
def frames_inside_map(draw):
    """Up to 4 poses whose roots lie inside an h x w map; roots may share a pixel."""
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    joints = draw(st.integers(1, 4))
    poses = []
    for _ in range(draw(st.integers(0, 4))):
        rest = draw(arrays(np.float64, (joints - 1, 3),
                           elements=st.floats(-20.0, 20.0, allow_nan=False)))
        root = [draw(st.floats(0.0, w - 1.0)), draw(st.floats(0.0, h - 1.0)),
                draw(st.floats(-5.0, 5.0))]
        poses.append(Pose3D(np.vstack([root, rest])))
    return h, w, joints, poses


@settings(deadline=None, max_examples=200)
@given(frames_inside_map())
def test_offsets_mask_is_rounded_roots_and_offsets_give_owner_joints(frame):
    h, w, joints, poses = frame
    off3d, mask = encode_offsets(poses, joints, h, w)
    pixel = [(int(round(p.root[0])), int(round(p.root[1]))) for p in poses]
    want = np.zeros((h, w), dtype=bool)
    for px, py in pixel:
        want[py, px] = True
    np.testing.assert_array_equal(mask, want)
    assert not off3d[:, ~mask].any()
    for px, py in set(pixel):
        # The owner is the first of the poses at this pixel whose root is nearest.
        dist = [(p.root[0] - px) ** 2 + (p.root[1] - py) ** 2 if at == (px, py) else np.inf
                for p, at in zip(poses, pixel)]
        owner = poses[int(np.argmin(dist))]
        got = off3d[:, py, px].reshape(joints, 3) + (px, py, 0.0)
        np.testing.assert_allclose(got, owner.joints, rtol=0, atol=1e-12)


# -- NMS -----------------------------------------------------------------------------


def test_nms_strictly_monotone_map_keeps_only_global_max():
    hm = np.arange(36, dtype=float).reshape(6, 6) + 1.0
    out = keypoint_nms(hm)
    keep = np.flatnonzero(out.reshape(-1))
    np.testing.assert_array_equal(keep, [35])


def test_nms_constant_map_keeps_everything():
    hm = np.full((5, 5), 0.7)
    np.testing.assert_array_equal(keypoint_nms(hm), hm)


def test_nms_matches_brute_force_scan():
    rng = RNG(1)
    hm = rng.uniform(0, 1, size=(8, 8))
    got = keypoint_nms(hm)
    want = np.zeros((8, 8))
    for y in range(8):
        for x in range(8):
            best = max(hm[yy, xx]
                       for yy in range(max(0, y - 1), min(8, y + 2))
                       for xx in range(max(0, x - 1), min(8, x + 2)))
            want[y, x] = hm[y, x] if hm[y, x] >= best else 0.0
    np.testing.assert_array_equal(got, want)


def test_nms_idempotent_bitwise():
    rng = RNG(2)
    hm = rng.uniform(0, 1, size=(10, 10))
    once = keypoint_nms(hm)
    np.testing.assert_array_equal(keypoint_nms(once), once)


# -- decoding ------------------------------------------------------------------------


def test_round_trip_recovers_exact_joints():
    rng = RNG(3)
    poses = random_scene(rng, 2)
    hm, off3d = encode(poses, 16, 16, 2.0)
    decoded = decode_poses(hm, off3d, threshold=0.9, max_people=5)
    assert len(decoded) == 2
    got = sorted(decoded, key=lambda p: tuple(p.root[:2]))
    want = sorted(poses, key=lambda p: tuple(p.root[:2]))
    for g, w in zip(got, want):
        np.testing.assert_allclose(g.joints, w.joints, atol=1e-9)


@st.composite
def spaced_scenes(draw):
    """A map with 1-3 poses whose roots sit on distinct integer pixels, each
    pair at least 3 cells apart (Chebyshev), so no root is in another's NMS
    window."""
    h, w = draw(st.integers(4, 16)), draw(st.integers(4, 16))
    joints = draw(st.integers(1, 4))
    coord = st.floats(-8.0, 8.0, allow_nan=False)
    roots: list[tuple[int, int]] = []
    poses = []
    for _ in range(draw(st.integers(1, 3))):
        free = [(x, y) for y in range(h) for x in range(w)
                if all(max(abs(x - rx), abs(y - ry)) >= 3 for rx, ry in roots)]
        if not free:
            break
        x, y = draw(st.sampled_from(free))
        roots.append((x, y))
        rel = draw(arrays(np.float64, (joints - 1, 3), elements=coord))
        poses.append(Pose3D(np.vstack([[x, y, draw(coord)], rel + (x, y, 0.0)])))
    return h, w, poses


@settings(deadline=None, max_examples=200)
@given(spaced_scenes(), st.floats(0.5, 2.0))
def test_encode_decode_round_trip_property(scene, sigma):
    h, w, poses = scene
    hm, off3d = encode(poses, h, w, sigma)
    decoded = decode_poses(hm, off3d, threshold=0.9, max_people=10)
    assert len(decoded) == len(poses)
    got = sorted(decoded, key=lambda p: tuple(p.root[:2]))
    want = sorted(poses, key=lambda p: tuple(p.root[:2]))
    for g, wp in zip(got, want):
        np.testing.assert_allclose(g.joints, wp.joints, rtol=0, atol=1e-12)


@st.composite
def peaked_frames(draw):
    """A 16-32 px heatmap with 1-4 poses whose roots sit on integer pixels at
    least two cells apart (Chebyshev), pose i with a peak of 1 - i/10 at its
    root. The first root's depth is -0.0."""
    h, w = draw(st.integers(16, 32)), draw(st.integers(16, 32))
    joints = draw(st.integers(1, 4))
    coord = st.floats(-8.0, 8.0, allow_nan=False) | st.just(-0.0)
    hm = np.zeros((h, w))
    poses = []
    for i in range(draw(st.integers(1, 4))):
        free = [(x, y) for y in range(h) for x in range(w)
                if all(max(abs(x - p.root[0]), abs(y - p.root[1])) >= 2 for p in poses)]
        x, y = draw(st.sampled_from(free))
        hm[y, x] = 1.0 - i / 10
        j = draw(arrays(np.float64, (joints, 3), elements=coord))
        j[1:, :2] += (x, y)
        j[0] = (x, y, -0.0 if i == 0 else j[0, 2])
        poses.append(Pose3D(j))
    return hm, poses


@settings(deadline=None, max_examples=100)
@given(peaked_frames())
def test_decode_adds_the_center_pixel_to_the_stored_offsets_bitwise(frame):
    hm, poses = frame
    (h, w), joints = hm.shape, poses[0].joints.shape[0]
    off3d, _ = encode_offsets(poses, joints, h, w)
    decoded = decode_poses(hm, off3d, threshold=0.5, max_people=len(poses))
    assert len(decoded) == len(poses)
    for got, pose in zip(decoded, poses):  # descending peaks: in the order drawn
        px, py = int(pose.root[0]), int(pose.root[1])
        want = np.empty((joints, 3))
        for j in range(joints):  # channel 3j + c holds joint j, coordinate c
            want[j] = (px + off3d[3 * j, py, px], py + off3d[3 * j + 1, py, px],
                       off3d[3 * j + 2, py, px])
        assert got.joints.tobytes() == want.tobytes()
        assert got.joints[:, 2].tobytes() == pose.joints[:, 2].tobytes()  # -0.0 kept


def test_threshold_above_all_peaks_gives_empty_list():
    rng = RNG(4)
    poses = random_scene(rng, 2)
    hm, off3d = encode(poses, 16, 16, 2.0)
    assert decode_poses(hm, off3d, threshold=1.0 + 1e-9, max_people=10) == []


def test_threshold_monotonicity():
    rng = RNG(5)
    poses = random_scene(rng, 4)
    hm, off3d = encode(poses, 16, 16, 2.0)
    counts = [len(decode_poses(hm, off3d, threshold=t, max_people=10))
              for t in (0.05, 0.3, 0.6, 0.9, 1.01)]
    assert counts == sorted(counts, reverse=True)


def test_decoded_count_respects_max_people():
    rng = RNG(6)
    poses = random_scene(rng, 5)
    hm, off3d = encode(poses, 16, 16, 2.0)
    assert len(decode_poses(hm, off3d, threshold=0.5, max_people=3)) == 3


def test_decode_orders_by_confidence():
    hm = np.zeros((9, 9))
    hm[2, 2], hm[6, 6] = 0.7, 0.9
    off3d = np.zeros((3, 9, 9))
    decoded = decode_poses(hm, off3d, threshold=0.5, max_people=10)
    assert decoded[0].score == 0.9 and decoded[1].score == 0.7


def test_decode_round_trip_many_scenes():
    for seed in range(20):
        rng = RNG(100 + seed)
        persons = int(rng.integers(1, 5))
        poses = random_scene(rng, persons)
        hm, off3d = encode(poses, 16, 16, 2.0)
        decoded = decode_poses(hm, off3d, threshold=0.9, max_people=8)
        assert len(decoded) == persons
        got = sorted(decoded, key=lambda p: tuple(p.root[:2]))
        want = sorted(poses, key=lambda p: tuple(p.root[:2]))
        err = np.mean([np.linalg.norm(g.joints - w.joints, axis=1).mean()
                       for g, w in zip(got, want)])
        assert err <= 1e-9


def test_decode_rejects_bad_arguments():
    hm = np.zeros((4, 4))
    off = np.zeros((3, 4, 4))
    with pytest.raises(ContractError):
        decode_poses(hm, off, threshold=0.0, max_people=10)
    with pytest.raises(ContractError):
        decode_poses(hm, off, threshold=0.5, max_people=0)


# -- text format ---------------------------------------------------------------------


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(frame=st.integers(0, 10**6),
       people=st.lists(st.tuples(arrays(np.float64, st.tuples(st.integers(0, 4), st.just(3)),
                                        elements=FINITE), FINITE), max_size=3))
def test_pose_lines_round_trip_exact(frame, people):
    poses = [Pose3D(joints, score=score) for joints, score in people]
    back = poses_from_lines(poses_to_lines(frame, poses))
    assert list(back) == ([frame] if poses else [])
    got = back.get(frame, [])
    assert len(got) == len(poses)
    for orig, rec in zip(poses, got):
        assert rec.joints.shape == orig.joints.shape
        assert rec.joints.tobytes() == orig.joints.tobytes()  # bitwise, keeps -0.0
        assert rec.score.hex() == orig.score.hex()


def test_malformed_pose_line_rejected():
    for lines, named in (
            (["0 0 1.0 1.0 2.0"], "malformed"),  # coordinate count not multiple of 3
            (["0 banana 1.0 1 2 3"], "banana"),
            (["0 1 1.0 1 2 3"], "need 0"),  # a frame's first person is 0
            (["0 0 1.0 1 2 3", "0 0 1.0 4 5 6"], "need 1"),  # one person twice
            (["3 7 1.0 1 2 3", "3 7 1.0 4 5 6"], "need 0"),
            (["0 0 1.0 1 2 3", "1 0 1.0 1 2 3", "0 2 1.0 4 5 6"], "need 1"),  # skips 1
            (["0 -0 1.0 1 2 3"], "'-0'")):
        with pytest.raises(ContractError, match=named):
            poses_from_lines(lines)
