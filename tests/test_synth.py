"""Synthetic scene generator: determinism, flow consistency, poses."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ivt.synth import SceneSpec, generate
from ivt.tensor import ConfigError


def small_spec(**kw):
    base = dict(seed=5, persons=1, joints=3, frames=4, height=32, width=32,
                channels=4, amplitude=0.0, blob_sigma=1.0, body_radius=3.0)
    base.update(kw)
    return SceneSpec(**base)


def test_zero_persons_give_empty_scene():
    features, truth = generate(small_spec(persons=0))
    for f in features:
        assert not f.any()
    for frame_poses in truth.poses:
        assert frame_poses == []
    for flow in truth.flows:
        assert not flow.any()


def test_static_scene_has_identical_frames_and_zero_flow():
    features, truth = generate(small_spec(amplitude=0.0))
    for f in features[1:]:
        np.testing.assert_array_equal(f, features[0])
    for flow in truth.flows:
        assert not flow.any()


def test_seed_determinism_bitwise():
    spec = small_spec(persons=2, amplitude=2.0)
    fa, ta = generate(spec)
    fb, tb = generate(spec)
    for a, b in zip(fa, fb):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(ta.flows, tb.flows):
        np.testing.assert_array_equal(a, b)
    for pa, pb in zip(ta.poses, tb.poses):
        for x, y in zip(pa, pb):
            np.testing.assert_array_equal(x.joints, y.joints)


def test_different_seeds_differ():
    fa, _ = generate(small_spec(seed=1))
    fb, _ = generate(small_spec(seed=2))
    assert any(not np.array_equal(a, b) for a, b in zip(fa, fb))


def test_feature_provider_shapes():
    spec = small_spec()
    features, _ = generate(spec)
    assert features.shape == (spec.frames, spec.channels, spec.height, spec.width)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**16), persons=st.integers(1, 3), joints=st.integers(1, 4),
       frames=st.integers(1, 4), height=st.integers(16, 32), width=st.integers(16, 32),
       amplitude=st.floats(0.0, 3.0), blob_sigma=st.floats(0.3, 1.5),
       body_radius=st.floats(1.0, 5.0))
def test_accepted_specs_render_every_blob_window_inside_the_map(**kw):
    try:
        spec = SceneSpec(channels=1, **kw)
    except ConfigError:
        assume(False)
    _, truth = generate(spec)
    r = int(np.ceil(3.0 * spec.blob_sigma))
    for poses in truth.poses:
        for pose in poses:
            for jx, jy, _ in pose.joints:
                cx, cy = int(np.rint(jx)), int(np.rint(jy))
                assert r <= cx <= spec.width - 1 - r and r <= cy <= spec.height - 1 - r


def test_blob_centers_near_ground_truth_joints():
    spec = small_spec(seed=3, joints=2, blob_sigma=0.8, body_radius=6.0)
    features, truth = generate(spec)
    feat = features[0]
    for pose in truth.poses[0]:
        for jx, jy, _ in pose.joints:
            cy, cx = int(round(jy)), int(round(jx))
            window = feat[:, cy - 1:cy + 2, cx - 1:cx + 2].sum(axis=0)
            center = feat[:, cy, cx].sum()
            assert center >= window.max() - 1e-9
            assert abs(cy - jy) <= 0.5 and abs(cx - jx) <= 0.5


def test_flow_warp_reproduces_next_frame():
    spec = small_spec(persons=2, amplitude=3.0, seed=11, height=48, width=48)
    features, truth = generate(spec)
    h, w = spec.height, spec.width
    for t in range(spec.frames - 1):
        flow = truth.flows[t]
        warped = np.zeros_like(features[t])
        for y in range(h):
            for x in range(w):
                dx, dy = int(flow[0, y, x]), int(flow[1, y, x])
                warped[:, y + dy, x + dx] += features[t][:, y, x]
        mad = np.abs(warped - features[t + 1]).mean()
        assert mad <= 1e-6, f"frame {t}: warp mismatch {mad}"


def test_flow_is_integer_valued():
    _, truth = generate(small_spec(persons=2, amplitude=2.5, seed=13))
    for flow in truth.flows:
        np.testing.assert_array_equal(flow, np.rint(flow))


def test_trajectory_exiting_grid_rejected():
    with pytest.raises(ConfigError, match="amplitude"):
        generate(small_spec(height=16, width=16, amplitude=20.0))


def test_invalid_spec_rejected():
    with pytest.raises(ConfigError, match="persons"):
        SceneSpec(persons=-1)
    with pytest.raises(ConfigError, match="frames"):
        SceneSpec(frames=0)

