"""Instance-guided tokenization: tiling, offsets, gather, fusion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ivt import tensor as T
from ivt.blocks import block_params, zero_block_outputs
from ivt.gradcheck import grad_check
from ivt.igt import (GridGeometry, extract_blocks, gather_indices, offset_head_params,
                     predict_offsets, retile, tokenize)
from ivt.tensor import ContractError, Tensor
from ivt.video import VideoConfig, tokenize_clip
from reference_ops import tanh

RNG = np.random.default_rng


def rt(rng, *shape):
    return Tensor(rng.uniform(-1, 1, size=shape))


def grid_of(feat, k):
    return GridGeometry(k, feat.shape[-2] // k, feat.shape[-1] // k)


def gathered_block(blocks, idx, t, i):
    """Numpy reference: the J blocks that token (t, i) gathers, concatenated."""
    return blocks[t, idx[t, i]].reshape(-1)


# -- block extraction -------------------------------------------------------------


def test_whole_map_single_block():
    rng = RNG(0)
    f = rt(rng, 2, 3, 4, 4)
    blocks = extract_blocks(f, 4)
    assert blocks.shape == (2, 1, 48)
    for t in range(2):
        np.testing.assert_array_equal(blocks.data[t, 0], f.data[t].reshape(-1))


def test_retile_inverts_extract_bitwise():
    rng = RNG(1)
    for k in (1, 2, 4):
        f = rt(rng, 3, 2, 8, 8)
        back = retile(extract_blocks(f, k), grid_of(f, k), 2)
        np.testing.assert_array_equal(back.data, f.data)


def test_extract_blocks_hand_enumerated_patches():
    frame = np.arange(16, dtype=float).reshape(1, 4, 4)
    f = Tensor(np.stack([frame, frame + 100]))
    blocks = extract_blocks(f, 2)
    assert blocks.shape == (2, 4, 4)
    for t, base in ((0, 0), (1, 100)):
        np.testing.assert_array_equal(blocks.data[t, 0], base + np.array([0, 1, 4, 5]))
        np.testing.assert_array_equal(blocks.data[t, 1], base + np.array([2, 3, 6, 7]))
        np.testing.assert_array_equal(blocks.data[t, 2], base + np.array([8, 9, 12, 13]))
        np.testing.assert_array_equal(blocks.data[t, 3], base + np.array([10, 11, 14, 15]))


def test_extract_blocks_rejects_indivisible():
    with pytest.raises(ContractError, match="^extract_blocks: 6x6 not divisible by block size 4"):
        extract_blocks(rt(RNG(0), 1, 1, 6, 6), 4)


def test_tiling_is_lossless_in_size():
    rng = RNG(2)
    blocks = extract_blocks(rt(rng, 2, 3, 8, 12), 4)
    assert blocks.shape[1] * blocks.shape[2] == 3 * 8 * 12


# -- offset head -----------------------------------------------------------------


def test_zero_weight_head_gives_zero_offsets():
    rng = RNG(3)
    p = offset_head_params(rng, 2, 3, hidden=4)
    for key in p:
        p[key] = Tensor(np.zeros_like(p[key].data))
    out = predict_offsets(rt(rng, 2, 2, 4, 4), p)
    np.testing.assert_array_equal(out.data, np.zeros((2, 6, 4, 4)))


def test_offset_head_output_shape():
    rng = RNG(4)
    p = offset_head_params(rng, 3, 5, hidden=8)
    assert predict_offsets(rt(rng, 2, 3, 6, 10), p).shape == (2, 10, 6, 10)


def test_offset_head_gradient():
    rng = RNG(5)
    p = offset_head_params(rng, 2, 2, hidden=4)
    x = rt(rng, 2, 2, 4, 4)
    assert grad_check(lambda t: T.tsum(tanh(predict_offsets(t, p))), x) <= 1e-5


def test_offset_head_channel_mismatch_raises():
    rng = RNG(6)
    p = offset_head_params(rng, 2, 2, hidden=4)
    with pytest.raises(ContractError, match="^predict_offsets: head expects 2 channels"):
        predict_offsets(rt(rng, 1, 3, 4, 4), p)


# -- gather ------------------------------------------------------------------------


def test_zero_offsets_gather_own_block():
    rng = RNG(7)
    f = rt(rng, 2, 1, 8, 8)
    grid = grid_of(f, 2)
    joints = 3
    idx = gather_indices(np.zeros((2, 2 * joints, 8, 8)), grid, joints)
    assert idx.shape == (2, grid.n, joints)
    assert np.all(idx == np.arange(grid.n)[None, :, None])
    blocks = extract_blocks(f, 2).data
    np.testing.assert_array_equal(gathered_block(blocks, idx, 1, 5),
                                  np.tile(blocks[1, 5], joints))


def test_one_block_right_offsets():
    k = 2
    grid = GridGeometry(k, 4, 4)
    joints = 2
    offsets = np.zeros((1, 2 * joints, 8, 8))
    offsets[:, 0::2] = k  # dx = one block right for every joint
    idx = gather_indices(offsets, grid, joints)[0]
    for i in range(grid.n):
        col = i % grid.n_w
        want = i + 1 if col < grid.n_w - 1 else i  # border clamps
        assert np.all(idx[i] == want)


def test_out_of_grid_offsets_clamp_to_border():
    grid = GridGeometry(2, 4, 4)
    offsets = np.full((2, 2, 8, 8), 1e6)
    idx = gather_indices(offsets, grid, 1)
    assert np.all(idx == grid.n - 1)  # bottom-right block
    offsets[:] = -1e6
    assert np.all(gather_indices(offsets, grid, 1) == 0)


def test_non_finite_offsets_rejected():
    offsets = np.zeros((2, 2, 4, 4))
    offsets[1, 0, 0, 0] = np.nan
    with pytest.raises(T.NumericError):
        gather_indices(offsets, GridGeometry(2, 2, 2), 1)


def test_offset_maps_of_another_joint_count_rejected():
    with pytest.raises(ContractError, match=r"^gather_indices: offset maps \(2, 2, 4, 4\)"):
        gather_indices(np.zeros((2, 2, 4, 4)), GridGeometry(2, 2, 2), 2)


def gather_reference(offsets, k, n_h, n_w):
    """Scalar loop: read at the block center, round, clamp, divide by k."""
    frames, two_j = offsets.shape[:2]
    out = np.empty((frames, n_h * n_w, two_j // 2), dtype=np.int64)
    for t in range(frames):
        for i in range(n_h * n_w):
            py, px = (i // n_w) * k + k // 2, (i % n_w) * k + k // 2
            for j in range(two_j // 2):
                x = min(max(round(px + offsets[t, 2 * j, py, px]), 0), n_w * k - 1)
                y = min(max(round(py + offsets[t, 2 * j + 1, py, px]), 0), n_h * k - 1)
                out[t, i, j] = (y // k) * n_w + x // k
    return out


OFFSET = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e300, 1e300), st.just(0.5),
                   st.just(-2.5))


@settings(deadline=None, max_examples=60)
@given(data=st.data(), frames=st.integers(1, 3), joints=st.integers(1, 3),
       k=st.sampled_from([1, 2, 3]), n_h=st.integers(1, 3), n_w=st.integers(1, 3))
def test_gather_indices_match_scalar_reference(data, frames, joints, k, n_h, n_w):
    shape = (frames, 2 * joints, n_h * k, n_w * k)
    offsets = data.draw(arrays(np.float64, shape, elements=OFFSET))
    grid = GridGeometry(k, n_h, n_w)
    idx = gather_indices(offsets, grid, joints)
    assert idx.shape == (frames, grid.n, joints)
    assert np.all((0 <= idx) & (idx < grid.n))
    np.testing.assert_array_equal(idx, gather_reference(offsets, k, n_h, n_w))
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    offsets[data.draw(st.integers(0, frames - 1)), data.draw(st.integers(0, 2 * joints - 1)),
            data.draw(st.integers(0, n_h * k - 1)), data.draw(st.integers(0, n_w * k - 1))] = bad
    with pytest.raises(T.NumericError):
        gather_indices(offsets, grid, joints)


@settings(deadline=None, max_examples=200)
@given(k=st.integers(1, 4), n_h=st.integers(1, 4), n_w=st.integers(1, 4),
       px=st.floats(-1e300, 1e300), py=st.floats(-1e300, 1e300))
def test_block_at_stays_on_the_grid(k, n_h, n_w, px, py):
    geom = GridGeometry(k, n_h, n_w)
    idx = geom.block_at(np.array([px]), np.array([py]))
    assert idx.dtype == np.int64 and 0 <= idx[0] < geom.n


def test_gather_gradient_supported_only_on_source_blocks():
    joints = 2
    cfg = VideoConfig(joints=joints, channels=1, scales=(2,), layers=0, heads=2, fuse_heads=1)
    params = {"fuse2": zero_block_outputs(block_params(RNG(11), 4))}
    feat = Tensor(RNG(11).uniform(-1, 1, size=(2, 1, 8, 8)), requires_grad=True)
    offsets = np.zeros((2, 2 * joints, 8, 8))
    offsets[:, 0::2] = 2.0  # gather the block one to the right
    tokens = tokenize_clip(feat, offsets, cfg, params)[0]
    T.backward(T.tsum(T.narrow(T.narrow(tokens, 0, 1, 1), 1, 0, 1)))  # frame 1, block 0
    want = np.zeros((2, 8, 8), dtype=bool)
    want[1, 0:2, 2:4] = True  # block 1 of frame 1 only
    np.testing.assert_array_equal(feat.grad[:, 0] != 0, want)


# -- fusion --------------------------------------------------------------------------


def test_zeroed_fusion_is_identity():
    rng = RNG(12)
    params = zero_block_outputs(block_params(rng, 4))
    gathered = rt(rng, 12)
    np.testing.assert_array_equal(tokenize(gathered, params, 2).data, gathered.data)


def test_tokenize_preserves_length():
    rng = RNG(13)
    params = block_params(rng, 4)
    assert tokenize(rt(rng, 12), params, 2).shape == (12,)
    assert tokenize(rt(rng, 2, 3, 12), params, 2).shape == (2, 3, 12)


def test_tokenize_matches_reshape_block_composition():
    from ivt.blocks import transformer_block_self

    rng = RNG(14)
    params = block_params(rng, 4)
    gathered = rt(rng, 12)
    got = tokenize(gathered, params, 2).data
    rows = T.reshape(gathered, (3, 4))
    want = transformer_block_self(rows, params, 2).data.reshape(-1)
    np.testing.assert_allclose(got, want, atol=1e-12)


# -- whole-clip tokenization: the instance-guided tokens of each frame ---------------


def one_scale_clip(rng, joints, channels, k, fuse_heads=2):
    cfg = VideoConfig(joints=joints, channels=channels, scales=(k,), layers=0, heads=2,
                      fuse_heads=fuse_heads)
    params = {f"fuse{k}": block_params(rng, channels * k * k)}
    return cfg, params


def test_tokenize_clip_single_block_grid():
    rng = RNG(15)
    joints = 2
    cfg, params = one_scale_clip(rng, joints, 1, 4)
    f = rt(rng, 2, 1, 4, 4)
    out = tokenize_clip(f, np.zeros((2, 2 * joints, 4, 4)), cfg, params)[0]
    assert out.shape == (2, 1, joints * 16)
    blocks = extract_blocks(f, 4).data
    for t in range(2):
        gathered = Tensor(np.tile(blocks[t, 0], joints))
        want = tokenize(gathered, params["fuse4"], 2).data
        np.testing.assert_allclose(out.data[t, 0], want, atol=1e-12)


def test_tokenize_clip_output_shape():
    rng = RNG(16)
    joints = 3
    cfg, params = one_scale_clip(rng, joints, 2, 2)
    out = tokenize_clip(rt(rng, 3, 2, 8, 8), np.zeros((3, 2 * joints, 8, 8)), cfg, params)
    assert [o.shape for o in out] == [(3, 16, joints * 8)]


def test_tokenize_clip_hand_built_offsets_match_manual_trace():
    rng = RNG(17)
    joints, k = 2, 2
    cfg, params = one_scale_clip(rng, joints, 1, k)
    f = rt(rng, 2, 1, 4, 4)
    offsets = np.zeros((2, 2 * joints, 4, 4))
    offsets[0, 0] = 2.0   # frame 0, joint 0: one block right
    offsets[0, 3] = 2.0   # frame 0, joint 1: one block down
    offsets[1, 1] = 2.0   # frame 1, joint 0: one block down
    out = tokenize_clip(f, offsets, cfg, params)[0].data
    blocks = extract_blocks(f, k).data
    idx = gather_indices(offsets, grid_of(f, k), joints)
    assert idx[0, 0].tolist() == [1, 2] and idx[1, 0].tolist() == [2, 0]
    for t in range(2):
        for i in range(4):
            manual = tokenize(Tensor(gathered_block(blocks, idx, t, i)), params["fuse2"], 2).data
            np.testing.assert_allclose(out[t, i], manual, atol=1e-12)


def test_gather_indices_joint_permutation_consistency():
    rng = RNG(18)
    joints, k = 3, 2
    f = rt(rng, 2, 1, 6, 6)
    grid = grid_of(f, k)
    blocks = extract_blocks(f, k).data
    offsets = rng.uniform(-3, 3, size=(2, 2 * joints, 6, 6))
    idx = gather_indices(offsets, grid, joints)
    perm = np.array([2, 0, 1])
    permuted = offsets.reshape(2, joints, 2, 6, 6)[:, perm].reshape(2, 2 * joints, 6, 6)
    swapped = gather_indices(permuted, grid, joints)
    for t in range(2):
        base = gathered_block(blocks, idx, t, 4).reshape(joints, -1)
        moved = gathered_block(blocks, swapped, t, 4).reshape(joints, -1)
        np.testing.assert_array_equal(moved, base[perm])


def test_tokenize_clip_deterministic():
    rng = RNG(19)
    joints = 2
    cfg, params = one_scale_clip(rng, joints, 1, 2)
    f = rt(rng, 2, 1, 4, 4)
    offsets = rng.uniform(-2, 2, size=(2, 2 * joints, 4, 4))
    a = tokenize_clip(f, offsets, cfg, params)[0].data
    b = tokenize_clip(f, offsets, cfg, params)[0].data
    np.testing.assert_array_equal(a, b)
