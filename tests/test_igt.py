"""Instance-guided tokenization: tiling, offsets, gather, fusion."""

import numpy as np
import pytest

from ivt import tensor as T
from ivt.blocks import AttentionConfig, block_params, zero_block_outputs
from ivt.gradcheck import grad_check
from ivt.igt import (BlockGrid, extract_blocks, gather_indices,
                     gather_instance, igt_frame, offset_head_params,
                     predict_offsets, retile, tokenize)
from ivt.tensor import ConfigError, Tensor

RNG = np.random.default_rng


def rt(rng, *shape):
    return Tensor(rng.uniform(-1, 1, size=shape))


# -- block extraction -------------------------------------------------------------


def test_whole_map_single_block():
    rng = RNG(0)
    f = rt(rng, 3, 4, 4)
    grid = extract_blocks(f, 4)
    assert grid.n == 1
    np.testing.assert_array_equal(grid.tokens.data[0], f.data.reshape(-1))


def test_retile_inverts_extract_bitwise():
    rng = RNG(1)
    for k in (1, 2, 4):
        f = rt(rng, 2, 8, 8)
        grid = extract_blocks(f, k)
        np.testing.assert_array_equal(retile(grid, 2).data, f.data)


def test_extract_blocks_hand_enumerated_patches():
    f = Tensor(np.arange(16, dtype=float).reshape(1, 4, 4))
    grid = extract_blocks(f, 2)
    assert grid.tokens.shape == (4, 4)
    np.testing.assert_array_equal(grid.tokens.data[0], [0, 1, 4, 5])
    np.testing.assert_array_equal(grid.tokens.data[1], [2, 3, 6, 7])
    np.testing.assert_array_equal(grid.tokens.data[2], [8, 9, 12, 13])
    np.testing.assert_array_equal(grid.tokens.data[3], [10, 11, 14, 15])


def test_extract_blocks_rejects_indivisible():
    with pytest.raises(ConfigError):
        extract_blocks(rt(RNG(0), 1, 6, 6), 4)


def test_tiling_is_lossless_in_size():
    rng = RNG(2)
    f = rt(rng, 3, 8, 12)
    grid = extract_blocks(f, 4)
    assert grid.n * grid.tokens.shape[1] == 3 * 8 * 12


# -- offset head -----------------------------------------------------------------


def test_zero_weight_head_gives_zero_offsets():
    rng = RNG(3)
    p = offset_head_params(rng, 2, 3, hidden=4)
    for key in p:
        p[key] = Tensor(np.zeros_like(p[key].data))
    out = predict_offsets(rt(rng, 2, 4, 4), p)
    np.testing.assert_array_equal(out.data, np.zeros((6, 4, 4)))


def test_offset_head_output_shape():
    rng = RNG(4)
    p = offset_head_params(rng, 3, 5, hidden=8)
    assert predict_offsets(rt(rng, 3, 6, 10), p).shape == (10, 6, 10)


def test_offset_head_gradient():
    rng = RNG(5)
    p = offset_head_params(rng, 2, 2, hidden=4)
    x = rt(rng, 2, 4, 4)
    assert grad_check(lambda t: T.tsum(T.tanh(predict_offsets(t, p))), x) <= 1e-5


def test_offset_head_channel_mismatch_raises():
    rng = RNG(6)
    p = offset_head_params(rng, 2, 2)
    with pytest.raises(ConfigError):
        predict_offsets(rt(rng, 3, 4, 4), p)


# -- gather ------------------------------------------------------------------------


def test_zero_offsets_gather_own_block():
    rng = RNG(7)
    grid = extract_blocks(rt(rng, 1, 8, 8), 2)
    joints = 3
    offsets = np.zeros((2 * joints, 8, 8))
    idx = gather_indices(offsets, grid, joints)
    for i in range(grid.n):
        assert np.all(idx[i] == i)
    tok = gather_instance(grid, offsets, 5, joints).data
    np.testing.assert_array_equal(tok, np.tile(grid.tokens.data[5], joints))


def test_one_block_right_offsets():
    rng = RNG(8)
    k = 2
    grid = extract_blocks(rt(rng, 1, 8, 8), k)
    joints = 2
    offsets = np.zeros((2 * joints, 8, 8))
    offsets[0::2] = k  # dx = one block right for every joint
    idx = gather_indices(offsets, grid, joints)
    for i in range(grid.n):
        col = i % grid.n_w
        want = i + 1 if col < grid.n_w - 1 else i  # border clamps
        assert np.all(idx[i] == want)


def test_out_of_grid_offsets_clamp_to_border():
    rng = RNG(9)
    grid = extract_blocks(rt(rng, 1, 8, 8), 2)
    offsets = np.full((2, 8, 8), 1e6)
    idx = gather_indices(offsets, grid, 1)
    assert np.all(idx == grid.n - 1)  # bottom-right block
    offsets[:] = -1e6
    assert np.all(gather_indices(offsets, grid, 1) == 0)


def test_non_finite_offsets_rejected():
    grid = extract_blocks(rt(RNG(10), 1, 4, 4), 2)
    offsets = np.zeros((2, 4, 4))
    offsets[0, 0, 0] = np.nan
    with pytest.raises(T.NumericError):
        gather_indices(offsets, grid, 1)


def test_gather_gradient_supported_only_on_source_blocks():
    rng = RNG(11)
    feat = Tensor(rng.uniform(-1, 1, size=(1, 8, 8)), requires_grad=True)
    grid = extract_blocks(feat, 2)
    joints = 2
    offsets = np.zeros((2 * joints, 8, 8))
    offsets[0::2] = 2.0  # gather the block one to the right
    tok = gather_instance(grid, offsets, 0, joints)
    T.backward(T.tsum(tok))
    g = feat.grad[0]
    support = g != 0
    want = np.zeros((8, 8), dtype=bool)
    want[0:2, 2:4] = True  # block 1 only
    np.testing.assert_array_equal(support, want)


# -- fusion --------------------------------------------------------------------------


def test_zeroed_fusion_is_identity():
    rng = RNG(12)
    cfg = AttentionConfig(4, heads=2)
    params = zero_block_outputs(block_params(rng, cfg))
    gathered = rt(rng, 12)
    np.testing.assert_array_equal(tokenize(gathered, params, cfg).data, gathered.data)


def test_tokenize_preserves_length():
    rng = RNG(13)
    cfg = AttentionConfig(4, heads=2)
    params = block_params(rng, cfg)
    assert tokenize(rt(rng, 12), params, cfg).shape == (12,)


def test_tokenize_matches_reshape_block_composition():
    from ivt.blocks import transformer_block_self

    rng = RNG(14)
    cfg = AttentionConfig(4, heads=2)
    params = block_params(rng, cfg)
    gathered = rt(rng, 12)
    got = tokenize(gathered, params, cfg).data
    rows = T.reshape(gathered, (3, 4))
    want = transformer_block_self(rows, params, cfg).data.reshape(-1)
    np.testing.assert_allclose(got, want, atol=1e-12)


# -- whole-frame tokenization -----------------------------------------------------


def test_igt_frame_single_block_grid():
    rng = RNG(15)
    joints = 2
    c_b = 1 * 4 * 4
    cfg = AttentionConfig(c_b, heads=2)
    params = block_params(rng, cfg)
    f = rt(rng, 1, 4, 4)
    offsets = np.zeros((2 * joints, 4, 4))
    out = igt_frame(f, offsets, 4, params, cfg, joints)
    assert out.shape == (1, joints * c_b)
    grid = extract_blocks(f, 4)
    gathered = Tensor(np.tile(grid.tokens.data[0], joints))
    np.testing.assert_allclose(out.data[0], tokenize(gathered, params, cfg).data,
                               atol=1e-12)


def test_igt_frame_output_shape():
    rng = RNG(16)
    joints = 3
    c_b = 2 * 2 * 2
    cfg = AttentionConfig(c_b, heads=2)
    params = block_params(rng, cfg)
    out = igt_frame(rt(rng, 2, 8, 8), np.zeros((2 * joints, 8, 8)), 2,
                    params, cfg, joints)
    assert out.shape == (16, joints * c_b)


def test_igt_frame_hand_built_offsets_match_manual_trace():
    rng = RNG(17)
    joints = 2
    k = 2
    c_b = 1 * k * k
    cfg = AttentionConfig(c_b, heads=2)
    params = block_params(rng, cfg)
    f = rt(rng, 1, 4, 4)
    grid = extract_blocks(f, k)
    offsets = np.zeros((2 * joints, 4, 4))
    offsets[0] = 2.0   # joint 0: one block right
    offsets[3] = 2.0   # joint 1: one block down
    out = igt_frame(f, offsets, k, params, cfg, joints).data
    for i in range(grid.n):
        manual = tokenize(Tensor(gather_instance(grid, offsets, i, joints).data),
                          params, cfg).data
        np.testing.assert_allclose(out[i], manual, atol=1e-12)


def test_igt_frame_joint_permutation_consistency():
    rng = RNG(18)
    joints = 3
    k = 2
    grid = extract_blocks(rt(rng, 1, 6, 6), k)
    offsets = rng.uniform(-3, 3, size=(2 * joints, 6, 6))
    base = gather_instance(grid, offsets, 4, joints).data.reshape(joints, -1)
    perm = np.array([2, 0, 1])
    permuted_offsets = offsets.reshape(joints, 2, 6, 6)[perm].reshape(2 * joints, 6, 6)
    swapped = gather_instance(grid, permuted_offsets, 4, joints).data.reshape(joints, -1)
    np.testing.assert_array_equal(swapped, base[perm])


def test_igt_frame_deterministic():
    rng = RNG(19)
    joints = 2
    cfg = AttentionConfig(4, heads=2)
    params = block_params(rng, cfg)
    f = rt(rng, 1, 4, 4)
    offsets = rng.uniform(-2, 2, size=(2 * joints, 4, 4))
    a = igt_frame(f, offsets, 2, params, cfg, joints).data
    b = igt_frame(f, offsets, 2, params, cfg, joints).data
    np.testing.assert_array_equal(a, b)
