"""Video attention: spatial, flow alignment, temporal, cross-scale, full stack."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ivt import tensor as T
from ivt.blocks import (AttentionConfig, attention, block_params, linear,
                        transformer_block_cross, transformer_block_self,
                        zero_block_outputs)
from ivt.gradcheck import grad_check
from ivt.igt import extract_blocks, gather_indices, tokenize
from ivt.tensor import ContractError, NumericError, ShapeError, Tensor, macs
from ivt.video import (GridGeometry, ScaleSet, VideoConfig, align_tokens,
                       alignment_maps, block_mean_flow, cisa, cisa_params, ita,
                       ivt_forward, ivt_layer, mita, split_to_finest, video_params)

RNG = np.random.default_rng


def rt(rng, *shape):
    return Tensor(rng.uniform(-1, 1, size=shape))


def one_scale(joints, channels, geom):
    """Scale set and grid of one block size, with token width J*C*K*K."""
    return ScaleSet.build((geom.block_size,), joints, channels), [geom]


def one_scale_layer(rng, joints, channels, geom):
    """VideoConfig, grids and layer-0 parameters of a one-scale stack."""
    cfg = VideoConfig(joints=joints, channels=channels, scales=(geom.block_size,),
                      layers=1, heads=2)
    k = geom.block_size
    params = video_params(rng, cfg, geom.n_h * k, geom.n_w * k)["layer0"]
    return cfg, [geom], params


def zero_layer(params, k):
    zero_block_outputs(params["cisa"]["block"])
    pos = params["cisa"][f"pos{k}"]
    params["cisa"][f"pos{k}"] = Tensor(np.zeros_like(pos.data))
    zero_block_outputs(params["mita"][f"ita{k}"])
    return params


# -- spatial attention (one-scale CISA) ---------------------------------------------


def test_isa_single_token_deterministic():
    rng = RNG(0)
    sset, grids = one_scale(1, 1, GridGeometry(2, 1, 1))  # 1 token of width 4
    params = cisa_params(rng, sset, grids, heads=2)
    x = rt(rng, 2, 1, 4)
    np.testing.assert_array_equal(cisa([x], sset, params, 2)[0].data,
                                  cisa([x], sset, params, 2)[0].data)


def test_isa_zeroed_is_identity():
    rng = RNG(1)
    sset, grids = one_scale(1, 1, GridGeometry(2, 1, 3))  # 3 tokens of width 4
    params = cisa_params(rng, sset, grids, heads=2)
    zero_block_outputs(params["block"])
    x = rt(rng, 2, 3, 4)
    np.testing.assert_array_equal(cisa([x], sset, params, 2)[0].data, x.data)


def test_isa_matches_positional_plus_block_composition():
    rng = RNG(2)
    sset, grids = one_scale(2, 1, GridGeometry(2, 2, 2))  # 4 tokens of width 8
    cfg = AttentionConfig(8, 2)
    params = cisa_params(rng, sset, grids, heads=2)
    params["pos2"] = rt(rng, 4, 8)
    x = rt(rng, 1, 4, 8)
    got = cisa([x], sset, params, 2)[0].data
    want = transformer_block_self(T.add_bcast(x, params["pos2"]), params["block"], cfg).data
    np.testing.assert_allclose(got, want, atol=1e-12)


# -- flow alignment ----------------------------------------------------------------


def test_zero_flow_alignment_is_identity():
    geom = GridGeometry(2, 3, 4)
    flows = [np.zeros((2, 6, 8)) for _ in range(2)]
    maps = alignment_maps(flows, geom, 3)
    for t in range(3):
        np.testing.assert_array_equal(maps[t], np.arange(12))


def test_single_frame_alignment_is_noop():
    rng = RNG(3)
    geom = GridGeometry(2, 2, 2)
    x = rt(rng, 1, 4, 6)
    np.testing.assert_array_equal(align_tokens(x, alignment_maps([], geom, 1)).data, x.data)


def test_align_tokens_rejects_map_of_another_grid():
    rng = RNG(3)
    x = rt(rng, 2, 4, 6)
    with pytest.raises(ShapeError):
        align_tokens(x, alignment_maps([np.zeros((2, 6, 6))], GridGeometry(2, 3, 3), 2))


def test_uniform_right_flow_shifts_one_cell():
    rng = RNG(4)
    k = 2
    geom = GridGeometry(k, 2, 3)
    flow = np.zeros((2, 4, 6))
    flow[0] = k  # every pixel moves one block right between the two frames
    x = rt(rng, 2, 6, 4)
    out = align_tokens(x, alignment_maps([flow], geom, 2)).data
    # Last frame is already on its own grid.
    np.testing.assert_array_equal(out[1], x.data[1])
    for r in range(2):
        row = slice(r * 3, r * 3 + 3)
        got = out[0][row]
        src = x.data[0][row]
        np.testing.assert_array_equal(got[1], src[0])
        # Rightmost cell: both middle and right blocks land there; the
        # row-major overwrite keeps the later (rightmost) source.
        np.testing.assert_array_equal(got[2], src[2])
        # Vacated leftmost cell keeps its original token.
        np.testing.assert_array_equal(got[0], src[0])


def test_alignment_chains_across_frames():
    k = 2
    geom = GridGeometry(k, 1, 4)
    right = np.zeros((2, 2, 8))
    right[0] = k
    maps = alignment_maps([right, right], geom, 3)
    # Frame 0 travels two block steps; frame 1 one step; frame 2 none.
    np.testing.assert_array_equal(maps[2], [0, 1, 2, 3])
    np.testing.assert_array_equal(maps[1], [0, 0, 1, 3])
    # Sources 1, 2, 3 of frame 0 all clamp onto the last cell; the grid-order
    # overwrite keeps the last writer, and vacated cells keep their own token.
    np.testing.assert_array_equal(maps[0], [0, 1, 0, 3])


def test_alignment_requires_matching_flow_count():
    geom = GridGeometry(2, 2, 2)
    with pytest.raises(ContractError):
        alignment_maps([np.zeros((2, 4, 4))], geom, 3)


def reference_alignment_maps(flows, geom, frames):
    """Scalar loop: chain block flows, round, clamp, divide; row-major overwrite."""
    k, n_w = geom.block_size, geom.n_w
    h, w = geom.n_h * k, n_w * k
    means = [block_mean_flow(f, geom) for f in flows]

    def cell(x, y):
        col = int(min(max(np.rint(x), 0.0), w - 1.0)) // k
        row = int(min(max(np.rint(y), 0.0), h - 1.0)) // k
        return row * n_w + col

    out = []
    for t in range(frames):
        assign = list(range(geom.n))
        for i in range(geom.n):
            r, c = divmod(i, n_w)
            x, y = c * k + k // 2.0, r * k + k // 2.0
            for s in range(t, frames - 1):
                j = cell(x, y)
                x, y = x + means[s][j, 0], y + means[s][j, 1]
            assign[cell(x, y)] = i
        out.append(assign)
    return np.array(out, dtype=np.int64)


# Small whole-pixel moves, as the synthetic scenes make, and floats up to
# 1e300 either way, beyond int64 but with finite block means.
FLOW_VALUES = st.one_of(st.integers(-6, 6).map(float),
                        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))


@st.composite
def flow_clips(draw):
    geom = GridGeometry(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    frames = draw(st.integers(1, 4))
    shape = (2, geom.n_h * geom.block_size, geom.n_w * geom.block_size)
    flows = [draw(arrays(np.float64, shape, elements=FLOW_VALUES)) for _ in range(frames - 1)]
    return geom, frames, flows


@settings(deadline=None, max_examples=200)
@given(clip=flow_clips())
def test_alignment_maps_match_scalar_reference(clip):
    geom, frames, flows = clip
    maps = alignment_maps(flows, geom, frames)
    assert maps.shape == (frames, geom.n) and maps.dtype == np.int64
    assert np.all((maps >= 0) & (maps < geom.n))
    np.testing.assert_array_equal(maps, reference_alignment_maps(flows, geom, frames))
    zero = alignment_maps([np.zeros_like(f) for f in flows], geom, frames)
    np.testing.assert_array_equal(zero, np.tile(np.arange(geom.n), (frames, 1)))


def test_huge_flow_clamps_like_a_large_one():
    geom = GridGeometry(1, 2, 2)
    for value in (1e6, 1e19):
        np.testing.assert_array_equal(
            alignment_maps([np.full((2, 2, 2), value)], geom, 2)[0], [0, 1, 2, 3])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_flow_raises(bad):
    flow = np.zeros((2, 4, 4))
    flow[1, 3, 0] = bad
    with pytest.raises(NumericError, match="alignment_maps"):
        alignment_maps([flow], GridGeometry(2, 2, 2), 2)


def test_block_mean_flow_averages_pixels():
    geom = GridGeometry(2, 1, 2)
    flow = np.zeros((2, 2, 4))
    flow[0, :, :2] = [[1, 3], [5, 7]]  # block 0 dx mean = 4
    flow[1, :, 2:] = 2.0               # block 1 dy mean = 2
    means = block_mean_flow(flow, geom)
    np.testing.assert_allclose(means, [[4.0, 0.0], [0.0, 2.0]])


# -- temporal attention --------------------------------------------------------------


def test_ita_single_frame_attends_to_itself():
    rng = RNG(5)
    cfg = AttentionConfig(4, 2)
    params = block_params(rng, cfg)
    x = rt(rng, 1, 3, 4)
    got = ita(x, params, cfg).data
    slots = T.transpose(x, (1, 0, 2))
    want = T.transpose(transformer_block_cross(slots, slots, slots, params, cfg),
                       (1, 0, 2)).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_ita_identical_frames_give_identical_outputs():
    rng = RNG(6)
    cfg = AttentionConfig(4, 2)
    params = block_params(rng, cfg)
    frame = rng.uniform(-1, 1, size=(3, 4))
    x = Tensor(np.stack([frame] * 4))
    out = ita(x, params, cfg).data
    for t in range(1, 4):
        np.testing.assert_array_equal(out[t], out[0])


def test_ita_matches_per_slot_oracle():
    rng = RNG(7)
    cfg = AttentionConfig(4, 2)
    params = block_params(rng, cfg)
    x = rt(rng, 3, 2, 4)
    got = ita(x, params, cfg).data
    for i in range(2):
        slot = Tensor(x.data[:, i, :][None])  # (1, T, D)
        want = transformer_block_cross(slot, slot, slot, params, cfg).data[0]
        np.testing.assert_allclose(got[:, i, :], want, atol=1e-12)


def test_ita_zero_flow_equivalence():
    rng = RNG(8)
    cfg = AttentionConfig(4, 2)
    params = block_params(rng, cfg)
    geom = GridGeometry(2, 2, 2)
    x = rt(rng, 3, 4, 4)
    flows = [np.zeros((2, 4, 4)) for _ in range(2)]
    a = ita(align_tokens(x, alignment_maps(flows, geom, 3)), params, cfg).data
    b = ita(x, params, cfg).data
    np.testing.assert_array_equal(a, b)


def test_ita_mac_count_grows_linearly_in_frames():
    rng = RNG(10)
    cfg = AttentionConfig(16, 2)
    params = block_params(rng, cfg)

    def count(frames):
        macs.reset()
        x = rt(rng, frames, 4, 16)
        with macs.counting():
            ita(x, params, cfg)
        return macs.by_scope["ita"]

    ratio = count(8) / count(4)
    assert 1.9 <= ratio <= 2.1


# -- one-scale layer ----------------------------------------------------------------


def test_zeroed_layer_doubles_tokens():
    rng = RNG(11)
    cfg, grids, params = one_scale_layer(rng, 1, 1, GridGeometry(2, 2, 2))  # width 4
    params = zero_layer(params, 2)
    x = rt(rng, 2, 4, 4)
    maps = [alignment_maps([np.zeros((2, 4, 4))], grids[0], 2)]
    out = ivt_layer([x], maps, params, cfg, grids)[0].data
    np.testing.assert_array_equal(out, 2.0 * x.data)


def test_layer_preserves_shape():
    rng = RNG(12)
    cfg, grids, params = one_scale_layer(rng, 2, 1, GridGeometry(2, 3, 2))  # width 8
    x = rt(rng, 4, 6, 8)
    maps = [alignment_maps([rng.uniform(-1, 1, size=(2, 6, 4)) for _ in range(3)], grids[0], 4)]
    outs = ivt_layer([x], maps, params, cfg, grids)
    assert [o.shape for o in outs] == [(4, 6, 8)]


def test_layer_gradient():
    rng = RNG(13)
    cfg, grids, params = one_scale_layer(rng, 1, 1, GridGeometry(2, 2, 2))  # width 4
    x = rt(rng, 2, 4, 4)
    maps = [alignment_maps([rng.uniform(-1, 1, size=(2, 4, 4))], grids[0], 2)]

    def f(t):
        return T.tsum(ivt_layer([t], maps, params, cfg, grids)[0])

    assert grad_check(f, x) <= 1e-5


# -- cross-scale attention -----------------------------------------------------------


def make_scales(joints=2, channels=1, scales=(2, 4), h=8, w=8, seed=20):
    rng = RNG(seed)
    sset = ScaleSet.build(scales, joints, channels)
    grids = [GridGeometry(s, h // s, w // s) for s in sset.scales]
    return rng, sset, grids


def test_cisa_single_scale_is_pos_plus_block():
    rng, sset, grids = make_scales(scales=(2,))
    params = cisa_params(rng, sset, grids, heads=2)
    assert set(params) == {"block", "pos2"}  # one scale has nothing to project
    params["pos2"] = rt(rng, grids[0].n, sset.token_dims[0])
    x = rt(rng, 2, grids[0].n, sset.token_dims[0])
    got = cisa([x], sset, params, heads=2)[0].data
    cfg = AttentionConfig(sset.d_common, 2)
    want = transformer_block_self(T.add_bcast(x, params["pos2"]), params["block"], cfg).data
    np.testing.assert_array_equal(got, want)


def test_cisa_projects_every_scale_of_several():
    # The middle of three scales has d_s == d_common and still projects.
    rng, sset, grids = make_scales(scales=(2, 4, 8), h=16, w=16)
    assert sset.token_dims[1] == sset.d_common
    params = cisa_params(rng, sset, grids, heads=2)
    for s in sset.scales:
        assert {f"proj{s}_w", f"proj{s}_b", f"back{s}_w", f"back{s}_b"} <= set(params)


def test_cisa_preserves_token_counts():
    rng, sset, grids = make_scales()
    params = cisa_params(rng, sset, grids, heads=2)
    xs = [rt(rng, 3, g.n, d) for g, d in zip(grids, sset.token_dims)]
    outs = cisa(xs, sset, params, heads=2)
    for x, out in zip(xs, outs):
        assert out.shape == x.shape


def test_cisa_matches_union_attention_oracle():
    rng, sset, grids = make_scales()
    params = cisa_params(rng, sset, grids, heads=2)
    xs = [rt(rng, 1, g.n, d) for g, d in zip(grids, sset.token_dims)]
    outs = cisa(xs, sset, params, heads=2)
    cfg = AttentionConfig(sset.d_common, 2)
    proj = [linear(T.add_bcast(x, params[f"pos{s}"]),
                   params[f"proj{s}_w"], params[f"proj{s}_b"])
            for x, s in zip(xs, sset.scales)]
    union = T.concat(proj, axis=1)
    fused = transformer_block_self(union, params["block"], cfg)
    start = 0
    for out, g, s in zip(outs, grids, sset.scales):
        part = T.narrow(fused, 1, start, g.n)
        want = linear(part, params[f"back{s}_w"], params[f"back{s}_b"]).data
        np.testing.assert_allclose(out.data, want, atol=1e-12)
        start += g.n


def test_split_to_finest_is_lossless_rearrangement():
    rng, sset, grids = make_scales()
    coarse = rt(rng, 2, grids[1].n, sset.token_dims[1])
    fine = split_to_finest(coarse, grids[1], grids[0], 2, 1)
    assert fine.shape == (2, grids[0].n, sset.token_dims[0])
    assert np.array_equal(np.sort(fine.data.reshape(-1)),
                          np.sort(coarse.data.reshape(-1)))


def test_mita_single_scale_equals_ita():
    rng, sset, grids = make_scales(scales=(2,))
    cfg = AttentionConfig(sset.token_dims[0], 2)
    params = {"ita2": block_params(rng, cfg)}
    x = rt(rng, 2, grids[0].n, sset.token_dims[0])
    merged, outs = mita([x], params, sset, grids, 2, 2, 1)
    want = ita(x, params["ita2"], cfg).data
    np.testing.assert_array_equal(merged.data, want)
    np.testing.assert_array_equal(outs[0].data, want)


def test_mita_zero_coarse_tokens_add_nothing():
    # Freshly initialized blocks have zero biases, so a zero token map
    # passes through temporal attention as exactly zero.
    rng, sset, grids = make_scales()
    params = {f"ita{s}": block_params(rng, AttentionConfig(d, 2))
              for s, d in zip(sset.scales, sset.token_dims)}
    fine = rt(rng, 2, grids[0].n, sset.token_dims[0])
    zero_coarse = Tensor(np.zeros((2, grids[1].n, sset.token_dims[1])))
    merged, _ = mita([fine, zero_coarse], params, sset, grids, 2, 2, 1)
    want = ita(fine, params["ita2"], AttentionConfig(sset.token_dims[0], 2)).data
    np.testing.assert_allclose(merged.data, want, atol=1e-15)


def test_mita_merge_is_sum_of_redistributed_outputs():
    rng, sset, grids = make_scales()
    params = {f"ita{s}": block_params(rng, AttentionConfig(d, 2))
              for s, d in zip(sset.scales, sset.token_dims)}
    xs = [rt(rng, 2, g.n, d) for g, d in zip(grids, sset.token_dims)]
    merged, outs = mita(xs, params, sset, grids, 2, 2, 1)
    want = outs[0].data + split_to_finest(outs[1], grids[1], grids[0], 2, 1).data
    np.testing.assert_array_equal(merged.data, want)


# -- full stack -----------------------------------------------------------------------


def clip_fixture(scales=(4,), frames=2, h=8, w=8, joints=2, channels=1, seed=30):
    rng = RNG(seed)
    cfg = VideoConfig(joints=joints, channels=channels, scales=scales, layers=1,
                      heads=2, fuse_heads=2)
    params = video_params(rng, cfg, h, w)
    features = rt(rng, frames, channels, h, w)
    offsets = rng.uniform(-2, 2, size=(frames, 2 * joints, h, w))
    flows = [rng.uniform(-1, 1, size=(2, h, w)) for _ in range(frames - 1)]
    return rng, cfg, params, features, offsets, flows


def test_forward_zero_layers_returns_finest_tokens():
    from ivt.video import tokenize_clip

    rng, cfg, params, features, offsets, flows = clip_fixture()
    cfg0 = VideoConfig(joints=cfg.joints, channels=cfg.channels, scales=cfg.scales,
                       layers=0, heads=2, fuse_heads=2)
    out = ivt_forward(features, offsets, flows, cfg0, params).data
    want = tokenize_clip(features, offsets, cfg0, params)[0].data
    np.testing.assert_array_equal(out, want)


def test_forward_output_on_finest_grid_all_frames():
    rng, cfg, params, features, offsets, flows = clip_fixture(
        scales=(2, 4), frames=3, joints=2, channels=1)
    out = ivt_forward(features, offsets, flows, cfg, params)
    assert out.shape == (3, 16, 2 * 1 * 2 * 2)  # finest K=2 grid of 8x8


def test_forward_single_scale_single_layer_matches_composition():
    rng, cfg, params, features, offsets, flows = clip_fixture()
    out = ivt_forward(features, offsets, flows, cfg, params).data
    sset = cfg.scale_set()
    acfg = AttentionConfig(sset.token_dims[0], cfg.heads)
    fuse_cfg = AttentionConfig(cfg.channels * 16, cfg.fuse_heads)
    blocks = extract_blocks(features, 4).data
    idx = gather_indices(offsets, GridGeometry(4, 2, 2), cfg.joints)  # (T, N, J)
    maps = [tokenize(Tensor(blocks[t][idx[t]].reshape(4, -1)), params["fuse4"], fuse_cfg)
            for t in range(2)]  # one frame at a time
    tokens = T.concat([T.reshape(m, (1,) + m.shape) for m in maps], axis=0)
    lp = params["layer0"]
    spatial = transformer_block_self(T.add_bcast(tokens, lp["cisa"]["pos4"]),
                                     lp["cisa"]["block"], acfg)
    aligned = align_tokens(spatial, alignment_maps(flows, GridGeometry(4, 2, 2), 2))
    want = (ita(aligned, lp["mita"]["ita4"], acfg) + tokens).data
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_forward_multiscale_layer_stack_matches_ivt_layer():
    from ivt.video import tokenize_clip

    rng, cfg, params, features, offsets, flows = clip_fixture(scales=(2, 4))
    cfg2 = VideoConfig(joints=cfg.joints, channels=cfg.channels, scales=cfg.scales,
                       layers=2, heads=2, fuse_heads=2)
    params["layer1"] = video_params(RNG(31), cfg2, 8, 8)["layer1"]
    out = ivt_forward(features, offsets, flows, cfg2, params).data
    grids = cfg2.grids(8, 8)
    streams = tokenize_clip(features, offsets, cfg2, params)
    for layer in range(2):
        sset = cfg2.scale_set()
        spatial = cisa(streams, sset, params[f"layer{layer}"]["cisa"], 2)
        aligned = [align_tokens(x, alignment_maps(flows, g, 2))
                   for x, g in zip(spatial, grids)]
        merged, outs = mita(aligned, params[f"layer{layer}"]["mita"], sset, grids, 2,
                            cfg2.joints, cfg2.channels)
        streams = [merged + streams[0]] + outs[1:]
    np.testing.assert_array_equal(out, streams[0].data)


def test_forward_deterministic_bitwise():
    rng, cfg, params, features, offsets, flows = clip_fixture(scales=(2, 4))
    a = ivt_forward(features, offsets, flows, cfg, params).data
    b = ivt_forward(features, offsets, flows, cfg, params).data
    np.testing.assert_array_equal(a, b)


def test_forward_multiscale_gradient():
    rng, cfg, params, features, offsets, flows = clip_fixture(scales=(2, 4))

    def f(t):
        clip = T.concat([t, Tensor(features.data[1:])])
        return T.tsum(ivt_forward(clip, offsets, flows, cfg, params))

    assert grad_check(f, Tensor(features.data[:1])) <= 1e-5
