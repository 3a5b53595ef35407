"""Transformer primitives: attention algebra, block structure, gradients."""

import numpy as np
import pytest

from ivt import tensor as T
from ivt.blocks import (block_params, ffn, multi_head_self_attention,
                        transformer_block_self, zero_block_outputs)
from ivt.gradcheck import grad_check
from ivt.tensor import ConfigError, ShapeError, Tensor
from ivt.video import VideoConfig
from reference_ops import tanh

RNG = np.random.default_rng


def rt(rng, *shape):
    return Tensor(rng.uniform(-1, 1, size=shape))


def attention_oracle(q, k, v):
    """Scalar-loop softmax(q kᵀ / √d) v."""
    nq, d = q.shape
    nk = k.shape[0]
    out = np.zeros((nq, v.shape[1]))
    for i in range(nq):
        logits = np.array([sum(q[i, m] * k[j, m] for m in range(d)) / np.sqrt(d)
                           for j in range(nk)])
        w = np.exp(logits - logits.max())
        w /= w.sum()
        for j in range(nk):
            out[i] += w[j] * v[j]
    return out


# -- attention ------------------------------------------------------------------------


def test_single_key_returns_value_row():
    rng = RNG(0)
    q, k, v = rt(rng, 3, 4), rt(rng, 1, 4), rt(rng, 1, 5)
    out = T.sdpa(q, k, v, 1).data
    for i in range(3):
        np.testing.assert_array_equal(out[i], v.data[0])


def test_uniform_logits_give_column_mean_of_values():
    rng = RNG(1)
    q = Tensor(np.zeros((2, 4)))  # zero queries -> all logits equal
    k, v = rt(rng, 5, 4), rt(rng, 5, 3)
    out = T.sdpa(q, k, v, 1).data
    np.testing.assert_allclose(out, np.tile(v.data.mean(axis=0), (2, 1)), atol=1e-12)


def test_attention_matches_scalar_oracle():
    rng = RNG(2)
    q, k, v = (rng.uniform(-1, 1, size=(3, 4)) for _ in range(3))
    got = T.sdpa(Tensor(q), Tensor(k), Tensor(v), 1).data
    np.testing.assert_allclose(got, attention_oracle(q, k, v), atol=1e-12)


def test_attention_logit_shift_invariance():
    # Adding a constant to every logit row means scaling all K rows' dot
    # products uniformly; realized by appending a constant component to Q/K.
    rng = RNG(3)
    q = rng.uniform(-1, 1, size=(3, 4))
    k = rng.uniform(-1, 1, size=(5, 4))
    v = rng.uniform(-1, 1, size=(5, 2))
    base = T.sdpa(Tensor(q), Tensor(k), Tensor(v), 1).data
    # Same logits + c: augment with one extra dim carrying the constant.
    c = 7.3
    scale = np.sqrt(5) / np.sqrt(4)  # keep q·k/√d identical after augmenting d
    qa = np.column_stack([q * scale, np.full(3, c * np.sqrt(5))])
    ka = np.column_stack([k, np.ones(5)])
    shifted = T.sdpa(Tensor(qa), Tensor(ka), Tensor(v), 1).data
    np.testing.assert_allclose(shifted, base, atol=1e-9)


def test_attention_batched_matches_per_slice():
    rng = RNG(4)
    q, k, v = rt(rng, 3, 2, 4), rt(rng, 3, 5, 4), rt(rng, 3, 5, 4)
    out = T.sdpa(q, k, v, 1).data
    for b in range(3):
        want = T.sdpa(Tensor(q.data[b]), Tensor(k.data[b]), Tensor(v.data[b]), 1).data
        np.testing.assert_allclose(out[b], want, atol=1e-12)


def test_attention_macs_are_the_two_matmuls():
    rng = RNG(5)
    batch, nq, nk, d, dv = 3, 4, 6, 8, 5
    q, k, v = rt(rng, batch, nq, d), rt(rng, batch, nk, d), rt(rng, batch, nk, dv)
    T.macs.reset()
    with T.macs.counting(), T.macs.scope("attn"):
        T.sdpa(q, k, v, 1)
    # Q Kᵀ, then softmax weights times V, per batch slice.
    assert T.macs.total == T.macs.by_scope["attn"] == batch * (nq * d * nk + nq * nk * dv)


# -- multi-head attention -------------------------------------------------------------


def test_heads_must_divide_model_dim():
    params = block_params(RNG(4), 6)
    for heads in (4, 0):
        with pytest.raises(ConfigError, match="heads"):
            multi_head_self_attention(rt(RNG(4), 3, 6), params, heads)
    # J*C*s^2 = 6 for the one scale; the fuse width C*s^2 = 3 takes fuse_heads = 3.
    with pytest.raises(ConfigError, match="heads = 4"):
        VideoConfig(joints=2, channels=3, scales=(1,), layers=3, heads=4, fuse_heads=3)


def test_input_width_must_match_the_weights():
    params = block_params(RNG(4), 6)
    with pytest.raises(ShapeError):
        multi_head_self_attention(rt(RNG(4), 3, 8), params, 2)
    with pytest.raises(ShapeError):
        transformer_block_self(rt(RNG(4), 3, 8), params, 2)


def test_single_head_equals_projected_attention():
    rng = RNG(5)
    params = block_params(rng, 6)
    x = rt(rng, 4, 6)
    got = multi_head_self_attention(x, params, 1).data
    qp = T.linear(x, params["wq"], params["bq"])
    kp = T.linear(x, params["wk"], params["bk"])
    vp = T.linear(x, params["wv"], params["bv"])
    want = T.linear(T.sdpa(qp, kp, vp, 1), params["wo"], params["bo"]).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_two_heads_match_slice_oracle():
    rng = RNG(6)
    params = block_params(rng, 4)
    x = rng.uniform(-1, 1, size=(3, 4))
    qp = x @ params["wq"].data + params["bq"].data
    kp = x @ params["wk"].data + params["bk"].data
    vp = x @ params["wv"].data + params["bv"].data
    halves = []
    for h in range(2):
        s = slice(2 * h, 2 * h + 2)
        halves.append(attention_oracle(qp[:, s], kp[:, s], vp[:, s]))
    want = np.hstack(halves) @ params["wo"].data + params["bo"].data
    got = multi_head_self_attention(Tensor(x), params, 2).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_zero_values_give_output_bias():
    rng = RNG(7)
    params = block_params(rng, 4)
    params["wv"] = Tensor(np.zeros((4, 4)))
    params["bv"] = Tensor(np.zeros(4))
    out = multi_head_self_attention(rt(rng, 3, 4), params, 2).data
    np.testing.assert_allclose(out, np.tile(params["bo"].data, (3, 1)), atol=1e-12)


def test_mhsa_single_token_is_deterministic():
    rng = RNG(8)
    params = block_params(rng, 4)
    x = rt(rng, 1, 4)
    a = multi_head_self_attention(x, params, 2).data
    b = multi_head_self_attention(x, params, 2).data
    np.testing.assert_array_equal(a, b)


def test_mhsa_permutation_equivariance():
    rng = RNG(9)
    params = block_params(rng, 8)
    x = rng.uniform(-1, 1, size=(5, 8))
    perm = rng.permutation(5)
    base = multi_head_self_attention(Tensor(x), params, 2).data
    permuted = multi_head_self_attention(Tensor(x[perm]), params, 2).data
    # Equality holds exactly in real arithmetic; the float reductions over
    # keys run in permuted order, so allow a few ulps of summation noise.
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12, rtol=0)


def test_mhsa_composition_oracle():
    rng = RNG(10)
    params = block_params(rng, 8)
    x = rng.uniform(-1, 1, size=(4, 8))
    qp = x @ params["wq"].data + params["bq"].data
    kp = x @ params["wk"].data + params["bk"].data
    vp = x @ params["wv"].data + params["bv"].data
    heads = [attention_oracle(qp[:, 4 * h:4 * h + 4], kp[:, 4 * h:4 * h + 4],
                              vp[:, 4 * h:4 * h + 4]) for h in range(2)]
    want = np.hstack(heads) @ params["wo"].data + params["bo"].data
    got = multi_head_self_attention(Tensor(x), params, 2).data
    np.testing.assert_allclose(got, want, atol=1e-12)


# -- layer norm and feed-forward -------------------------------------------------------


def test_layer_norm_constant_row_returns_bias():
    rng = RNG(11)
    g, b = rt(rng, 6), rt(rng, 6)
    x = Tensor(np.full((3, 6), 2.5))
    out = T.layernorm(x, g, b).data
    np.testing.assert_allclose(out, np.tile(b.data, (3, 1)), atol=1e-9)


def test_ffn_gradient():
    rng = RNG(12)
    params = block_params(rng, 6)
    x = rt(rng, 3, 6)
    assert grad_check(lambda t: T.tsum(ffn(t, params)), x) <= 1e-5


# -- residual blocks -------------------------------------------------------------------


def test_zeroed_block_is_identity():
    rng = RNG(13)
    params = zero_block_outputs(block_params(rng, 8))
    x = rt(rng, 5, 8)
    out = transformer_block_self(x, params, 2).data
    np.testing.assert_array_equal(out, x.data)


@pytest.mark.parametrize("n,d,h", [(1, 4, 2), (3, 8, 2), (7, 6, 3)])
def test_block_preserves_shape(n, d, h):
    rng = RNG(14)
    params = block_params(rng, d)
    x = rt(rng, n, d)
    assert transformer_block_self(x, params, h).shape == (n, d)


def test_gradient_through_two_stacked_blocks():
    rng = RNG(15)
    p1, p2 = block_params(rng, 6), block_params(rng, 6)
    x = rt(rng, 3, 6)

    def f(t):
        return T.tsum(transformer_block_self(transformer_block_self(t, p1, 2), p2, 2))

    assert grad_check(f, x) <= 1e-5


def test_no_dead_parameters():
    rng = RNG(16)
    for trial in range(5):
        params = block_params(RNG(100 + trial), 6)
        for p in params.values():
            p.requires_grad = True
            p.grad = None
        x = rt(rng, 4, 6)
        T.backward(T.tsum(tanh(transformer_block_self(x, params, 2))))
        for name, p in params.items():
            assert p.grad is not None and np.any(p.grad != 0), f"dead parameter {name}"


def test_block_builds_twelve_tape_nodes_and_no_transpose():
    """Each affine layer, layer norm with its gain and bias, and attention with
    its head split are one node each: 2 (layer norms) + 4 (q, k, v and output
    projections) + 1 (attention) + 3 (FFN) + 2 (residual adds)."""
    rng = RNG(17)
    params = block_params(rng, 8)
    x = Tensor(rng.uniform(-1, 1, size=(3, 5, 8)), requires_grad=True)
    ops, seen, stack = [], set(), [transformer_block_self(x, params, 2)]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward_fn is None:
            continue
        seen.add(id(node))
        ops.append(node._backward_fn.__qualname__.split(".")[0])
        stack.extend(node._parents)
    assert len(ops) == 12
    assert ops.count("linear") == 6
    assert ops.count("layernorm") == 2 and ops.count("sdpa") == 1
    assert "transpose" not in ops


def test_composite_block_gradient_many_seeds():
    for seed in range(10):
        rng = RNG(seed)
        params = block_params(rng, 4)
        x = rt(rng, 3, 4)
        err = grad_check(lambda t: T.tsum(transformer_block_self(t, params, 2)), x)
        assert err <= 1e-5, f"seed {seed}: {err}"
