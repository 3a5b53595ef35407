"""Transformer primitives: attention algebra, block structure, gradients."""

import numpy as np
import pytest

from ivt import tensor as T
from ivt.blocks import (AttentionConfig, attention, block_params, ffn,
                        layer_norm, linear, multi_head_attention,
                        multi_head_self_attention, transformer_block_self,
                        zero_block_outputs)
from ivt.gradcheck import grad_check
from ivt.tensor import ConfigError, Tensor

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
    out = attention(q, k, v).data
    for i in range(3):
        np.testing.assert_array_equal(out[i], v.data[0])


def test_uniform_logits_give_column_mean_of_values():
    rng = RNG(1)
    q = Tensor(np.zeros((2, 4)))  # zero queries -> all logits equal
    k, v = rt(rng, 5, 4), rt(rng, 5, 3)
    out = attention(q, k, v).data
    np.testing.assert_allclose(out, np.tile(v.data.mean(axis=0), (2, 1)), atol=1e-12)


def test_attention_matches_scalar_oracle():
    rng = RNG(2)
    q, k, v = (rng.uniform(-1, 1, size=(3, 4)) for _ in range(3))
    got = attention(Tensor(q), Tensor(k), Tensor(v)).data
    np.testing.assert_allclose(got, attention_oracle(q, k, v), atol=1e-12)


def test_attention_logit_shift_invariance():
    # Adding a constant to every logit row means scaling all K rows' dot
    # products uniformly; realized by appending a constant component to Q/K.
    rng = RNG(3)
    q = rng.uniform(-1, 1, size=(3, 4))
    k = rng.uniform(-1, 1, size=(5, 4))
    v = rng.uniform(-1, 1, size=(5, 2))
    base = attention(Tensor(q), Tensor(k), Tensor(v)).data
    # Same logits + c: augment with one extra dim carrying the constant.
    c = 7.3
    scale = np.sqrt(5) / np.sqrt(4)  # keep q·k/√d identical after augmenting d
    qa = np.column_stack([q * scale, np.full(3, c * np.sqrt(5))])
    ka = np.column_stack([k, np.ones(5)])
    shifted = attention(Tensor(qa), Tensor(ka), Tensor(v)).data
    np.testing.assert_allclose(shifted, base, atol=1e-9)


def test_attention_batched_matches_per_slice():
    rng = RNG(4)
    q, k, v = rt(rng, 3, 2, 4), rt(rng, 3, 5, 4), rt(rng, 3, 5, 4)
    out = attention(q, k, v).data
    for b in range(3):
        want = attention(Tensor(q.data[b]), Tensor(k.data[b]), Tensor(v.data[b])).data
        np.testing.assert_allclose(out[b], want, atol=1e-12)


def test_attention_macs_are_the_two_matmuls():
    rng = RNG(5)
    batch, nq, nk, d, dv = 3, 4, 6, 8, 5
    q, k, v = rt(rng, batch, nq, d), rt(rng, batch, nk, d), rt(rng, batch, nk, dv)
    T.macs.reset()
    with T.macs.counting(), T.macs.scope("attn"):
        attention(q, k, v)
    # Q Kᵀ, then softmax weights times V, per batch slice.
    assert T.macs.total == T.macs.by_scope["attn"] == batch * (nq * d * nk + nq * nk * dv)


# -- multi-head attention -------------------------------------------------------------


def test_heads_must_divide_model_dim():
    with pytest.raises(ConfigError):
        AttentionConfig(d_model=6, heads=4)


def test_single_head_equals_projected_attention():
    rng = RNG(5)
    cfg = AttentionConfig(6, 1)
    params = block_params(rng, cfg)
    x = rt(rng, 4, 6)
    got = multi_head_self_attention(x, params, cfg).data
    qp = linear(x, params["wq"], params["bq"])
    kp = linear(x, params["wk"], params["bk"])
    vp = linear(x, params["wv"], params["bv"])
    want = linear(attention(qp, kp, vp), params["wo"], params["bo"]).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_two_heads_match_slice_oracle():
    rng = RNG(6)
    cfg = AttentionConfig(4, 2)
    params = block_params(rng, cfg)
    x = rng.uniform(-1, 1, size=(3, 4))
    qp = x @ params["wq"].data + params["bq"].data
    kp = x @ params["wk"].data + params["bk"].data
    vp = x @ params["wv"].data + params["bv"].data
    halves = []
    for h in range(2):
        s = slice(2 * h, 2 * h + 2)
        halves.append(attention_oracle(qp[:, s], kp[:, s], vp[:, s]))
    want = np.hstack(halves) @ params["wo"].data + params["bo"].data
    got = multi_head_self_attention(Tensor(x), params, cfg).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_zero_values_give_output_bias():
    rng = RNG(7)
    cfg = AttentionConfig(4, 2)
    params = block_params(rng, cfg)
    params["wv"] = Tensor(np.zeros((4, 4)))
    params["bv"] = Tensor(np.zeros(4))
    out = multi_head_self_attention(rt(rng, 3, 4), params, cfg).data
    np.testing.assert_allclose(out, np.tile(params["bo"].data, (3, 1)), atol=1e-12)


def test_mhsa_single_token_is_deterministic():
    rng = RNG(8)
    cfg = AttentionConfig(4, 2)
    params = block_params(rng, cfg)
    x = rt(rng, 1, 4)
    a = multi_head_self_attention(x, params, cfg).data
    b = multi_head_self_attention(x, params, cfg).data
    np.testing.assert_array_equal(a, b)


def test_mhsa_permutation_equivariance():
    rng = RNG(9)
    cfg = AttentionConfig(8, 2)
    params = block_params(rng, cfg)
    x = rng.uniform(-1, 1, size=(5, 8))
    perm = rng.permutation(5)
    base = multi_head_self_attention(Tensor(x), params, cfg).data
    permuted = multi_head_self_attention(Tensor(x[perm]), params, cfg).data
    # Equality holds exactly in real arithmetic; the float reductions over
    # keys run in permuted order, so allow a few ulps of summation noise.
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12, rtol=0)


def test_mhsa_composition_oracle():
    rng = RNG(10)
    cfg = AttentionConfig(8, 2)
    params = block_params(rng, cfg)
    x = rng.uniform(-1, 1, size=(4, 8))
    qp = x @ params["wq"].data + params["bq"].data
    kp = x @ params["wk"].data + params["bk"].data
    vp = x @ params["wv"].data + params["bv"].data
    heads = [attention_oracle(qp[:, 4 * h:4 * h + 4], kp[:, 4 * h:4 * h + 4],
                              vp[:, 4 * h:4 * h + 4]) for h in range(2)]
    want = np.hstack(heads) @ params["wo"].data + params["bo"].data
    got = multi_head_self_attention(Tensor(x), params, cfg).data
    np.testing.assert_allclose(got, want, atol=1e-12)


# -- layer norm and feed-forward -------------------------------------------------------


def test_layer_norm_constant_row_returns_bias():
    rng = RNG(11)
    g, b = rt(rng, 6), rt(rng, 6)
    x = Tensor(np.full((3, 6), 2.5))
    out = layer_norm(x, g, b).data
    np.testing.assert_allclose(out, np.tile(b.data, (3, 1)), atol=1e-9)


def test_ffn_gradient():
    rng = RNG(12)
    cfg = AttentionConfig(6, 2)
    params = block_params(rng, cfg)
    x = rt(rng, 3, 6)
    assert grad_check(lambda t: T.tsum(ffn(t, params)), x) <= 1e-5


# -- residual blocks -------------------------------------------------------------------


def test_zeroed_block_is_identity():
    rng = RNG(13)
    cfg = AttentionConfig(8, 2)
    params = zero_block_outputs(block_params(rng, cfg))
    x = rt(rng, 5, 8)
    out = transformer_block_self(x, params, cfg).data
    np.testing.assert_array_equal(out, x.data)


@pytest.mark.parametrize("n,d,h", [(1, 4, 2), (3, 8, 2), (7, 6, 3)])
def test_block_preserves_shape(n, d, h):
    rng = RNG(14)
    cfg = AttentionConfig(d, h)
    params = block_params(rng, cfg)
    x = rt(rng, n, d)
    assert transformer_block_self(x, params, cfg).shape == (n, d)


def test_gradient_through_two_stacked_blocks():
    rng = RNG(15)
    cfg = AttentionConfig(6, 2)
    p1, p2 = block_params(rng, cfg), block_params(rng, cfg)
    x = rt(rng, 3, 6)

    def f(t):
        return T.tsum(transformer_block_self(transformer_block_self(t, p1, cfg), p2, cfg))

    assert grad_check(f, x) <= 1e-5


def test_no_dead_parameters():
    rng = RNG(16)
    cfg = AttentionConfig(6, 2)
    for trial in range(5):
        params = block_params(RNG(100 + trial), cfg)
        for p in params.values():
            p.requires_grad = True
            p.grad = None
        x = rt(rng, 4, 6)
        T.backward(T.tsum(T.tanh(transformer_block_self(x, params, cfg))))
        for name, p in params.items():
            assert p.grad is not None and np.any(p.grad != 0), f"dead parameter {name}"


def test_composite_block_gradient_many_seeds():
    cfg = AttentionConfig(4, 2)
    for seed in range(10):
        rng = RNG(seed)
        params = block_params(rng, cfg)
        x = rt(rng, 3, 4)
        err = grad_check(lambda t: T.tsum(transformer_block_self(t, params, cfg)), x)
        assert err <= 1e-5, f"seed {seed}: {err}"
