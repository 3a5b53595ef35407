"""Transformer primitives: attention algebra, block structure, gradients."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_ops
from ivt import tensor as T
from ivt.blocks import block_params, transformer_block_self, zero_block_outputs
from ivt.gradcheck import grad_check
from ivt.tensor import ConfigError, ContractError, NumericError, Tensor
from ivt.video import VideoConfig
from reference_ops import ffn, layernorm, multi_head_self_attention, tanh

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
        with pytest.raises(ContractError, match="heads"):
            multi_head_self_attention(rt(RNG(4), 3, 6), params, heads)
        with pytest.raises(ContractError, match="heads"):
            transformer_block_self(rt(RNG(4), 3, 6), params, heads)
    # J*C*s^2 = 6 for the one scale; the fuse width C*s^2 = 3 takes fuse_heads = 3.
    with pytest.raises(ConfigError, match="heads = 4"):
        VideoConfig(joints=2, channels=3, scales=(1,), layers=3, heads=4, fuse_heads=3)


def test_input_width_must_match_the_weights():
    params = block_params(RNG(4), 6)
    with pytest.raises(ContractError, match="^linear: input dim 8 != weight dim 6"):
        multi_head_self_attention(rt(RNG(4), 3, 8), params, 2)
    with pytest.raises(ContractError, match=r"^attention_branch: gain .* must be \(8,\)"):
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
    out = layernorm(x, g, b).data
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


def test_block_builds_two_tape_nodes_and_no_transpose():
    """Each pre-norm residual branch is one node: attention (layer norm,
    q/k/v projections, attention, output projection, add) and FFN (layer
    norm, two affine layers around GELU, add), where the chain of one-op
    nodes builds 12."""
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
    assert ops == ["ffn_branch", "attention_branch"]
    assert "transpose" not in ops


def test_composite_block_gradient_many_seeds():
    for seed in range(10):
        rng = RNG(seed)
        params = block_params(rng, 4)
        x = rt(rng, 3, 4)
        err = grad_check(lambda t: T.tsum(transformer_block_self(t, params, 2)), x)
        assert err <= 1e-5, f"seed {seed}: {err}"


# -- fused residual branches against the reference chain -------------------------------


def attention_branch(x, p, heads):
    return T.attention_branch(x, p["ln1_g"], p["ln1_b"], p["wq"], p["bq"], p["wk"], p["bk"],
                              p["wv"], p["bv"], p["wo"], p["bo"], heads)


def ffn_branch(x, p, heads):
    return T.ffn_branch(x, p["ln2_g"], p["ln2_b"], p["ffn_w1"], p["ffn_b1"],
                        p["ffn_w2"], p["ffn_b2"])


def attention_chain(x, p, heads):
    return x + multi_head_self_attention(layernorm(x, p["ln1_g"], p["ln1_b"]), p, heads)


def ffn_chain(x, p, heads):
    return x + ffn(layernorm(x, p["ln2_g"], p["ln2_b"]), p)


ROW_SPLIT = 370  # tokens whose 370 x 370 scores exceed one block: sdpa splits query rows
assert len(T._sdpa_blocks(1, ROW_SPLIT, ROW_SPLIT)) > 1


def branch_bits(branch, x_np, params_np, cot, heads):
    """Output, input gradient and parameter gradients of one branch, as bytes."""
    x = Tensor(x_np, requires_grad=True)
    params = {k: Tensor(v, requires_grad=True) for k, v in params_np.items()}
    out = branch(x, params, heads)
    T.backward(T.tsum(out * Tensor(cot)))
    grads = {k: None if p.grad is None else p.grad.tobytes() for k, p in params.items()}
    return out.data.tobytes(), x.grad.tobytes(), grads


@st.composite
def branch_cases(draw):
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    n = draw(st.sampled_from([1, 2, 3, 5, 8, ROW_SPLIT]))
    heads = draw(st.integers(1, 2))
    return lead, n, heads * draw(st.integers(1, 4)), heads, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=60)
@given(case=branch_cases())
@example(case=((2,), ROW_SPLIT, 4, 2, 0))
def test_branches_match_the_reference_chain_bitwise(case):
    """Both branches give the output and every gradient (input, layer-norm
    gain and bias, weights and biases) of the one-op chain bit for bit,
    for any leading shape, width and head count, also where sdpa splits
    the query rows into blocks."""
    lead, n, d, heads, seed = case
    rng = RNG(seed)
    params = {k: rng.uniform(-1, 1, size=p.shape) for k, p in block_params(rng, d).items()}
    x = rng.uniform(-2, 2, size=lead + (n, d))
    cot = rng.standard_normal(x.shape)
    for fused, chain in ((attention_branch, attention_chain), (ffn_branch, ffn_chain)):
        assert branch_bits(fused, x, params, cot, heads) == branch_bits(chain, x, params, cot,
                                                                         heads)


def test_branch_backward_rebuilds_charge_no_macs():
    """A forward and backward through either branch charge the chain's
    MACs: the chain's forward, since the rebuilds in backward are not
    model work."""
    rng = RNG(23)
    params = block_params(rng, 8)
    x_np = rng.uniform(-1, 1, size=(3, 5, 8))

    def charged(branch):
        T.macs.reset()
        with T.macs.counting():
            T.backward(T.tsum(branch(Tensor(x_np, requires_grad=True), params, 2)))
        return T.macs.total

    for fused, chain in ((attention_branch, attention_chain), (ffn_branch, ffn_chain)):
        assert charged(fused) == charged(chain) > 0


def live_bytes(build):
    """(out, bytes): build's result, and the bytes its call left allocated.
    build runs once before, so one-off allocations do not count."""
    build()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def peak_bytes(build):
    """(out, bytes): build's result, and the most bytes its call held at
    once. build runs once before, so one-off allocations do not count."""
    build()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_ffn_branch_computes_gelu_in_the_buffers_it_holds():
    """Forward holds at most two arrays of the hidden layer's size at once
    (h and gelu's tanh term) and backward five (h, the tanh term, 1 + it,
    gelu's output and its gradient), plus a few arrays of the input's
    size: the layer norm's, the gradients' and the output."""
    rng = RNG(24)
    d, lead = 32, (4, 75)
    params = block_params(rng, d)
    x = Tensor(rng.uniform(-1, 1, size=lead + (d,)), requires_grad=True)
    hidden, slack = 8 * 300 * 4 * d, 3 * 8 * 300 * d
    out, forward = peak_bytes(lambda: ffn_branch(x, params, 2))
    assert forward <= 2 * hidden + slack, (forward, hidden)
    g = rng.standard_normal(out.shape)
    _, backward = peak_bytes(lambda: out._backward_fn(g))
    assert backward <= 5 * hidden + slack, (backward, hidden)


def test_block_forward_keeps_less_than_the_chain():
    """Between forward and backward a block holds at least the bytes of two
    layer-norm outputs, the GELU output, q, k, v and the FFN pre-activation
    less than the chain: 13 rows of width d per token (the chain's two
    projections before the residual adds are freed, since ``add`` reads
    neither). The block itself holds three rows of width d per token (the
    attention branch's output, which the FFN branch reads, the attention
    output before its projection, and the block's output), the two layer
    norms' row statistics and the logsumexp per head, and at most 12 KiB of
    Python objects."""
    rng = RNG(20)
    d, rows, heads = 32, 4 * 16, 2
    params = block_params(rng, d)
    x = Tensor(rng.uniform(-1, 1, size=(4, 16, d)), requires_grad=True)
    fused, fused_bytes = live_bytes(lambda: transformer_block_self(x, params, heads))
    chain, chain_bytes = live_bytes(lambda: reference_ops.transformer_block_self(x, params, heads))
    np.testing.assert_array_equal(fused.data, chain.data)
    gone = 8 * rows * (2 * d + 4 * d + 3 * d + 4 * d)
    assert chain_bytes - fused_bytes >= gone, (chain_bytes, fused_bytes, gone)
    held = 8 * rows * (3 * d + 2 * 2 + heads) + 12 * 1024
    assert fused_bytes <= held, (fused_bytes, held)


# The chain's residual add and the branch's width check word one fault two ways.
OUT_WIDTH = r"add: shapes \(3, 6\) and \(3, 5\) differ|output width 5 != input width 6"
# (x shape, parameter shapes replaced, heads, what the ContractError says): each
# raised by the chain too.
BAD_BLOCK_INPUTS = {
    "input-width": ((3, 8), {}, 2, r"gain \(6,\) and bias \(6,\) must be \(8,\)"),
    "heads-not-dividing": ((3, 6), {}, 4, "sdpa: heads 4 must be at least 1 and divide"),
    "zero-heads": ((3, 6), {}, 0, "sdpa: heads 0 must be at least 1 and divide"),
    "no-tokens": ((0, 6), {}, 2, "sdpa: need at least one key"),
    "one-dim": ((6,), {}, 2, r"sdpa: shapes \(6,\), \(6,\), \(6,\) are incompatible"),
    "ln1-gain": ((3, 6), {"ln1_g": (5,)}, 2, r"gain \(5,\) and bias \(6,\) must be \(6,\)"),
    "ln2-bias": ((3, 6), {"ln2_b": (5,)}, 2, r"gain \(6,\) and bias \(5,\) must be \(6,\)"),
    "key-width": ((3, 6), {"wk": (6, 4), "bk": (4,)}, 2, "sdpa: inner dims"),
    "query-bias": ((3, 6), {"bq": (5,)}, 2, r"bias \(5,\) must be \(6,\)"),
    "out-width": ((3, 6), {"wo": (6, 5), "bo": (5,)}, 2, OUT_WIDTH),
    "hidden-bias": ((3, 6), {"ffn_b1": (23,)}, 2, r"bias \(23,\) must be \(24,\)"),
    "ffn-out-width": ((3, 6), {"ffn_w2": (24, 5), "ffn_b2": (5,)}, 2, OUT_WIDTH),
}


@pytest.mark.parametrize("case", BAD_BLOCK_INPUTS, ids=list(BAD_BLOCK_INPUTS))
def test_branches_raise_what_the_chain_raised(case):
    shape, replaced, heads, message = BAD_BLOCK_INPUTS[case]
    rng = RNG(21)
    params = block_params(rng, 6)
    params.update({k: rt(rng, *s) for k, s in replaced.items()})
    x = rt(rng, *shape)
    for block in (reference_ops.transformer_block_self, transformer_block_self):
        with pytest.raises(ContractError, match=message):
            block(x, params, heads)


@pytest.fixture
def debug_checks():
    prev = T.set_debug_checks(True)
    yield
    T.set_debug_checks(prev)


def test_non_finite_values_name_the_branch_and_the_stage(debug_checks):
    rng = RNG(22)
    params = block_params(rng, 4)
    row = np.array([2.0, 2.0, -2.0, -2.0])  # normalizes to about (1, 1, -1, -1)
    x = Tensor(np.tile(row, (3, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        huge = dict(params, ffn_w1=Tensor(np.tile(1e308 * row[:, None] / 2, (1, 16))))
        with pytest.raises(NumericError, match=r"ffn_branch/hidden: .* index \(0, 0\)"):
            ffn_branch(x, huge, 2)
        with pytest.raises(NumericError, match=r"ffn_branch/layernorm: "):
            ffn_branch(Tensor(np.full((3, 4), 1e308)), params, 2)
        big = dict(params, wv=Tensor(np.zeros((4, 4))), bv=Tensor(np.ones(4)),
                   wo=Tensor(np.full((4, 4), 1e308)))  # every value is 1, so 4e308 out
        with pytest.raises(NumericError, match=r"attention_branch/out: "):
            attention_branch(x, big, 2)


def test_sdpa_error_in_the_attention_branch_names_index_and_head(debug_checks):
    """Head 1 (columns 2 and 3) of element 1 scores q·k / √2 ≈ 2.8e400, which
    overflows; element 0 normalizes to zero in the columns that feed head 1,
    so it scores exactly 0 there, and head 0 is finite."""
    rng = RNG(23)
    params = block_params(rng, 4)
    x = np.empty((2, 3, 4))
    x[0], x[1] = [1.0, -1.0, 0.0, 0.0], [-1.0, -1.0, 1.0, 1.0]
    w = rng.uniform(-1, 1, size=(4, 4))
    w[:, 2], w[:, 3] = 1e200 * np.array([0.0, 0.0, 1.0, 1.0]), 0.0
    params = dict(params, wq=Tensor(w), wk=Tensor(w))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError,
                           match=r"attention_branch/sdpa: .* index \(1, 0, 0\), head 1"):
            attention_branch(Tensor(x), params, 2)
