"""Tensor core: ops, autodiff against finite differences and hand oracles."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ivt import tensor as T
from ivt.gradcheck import grad_check
from ivt.tensor import ContractError, NumericError, Tensor, macs
from reference_ops import layernorm, matmul, softmax, tanh

RNG = np.random.default_rng


def rt(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape))


def plain_layernorm(x):
    """layernorm with unit gain and zero bias: the normalization alone."""
    d = x.shape[-1]
    return layernorm(x, Tensor(np.ones(d)), Tensor(np.zeros(d)))


@pytest.fixture
def debug_checks():
    """Debug checks on for one test, then back to what they were."""
    prev = T.set_debug_checks(True)
    yield
    T.set_debug_checks(prev)


# -- construction and basics ---------------------------------------------------------


def test_tensor_is_float64():
    t = Tensor(np.arange(6, dtype=np.int32).reshape(2, 3))
    assert t.data.dtype == np.float64
    assert t.shape == (2, 3)


def test_scalar_item():
    t = Tensor(np.array(3.5))
    assert t.item() == 3.5
    assert Tensor(np.array([[2.5]])).item() == 2.5
    with pytest.raises(ContractError, match=r"item: .*shape \(3,\)"):
        Tensor(np.array([7.0, 8.0, 9.0])).item()
    with pytest.raises(ContractError, match=r"shape \(0,\)"):
        Tensor(np.zeros(0)).item()


def test_add_shape_mismatch_raises():
    with pytest.raises(ContractError, match=r"^add: shapes \(2, 3\) and \(3, 2\) differ"):
        _ = rt(RNG(0), 2, 3) + rt(RNG(0), 3, 2)


@pytest.mark.parametrize("op", [T.add, T.sub, T.mul], ids=["add", "sub", "mul"])
def test_elementwise_ops_do_not_broadcast_a_scalar(op):
    x, c = rt(RNG(0), 2, 3), Tensor(np.array(2.0))
    with pytest.raises(ContractError, match=f"^{op.__name__}: shapes"):
        op(x, c)
    with pytest.raises(ContractError, match=f"^{op.__name__}: shapes"):
        op(c, x)


def test_matmul_inner_dim_mismatch_raises():
    with pytest.raises(ContractError, match="^matmul: inner dims"):
        matmul(rt(RNG(0), 2, 3), rt(RNG(0), 4, 2))


# -- forward oracles ------------------------------------------------------------------


def test_matmul_matches_triple_loop():
    rng = RNG(1)
    a = rng.uniform(-1, 1, size=(4, 5))
    b = rng.uniform(-1, 1, size=(5, 3))
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                want[i, j] += a[i, k] * b[k, j]
    got = matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_batched_matmul_matches_per_slice():
    rng = RNG(2)
    a = rng.uniform(-1, 1, size=(3, 4, 5))
    b = rng.uniform(-1, 1, size=(3, 5, 2))
    got = matmul(Tensor(a), Tensor(b)).data
    for i in range(3):
        np.testing.assert_allclose(got[i], a[i] @ b[i], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = RNG(3)
    x = rt(rng, 6, 9, lo=-30, hi=30)
    s = softmax(x).data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(6), atol=1e-12)
    assert np.all(s >= 0)


def test_softmax_shift_invariance():
    rng = RNG(4)
    x = rng.uniform(-2, 2, size=(3, 5))
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + 100.0)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_layernorm_zero_mean_unit_var():
    rng = RNG(5)
    y = plain_layernorm(rt(rng, 4, 16, lo=-5, hi=5)).data
    np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-12)
    np.testing.assert_allclose(y.var(axis=-1), 1, atol=1e-5)


def test_gelu_known_values():
    # f(0) = 0 and f(x) -> x for large x under the tanh approximation.
    x = Tensor(np.array([0.0, 6.0, -6.0]))
    y = T.gelu(x).data
    assert y[0] == 0.0
    assert abs(y[1] - 6.0) < 1e-6
    assert abs(y[2]) < 1e-6


@pytest.mark.parametrize("scale", [3.7e154, 1e200, 1e300])
def test_gelu_gradient_is_finite_where_x_squared_overflows(scale):
    # Out here 1 - tanh² is exactly 0 and (3 * 0.044715) x² overflows to inf;
    # their product must be 0, not NaN. The tanh term's x³ overflows too.
    x = Tensor(np.array([scale, -scale]), requires_grad=True)
    with np.errstate(over="ignore"):
        y = T.gelu(x)
        T.backward(T.tsum(y))
    assert y.data.tolist() == [scale, 0.0]
    assert x.grad.tolist() == [1.0, 0.0]


def test_conv2d_matches_scalar_loops():
    rng = RNG(6)
    bsz, cin, cout, h, w = 2, 2, 3, 5, 4
    x = rng.uniform(-1, 1, size=(bsz, cin, h, w))
    wgt = rng.uniform(-1, 1, size=(cout, cin, 3, 3))
    b = rng.uniform(-1, 1, size=cout)
    want = np.zeros((bsz, cout, h, w))
    pad = np.zeros((bsz, cin, h + 2, w + 2))
    pad[:, :, 1:-1, 1:-1] = x
    for n in range(bsz):
        for co in range(cout):
            for i in range(h):
                for j in range(w):
                    acc = b[co]
                    for ci in range(cin):
                        for di in range(3):
                            for dj in range(3):
                                acc += pad[n, ci, i + di, j + dj] * wgt[co, ci, di, dj]
                    want[n, co, i, j] = acc
    got = T.conv2d(Tensor(x), Tensor(wgt), Tensor(b)).data
    np.testing.assert_allclose(got, want, atol=1e-12)
    with pytest.raises(ContractError, match=r"^conv2d: input must be \(B, C, H, W\)"):
        T.conv2d(Tensor(x[0]), Tensor(wgt), Tensor(b))  # one map needs its batch axis


def test_conv2d_rejects_bad_weight_and_bias_shapes():
    rng = RNG(6)
    x, wgt = rt(rng, 2, 2, 5, 4), rt(rng, 3, 2, 3, 3)
    with pytest.raises(ContractError, match=r"bias \(1,\) must be \(3,\) for weight \(3, 2, 3, 3\)"):
        T.conv2d(x, wgt, rt(rng, 1))  # would broadcast over the 3 output channels
    with pytest.raises(ContractError, match=r"weight \(3, 2, 3\) must be .* input \(2, 2, 5, 4\)"):
        T.conv2d(x, rt(rng, 3, 2, 3), rt(rng, 3))
    with pytest.raises(ContractError, match="^conv2d: kernel dims must be odd"):
        T.conv2d(x, rt(rng, 3, 2, 2, 3), rt(rng, 3))


def test_take_rows_gathers_and_accumulates_grad():
    x = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    idx = np.array([1, 1, 3])
    y = T.take_rows(x, idx)
    np.testing.assert_array_equal(y.data, x.data[idx])
    T.backward(T.tsum(y))
    # Row 1 is gathered twice, so its gradient accumulates to 2.
    np.testing.assert_array_equal(x.grad, np.array([[0.0] * 3, [2.0] * 3,
                                                    [0.0] * 3, [1.0] * 3]))


def test_take_rows_out_of_bounds_raises():
    with pytest.raises(ContractError, match=r"^take_rows: index 3 out of range \[0, 3\)"):
        T.take_rows(rt(RNG(0), 3, 2), np.array([0, 3]))
    with pytest.raises(ContractError, match="integers"):
        T.take_rows(rt(RNG(0), 3, 2), [1.7, 0.2])  # would truncate to rows 1 and 0
    with pytest.raises(ContractError, match="integers"):
        T.take_rows(rt(RNG(0), 3, 2), np.array([True, False, True]))
    assert T.take_rows(rt(RNG(0), 3, 2), np.array([], dtype=np.int64)).shape == (0, 2)


def test_concat_narrow_round_trip():
    rng = RNG(7)
    a, b = rt(rng, 2, 3), rt(rng, 2, 4)
    c = T.concat([a, b], axis=1)
    np.testing.assert_array_equal(T.narrow(c, 1, 0, 3).data, a.data)
    np.testing.assert_array_equal(T.narrow(c, 1, 3, 4).data, b.data)
    with pytest.raises(ContractError, match="length -1 is negative"):
        T.narrow(c, 1, 2, -1)  # would be an empty slice
    with pytest.raises(ContractError, match=r"^narrow: slice \[5, 8\) out of range 7"):
        T.narrow(c, 1, 5, 3)
    np.testing.assert_array_equal(T.narrow(c, -1, 3, 4).data, b.data)
    with pytest.raises(ContractError, match="narrow: axis 2 out of range for rank 2"):
        T.narrow(c, 2, 0, 1)
    with pytest.raises(ContractError, match="concat: axis 2 out of range for rank 2"):
        T.concat([a, b], axis=2)
    with pytest.raises(ContractError, match="concat: axis -3 out of range for rank 2"):
        T.concat([a], axis=-3)
    with pytest.raises(ContractError, match=r"concat: shapes \[\(2, 3\), \(2, 4\)\] differ"):
        T.concat([a, b], axis=0)
    with pytest.raises(ContractError, match=r"concat: shapes \[\(2, 3\), \(2, 3, 1\)\] differ"):
        T.concat([a, rt(rng, 2, 3, 1)], axis=-1)


def test_concat_of_one_and_narrow_of_whole_axis_are_identities():
    x = Tensor(RNG(7).uniform(-1, 1, size=(2, 3)), requires_grad=True)
    assert T.concat([x], axis=1) is x
    assert T.narrow(x, 1, 0, 3) is x
    T.backward(T.tsum(tanh(T.narrow(T.concat([x], axis=0), 0, 0, 2))))
    np.testing.assert_allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, atol=1e-15)


def test_reshape_transpose_round_trip():
    rng = RNG(8)
    x = rt(rng, 2, 3, 4)
    y = T.reshape(T.transpose(T.transpose(x, (2, 0, 1)), (1, 2, 0)), (2, 3, 4))
    np.testing.assert_array_equal(y.data, x.data)


def test_reshape_infers_one_dimension():
    x = rt(RNG(9), 4, 6)
    assert T.reshape(x, (-1, 3)).shape == (8, 3)
    with pytest.raises(ContractError, match="^reshape: at most one inferred dimension"):
        T.reshape(x, (-1, -1))
    with pytest.raises(ContractError, match="^reshape: cannot reshape"):
        T.reshape(x, (-1, 5))
    with pytest.raises(ContractError, match="at least -1"):
        T.reshape(x, (-2, -3))  # the sizes multiply to 6, but no size is below -1
    with pytest.raises(ContractError, match="at least -1"):
        T.reshape(x, (-1, -8, 3))


# -- gradient checks per op ----------------------------------------------------------


UNARY_OPS = [
    ("tanh", tanh, (-2.0, 2.0)),
    ("sigmoid", T.sigmoid, (-3.0, 3.0)),
    ("gelu", T.gelu, (-2.0, 2.0)),
    ("absolute", T.absolute, (0.1, 2.0)),
    ("softmax", softmax, (-2.0, 2.0)),
    ("layernorm", plain_layernorm, (-2.0, 2.0)),
]


@pytest.mark.parametrize("index", range(len(UNARY_OPS)), ids=[u[0] for u in UNARY_OPS])
def test_unary_gradients(index):
    _, op, (lo, hi) = UNARY_OPS[index]
    rng = RNG(index)  # one fixed seed per op, the same in every process
    x = rt(rng, 3, 7, lo=lo, hi=hi)
    w = rt(rng, 3, 7)  # random cotangent so all output components matter
    err = grad_check(lambda t: T.tsum(op(t) * w), x)
    assert err <= 1e-6


def test_matmul_gradients_both_sides():
    rng = RNG(10)
    a, b = rt(rng, 3, 4), rt(rng, 4, 2)
    assert grad_check(lambda t: T.tsum(tanh(matmul(t, b))), a) <= 1e-6
    assert grad_check(lambda t: T.tsum(tanh(matmul(a, t))), b) <= 1e-6


def test_batched_matmul_gradients():
    rng = RNG(11)
    a, b = rt(rng, 2, 3, 4), rt(rng, 2, 4, 3)
    assert grad_check(lambda t: T.tsum(tanh(matmul(t, b))), a) <= 1e-6
    assert grad_check(lambda t: T.tsum(tanh(matmul(a, t))), b) <= 1e-6


def test_conv2d_gradients_all_arguments():
    rng = RNG(12)
    x = rt(rng, 2, 2, 5, 4)
    w = rt(rng, 3, 2, 3, 3)
    b = rt(rng, 3)
    cot = rt(rng, 2, 3, 5, 4)
    assert grad_check(lambda t: T.tsum(T.conv2d(t, w, b) * cot), x) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.conv2d(x, t, b) * cot), w) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.conv2d(x, w, t) * cot), b) <= 1e-6


def test_reduction_and_broadcast_gradients():
    rng = RNG(13)
    x = rt(rng, 4, 5)
    p = rt(rng, 5)
    assert grad_check(lambda t: T.tmean(t * t), x) <= 1e-6
    assert grad_check(lambda t: T.tsum(tanh(T.add_bcast(x, t))), p) <= 1e-6
    x3, gain, bias = rt(rng, 2, 4, 5), rt(rng, 5), rt(rng, 5)
    assert grad_check(lambda t: T.tsum(tanh(layernorm(t, gain, bias))), x3) <= 1e-6
    assert grad_check(lambda t: T.tsum(tanh(layernorm(x3, t, bias))), gain) <= 1e-6
    assert grad_check(lambda t: T.tsum(tanh(layernorm(x3, gain, t))), bias) <= 1e-6


def test_add_bcast_gradient_and_shape():
    rng = RNG(14)
    x = rt(rng, 3, 4, 5)
    p = rt(rng, 4, 5)
    y = T.add_bcast(x, p)
    np.testing.assert_allclose(y.data, x.data + p.data[None], atol=1e-15)
    assert grad_check(lambda t: T.tsum(tanh(T.add_bcast(x, t))), p) <= 1e-6


def test_concat_narrow_take_gradients():
    rng = RNG(15)
    a, b = rt(rng, 3, 4), rt(rng, 2, 4)

    def f(t):
        c = T.concat([t, b], axis=0)
        return T.tsum(tanh(T.narrow(c, 0, 1, 3)))

    assert grad_check(f, a) <= 1e-6
    idx = np.array([0, 2, 2, 1])
    assert grad_check(lambda t: T.tsum(tanh(T.take_rows(t, idx))), a) <= 1e-6


# -- fused affine layer ------------------------------------------------------------------


def chained_linear(x, w, b):
    """The op chain linear replaces: reshape, matmul, add_bcast, reshape."""
    flat = T.reshape(x, (-1, w.shape[0]))
    return T.reshape(T.add_bcast(matmul(flat, w), b), x.shape[:-1] + (w.shape[1],))


LINEAR_SHAPES = [(4,), (3, 4), (2, 3, 4), (2, 1, 3, 4)]


@pytest.mark.parametrize("shape", LINEAR_SHAPES, ids=["1d", "2d", "3d", "4d"])
def test_linear_gradients_all_arguments(shape):
    rng = RNG(16)
    x, w, b = rt(rng, *shape), rt(rng, 4, 5), rt(rng, 5)
    cot = rt(rng, *shape[:-1], 5)
    assert grad_check(lambda t: T.tsum(T.linear(t, w, b) * cot), x) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.linear(x, t, b) * cot), w) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.linear(x, w, t) * cot), b) <= 1e-6


@pytest.mark.parametrize("shape", LINEAR_SHAPES, ids=["1d", "2d", "3d", "4d"])
def test_linear_matches_chain_bitwise(shape):
    rng = RNG(17)
    arrays = [rng.uniform(-1, 1, size=s) for s in (shape, (4, 5), (5,))]
    g = rng.standard_normal(shape[:-1] + (5,))
    results = []
    for op in (T.linear, chained_linear):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = op(x, w, b)
        T.backward(T.tsum(out * Tensor(g)))
        results.append((out.data, x.grad, w.grad, b.grad))
    for fused, chain in zip(*results):
        np.testing.assert_array_equal(fused, chain)


def test_linear_rejects_mismatched_widths():
    rng = RNG(18)
    x, w = rt(rng, 3, 4), rt(rng, 4, 5)
    with pytest.raises(ContractError, match="^linear: input dim"):
        T.linear(rt(rng, 3, 6), w, rt(rng, 5))
    for bad in ((4,), (1, 5), ()):
        with pytest.raises(ContractError, match="^linear: bias"):
            T.linear(x, w, Tensor(np.zeros(bad)))


def test_linear_macs_are_one_matmul_over_the_rows():
    rng = RNG(19)
    macs.reset()
    with macs.counting():
        T.linear(rt(rng, 2, 3, 4), rt(rng, 4, 5), rt(rng, 5))
    assert macs.total == 2 * 3 * 4 * 5


# -- fused attention -------------------------------------------------------------------


def unfused_attention(q, k, v):
    """The op chain sdpa replaces: matmul, scale, softmax, matmul."""
    kt = T.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    return matmul(softmax(T.scale(matmul(q, kt), 1.0 / np.sqrt(q.shape[-1]))), v)


def unfused_heads(q, k, v, heads):
    """unfused_attention on each head's columns, the outputs side by side."""
    e, ev = q.shape[-1] // heads, v.shape[-1] // heads
    return T.concat([unfused_attention(T.narrow(q, -1, h * e, e), T.narrow(k, -1, h * e, e),
                                       T.narrow(v, -1, h * ev, ev))
                     for h in range(heads)], axis=-1)


SDPA_SHAPES = [((3, 4), (5, 4), (5, 2)), ((2, 3, 4), (2, 5, 4), (2, 5, 2))]


@pytest.mark.parametrize("shapes", SDPA_SHAPES, ids=["2d", "3d"])
def test_sdpa_gradients_all_arguments(shapes):
    rng = RNG(12)
    q, k, v = (rt(rng, *s, lo=-2.0, hi=2.0) for s in shapes)
    w = rt(rng, *shapes[0][:-1], shapes[2][-1])  # weights the output entries unequally
    assert grad_check(lambda t: T.tsum(T.sdpa(t, k, v, 1) * w), q) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.sdpa(q, t, v, 1) * w), k) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.sdpa(q, k, t, 1) * w), v) <= 1e-6


@pytest.mark.parametrize("shapes", SDPA_SHAPES + [((4, 64, 16), (4, 96, 16), (4, 96, 8))],
                         ids=["2d", "3d", "3d-large"])
def test_sdpa_matches_unfused_chain(shapes):
    assert_sdpa_matches_unfused_chain(shapes)


def assert_sdpa_matches_unfused_chain(shapes):
    """Output and all three grads of sdpa agree with the unfused chain to 1e-12."""
    rng = RNG(13)
    arrays = [rng.uniform(-2, 2, size=s) for s in shapes]
    assert_sdpa_matches_chain_on(arrays, rng.standard_normal(shapes[0][:-1] + (shapes[2][-1],)), 1)


def assert_sdpa_matches_chain_on(arrays, g, heads):
    """sdpa and the unfused chain per head on q, k, v = arrays, with output
    gradient g."""
    results = []
    for op in (T.sdpa, unfused_heads):
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = op(q, k, v, heads)
        T.backward(T.tsum(out * Tensor(g)))
        results.append((out.data, q.grad, k.grad, v.grad))
    for fused, chain in zip(*results):
        np.testing.assert_allclose(fused, chain, rtol=0, atol=1e-12)


def test_sdpa_rejects_mismatched_shapes():
    rng = RNG(14)
    with pytest.raises(ContractError, match="^sdpa: inner dims"):
        T.sdpa(rt(rng, 3, 4), rt(rng, 5, 3), rt(rng, 5, 2), 1)
    with pytest.raises(ContractError, match="^sdpa: inner dims"):
        T.sdpa(rt(rng, 3, 4), rt(rng, 5, 4), rt(rng, 6, 2), 1)
    with pytest.raises(ContractError, match="^sdpa: shapes .* are incompatible"):
        T.sdpa(rt(rng, 2, 3, 4), rt(rng, 3, 5, 4), rt(rng, 3, 5, 2), 1)


def test_sdpa_heads_must_divide_both_widths():
    rng = RNG(24)
    q, k, v = rt(rng, 3, 4), rt(rng, 5, 4), rt(rng, 5, 6)
    for heads in (0, -1, 3, 4):  # 3 does not divide q's width 4, nor 4 v's width 6
        with pytest.raises(ContractError, match="heads"):
            T.sdpa(q, k, v, heads)
    assert T.sdpa(q, k, v, 2).shape == (3, 6)


def test_sdpa_rejects_zero_width_and_zero_keys():
    rng = RNG(25)
    with pytest.raises(ContractError, match="feature dim is zero"):
        T.sdpa(Tensor(np.zeros((3, 0))), Tensor(np.zeros((5, 0))), rt(rng, 5, 2), 1)
    with pytest.raises(ContractError, match="at least one key"):
        T.sdpa(rt(rng, 2, 3, 4), Tensor(np.zeros((2, 0, 4))), Tensor(np.zeros((2, 0, 2))), 2)


def test_sdpa_nan_input_raises_under_debug_checks(debug_checks):
    rng = RNG(15)
    q = rng.uniform(-1, 1, size=(3, 4))
    q[1, 2] = np.nan
    with pytest.raises(NumericError, match="sdpa"):
        T.sdpa(Tensor(q), rt(rng, 5, 4), rt(rng, 5, 2), 1)


def test_sdpa_nan_names_the_head(debug_checks):
    rng = RNG(26)
    q = rng.uniform(-1, 1, size=(2, 7, 8))
    q[1, 5, 6] = np.nan  # column 6 of width 8 is in head 1 of 2
    with pytest.raises(NumericError, match=r"sdpa: .* index \(1, 5, 0\), head 1$"):
        T.sdpa(Tensor(q), rt(rng, 2, 6, 8), rt(rng, 2, 6, 4), 2)


# Block budgets that force several blocks on small shapes: three 48-byte rows
# of 6 keys, and two 144-byte (3 x 6) score matrices.
ROWS_OF_THREE = 3 * 6 * 8
TWO_ELEMENTS = 2 * 3 * 6 * 8


def test_sdpa_blocks_group_elements_or_split_rows(monkeypatch):
    monkeypatch.setattr(T, "SDPA_BLOCK_BYTES", TWO_ELEMENTS)
    assert T._sdpa_blocks(5, 3, 6) == [(0, 2, 0, 3), (2, 4, 0, 3), (4, 5, 0, 3)]
    monkeypatch.setattr(T, "SDPA_BLOCK_BYTES", ROWS_OF_THREE)
    assert T._sdpa_blocks(2, 7, 6) == [(0, 1, 0, 3), (0, 1, 3, 6), (0, 1, 6, 7),
                                       (1, 2, 0, 3), (1, 2, 3, 6), (1, 2, 6, 7)]
    assert T._sdpa_blocks(4, 3, 6) == [(b, b + 1, 0, 3) for b in range(4)]


@pytest.mark.parametrize("budget, shapes", [
    (TWO_ELEMENTS, ((5, 3, 4), (5, 6, 4), (5, 6, 2))),       # grouped, ragged last group
    (ROWS_OF_THREE, ((2, 7, 4), (2, 6, 4), (2, 6, 3))),      # ragged last row block
    (ROWS_OF_THREE, ((7, 4), (6, 4), (6, 3))),               # 2-D, ragged rows
    (ROWS_OF_THREE, ((2, 2, 7, 4), (2, 2, 6, 4), (2, 2, 6, 3))),  # two batch dims
], ids=["grouped", "rows", "2d-rows", "4d-rows"])
def test_blocked_sdpa_matches_unfused_chain(monkeypatch, budget, shapes):
    monkeypatch.setattr(T, "SDPA_BLOCK_BYTES", budget)
    assert_sdpa_matches_unfused_chain(shapes)


def test_blocked_sdpa_gradients(monkeypatch):
    monkeypatch.setattr(T, "SDPA_BLOCK_BYTES", ROWS_OF_THREE)
    rng = RNG(16)
    q, k, v = rt(rng, 2, 7, 4), rt(rng, 2, 6, 4), rt(rng, 2, 6, 3)
    w = rt(rng, 2, 7, 3)
    assert grad_check(lambda t: T.tsum(T.sdpa(t, k, v, 1) * w), q) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.sdpa(q, t, v, 1) * w), k) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.sdpa(q, k, t, 1) * w), v) <= 1e-6


def test_sdpa_over_the_block_budget_matches_unfused_chain():
    shapes = ((2, 300, 8), (2, 600, 8), (2, 600, 4))  # 1.4 MB of scores per element
    assert 300 * 600 * 8 > T.SDPA_BLOCK_BYTES
    assert len(T._sdpa_blocks(2, 300, 600)) > 2
    assert_sdpa_matches_unfused_chain(shapes)


def kept_beyond_output(op):
    """(out, bytes): op's result, and what its forward left allocated beyond
    the output array, which is what the closure keeps until backward. The op
    runs once before, so one-off allocations do not count."""
    op()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = op()
        kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    return out, kept


# The Tensor, its closure and its cells as Python objects (about 4 KiB for
# conv2d), well below the scratch arrays of the ops below.
OBJECT_BYTES = 8192


@pytest.mark.parametrize("op, shapes, row_stats", [
    (T.gelu, ((64, 512),), 0),                             # the tanh term: 256 KiB
    (layernorm, ((256, 128), (128,), (128,)), 2),        # the normalized input: 256 KiB
    (T.conv2d, ((2, 4, 16, 16), (3, 4, 3, 3), (3,)), 0),   # im2col 144 KiB, padding 20 KiB
], ids=["gelu", "layernorm", "conv2d"])
def test_forward_keeps_its_output_and_row_statistics_only(op, shapes, row_stats):
    """Between forward and backward an op holds its output and at most
    ``row_stats`` numbers per output row; backward rebuilds its scratch
    arrays (module docstring)."""
    rng = RNG(25)
    args = [Tensor(rng.uniform(-2, 2, size=s), requires_grad=True) for s in shapes]
    out, kept = kept_beyond_output(lambda: op(*args))
    rows = out.size // out.shape[-1]
    assert kept <= 8 * row_stats * rows + OBJECT_BYTES
    T.backward(T.tsum(tanh(out)))
    assert all(np.all(np.isfinite(t.grad)) for t in args)


def test_sdpa_forward_keeps_row_statistics_not_weights(monkeypatch):
    """Between forward and backward, sdpa holds less than one score block
    beyond its output: one logsumexp per row, not P (batch·nq·nk·8 bytes),
    and, with two heads, not the per-head copies of q, k, v and the output
    (345.6 KB), which backward rebuilds."""
    block = 32 * 600 * 8
    monkeypatch.setattr(T, "SDPA_BLOCK_BYTES", block)
    for heads in (1, 2):
        assert len(T._sdpa_blocks(4 * heads, 300, 600)) == 4 * heads * 10
        rng = RNG(19)
        q, k, v = (Tensor(rng.uniform(-2, 2, size=s), requires_grad=True)
                   for s in ((4, 300, 8), (4, 600, 8), (4, 600, 4)))
        out, kept = kept_beyond_output(lambda: T.sdpa(q, k, v, heads))
        assert kept < block < 4 * 300 * 600 * 8, f"{heads} heads"
        T.backward(T.tsum(out))
        assert all(np.all(np.isfinite(t.grad)) for t in (q, k, v))


def test_blocked_sdpa_nan_names_the_global_score_index(monkeypatch, debug_checks):
    monkeypatch.setattr(T, "SDPA_BLOCK_BYTES", ROWS_OF_THREE)
    rng = RNG(17)
    q = rng.uniform(-1, 1, size=(2, 2, 7, 4))
    q[1, 0, 5, 1] = np.nan  # third batch element, second row block
    with pytest.raises(NumericError, match=r"sdpa: .* index \(1, 0, 5, 0\)"):
        T.sdpa(Tensor(q), rt(rng, 2, 2, 6, 4), rt(rng, 2, 2, 6, 3), 1)


def test_blocked_sdpa_inf_names_the_global_score_index(monkeypatch, debug_checks):
    """A +inf in q makes its row's positive scores +inf; the shift by the row
    max turns them into NaN, and the first of them is the index named."""
    monkeypatch.setattr(T, "SDPA_BLOCK_BYTES", ROWS_OF_THREE)
    rng = RNG(21)
    q = rng.uniform(-1, 1, size=(2, 2, 7, 4))
    q[1, 0, 5, 1] = np.inf  # third batch element, second row block
    k = rng.uniform(0.1, 1, size=(2, 2, 6, 4))
    k[1, 0, :2, 1] *= -1.0  # keys 0 and 1 score -inf, key 2 is the first +inf
    with pytest.raises(NumericError, match=r"sdpa: .* index \(1, 0, 5, 2\)"):
        T.sdpa(Tensor(q), Tensor(k), rt(rng, 2, 2, 6, 3), 1)


@st.composite
def sdpa_cases(draw):
    """Random shapes and head counts, a block budget of each kind, and a peak
    score near 50 at most. d and dv are the widths of one head."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    nq, nk = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    d, dv, heads = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    batch = int(np.prod(lead, dtype=np.int64)) * heads  # one element per head
    kind = draw(st.sampled_from(["one", "grouped", "rows"]))
    if kind == "one":
        budget = T.SDPA_BLOCK_BYTES
    elif kind == "grouped":  # groups of whole batch elements
        budget = draw(st.integers(1, batch)) * nq * nk * 8
    else:  # ranges of query rows
        budget = draw(st.integers(1, nq)) * nk * 8
    peak = draw(st.floats(0.0, 50.0))
    return lead, (nq, nk, d, dv), heads, budget, peak, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=150)
@given(case=sdpa_cases())
def test_sdpa_property_matches_unfused_chain(case):
    """Output and all three grads agree with the unfused chain per head to
    1e-12, for any shape, head count and block kind, up to scores of |s| ≈ 50
    where rows are near one-hot: entries of q and k lie in ±sqrt(peak/√d),
    so |q·k|/√d ≤ peak."""
    lead, (nq, nk, d, dv), heads, budget, peak, seed = case
    rng = RNG(seed)
    a = np.sqrt(peak / np.sqrt(d))
    d, dv = heads * d, heads * dv
    arrays = [rng.uniform(-a, a, size=lead + (nq, d)), rng.uniform(-a, a, size=lead + (nk, d)),
              rng.uniform(-1, 1, size=lead + (nk, dv))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "SDPA_BLOCK_BYTES", budget)
        assert_sdpa_matches_chain_on(arrays, rng.standard_normal(lead + (nq, dv)), heads)


def test_blocked_sdpa_macs_are_the_two_matmuls(monkeypatch):
    monkeypatch.setattr(T, "SDPA_BLOCK_BYTES", ROWS_OF_THREE)
    rng = RNG(18)
    q, k, v = rt(rng, 2, 7, 4), rt(rng, 2, 6, 4), rt(rng, 2, 6, 3)
    macs.reset()
    with macs.counting():
        T.sdpa(q, k, v, 1)
    assert macs.total == 2 * 7 * 6 * (4 + 3)


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1 = 5
    T.backward(T.tsum(y))
    np.testing.assert_allclose(x.grad, [5.0])


def test_leaves_summed_by_add_get_distinct_grad_buffers():
    """add returns its incoming gradient to both parents; each leaf still owns
    its .grad, so scaling one in place (as gradient clipping may) leaves the
    other alone."""
    rng = RNG(22)
    a, b = (Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True) for _ in range(2))
    T.backward(T.tsum(tanh(a + b)))
    assert not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, b.grad)
    a.grad *= 2.0
    np.testing.assert_array_equal(a.grad, 2.0 * b.grad)


def test_leaves_behind_nested_adds_get_distinct_grad_buffers():
    """The inner sum is an interior node; the outer add's gradient reaches it
    and leaf a both, and the inner add hands it on to b and c, so no two of
    the three leaves may keep that one buffer."""
    rng = RNG(24)
    a, b, c = (Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True) for _ in range(3))
    T.backward(T.tsum(tanh(a + (b + c))))
    for u, v in ((a, b), (a, c), (b, c)):
        assert not np.shares_memory(u.grad, v.grad)


def test_a_leaf_grad_that_arrives_as_a_view_is_copied():
    rng = RNG(23)
    x = Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
    w = rt(rng, 4, 3)
    T.backward(T.tsum(tanh(T.reshape(x, (4, 3)) * w)))  # reshape returns a view of its g
    assert x.grad.base is None and x.grad.flags["OWNDATA"]


def test_backward_requires_scalar():
    with pytest.raises(T.ContractError):
        T.backward(rt(RNG(0), 2, 2))


def test_backward_deterministic():
    def run():
        rng = RNG(99)
        x = Tensor(rng.uniform(-1, 1, size=(6, 6)), requires_grad=True)
        y = T.tsum(softmax(plain_layernorm(matmul(x, x))) * x)
        T.backward(y)
        return x.grad.copy()

    np.testing.assert_array_equal(run(), run())


def test_backward_consumes_graph_and_keeps_leaf_grads():
    rng = RNG(16)
    x = Tensor(rng.uniform(-1, 1, size=(4, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, size=(3, 3)), requires_grad=True)
    h = tanh(matmul(x, w))
    y = T.sdpa(h, h, h, 1)
    loss = T.tsum(y * y)
    inner = [h, y, loss]
    T.backward(loss)
    for node in inner:  # no grad, no parents, and the closure swapped for the stub
        assert node.grad is None and node._parents == () and node._backward_fn is T._consumed
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    with pytest.raises(T.ContractError, match="consumed"):
        T.backward(loss)  # the graph is gone; a second pass fails loudly


def test_backward_frees_intermediates():
    rng = RNG(17)
    x = Tensor(rng.uniform(-1, 1, size=(5, 4)), requires_grad=True)
    h = tanh(matmul(x, Tensor(x.data.T.copy())))
    ref = weakref.ref(h)
    loss = T.tsum(T.sdpa(h, h, h, 1))
    del h
    gc.collect()
    assert ref() is not None  # the tape keeps it alive until backward
    T.backward(loss)
    assert ref() is None  # freed by refcount alone, once consumed
    assert x.grad is not None


def test_debug_checks_flag_detects_nan(debug_checks):
    bad = Tensor(np.array([1.0, np.nan]))
    with pytest.raises(NumericError, match=r"index \(1,\)"):
        T.sigmoid(bad)


# -- gradcheck utility ----------------------------------------------------------------


def test_grad_check_flags_wrong_gradient():
    # sum(stop-gradient-ish): rig a function whose analytic grad is wrong by
    # detaching through .data on one branch.
    x = rt(RNG(1), 4)

    def f(t):
        return T.tsum(t * Tensor(t.data))  # analytic treats one factor constant

    assert grad_check(f, x) > 1e-3


# -- multiply-accumulate counting -----------------------------------------------------


def test_mac_counter_matmul_exact():
    macs.reset()
    a, b = rt(RNG(2), 3, 4), rt(RNG(2), 4, 5)
    with macs.counting():
        matmul(a, b)
    assert macs.total == 3 * 4 * 5


def test_mac_counter_scopes_nest():
    macs.reset()
    a, b = rt(RNG(3), 2, 2), rt(RNG(3), 2, 2)
    with macs.counting():
        with macs.scope("outer"):
            matmul(a, b)
            with macs.scope("inner"):
                matmul(a, b)
    assert macs.by_scope["outer"] == 16
    assert macs.by_scope["inner"] == 8


def test_mac_counter_off_by_default():
    macs.reset()
    matmul(rt(RNG(4), 2, 2), rt(RNG(4), 2, 2))
    assert macs.total == 0
