"""Tensor core: ops, autodiff against finite differences and hand oracles."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from ivt import tensor as T
from ivt.gradcheck import grad_check
from ivt.tensor import (BoundsError, ConfigError, NumericError, ShapeError,
                        Tensor, macs)

RNG = np.random.default_rng


def rt(rng, *shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape))


# -- construction and basics ---------------------------------------------------------


def test_tensor_is_float64():
    t = Tensor(np.arange(6, dtype=np.int32).reshape(2, 3))
    assert t.data.dtype == np.float64
    assert t.shape == (2, 3)


def test_scalar_item():
    t = Tensor(np.array(3.5))
    assert t.item() == 3.5


def test_add_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        _ = rt(RNG(0), 2, 3) + rt(RNG(0), 3, 2)


def test_matmul_inner_dim_mismatch_raises():
    with pytest.raises(ShapeError):
        _ = rt(RNG(0), 2, 3) @ rt(RNG(0), 4, 2)


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
    got = (Tensor(a) @ Tensor(b)).data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_batched_matmul_matches_per_slice():
    rng = RNG(2)
    a = rng.uniform(-1, 1, size=(3, 4, 5))
    b = rng.uniform(-1, 1, size=(3, 5, 2))
    got = (Tensor(a) @ Tensor(b)).data
    for i in range(3):
        np.testing.assert_allclose(got[i], a[i] @ b[i], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = RNG(3)
    x = rt(rng, 6, 9, lo=-30, hi=30)
    s = T.softmax(x).data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(6), atol=1e-12)
    assert np.all(s >= 0)


def test_softmax_shift_invariance():
    rng = RNG(4)
    x = rng.uniform(-2, 2, size=(3, 5))
    a = T.softmax(Tensor(x)).data
    b = T.softmax(Tensor(x + 100.0)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_layernorm_zero_mean_unit_var():
    rng = RNG(5)
    y = T.layernorm(rt(rng, 4, 16, lo=-5, hi=5)).data
    np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-12)
    np.testing.assert_allclose(y.var(axis=-1), 1, atol=1e-5)


def test_gelu_known_values():
    # f(0) = 0 and f(x) -> x for large x under the tanh approximation.
    x = Tensor(np.array([0.0, 6.0, -6.0]))
    y = T.gelu(x).data
    assert y[0] == 0.0
    assert abs(y[1] - 6.0) < 1e-6
    assert abs(y[2]) < 1e-6


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
    with pytest.raises(T.ShapeError):
        T.conv2d(Tensor(x[0]), Tensor(wgt), Tensor(b))  # one map needs its batch axis


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
    with pytest.raises(BoundsError):
        T.take_rows(rt(RNG(0), 3, 2), np.array([0, 3]))


def test_concat_narrow_round_trip():
    rng = RNG(7)
    a, b = rt(rng, 2, 3), rt(rng, 2, 4)
    c = T.concat([a, b], axis=1)
    np.testing.assert_array_equal(T.narrow(c, 1, 0, 3).data, a.data)
    np.testing.assert_array_equal(T.narrow(c, 1, 3, 4).data, b.data)


def test_concat_of_one_and_narrow_of_whole_axis_are_identities():
    x = Tensor(RNG(7).uniform(-1, 1, size=(2, 3)), requires_grad=True)
    assert T.concat([x], axis=1) is x
    assert T.narrow(x, 1, 0, 3) is x
    T.backward(T.tsum(T.tanh(T.narrow(T.concat([x], axis=0), 0, 0, 2))))
    np.testing.assert_allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, atol=1e-15)


def test_reshape_transpose_round_trip():
    rng = RNG(8)
    x = rt(rng, 2, 3, 4)
    y = T.reshape(T.transpose(T.transpose(x, (2, 0, 1)), (1, 2, 0)), (2, 3, 4))
    np.testing.assert_array_equal(y.data, x.data)


def test_reshape_infers_one_dimension():
    x = rt(RNG(9), 4, 6)
    assert T.reshape(x, (-1, 3)).shape == (8, 3)
    with pytest.raises(ShapeError):
        T.reshape(x, (-1, -1))
    with pytest.raises(ShapeError):
        T.reshape(x, (-1, 5))


# -- gradient checks per op ----------------------------------------------------------


UNARY_OPS = [
    ("exp", T.exp, (-1.0, 1.0)),
    ("tanh", T.tanh, (-2.0, 2.0)),
    ("sigmoid", T.sigmoid, (-3.0, 3.0)),
    ("gelu", T.gelu, (-2.0, 2.0)),
    ("sqrt", T.sqrt, (0.5, 3.0)),
    ("absolute", T.absolute, (0.1, 2.0)),
    ("softmax", T.softmax, (-2.0, 2.0)),
    ("layernorm", T.layernorm, (-2.0, 2.0)),
]


@pytest.mark.parametrize("name,op,rng_range", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_unary_gradients(name, op, rng_range):
    rng = RNG(hash(name) % 2**32)
    lo, hi = rng_range
    x = rt(rng, 3, 7, lo=lo, hi=hi)
    w = rt(rng, 3, 7)  # random cotangent so all output components matter
    err = grad_check(lambda t: T.tsum(op(t) * w), x)
    assert err <= 1e-6


def test_matmul_gradients_both_sides():
    rng = RNG(10)
    a, b = rt(rng, 3, 4), rt(rng, 4, 2)
    assert grad_check(lambda t: T.tsum(T.tanh(t @ b)), a) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.tanh(a @ t)), b) <= 1e-6


def test_batched_matmul_gradients():
    rng = RNG(11)
    a, b = rt(rng, 2, 3, 4), rt(rng, 2, 4, 3)
    assert grad_check(lambda t: T.tsum(T.tanh(t @ b)), a) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.tanh(a @ t)), b) <= 1e-6


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
    assert grad_check(lambda t: T.tsum(T.tanh(T.add_last(x, t))), p) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.tanh(T.mul_last(x, t))), p) <= 1e-6


def test_add_bcast_gradient_and_shape():
    rng = RNG(14)
    x = rt(rng, 3, 4, 5)
    p = rt(rng, 4, 5)
    y = T.add_bcast(x, p)
    np.testing.assert_allclose(y.data, x.data + p.data[None], atol=1e-15)
    assert grad_check(lambda t: T.tsum(T.tanh(T.add_bcast(x, t))), p) <= 1e-6


def test_concat_narrow_take_gradients():
    rng = RNG(15)
    a, b = rt(rng, 3, 4), rt(rng, 2, 4)

    def f(t):
        c = T.concat([t, b], axis=0)
        return T.tsum(T.tanh(T.narrow(c, 0, 1, 3)))

    assert grad_check(f, a) <= 1e-6
    idx = np.array([0, 2, 2, 1])
    assert grad_check(lambda t: T.tsum(T.tanh(T.take_rows(t, idx))), a) <= 1e-6


# -- fused attention -------------------------------------------------------------------


def unfused_attention(q, k, v):
    """The op chain sdpa replaces: matmul, scale, softmax, matmul."""
    kt = T.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    return T.softmax(T.scale(q @ kt, 1.0 / np.sqrt(q.shape[-1]))) @ v


SDPA_SHAPES = [((3, 4), (5, 4), (5, 2)), ((2, 3, 4), (2, 5, 4), (2, 5, 2))]


@pytest.mark.parametrize("shapes", SDPA_SHAPES, ids=["2d", "3d"])
def test_sdpa_gradients_all_arguments(shapes):
    rng = RNG(12)
    q, k, v = (rt(rng, *s, lo=-2.0, hi=2.0) for s in shapes)
    w = rt(rng, *shapes[0][:-1], shapes[2][-1])  # weights the output entries unequally
    assert grad_check(lambda t: T.tsum(T.sdpa(t, k, v) * w), q) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.sdpa(q, t, v) * w), k) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.sdpa(q, k, t) * w), v) <= 1e-6


@pytest.mark.parametrize("shapes", SDPA_SHAPES + [((4, 64, 16), (4, 96, 16), (4, 96, 8))],
                         ids=["2d", "3d", "3d-large"])
def test_sdpa_matches_unfused_chain(shapes):
    assert_sdpa_matches_unfused_chain(shapes)


def assert_sdpa_matches_unfused_chain(shapes):
    """Output and all three grads of sdpa agree with the unfused chain to 1e-12."""
    rng = RNG(13)
    arrays = [rng.uniform(-2, 2, size=s) for s in shapes]
    g = rng.standard_normal(shapes[0][:-1] + (shapes[2][-1],))
    results = []
    for op in (T.sdpa, unfused_attention):
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = op(q, k, v)
        T.backward(T.tsum(out * Tensor(g)))
        results.append((out.data, q.grad, k.grad, v.grad))
    for fused, chain in zip(*results):
        np.testing.assert_allclose(fused, chain, rtol=0, atol=1e-12)


def test_sdpa_rejects_mismatched_shapes():
    rng = RNG(14)
    with pytest.raises(ShapeError):
        T.sdpa(rt(rng, 3, 4), rt(rng, 5, 3), rt(rng, 5, 2))
    with pytest.raises(ShapeError):
        T.sdpa(rt(rng, 3, 4), rt(rng, 5, 4), rt(rng, 6, 2))
    with pytest.raises(ShapeError):
        T.sdpa(rt(rng, 2, 3, 4), rt(rng, 3, 5, 4), rt(rng, 3, 5, 2))


def test_sdpa_nan_input_raises_under_debug_checks():
    rng = RNG(15)
    q = rng.uniform(-1, 1, size=(3, 4))
    q[1, 2] = np.nan
    prev = T.debug_checks_enabled()
    T.set_debug_checks(True)
    try:
        with pytest.raises(NumericError, match="sdpa"):
            T.sdpa(Tensor(q), rt(rng, 5, 4), rt(rng, 5, 2))
    finally:
        T.set_debug_checks(prev)


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
    assert grad_check(lambda t: T.tsum(T.sdpa(t, k, v) * w), q) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.sdpa(q, t, v) * w), k) <= 1e-6
    assert grad_check(lambda t: T.tsum(T.sdpa(q, k, t) * w), v) <= 1e-6


def test_sdpa_over_the_block_budget_matches_unfused_chain():
    shapes = ((2, 300, 8), (2, 600, 8), (2, 600, 4))  # 1.4 MB of scores per element
    assert 300 * 600 * 8 > T.SDPA_BLOCK_BYTES
    assert len(T._sdpa_blocks(2, 300, 600)) > 2
    assert_sdpa_matches_unfused_chain(shapes)


def test_sdpa_forward_keeps_row_statistics_not_weights(monkeypatch):
    """Between forward and backward, sdpa holds less than one score block
    beyond its output: the row max and sum, not P (batch·nq·nk·8 bytes)."""
    block = 32 * 600 * 8
    monkeypatch.setattr(T, "SDPA_BLOCK_BYTES", block)
    assert len(T._sdpa_blocks(4, 300, 600)) == 4 * 10
    rng = RNG(19)
    q, k, v = (Tensor(rng.uniform(-2, 2, size=s), requires_grad=True)
               for s in ((4, 300, 8), (4, 600, 8), (4, 600, 4)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = T.sdpa(q, k, v)
        kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert kept < block < 4 * 300 * 600 * 8
    T.backward(T.tsum(out))
    assert all(np.all(np.isfinite(t.grad)) for t in (q, k, v))


def test_blocked_sdpa_nan_names_the_global_score_index(monkeypatch):
    monkeypatch.setattr(T, "SDPA_BLOCK_BYTES", ROWS_OF_THREE)
    rng = RNG(17)
    q = rng.uniform(-1, 1, size=(2, 2, 7, 4))
    q[1, 0, 5, 1] = np.nan  # third batch element, second row block
    prev = T.debug_checks_enabled()
    T.set_debug_checks(True)
    try:
        with pytest.raises(NumericError, match=r"sdpa: .* index \(1, 0, 5, 0\)"):
            T.sdpa(Tensor(q), rt(rng, 2, 2, 6, 4), rt(rng, 2, 2, 6, 3))
    finally:
        T.set_debug_checks(prev)


def test_blocked_sdpa_macs_are_the_two_matmuls(monkeypatch):
    monkeypatch.setattr(T, "SDPA_BLOCK_BYTES", ROWS_OF_THREE)
    rng = RNG(18)
    q, k, v = rt(rng, 2, 7, 4), rt(rng, 2, 6, 4), rt(rng, 2, 6, 3)
    macs.reset()
    with macs.counting():
        T.sdpa(q, k, v)
    assert macs.total == 2 * 7 * 6 * (4 + 3)


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1 = 5
    T.backward(T.tsum(y))
    np.testing.assert_allclose(x.grad, [5.0])


def test_backward_requires_scalar():
    with pytest.raises(T.ContractError):
        T.backward(rt(RNG(0), 2, 2))


def test_backward_deterministic():
    def run():
        rng = RNG(99)
        x = Tensor(rng.uniform(-1, 1, size=(6, 6)), requires_grad=True)
        y = T.tsum(T.softmax(T.layernorm(x @ x)) * x)
        T.backward(y)
        return x.grad.copy()

    np.testing.assert_array_equal(run(), run())


def test_backward_consumes_graph_and_keeps_leaf_grads():
    rng = RNG(16)
    x = Tensor(rng.uniform(-1, 1, size=(4, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, size=(3, 3)), requires_grad=True)
    h = T.tanh(x @ w)
    y = T.sdpa(h, h, h)
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
    h = T.tanh(x @ x.data.T.copy())
    ref = weakref.ref(h)
    loss = T.tsum(T.sdpa(h, h, h))
    del h
    gc.collect()
    assert ref() is not None  # the tape keeps it alive until backward
    T.backward(loss)
    assert ref() is None  # freed by refcount alone, once consumed
    assert x.grad is not None


def test_debug_checks_flag_detects_nan():
    prev = T.debug_checks_enabled()
    T.set_debug_checks(True)
    try:
        bad = Tensor(np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            T.exp(bad)
    finally:
        T.set_debug_checks(prev)


# -- gradcheck utility ----------------------------------------------------------------


def test_grad_check_rejects_bad_eps():
    x = rt(RNG(0), 3)
    with pytest.raises(T.ContractError):
        grad_check(lambda t: T.tsum(t * t), x, eps=1.0)


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
        _ = a @ b
    assert macs.total == 3 * 4 * 5


def test_mac_counter_scopes_nest():
    macs.reset()
    a, b = rt(RNG(3), 2, 2), rt(RNG(3), 2, 2)
    with macs.counting():
        with macs.scope("outer"):
            _ = a @ b
            with macs.scope("inner"):
                _ = a @ b
    assert macs.by_scope["outer"] == 16
    assert macs.by_scope["inner"] == 8


def test_mac_counter_off_by_default():
    macs.reset()
    _ = rt(RNG(4), 2, 2) @ rt(RNG(4), 2, 2)
    assert macs.total == 0
