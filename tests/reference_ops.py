"""Tensor ops that only the tests use, as references for the fused ops.

The model runs the fused ``linear``, ``sdpa`` and residual branches
(``attention_branch``, ``ffn_branch``); the tests check them against
chains of these plain ops (reshape, matmul, add_bcast, reshape; matmul,
scale, softmax, matmul; and the pre-norm block as one node per layer
norm, affine layer, attention, GELU and residual add), and use ``tanh``
as a smooth sink in the gradient checks. They build tape nodes and charge
MACs exactly as the ops in ``ivt.tensor`` do.
"""

from __future__ import annotations

import numpy as np

from ivt import tensor as T
from ivt.tensor import LN_EPS, ContractError, Tensor, macs


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    return Tensor._result(data, (a,), lambda g: (g * (1.0 - data * data),), "tanh")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; 2-D, or stacked with identical leading batch dims."""
    if a.ndim < 2 or b.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ContractError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul: inner dims of {a.shape} and {b.shape} disagree")
    data = a.data @ b.data
    batch = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
    macs.add(batch * a.shape[-2] * a.shape[-1] * b.shape[-1])

    def bw(g):
        bt = np.swapaxes(b.data, -1, -2)
        at = np.swapaxes(a.data, -1, -2)
        return g @ bt, at @ g

    return Tensor._result(data, (a, b), bw, "matmul")


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax along the last axis, with max-shift stabilization."""
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - dot),)

    return Tensor._result(data, (a,), bw, "softmax")


def layernorm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale it by
    ``gain`` and shift it by ``bias``, both of the last axis's shape."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ContractError(f"layernorm: gain {gain.shape} and bias {bias.shape} must be "
                            f"({d},)")
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    lead = tuple(range(a.ndim - 1))

    def bw(g):
        xhat = x - mu
        xhat *= inv
        gh = g * gain.data
        gh *= inv
        dx = gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
        return dx, (g * xhat).reshape(-1, d).sum(axis=0), g.sum(axis=lead)

    return Tensor._result(xhat * gain.data + bias.data, (a, gain, bias), bw, "layernorm")


def multi_head_self_attention(x: Tensor, params: dict[str, Tensor], heads: int) -> Tensor:
    """Project X to Q/K/V, attend per feature-axis head, project out.

    The width d is the projections' width; ``heads`` must divide it.
    """
    q, k, v = (T.linear(x, params[f"w{c}"], params[f"b{c}"]) for c in "qkv")
    return T.linear(T.sdpa(q, k, v, heads), params["wo"], params["bo"])


def ffn(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Two linear layers with a smooth nonlinearity between."""
    h = T.gelu(T.linear(x, params["ffn_w1"], params["ffn_b1"]))
    return T.linear(h, params["ffn_w2"], params["ffn_b2"])


def transformer_block_self(x: Tensor, params: dict[str, Tensor], heads: int) -> Tensor:
    """The pre-norm block as a chain of 12 nodes, which ``ivt.blocks`` builds as 2."""
    y = x + multi_head_self_attention(
        layernorm(x, params["ln1_g"], params["ln1_b"]), params, heads)
    return y + ffn(layernorm(y, params["ln2_g"], params["ln2_b"]), params)
