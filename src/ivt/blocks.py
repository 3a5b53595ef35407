"""Transformer primitives: attention, MHSA, FFN, layer norm, one block.

All functions are pure maps over immutable parameter tensors. Blocks use
the pre-norm residual layout Y = X + MHSA(LN(X)); out = Y + FFN(LN(Y)),
so zero-initialized output projections make a block the identity map.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ConfigError, ContractError, ShapeError, Tensor


def init_linear(rng: np.random.Generator, d_in: int, d_out: int) -> tuple[Tensor, Tensor]:
    """Seeded uniform weight in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero bias."""
    bound = 1.0 / np.sqrt(d_in)
    w = Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)), requires_grad=True)
    b = Tensor(np.zeros(d_out), requires_grad=True)
    return w, b


def block_params(rng: np.random.Generator, d: int) -> dict[str, Tensor]:
    """Parameters for one width-d transformer block (attention projections, 4x FFN, LN)."""
    p: dict[str, Tensor] = {}
    p["wq"], p["bq"] = init_linear(rng, d, d)
    p["wk"], p["bk"] = init_linear(rng, d, d)
    p["wv"], p["bv"] = init_linear(rng, d, d)
    p["wo"], p["bo"] = init_linear(rng, d, d)
    p["ffn_w1"], p["ffn_b1"] = init_linear(rng, d, 4 * d)
    p["ffn_w2"], p["ffn_b2"] = init_linear(rng, 4 * d, d)
    p["ln1_g"] = Tensor(np.ones(d), requires_grad=True)
    p["ln1_b"] = Tensor(np.zeros(d), requires_grad=True)
    p["ln2_g"] = Tensor(np.ones(d), requires_grad=True)
    p["ln2_b"] = Tensor(np.zeros(d), requires_grad=True)
    return p


def zero_block_outputs(p: dict[str, Tensor]) -> dict[str, Tensor]:
    """Zero the residual-branch outputs so the block is the identity."""
    for key in ("wo", "bo", "ffn_w2", "ffn_b2"):
        p[key] = Tensor(np.zeros_like(p[key].data), requires_grad=True)
    return p


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map over the last axis for any leading shape."""
    d_in, d_out = w.shape
    if x.shape[-1] != d_in:
        raise ShapeError(f"linear: input dim {x.shape[-1]} != weight dim {d_in}")
    lead = x.shape[:-1]
    flat = T.reshape(x, (-1, d_in)) if x.ndim != 2 else x
    out = T.add_bcast(T.matmul(flat, w), b)
    return T.reshape(out, lead + (d_out,)) if x.ndim != 2 else out


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(Q K^T / sqrt(d)) V over the last two axes; batched if 3-D."""
    if q.shape[-1] == 0:
        raise ContractError("attention: feature dim is zero")
    if k.shape[-2] < 1:
        raise ContractError("attention: need at least one key")
    return T.sdpa(q, k, v)


def _split_heads(x: Tensor, heads: int) -> Tensor:
    """(B, n, d) -> (B*h, n, d/h)."""
    b, n, d = x.shape
    x = T.reshape(x, (b, n, heads, d // heads))
    x = T.transpose(x, (0, 2, 1, 3))
    return T.reshape(x, (b * heads, n, d // heads))


def _merge_heads(x: Tensor, heads: int) -> Tensor:
    """(B*h, n, d/h) -> (B, n, d)."""
    bh, n, d_head = x.shape
    x = T.reshape(x, (bh // heads, heads, n, d_head))
    x = T.transpose(x, (0, 2, 1, 3))
    return T.reshape(x, (bh // heads, n, heads * d_head))


def multi_head_self_attention(x: Tensor, params: dict[str, Tensor], heads: int) -> Tensor:
    """Project X to Q/K/V, attend per feature-axis head, concat, project out.

    The width d is the projections' width; ``heads`` must divide it.
    """
    d = params["wq"].shape[1]
    if heads < 1 or d % heads != 0:
        raise ConfigError(f"multi_head_self_attention: width {d} not divisible by "
                          f"heads {heads}")
    n = x.shape[-2]
    q, k, v = (T.reshape(linear(x, params[f"w{c}"], params[f"b{c}"]), (-1, n, d))
               for c in "qkv")
    out = attention(_split_heads(q, heads), _split_heads(k, heads), _split_heads(v, heads))
    out = linear(_merge_heads(out, heads), params["wo"], params["bo"])
    return T.reshape(out, x.shape)


def ffn(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Two linear layers with a smooth nonlinearity between."""
    h = T.gelu(linear(x, params["ffn_w1"], params["ffn_b1"]))
    return linear(h, params["ffn_w2"], params["ffn_b2"])


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Zero-mean / unit-variance per token row, then gain and bias."""
    return T.add_bcast(T.mul_last(T.layernorm(x), gain), bias)


def transformer_block_self(x: Tensor, params: dict[str, Tensor], heads: int) -> Tensor:
    y = x + multi_head_self_attention(
        layer_norm(x, params["ln1_g"], params["ln1_b"]), params, heads)
    return y + ffn(layer_norm(y, params["ln2_g"], params["ln2_b"]), params)

