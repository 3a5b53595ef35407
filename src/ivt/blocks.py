"""Transformer primitives: parameter init, MHSA, FFN, one block.

All functions are pure maps over immutable parameter tensors. Blocks use
the pre-norm residual layout Y = X + MHSA(LN(X)); out = Y + FFN(LN(Y)),
so zero-initialized output projections make a block the identity map.
Each affine layer is one ``T.linear``, layer norm with its gain and bias
is ``T.layernorm``, and attention with its head split is ``T.sdpa``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def init_linear(rng: np.random.Generator, d_in: int, d_out: int) -> tuple[Tensor, Tensor]:
    """Seeded uniform weight in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero bias."""
    bound = 1.0 / np.sqrt(d_in)
    w = Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)), requires_grad=True)
    b = Tensor(np.zeros(d_out), requires_grad=True)
    return w, b


def init_conv(rng: np.random.Generator, c_in: int, c_out: int) -> tuple[Tensor, Tensor]:
    """Seeded uniform 3x3 weight in [-1/sqrt(9 c_in), +1/sqrt(9 c_in)], zero bias."""
    bound = 1.0 / np.sqrt(c_in * 9)
    w = Tensor(rng.uniform(-bound, bound, size=(c_out, c_in, 3, 3)), requires_grad=True)
    b = Tensor(np.zeros(c_out), requires_grad=True)
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
    y = x + multi_head_self_attention(
        T.layernorm(x, params["ln1_g"], params["ln1_b"]), params, heads)
    return y + ffn(T.layernorm(y, params["ln2_g"], params["ln2_b"]), params)

