"""Transformer primitives: parameter init and one block.

All functions are pure maps over immutable parameter tensors. Blocks use
the pre-norm residual layout Y = X + MHSA(LN(X)); out = Y + FFN(LN(Y)),
so zero-initialized output projections make a block the identity map.
Each residual branch is one tape node: ``T.attention_branch`` (layer norm,
q/k/v projections, ``sdpa`` with its head split, output projection and
the add) and ``T.ffn_branch`` (layer norm, 4x linear, GELU, linear and the
add). The same chain of one-op nodes lives in ``tests/reference_ops.py``;
the branches match it bitwise and keep fewer arrays on the tape.
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


def transformer_block_self(x: Tensor, params: dict[str, Tensor], heads: int) -> Tensor:
    """Pre-norm self-attention block on (..., n, d) tokens; ``heads`` divides d."""
    p = params
    y = T.attention_branch(x, p["ln1_g"], p["ln1_b"], p["wq"], p["bq"], p["wk"], p["bk"],
                           p["wv"], p["bv"], p["wo"], p["bo"], heads)
    return T.ffn_branch(y, p["ln2_g"], p["ln2_b"], p["ffn_w1"], p["ffn_b1"],
                        p["ffn_w2"], p["ffn_b2"])
