"""Transformer primitives: attention, MHA/MHSA, FFN, layer norm, blocks.

All functions are pure maps over immutable parameter tensors. Blocks use
the pre-norm residual layout Y = X + MHSA(LN(X)); out = Y + FFN(LN(Y)),
so zero-initialized output projections make a block the identity map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ConfigError, ContractError, ShapeError, Tensor

LN_EPS = 1e-6


@dataclass(frozen=True)
class AttentionConfig:
    d_model: int
    heads: int

    def __post_init__(self):
        if self.d_model <= 0 or self.heads <= 0:
            raise ConfigError(f"d_model and heads must be positive, got {self}")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads


def init_linear(rng: np.random.Generator, d_in: int, d_out: int) -> tuple[Tensor, Tensor]:
    """Seeded uniform weight in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero bias."""
    bound = 1.0 / np.sqrt(d_in)
    w = Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)), requires_grad=True)
    b = Tensor(np.zeros(d_out), requires_grad=True)
    return w, b


def block_params(rng: np.random.Generator, cfg: AttentionConfig, d_ffn: int | None = None) -> dict[str, Tensor]:
    """Parameters for one transformer block (attention projections + FFN + LN)."""
    d = cfg.d_model
    if d_ffn is None:
        d_ffn = 4 * d
    p: dict[str, Tensor] = {}
    p["wq"], p["bq"] = init_linear(rng, d, d)
    p["wk"], p["bk"] = init_linear(rng, d, d)
    p["wv"], p["bv"] = init_linear(rng, d, d)
    p["wo"], p["bo"] = init_linear(rng, d, d)
    p["ffn_w1"], p["ffn_b1"] = init_linear(rng, d, d_ffn)
    p["ffn_w2"], p["ffn_b2"] = init_linear(rng, d_ffn, d)
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
    out = T.add_last(T.matmul(flat, w), b)
    return T.reshape(out, lead + (d_out,)) if x.ndim != 2 else out


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(Q K^T / sqrt(d)) V over the last two axes; batched if 3-D."""
    d = q.shape[-1]
    if d == 0:
        raise ContractError("attention: feature dim is zero")
    if k.shape[-1] != d:
        raise ShapeError(f"attention: query/key dims differ: {q.shape}, {k.shape}")
    if v.shape[-2] != k.shape[-2]:
        raise ShapeError(f"attention: key/value counts differ: {k.shape}, {v.shape}")
    if k.shape[-2] < 1:
        raise ContractError("attention: need at least one key")
    return T.sdpa(q, k, v)


def _split_heads(x: Tensor, cfg: AttentionConfig) -> Tensor:
    """(B, n, d) -> (B*h, n, d_head)."""
    b, n, _ = x.shape
    x = T.reshape(x, (b, n, cfg.heads, cfg.d_head))
    x = T.transpose(x, (0, 2, 1, 3))
    return T.reshape(x, (b * cfg.heads, n, cfg.d_head))


def _merge_heads(x: Tensor, cfg: AttentionConfig) -> Tensor:
    """(B*h, n, d_head) -> (B, n, d)."""
    bh, n, _ = x.shape
    x = T.reshape(x, (bh // cfg.heads, cfg.heads, n, cfg.d_head))
    x = T.transpose(x, (0, 2, 1, 3))
    return T.reshape(x, (bh // cfg.heads, n, cfg.d_model))


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor,
                         params: dict[str, Tensor], cfg: AttentionConfig) -> Tensor:
    """Project Q/K/V, attend per feature-axis head, concat, project out."""
    if q.shape[-1] != cfg.d_model:
        raise ConfigError(f"multi_head_attention: input dim {q.shape[-1]} != d_model {cfg.d_model}")
    lead = q.shape[:-2]
    nq, nk = q.shape[-2], k.shape[-2]

    def as3d(t: Tensor, n: int) -> Tensor:
        return T.reshape(t, (-1, n, cfg.d_model))

    qp = as3d(linear(q, params["wq"], params["bq"]), nq)
    kp = as3d(linear(k, params["wk"], params["bk"]), nk)
    vp = as3d(linear(v, params["wv"], params["bv"]), nk)
    heads = attention(_split_heads(qp, cfg), _split_heads(kp, cfg), _split_heads(vp, cfg))
    merged = _merge_heads(heads, cfg)
    out = linear(merged, params["wo"], params["bo"])
    return T.reshape(out, lead + (nq, cfg.d_model))


def multi_head_self_attention(x: Tensor, params: dict[str, Tensor], cfg: AttentionConfig) -> Tensor:
    return multi_head_attention(x, x, x, params, cfg)


def ffn(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Two linear layers with a smooth nonlinearity between."""
    h = T.gelu(linear(x, params["ffn_w1"], params["ffn_b1"]))
    return linear(h, params["ffn_w2"], params["ffn_b2"])


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LN_EPS) -> Tensor:
    """Zero-mean / unit-variance per token row, then gain and bias."""
    return T.add_last(T.mul_last(T.layernorm(x, eps), gain), bias)


def transformer_block_self(x: Tensor, params: dict[str, Tensor], cfg: AttentionConfig) -> Tensor:
    y = x + multi_head_self_attention(
        layer_norm(x, params["ln1_g"], params["ln1_b"]), params, cfg)
    return y + ffn(layer_norm(y, params["ln2_g"], params["ln2_b"]), params)


def transformer_block_cross(q: Tensor, k: Tensor, v: Tensor,
                            params: dict[str, Tensor], cfg: AttentionConfig) -> Tensor:
    ln = lambda t: layer_norm(t, params["ln1_g"], params["ln1_b"])
    y = q + multi_head_attention(ln(q), ln(k), ln(v), params, cfg)
    return y + ffn(layer_norm(y, params["ln2_g"], params["ln2_b"]), params)
