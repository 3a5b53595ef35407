"""Walk through the attention primitives on tiny hand-sized inputs.

Shows the scaled dot-product core (``T.sdpa`` with one head), multi-head
self-attention, and the two sanity properties the test suite leans on:
rows of the attention weights sum to one, and a single key/value pair
makes attention a copy.
"""

import numpy as np

from ivt import tensor as T
from ivt.blocks import block_params
from ivt.tensor import Tensor

rng = np.random.default_rng(0)

# One query attending over three keys.
q = Tensor(rng.uniform(-1, 1, size=(1, 4)))
k = Tensor(rng.uniform(-1, 1, size=(3, 4)))
v = Tensor(np.eye(3, 4))

out = T.sdpa(q, k, v, 1)
print("attention output:", np.round(out.data, 4))
print("rows of V are one-hot, so the output row is exactly the")
print("softmax weight vector over the three keys; it sums to",
      float(out.data.sum()))

# With a single key there is nothing to weigh: the value is copied.
single = T.sdpa(q, Tensor(k.data[:1]), Tensor(v.data[:1]), 1)
print("\nsingle key copies the value:", np.array_equal(single.data, v.data[:1]))



def multi_head_self_attention(x, params, heads):
    """Project the tokens to queries, keys and values, attend, project out."""
    q, k, v = (T.linear(x, params[f"w{c}"], params[f"b{c}"]) for c in "qkv")
    return T.linear(T.sdpa(q, k, v, heads), params["wo"], params["bo"])


# Multi-head self-attention mixes a whole token sequence.
params = block_params(rng, 8)
tokens = Tensor(rng.uniform(-1, 1, size=(5, 8)), requires_grad=True)
mixed = multi_head_self_attention(tokens, params, 2)
print("\nMHSA: 5 tokens of width 8 ->", mixed.shape)

# Self-attention has no notion of order: permuting the tokens permutes
# the outputs the same way (up to float summation noise).
perm = rng.permutation(5)
moved = multi_head_self_attention(Tensor(tokens.data[perm]), params, 2)
print("permutation equivariance error:",
      float(np.max(np.abs(moved.data - mixed.data[perm]))))

# Everything above is differentiable; a scalar head gives gradients.
loss = T.tsum(mixed * mixed)
T.backward(loss)
print("\ngradient wrt tokens has shape", tokens.grad.shape,
      "and norm", float(np.linalg.norm(tokens.grad)))
