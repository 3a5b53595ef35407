"""Tensor ops that only the tests use, as references for the fused ops.

The model runs the fused ``linear`` and ``sdpa``; the tests check them
against chains of these plain ops (reshape, matmul, add_bcast, reshape;
and matmul, scale, softmax, matmul), and use ``tanh`` as a smooth sink
in the gradient checks. They build tape nodes and charge MACs exactly as
the ops in ``ivt.tensor`` do.
"""

from __future__ import annotations

import numpy as np

from ivt.tensor import ShapeError, Tensor, macs


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    return Tensor._result(data, (a,), lambda g: (g * (1.0 - data * data),), "tanh")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; 2-D, or stacked with identical leading batch dims."""
    if a.ndim < 2 or b.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims of {a.shape} and {b.shape} disagree")
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
