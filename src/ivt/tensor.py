"""Dense f64 tensors with reverse-mode automatic differentiation.

The graph is a tape rebuilt on every forward pass: each Tensor produced by
an operation remembers its parents and a closure that maps the output
gradient to parent gradients. ``backward`` walks the tape once, in reverse
topological order, and consumes it as it goes: once a node's closure has
run, the node drops its closure, its parents and its gradient, so every
activation is freed as soon as no later closure needs it. Only leaves
(tensors created with ``requires_grad=True``, i.e. parameters and inputs)
keep ``.grad`` after ``backward``. A consumed graph cannot be differentiated
again; a second ``backward`` through it raises ``ContractError``. Data
buffers are row-major contiguous float64 and are treated as immutable after
construction; only the ``grad`` buffer is mutated.

Broadcasting is deliberately limited to scalar-vs-tensor plus the
last-axis helpers (``add_last`` / ``mul_last``) that linear layers and
layer norm need.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class BoundsError(IndexError):
    """An index is outside the valid range."""


class ConfigError(ValueError):
    """A configuration value violates its contract."""


class ContractError(ValueError):
    """A call violates an operation's precondition."""


class NumericError(RuntimeError):
    """A non-finite value appeared where the contract forbids it."""


# Debug mode scans every op output for NaN/Inf; release mode skips the scan.
_debug_checks = True


def set_debug_checks(enabled: bool) -> None:
    global _debug_checks
    _debug_checks = bool(enabled)


def debug_checks_enabled() -> bool:
    return _debug_checks


class MacCounter:
    """Counts multiply-accumulate operations of matmul/conv forwards.

    Scopes nest; a MAC executed inside ``scope("ita")`` is charged to
    "ita", to every enclosing scope, and to the grand total.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.total = 0
        self.by_scope: dict[str, int] = {}
        self._stack: list[str] = []

    def reset(self) -> None:
        self.total = 0
        self.by_scope = {}
        self._stack = []

    def add(self, n: int) -> None:
        if not self.enabled:
            return
        self.total += n
        for name in self._stack:
            self.by_scope[name] = self.by_scope.get(name, 0) + n

    @contextmanager
    def scope(self, name: str):
        self._stack.append(name)
        try:
            yield self
        finally:
            self._stack.pop()

    @contextmanager
    def counting(self):
        prev = self.enabled
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = prev


macs = MacCounter()


def _check_finite(arr: np.ndarray, op: str) -> None:
    if _debug_checks and not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))
        raise NumericError(f"{op}: non-finite output at index {tuple(bad[0])}")


class Tensor:
    """N-dimensional float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None

    # -- basic properties -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], backward_fn, op: str) -> "Tensor":
        _check_finite(data, op)
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward_fn = backward_fn
        return out

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _is_scalar(t: Tensor) -> bool:
    return t.size == 1


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape and not _is_scalar(a) and not _is_scalar(b):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are incompatible")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of a scalar operand."""
    if grad.shape == shape:
        return grad
    return np.sum(grad).reshape(shape)


# -- elementwise ops ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "add")
    data = a.data + b.data

    def bw(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return Tensor._result(data, (a, b), bw, "add")


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "sub")
    data = a.data - b.data

    def bw(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return Tensor._result(data, (a, b), bw, "sub")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes(a, b, "mul")
    data = a.data * b.data

    def bw(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return Tensor._result(data, (a, b), bw, "mul")


def neg(a: Tensor) -> Tensor:
    return Tensor._result(-a.data, (a,), lambda g: (-g,), "neg")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor._result(a.data * c, (a,), lambda g: (g * c,), "scale")


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return Tensor._result(data, (a,), lambda g: (g * data,), "exp")


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)
    return Tensor._result(data, (a,), lambda g: (g * 0.5 / data,), "sqrt")


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    return Tensor._result(data, (a,), lambda g: (g * (1.0 - data * data),), "tanh")


def sigmoid(a: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor._result(data, (a,), lambda g: (g * data * (1.0 - data),), "sigmoid")


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    """Smooth activation x * Phi(x), tanh approximation."""
    x = a.data
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    data = 0.5 * x
    data *= 1.0 + t

    def bw(g):
        dinner = (3 * 0.044715) * x
        dinner *= x
        dinner += 1.0
        dinner *= _GELU_C
        w = t * t
        d = 0.5 * x
        d *= np.subtract(1.0, w, out=w)
        d *= dinner
        np.add(1.0, t, out=w)
        w *= 0.5
        d += w
        d *= g
        return (d,)

    return Tensor._result(data, (a,), bw, "gelu")


def absolute(a: Tensor) -> Tensor:
    data = np.abs(a.data)
    return Tensor._result(data, (a,), lambda g: (g * np.sign(a.data),), "abs")


# -- matmul ------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; 2-D, or stacked with identical leading batch dims."""
    a, b = _as_tensor(a), _as_tensor(b)
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


def add_last(x: Tensor, b: Tensor) -> Tensor:
    """Add a vector over the last axis (bias add)."""
    if b.ndim != 1 or b.shape[0] != x.shape[-1]:
        raise ShapeError(f"add_last: bias {b.shape} does not match last dim of {x.shape}")
    data = x.data + b.data

    def bw(g):
        return g, g.reshape(-1, x.shape[-1]).sum(axis=0)

    return Tensor._result(data, (x, b), bw, "add_last")


def add_bcast(x: Tensor, p: Tensor) -> Tensor:
    """Add p broadcast over the leading axes of x (p matches x's trailing dims)."""
    if p.ndim > x.ndim or p.shape != x.shape[x.ndim - p.ndim:]:
        raise ShapeError(f"add_bcast: {p.shape} does not match trailing dims of {x.shape}")
    data = x.data + p.data
    lead = tuple(range(x.ndim - p.ndim))

    def bw(g):
        return g, g.sum(axis=lead) if lead else g.copy()

    return Tensor._result(data, (x, p), bw, "add_bcast")


def mul_last(x: Tensor, g_vec: Tensor) -> Tensor:
    """Multiply by a vector broadcast over the last axis (layer-norm gain)."""
    if g_vec.ndim != 1 or g_vec.shape[0] != x.shape[-1]:
        raise ShapeError(f"mul_last: gain {g_vec.shape} does not match last dim of {x.shape}")
    data = x.data * g_vec.data

    def bw(g):
        return g * g_vec.data, (g * x.data).reshape(-1, x.shape[-1]).sum(axis=0)

    return Tensor._result(data, (x, g_vec), bw, "mul_last")


# -- structural ops ----------------------------------------------------------


def reshape(a: Tensor, new_shape) -> Tensor:
    new_shape = tuple(int(s) for s in new_shape)
    if new_shape.count(-1) > 1:
        raise ShapeError(f"reshape: at most one inferred dimension, got {new_shape}")
    if -1 in new_shape:
        known = int(np.prod([s for s in new_shape if s != -1], dtype=np.int64))
        if known == 0 or a.size % known != 0:
            raise ShapeError(f"reshape: cannot reshape {a.shape} to {new_shape}")
        new_shape = tuple(a.size // known if s == -1 else s for s in new_shape)
    if int(np.prod(new_shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"reshape: cannot reshape {a.shape} to {new_shape}")
    data = a.data.reshape(new_shape)
    return Tensor._result(data, (a,), lambda g: (g.reshape(a.shape),), "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for rank {a.ndim}")
    inv = np.argsort(axes)
    data = np.ascontiguousarray(np.transpose(a.data, axes))
    return Tensor._result(data, (a,), lambda g: (np.transpose(g, inv),), "transpose")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join along one axis; a single tensor is returned as is, with no node."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat: empty tensor list")
    if len(tensors) == 1:
        return tensors[0]
    axis = int(axis)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return Tensor._result(data, tuple(tensors), bw, "concat")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis (copying).

    A slice over the whole axis returns its input, with no copy and no node.
    """
    axis = int(axis)
    if start < 0 or start + length > a.shape[axis]:
        raise BoundsError(f"narrow: slice [{start}, {start + length}) out of range {a.shape[axis]}")
    if start == 0 and length == a.shape[axis]:
        return a
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    data = np.ascontiguousarray(a.data[tuple(idx)])

    def bw(g):
        full = np.zeros_like(a.data)
        full[tuple(idx)] = g
        return (full,)

    return Tensor._result(data, (a,), bw, "narrow")


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows along axis 0; backward scatters gradient back additively."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ContractError("take_rows: indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        bad = idx[(idx < 0) | (idx >= a.shape[0])][0]
        raise BoundsError(f"take_rows: index {int(bad)} out of range [0, {a.shape[0]})")
    data = np.ascontiguousarray(a.data[idx])

    def bw(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return (out,)

    return Tensor._result(data, (a,), bw, "take_rows")


def reduce(a: Tensor, axis: Optional[int] = None, op: str = "sum", keepdims: bool = False) -> Tensor:
    """Sum or mean over one axis, or over all of them (``axis=None``)."""
    if op not in ("sum", "mean"):
        raise ConfigError(f"reduce: unknown op {op!r}")
    if axis is not None and not -a.ndim <= int(axis) < a.ndim:
        raise BoundsError(f"reduce: axis {axis} out of range for rank {a.ndim}")
    whole = axis is None
    n = a.size if whole else a.shape[axis]
    data = a.data.sum(axis=axis, keepdims=keepdims and not whole)
    if op == "mean":
        data = data / n

    def bw(g):
        gg = g if keepdims or whole else np.expand_dims(g, axis)
        gg = np.broadcast_to(gg, a.shape).astype(np.float64)  # a copy
        return (gg / n if op == "mean" else gg,)

    return Tensor._result(np.asarray(data), (a,), bw, op)


def tsum(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    return reduce(a, axis, "sum", keepdims)


def tmean(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    return reduce(a, axis, "mean", keepdims)


# -- fused row-wise ops -------------------------------------------------------


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


# Bytes of one block of attention scores, sized to a core's 2 MiB L2 cache: half
# of it, since a backward block holds the rebuilt P, dS and a temporary of the
# same size (2 MiB blocks ran the CISA backward about 40% slower on such a Xeon).
SDPA_BLOCK_BYTES = 1 << 20


def _sdpa_blocks(batch: int, nq: int, nk: int) -> list[tuple[int, int, int, int]]:
    """(b0, b1, r0, r1) blocks of a (batch, nq, nk) score tensor, in order.

    Batch elements whose scores fit the budget are grouped; a larger one
    is split into ranges of query rows. The last group or range may be
    short. A tensor within the budget is one block.
    """
    row_bytes = 8 * max(nk, 1)
    rows = max(1, SDPA_BLOCK_BYTES // row_bytes)
    if nq <= rows:
        group = max(1, rows // max(nq, 1))
        return [(b, min(b + group, batch), 0, nq) for b in range(0, batch, group)]
    return [(b, b + 1, r, min(r + rows, nq)) for b in range(batch) for r in range(0, nq, rows)]


def _sdpa_scores(q3: np.ndarray, kt: np.ndarray, c: float, block, scratch: np.ndarray) -> np.ndarray:
    """c · q kᵀ of one block, formed in the front of ``scratch``.

    Forward and backward both form a block's scores here, so the P that
    backward rebuilds is the forward's P bit for bit.
    """
    b0, b1, r0, r1 = block
    shape = (b1 - b0, r1 - r0, kt.shape[-1])
    s = scratch[:shape[0] * shape[1] * shape[2]].reshape(shape)
    np.matmul(q3[b0:b1, r0:r1], kt[b0:b1], out=s)
    s *= c
    return s


def sdpa(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention softmax(q kᵀ / √d) v over the last two axes.

    2-D, or stacked with identical leading batch dims. One fused op with a
    hand-written backward that keeps no attention weights: forward keeps
    only each query row's score max m and exp-sum l, and backward rebuilds
    each block of P from q, k, m and l (the FlashAttention backward, Dao
    et al., arXiv:2205.14135). Both passes walk the scores in blocks of at
    most ``SDPA_BLOCK_BYTES`` (see ``_sdpa_blocks``) in one block-sized
    scratch buffer, so every pass over a block runs in cache. Forward:
    scores, scale, max-shift, exp and normalise in place, the finiteness
    and row-sum checks, then the block's rows of P v. Backward: the same
    scores, scale, shift by m, exp and divide by l, then the block's dS,
    its rows of dq, and dk and dv assigned (whole rows) or accumulated
    (row ranges) (Rabe & Staats, arXiv:2112.05682). A tensor within the
    budget is one block, computed by exactly the ops of the unblocked
    form. MACs are charged as the two forward matmuls q kᵀ and P v.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.ndim < 2 or not q.ndim == k.ndim == v.ndim
            or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]):
        raise ShapeError(f"sdpa: shapes {q.shape}, {k.shape}, {v.shape} are incompatible")
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"sdpa: inner dims of {q.shape}, {k.shape}, {v.shape} disagree")
    lead = q.shape[:-2]
    batch = int(np.prod(lead, dtype=np.int64))
    (nq, d), nk, dv = q.shape[-2:], k.shape[-2], v.shape[-1]
    q3, k3, v3 = (a.data.reshape((batch,) + a.shape[-2:]) for a in (q, k, v))
    kt, vt = np.swapaxes(k3, -1, -2), np.swapaxes(v3, -1, -2)
    c = float(1.0 / np.sqrt(d))
    blocks = _sdpa_blocks(batch, nq, nk)
    scratch_len = max((b1 - b0) * (r1 - r0) for b0, b1, r0, r1 in blocks) * nk
    scratch = np.empty(scratch_len)
    m, l = np.empty((batch, nq, 1)), np.empty((batch, nq, 1))
    data = np.empty((batch, nq, dv))
    for block in blocks:
        b0, b1, r0, r1 = block
        pb = _sdpa_scores(q3, kt, c, block, scratch)
        mb = pb.max(axis=-1, keepdims=True)
        pb -= mb
        np.exp(pb, out=pb)
        lb = pb.sum(axis=-1, keepdims=True)
        pb /= lb
        m[b0:b1, r0:r1], l[b0:b1, r0:r1] = mb, lb
        if _debug_checks:
            if not np.all(np.isfinite(pb)):
                b, r, j = np.argwhere(~np.isfinite(pb))[0]
                at = np.unravel_index(b0 + b, lead) + (r0 + r, j)
                raise NumericError(f"sdpa: non-finite output at index {tuple(map(int, at))}")
            assert np.all(np.abs(pb.sum(axis=-1) - 1.0) <= 1e-12), "softmax rows must sum to 1"
        np.matmul(pb, v3[b0:b1], out=data[b0:b1, r0:r1])
    macs.add(batch * nq * nk * (d + dv))

    def bw(g):
        g3 = g.reshape(batch, nq, dv)
        dq, dk, dvv = np.empty_like(q3), np.empty_like(k3), np.empty_like(v3)
        scratch = np.empty(scratch_len)
        for block in blocks:
            b0, b1, r0, r1 = block
            pb = _sdpa_scores(q3, kt, c, block, scratch)
            pb -= m[b0:b1, r0:r1]
            np.exp(pb, out=pb)
            pb /= l[b0:b1, r0:r1]  # P, bit for bit as in forward
            ds = g3[b0:b1, r0:r1] @ vt[b0:b1]  # dP
            ds -= (ds * pb).sum(axis=-1, keepdims=True)
            ds *= pb
            ds *= c  # c·dS
            np.matmul(ds, k3[b0:b1], out=dq[b0:b1, r0:r1])
            dst, pbt = np.swapaxes(ds, -1, -2), np.swapaxes(pb, -1, -2)
            if r0 == 0:
                np.matmul(dst, q3[b0:b1, r0:r1], out=dk[b0:b1])
                np.matmul(pbt, g3[b0:b1, r0:r1], out=dvv[b0:b1])
            else:
                dk[b0:b1] += dst @ q3[b0:b1, r0:r1]
                dvv[b0:b1] += pbt @ g3[b0:b1, r0:r1]
        return dq.reshape(q.shape), dk.reshape(k.shape), dvv.reshape(v.shape)

    return Tensor._result(data.reshape(lead + (nq, dv)), (q, k, v), bw, "sdpa")


def layernorm(a: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no gain/bias)."""
    if eps <= 0:
        raise ConfigError(f"layernorm: eps must be positive, got {eps}")
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    n = a.shape[-1]

    def bw(g):
        gh = g * inv
        return (gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True),)

    return Tensor._result(xhat, (a,), bw, "layernorm")


# -- convolution --------------------------------------------------------------


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """3x3-style 2-D convolution, stride 1, zero 'same' padding, over a batch.

    x: (B, C_in, H, W); w: (C_out, C_in, kh, kw) with odd kh, kw; b: (C_out,).
    im2col over all B maps at once: the forward is one matmul, the backward
    one matmul for dw (summed over the batch) and one per kernel tap for dx.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be (B, C, H, W), got {x.shape}")
    bsz, cin, h, wid = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: input channels {cin} != weight channels {cin_w}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError("conv2d: kernel dims must be odd")
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    # cols: (B*H*W, C_in*kh*kw)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(bsz * h * wid, cin * kh * kw)
    wmat = w.data.reshape(cout, cin * kh * kw)
    # (C_out, B*H*W); cols @ wmat.T touched 12 MiB more 2-thread OpenBLAS buffer.
    out = wmat @ cols.T + b.data[:, None]
    macs.add(bsz * h * wid * cin * kh * kw * cout)
    data = np.ascontiguousarray(out.reshape(cout, bsz, h, wid).transpose(1, 0, 2, 3))

    def bw(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(bsz * h * wid, cout)
        dw = (gmat.T @ cols).reshape(w.shape)
        db = gmat.sum(axis=0)
        dxp = np.zeros_like(xp)
        for di in range(kh):
            for dj in range(kw):  # dcols = gmat @ wmat one kernel tap at a time, to bound memory
                dtap = (gmat @ w.data[:, :, di, dj]).reshape(bsz, h, wid, cin)
                dxp[:, :, di:di + h, dj:dj + wid] += dtap.transpose(0, 3, 1, 2)
        dx = dxp[:, :, ph:ph + h, pw:pw + wid]
        return np.ascontiguousarray(dx), dw, db

    return Tensor._result(data, (x, w, b), bw, "conv2d")


# -- backward ------------------------------------------------------------------


def _consumed(g):
    raise ContractError("backward: the graph through this tensor was consumed by an "
                        "earlier backward")


def _accumulate(parents: tuple[Tensor, ...], grads) -> None:
    for parent, g in zip(parents, grads):
        if g is None or not parent.requires_grad:
            continue
        if g.shape != parent.shape:
            raise ShapeError(
                f"backward: gradient shape {g.shape} does not match tensor {parent.shape}")
        if parent.grad is None:
            parent.grad = np.array(g, dtype=np.float64)
        else:
            parent.grad = parent.grad + g


def backward(loss: Tensor) -> None:
    """Populate .grad on every leaf reachable from loss, consuming the graph.

    Each non-leaf node drops its closure, parents and gradient as soon as
    its closure has run, so activations are freed during the walk.
    """
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    # Topological order via iterative post-order DFS; deterministic.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        fn, g, parents = node._backward_fn, node.grad, node._parents
        if fn is None:
            continue  # a leaf keeps its gradient
        node._backward_fn, node._parents, node.grad = _consumed, (), None
        if g is not None:
            _accumulate(parents, fn(g))
