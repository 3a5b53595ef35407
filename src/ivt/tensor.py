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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

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


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)
    return Tensor._result(data, (a,), lambda g: (g * (a.data > 0.0),), "relu")


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a: Tensor) -> Tensor:
    """Smooth activation x * Phi(x), tanh approximation."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def bw(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
        return (g * d,)

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
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat: empty tensor list")
    axis = int(axis)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return Tensor._result(data, tuple(tensors), bw, "concat")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis (copying)."""
    axis = int(axis)
    if start < 0 or start + length > a.shape[axis]:
        raise BoundsError(f"narrow: slice [{start}, {start + length}) out of range {a.shape[axis]}")
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
    if op not in ("sum", "mean"):
        raise ConfigError(f"reduce: unknown op {op!r}")
    if axis is None:
        n = a.size
        data = a.data.sum()
        if op == "mean":
            data = data / n
        data = np.asarray(data)

        def bw(g):
            gg = np.broadcast_to(g, a.shape).astype(np.float64)
            return (gg / n if op == "mean" else gg.copy(),)

        return Tensor._result(data, (a,), bw, op)
    axis = int(axis)
    if axis < -a.ndim or axis >= a.ndim:
        raise BoundsError(f"reduce: axis {axis} out of range for rank {a.ndim}")
    n = a.shape[axis]
    data = a.data.sum(axis=axis, keepdims=keepdims)
    if op == "mean":
        data = data / n

    def bw_axis(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        gg = np.broadcast_to(gg, a.shape).astype(np.float64)
        return (gg / n if op == "mean" else gg.copy(),)

    return Tensor._result(np.asarray(data), (a,), bw_axis, op)


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


def sdpa(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention softmax(q kᵀ / √d) v over the last two axes.

    2-D, or stacked with identical leading batch dims. One fused op: the
    scores are scaled and softmaxed in place in one buffer, and only the
    attention weights P are kept for the hand-written backward pass
    (Rabe & Staats, arXiv:2112.05682; FlashAttention, arXiv:2205.14135).
    MACs are charged as the two matmuls q kᵀ and P v.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.ndim < 2 or not q.ndim == k.ndim == v.ndim
            or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]):
        raise ShapeError(f"sdpa: shapes {q.shape}, {k.shape}, {v.shape} are incompatible")
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"sdpa: inner dims of {q.shape}, {k.shape}, {v.shape} disagree")
    d = q.shape[-1]
    c = float(1.0 / np.sqrt(d))
    p = q.data @ np.swapaxes(k.data, -1, -2)
    p *= c
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    _check_finite(p, "sdpa")
    if _debug_checks:
        assert np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-12), "softmax rows must sum to 1"
    data = p @ v.data
    batch = int(np.prod(q.shape[:-2], dtype=np.int64)) if q.ndim > 2 else 1
    nq, nk = q.shape[-2], k.shape[-2]
    macs.add(batch * nq * nk * (d + v.shape[-1]))

    def bw(g):
        ds = g @ np.swapaxes(v.data, -1, -2)  # dP
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= c  # c·dS
        return ds @ k.data, np.swapaxes(ds, -1, -2) @ q.data, np.swapaxes(p, -1, -2) @ g

    return Tensor._result(data, (q, k, v), bw, "sdpa")


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
    """3x3-style 2-D convolution, stride 1, zero 'same' padding.

    x: (C_in, H, W); w: (C_out, C_in, kh, kw) with odd kh, kw; b: (C_out,).
    Implemented by im2col so the backward rule is two matmul transposes.
    """
    cin, h, wid = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: input channels {cin} != weight channels {cin_w}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError("conv2d: kernel dims must be odd")
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw)))
    # cols: (H*W, C_in*kh*kw)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = windows.transpose(1, 2, 0, 3, 4).reshape(h * wid, cin * kh * kw)
    wmat = w.data.reshape(cout, cin * kh * kw)
    out = cols @ wmat.T + b.data
    macs.add(h * wid * cin * kh * kw * cout)
    data = np.ascontiguousarray(out.T.reshape(cout, h, wid))

    def bw(g):
        gmat = g.reshape(cout, h * wid).T  # (H*W, C_out)
        dw = (gmat.T @ cols).reshape(w.shape)
        db = gmat.sum(axis=0)
        dcols = gmat @ wmat  # (H*W, C_in*kh*kw)
        dxp = np.zeros_like(xp)
        dcols6 = dcols.reshape(h, wid, cin, kh, kw)
        for di in range(kh):
            for dj in range(kw):
                dxp[:, di:di + h, dj:dj + wid] += dcols6[:, :, :, di, dj].transpose(2, 0, 1)
        dx = dxp[:, ph:ph + h, pw:pw + wid]
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
