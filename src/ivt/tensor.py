"""Dense f64 tensors with reverse-mode automatic differentiation.

The graph is a tape rebuilt on every forward pass: each Tensor produced by
an operation points to a tape vertex (``_Node``) that holds a closure
mapping the output gradient to parent gradients, and the parents' vertices.
A vertex holds no data, and a closure holds only what it reads (a parent's
data or Tensor, its own output, a shape). ``backward`` walks the vertices
once, in reverse topological order, and consumes them as it goes: once a
vertex's closure has run, it drops its closure, its parents and its
gradient, so every array is freed as soon as no later closure reads it.
Only leaves (tensors created with ``requires_grad=True``, i.e. parameters
and inputs) keep ``.grad`` after ``backward``. A consumed graph cannot be
differentiated again; a second ``backward`` through it raises
``ContractError``. Data buffers are row-major contiguous float64. An op
writes only the temporaries it allocated in the same call (``ffn_branch``
computes gelu in its own buffers), never a tape array (a Tensor's data) or
a closure's incoming gradient. Outside the ops only the optimizer writes
in place, between a backward and the next forward: a leaf's ``grad``
(clipping) and its data.

A backward closure keeps only its parents' data, its own output, parameters
and per-row statistics (a layer norm's mean and inverse deviation,
``sdpa``'s logsumexp). ``attention_branch`` keeps one array more, the one
that costs an attention to rebuild: the attention output before its
projection. Any other array a closure needs (``gelu``'s tanh term and
output, a layer norm's normalized input and output, a branch's q, k, v and
FFN pre-activation, ``sdpa``'s per-head copies, ``conv2d``'s im2col matrix)
it rebuilds when it runs, with the same ops in the same order as forward,
so the values are bitwise those forward had. A rebuild charges no MACs:
``macs`` counts the forward's. An op's output lives while the caller holds
its Tensor or a closure reads it, and no longer: an intermediate that no
closure reads (an ``add`` feeding a ``transpose``) is freed before
``backward``, and one that a closure reads (``linear``'s input) dies once
that closure has run.

Ops take Tensors; an array is never converted to one implicitly.
Elementwise ops (``add``, ``sub``, ``mul``) take operands of equal shape.
The only broadcast op is ``add_bcast`` (positional embedding); ``linear``
adds its own bias, ``sdpa`` splits and merges its own attention heads, and
each residual branch applies its own layer norm, biases and residual add.
Array-level helpers (``_affine``, ``_gelu``, ``_layernorm``, ``_sdpa_*``)
hold each formula once; the public ops and the branches share them.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np


class ConfigError(ValueError):
    """A run's settings violate their contract: raised only by the settings gate."""


class ContractError(ValueError):
    """A call violates an operation's precondition: a shape, an index or an argument."""


class NumericError(RuntimeError):
    """A non-finite value appeared where the contract forbids it."""


# Debug mode scans every op output for NaN/Inf; release mode skips the scan.
_debug_checks = True


def set_debug_checks(enabled: bool) -> bool:
    """Turn the debug checks on or off; returns the previous setting."""
    global _debug_checks
    prev, _debug_checks = _debug_checks, bool(enabled)
    return prev


class MacCounter:
    """Counts multiply-accumulate operations of linear, sdpa and conv2d forwards.

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
        raise NumericError(f"{op}: non-finite output at index {tuple(map(int, bad[0]))}")


class _Node:
    """A tape vertex: an op's backward closure, its parents' vertices, its
    gradient while backward runs, its output's shape and the op's name.

    It holds its output's buffer only weakly: ``data`` is that buffer while
    a Tensor or a closure still holds it, else None. A leaf Tensor is its
    own vertex; a parent that takes no gradient is ``_NO_GRAD``."""

    __slots__ = ("_backward_fn", "_parents", "grad", "shape", "op", "requires_grad", "_ref")

    def __init__(self, fn, parents: tuple, out: Optional[np.ndarray], op: str) -> None:
        self._backward_fn, self._parents, self.grad, self.op = fn, parents, None, op
        self.requires_grad = out is not None  # False only for ``_NO_GRAD``
        self.shape = () if out is None else out.shape
        while isinstance(out, np.ndarray) and isinstance(out.base, np.ndarray):
            out = out.base  # the buffer's owner, which a closure's view keeps alive
        self._ref = None if out is None else weakref.ref(out)

    @property
    def data(self) -> Optional[np.ndarray]:
        return None if self._ref is None else self._ref()


_NO_GRAD = _Node(None, (), None, "no_grad")


class Tensor:
    """N-dimensional float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[_Node] = None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward_fn(self) -> Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]]:
        return None if self._node is None else self._node._backward_fn

    def _vertex(self):
        """This tensor's tape vertex: its node, itself as a leaf, or ``_NO_GRAD``."""
        if not self.requires_grad:
            return _NO_GRAD
        return self if self._node is None else self._node

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
        if self.data.size != 1:
            raise ContractError(f"item: need a tensor of size 1, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], backward_fn, op: str) -> "Tensor":
        _check_finite(data, op)
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._node = _Node(backward_fn, tuple(p._vertex() for p in parents), out.data, op)
        return out

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ContractError(f"{op}: shapes {a.shape} and {b.shape} differ")


# -- elementwise ops ---------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    data = a.data + b.data

    def bw(g):
        return g, g

    return Tensor._result(data, (a, b), bw, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    data = a.data - b.data

    def bw(g):
        return g, -g

    return Tensor._result(data, (a, b), bw, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    data = a.data * b.data

    def bw(g):
        return g * b.data, g * a.data

    return Tensor._result(data, (a, b), bw, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor._result(a.data * c, (a,), lambda g: (g * c,), "scale")


def sigmoid(a: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor._result(data, (a,), lambda g: (g * data * (1.0 - data),), "sigmoid")


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(√(2/π) (x + 0.044715 x³)), as a new array."""
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu(x: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
    """x Φ(x) = 0.5 x (1 + t), from x and its tanh term t, into ``out`` (which
    may be x) or a new array. t becomes 1 + t."""
    t += 1.0
    out = np.multiply(x, 0.5, out=out)
    out *= t
    return out


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray, t1=None, scratch=None,
               out=None) -> np.ndarray:
    """g times gelu's derivative at x, from x, its tanh term t and, if the
    caller has it, t1 = 1 + t. t becomes 1 − t² and t1 0.5 (1 + t); the
    inner derivative goes into ``scratch`` and the result into ``out``
    (which may be x), or each into a new array."""
    if t1 is None:
        t1 = 1.0 + t
    dinner = np.multiply(x, 3 * 0.044715, out=scratch)
    dinner *= x
    # Above 1e300, 1 - t² is exactly 0, and an x² overflowed to inf would make 0 · inf NaN.
    np.minimum(dinner, 1e300, out=dinner)
    dinner += 1.0
    dinner *= _GELU_C
    d = np.multiply(x, 0.5, out=out)
    t *= t
    d *= np.subtract(1.0, t, out=t)
    d *= dinner
    t1 *= 0.5
    d += t1
    d *= g
    return d


def gelu(a: Tensor) -> Tensor:
    """Smooth activation x * Phi(x), tanh approximation. Backward rebuilds
    the tanh term from x."""
    x = a.data
    return Tensor._result(_gelu(x, _gelu_tanh(x)), (a,),
                          lambda g: (_gelu_grad(x, _gelu_tanh(x), g),), "gelu")


def absolute(a: Tensor) -> Tensor:
    data = np.abs(a.data)
    return Tensor._result(data, (a,), lambda g: (g * np.sign(a.data),), "abs")


# -- affine map --------------------------------------------------------------


def _linear_width(d_x: int, w: Tensor, b: Tensor, op: str) -> int:
    """The output width of an affine map of w and b on d_x-wide rows."""
    d_in, d_out = w.shape
    if d_x != d_in:
        raise ContractError(f"{op}: input dim {d_x} != weight dim {d_in}")
    if b.shape != (d_out,):
        raise ContractError(f"{op}: bias {b.shape} must be ({d_out},)")
    return d_out


def _affine(x2: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x2 w + b for (rows, d_in) x2, as a new array; charges its MACs."""
    macs.add(x2.shape[0] * w.shape[0] * w.shape[1])
    return _affine_rebuild(x2, w, b)


def _affine_rebuild(x2: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_affine`` without the MAC charge, for a backward that rebuilds its output."""
    out = x2 @ w
    out += b
    return out


def _affine_grad(x2: np.ndarray, w: np.ndarray, g2: np.ndarray):
    """(dx2, dw, db) of ``_affine`` for the (rows, d_out) output gradient g2."""
    return g2 @ w.T, x2.T @ g2, g2.sum(axis=0)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x w + b over the last axis, for any leading shape.

    x: (..., d_in); w: (d_in, d_out); b: (d_out,). One node: the forward is
    one matmul over the flattened rows with the bias added in place, and
    the backward returns what a reshape/matmul/add_bcast/reshape chain
    would, bitwise.
    """
    d_out, shape = _linear_width(x.shape[-1], w, b, "linear"), x.shape
    x2 = x.data.reshape(-1, w.shape[0])
    data = _affine(x2, w.data, b.data)

    def bw(g):
        dx2, dw, db = _affine_grad(x2, w.data, g.reshape(-1, d_out))
        return dx2.reshape(shape), dw, db

    return Tensor._result(data.reshape(x.shape[:-1] + (d_out,)), (x, w, b), bw, "linear")


def add_bcast(x: Tensor, p: Tensor) -> Tensor:
    """Add p broadcast over the leading axes of x (p matches x's trailing dims)."""
    if p.ndim > x.ndim or p.shape != x.shape[x.ndim - p.ndim:]:
        raise ContractError(f"add_bcast: {p.shape} does not match trailing dims of {x.shape}")
    data = x.data + p.data
    lead = tuple(range(x.ndim - p.ndim))

    def bw(g):
        return g, (g.sum(axis=lead) if lead else g)

    return Tensor._result(data, (x, p), bw, "add_bcast")


# -- structural ops ----------------------------------------------------------


def reshape(a: Tensor, new_shape) -> Tensor:
    new_shape = tuple(int(s) for s in new_shape)
    if any(s < -1 for s in new_shape):
        raise ContractError(f"reshape: sizes must be at least -1, got {new_shape}")
    if new_shape.count(-1) > 1:
        raise ContractError(f"reshape: at most one inferred dimension, got {new_shape}")
    if -1 in new_shape:
        known = int(np.prod([s for s in new_shape if s != -1], dtype=np.int64))
        if known == 0 or a.size % known != 0:
            raise ContractError(f"reshape: cannot reshape {a.shape} to {new_shape}")
        new_shape = tuple(a.size // known if s == -1 else s for s in new_shape)
    if int(np.prod(new_shape, dtype=np.int64)) != a.size:
        raise ContractError(f"reshape: cannot reshape {a.shape} to {new_shape}")
    data, shape = a.data.reshape(new_shape), a.shape
    return Tensor._result(data, (a,), lambda g: (g.reshape(shape),), "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ContractError(f"transpose: axes {axes} invalid for rank {a.ndim}")
    inv = np.argsort(axes)
    data = np.ascontiguousarray(np.transpose(a.data, axes))
    return Tensor._result(data, (a,), lambda g: (np.transpose(g, inv),), "transpose")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join along one axis; a single tensor is returned as is, with no node."""
    if not tensors:
        raise ContractError("concat: empty tensor list")
    axis = int(axis)
    if not -tensors[0].ndim <= axis < tensors[0].ndim:
        raise ContractError(f"concat: axis {axis} out of range for rank {tensors[0].ndim}")
    if len(tensors) == 1:
        return tensors[0]
    axis %= tensors[0].ndim
    if len({(t.ndim, t.shape[:axis], t.shape[axis + 1:]) for t in tensors}) > 1:
        raise ContractError(f"concat: shapes {[t.shape for t in tensors]} differ off axis {axis}")
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
    if not -a.ndim <= axis < a.ndim:
        raise ContractError(f"narrow: axis {axis} out of range for rank {a.ndim}")
    if length < 0:
        raise ContractError(f"narrow: length {length} is negative")
    if start < 0 or start + length > a.shape[axis]:
        raise ContractError(f"narrow: slice [{start}, {start + length}) out of range {a.shape[axis]}")
    if start == 0 and length == a.shape[axis]:
        return a
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    data, shape = np.ascontiguousarray(a.data[tuple(idx)]), a.shape

    def bw(g):
        full = np.zeros(shape)
        full[tuple(idx)] = g
        return (full,)

    return Tensor._result(data, (a,), bw, "narrow")


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows along axis 0; backward scatters gradient back additively."""
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ContractError("take_rows: indices must be 1-D")
    if idx.size and idx.dtype.kind not in "iu":
        raise ContractError(f"take_rows: indices must be integers, got {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        bad = idx[(idx < 0) | (idx >= a.shape[0])][0]
        raise ContractError(f"take_rows: index {int(bad)} out of range [0, {a.shape[0]})")
    data, shape = np.ascontiguousarray(a.data[idx]), a.shape

    def bw(g):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return (out,)

    return Tensor._result(data, (a,), bw, "take_rows")


def tsum(a: Tensor) -> Tensor:
    """Sum of every element, as a 0-d tensor."""
    shape = a.shape

    def bw(g):
        return (np.broadcast_to(g, shape).astype(np.float64),)  # a copy

    return Tensor._result(np.asarray(a.data.sum()), (a,), bw, "sum")


def tmean(a: Tensor) -> Tensor:
    """Mean of every element, as a 0-d tensor."""
    n, shape = a.size, a.shape

    def bw(g):
        return (np.broadcast_to(g, shape).astype(np.float64) / n,)

    return Tensor._result(np.asarray(a.data.sum() / n), (a,), bw, "mean")


# -- fused row-wise ops -------------------------------------------------------


# Bytes of one block of attention scores, sized to a core's 2 MiB L2 cache: half
# of it, since a backward block holds the rebuilt P and dS (2 MiB blocks ran the
# CISA backward about 40% slower on such a Xeon).
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


def _sdpa_block(a3: np.ndarray, bt: np.ndarray, block, scratch: np.ndarray) -> np.ndarray:
    """a bᵀ over one score block, formed in the front of ``scratch``."""
    b0, b1, r0, r1 = block
    shape = (b1 - b0, r1 - r0, bt.shape[-1])
    s = scratch[:shape[0] * shape[1] * shape[2]].reshape(shape)
    np.matmul(a3[b0:b1, r0:r1], bt[b0:b1], out=s)
    return s


def _with_column(a: np.ndarray, col) -> np.ndarray:
    """a with one more column on its last axis, holding ``col``."""
    out = np.empty(a.shape[:-1] + (a.shape[-1] + 1,))
    out[..., :-1] = a
    out[..., -1:] = col
    return out


def _heads_to_batch(a: np.ndarray, elements: int, heads: int) -> np.ndarray:
    """(..., n, heads·e) -> (elements·heads, n, e), head h of element b at b·heads + h."""
    n, w = a.shape[-2:]
    split = a.reshape(elements, n, heads, w // heads).transpose(0, 2, 1, 3)
    return np.ascontiguousarray(split).reshape(elements * heads, n, w // heads)


def _heads_to_width(a: np.ndarray, heads: int, shape) -> np.ndarray:
    """The inverse of ``_heads_to_batch``, as a new array of ``shape`` = (..., n, heads·e)."""
    bh, n, e = a.shape
    out = np.empty(shape)
    split = a.reshape(bh // heads, heads, n, e).transpose(0, 2, 1, 3)
    out.reshape(bh // heads, n, heads, e)[...] = split
    return out


def _sdpa_check(q_shape, k_shape, v_shape, heads: int, op: str) -> None:
    """The shape and head contract of ``sdpa``; errors name ``op``."""
    if (len(q_shape) < 2 or not len(q_shape) == len(k_shape) == len(v_shape)
            or not q_shape[:-2] == k_shape[:-2] == v_shape[:-2]):
        raise ContractError(f"{op}: shapes {q_shape}, {k_shape}, {v_shape} are incompatible")
    if q_shape[-1] != k_shape[-1] or k_shape[-2] != v_shape[-2]:
        raise ContractError(f"{op}: inner dims of {q_shape}, {k_shape}, {v_shape} disagree")
    if q_shape[-1] == 0:
        raise ContractError(f"{op}: feature dim is zero")
    if k_shape[-2] < 1:
        raise ContractError(f"{op}: need at least one key")
    if heads < 1 or q_shape[-1] % heads or v_shape[-1] % heads:
        raise ContractError(f"{op}: heads {heads} must be at least 1 and divide the "
                            f"widths {q_shape[-1]} and {v_shape[-1]}")


def _sdpa_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, op: str):
    """(out, lse, blocks): the attention output, one logsumexp per query row
    and head, and the score blocks that backward walks again (``sdpa``)."""
    lead = q.shape[:-2]
    elements = int(np.prod(lead, dtype=np.int64))
    batch, nq, nk = elements * heads, q.shape[-2], k.shape[-2]
    d, dv = q.shape[-1] // heads, v.shape[-1] // heads
    q3, k3, v3 = (_heads_to_batch(a, elements, heads) for a in (q, k, v))
    c = float(1.0 / np.sqrt(d))
    blocks = _sdpa_blocks(batch, nq, nk)
    scratch = np.empty(max((b1 - b0) * (r1 - r0) for b0, b1, r0, r1 in blocks) * nk)
    qc, kt = q3 * c, np.swapaxes(k3, -1, -2)
    lse = np.empty((batch, nq, 1))
    data = np.empty((batch, nq, dv))
    for block in blocks:
        b0, b1, r0, r1 = block
        pb = _sdpa_block(qc, kt, block, scratch)
        mb = pb.max(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):  # inf − inf is NaN, which the check names
            pb -= mb
        np.exp(pb, out=pb)
        lb = pb.sum(axis=-1, keepdims=True)
        if _debug_checks:
            if not np.all(np.isfinite(lb)):
                b, r, j = np.argwhere(~np.isfinite(pb))[0]
                element, head = divmod(int(b0 + b), heads)
                at = np.unravel_index(element, lead) + (r0 + r, j)
                raise NumericError(f"{op}: non-finite output at index "
                                   f"{tuple(map(int, at))}, head {head}")
            assert np.all(lb >= 1.0), "softmax row sums must be at least 1"
        ob = data[b0:b1, r0:r1]
        np.matmul(pb, v3[b0:b1], out=ob)
        ob /= lb
        np.log(lb, out=lb)
        lb += mb
        lse[b0:b1, r0:r1] = lb
    macs.add(batch * nq * nk * (d + dv))
    return _heads_to_width(data, heads, lead + (nq, v.shape[-1])), lse, blocks


def _sdpa_backward(q, k, v, out, lse, blocks, g, heads: int):
    """(dq, dk, dv) of ``_sdpa_forward`` for the output gradient g."""
    elements = int(np.prod(q.shape[:-2], dtype=np.int64))
    d, nk = q.shape[-1] // heads, k.shape[-2]
    c = float(1.0 / np.sqrt(d))
    scratch_len = max((b1 - b0) * (r1 - r0) for b0, b1, r0, r1 in blocks) * nk
    q3, k3, v3, g3, data = (_heads_to_batch(a, elements, heads) for a in (q, k, v, g, out))
    qa = _with_column(q3 * c, -lse)
    qc = qa[..., :d]
    ga = _with_column(g3, -(g3 * data).sum(axis=-1, keepdims=True))  # [dO, −D]
    kat = np.swapaxes(_with_column(k3, 1.0), -1, -2)
    vat = np.swapaxes(_with_column(v3, 1.0), -1, -2)
    dq3, dk3, dv3 = np.empty(q3.shape), np.empty(k3.shape), np.empty(v3.shape)
    scratch, ds_scratch = np.empty(scratch_len), np.empty(scratch_len)
    for block in blocks:
        b0, b1, r0, r1 = block
        pb = _sdpa_block(qa, kat, block, scratch)  # s − lse
        np.exp(pb, out=pb)  # P
        ds = _sdpa_block(ga, vat, block, ds_scratch)  # dP − D
        ds *= pb  # dS, the gradient of the scaled scores
        np.matmul(ds, k3[b0:b1], out=dq3[b0:b1, r0:r1])
        dst, pbt = np.swapaxes(ds, -1, -2), np.swapaxes(pb, -1, -2)
        if r0 == 0:
            np.matmul(dst, qc[b0:b1, r0:r1], out=dk3[b0:b1])
            np.matmul(pbt, g3[b0:b1, r0:r1], out=dv3[b0:b1])
        else:
            dk3[b0:b1] += dst @ qc[b0:b1, r0:r1]
            dv3[b0:b1] += pbt @ g3[b0:b1, r0:r1]
    dq3 *= c
    return tuple(_heads_to_width(a, heads, t.shape) for a, t in ((dq3, q), (dk3, k), (dv3, v)))


def sdpa(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head attention softmax(q kᵀ / √e) v over the last two axes.

    2-D, or stacked with identical leading batch dims. The last axis holds
    ``heads`` heads side by side; each attends on its own columns, e wide
    in q and k, and the output puts the heads side by side again. Inside,
    every head is one element of a (batch·heads, n, e) stack, copied in
    and out; backward copies q, k, v and the output in again rather than
    keep the stacks. One fused op with a hand-written backward that keeps
    no attention weights, at the cost of FlashAttention-2 (Dao,
    arXiv:2307.08691): forward keeps one logsumexp per query row, and
    backward rebuilds each block of P from q, k and it. Both passes walk
    the scores in blocks of at most ``SDPA_BLOCK_BYTES`` (see
    ``_sdpa_blocks``) in block-sized scratch buffers, so every pass over a
    block runs in cache. 1/√e is folded into q.

    Forward, per block: the scores s, max-shift and exp in place (P̃), the
    row sums l, the block's rows of P̃ v divided by l, and the logsumexp
    lse = m + log l. Backward forms D = rowsum(dO ∘ O) once per call from
    the output. One extra column on each operand puts the shift and the
    subtraction into the block matmuls, [q/√e, −lse] [k, 1]ᵀ = s − lse and
    [dO, −D] [v, 1]ᵀ = dP − D, so each backward block makes two elementwise
    passes: P = exp(s − lse) and dS = P ∘ (dP − D). Then come the block's
    rows of dq, and dk and dv assigned (whole rows) or accumulated (row
    ranges) (Rabe & Staats, arXiv:2112.05682); dq is scaled by 1/√e once,
    after the loop. The output and the gradients match the unfused
    matmul/scale/softmax/matmul chain per head (in ``tests/reference_ops.py``)
    to 1e-12, not bitwise, also for a call that is one block.
    ``attention_branch`` runs the same two passes (``_sdpa_forward`` and
    ``_sdpa_backward``).

    Under debug checks every row sum l must be finite and at least 1 (its
    max term is exp(0)). A non-finite entry of P̃ makes its l non-finite;
    then the block is scanned for the first such entry, and the error names
    its score index in the caller's terms (leading indices, query row, key
    column) and its head. MACs are charged as the two forward matmuls q kᵀ
    and P v. Bad shapes, a zero width, no keys, or ``heads`` below 1 or not
    dividing the widths of q and v raise ``ContractError``.
    """
    _sdpa_check(q.shape, k.shape, v.shape, heads, "sdpa")
    out, lse, blocks = _sdpa_forward(q.data, k.data, v.data, heads, "sdpa")

    def bw(g):
        return _sdpa_backward(q.data, k.data, v.data, out, lse, blocks, g, heads)

    return Tensor._result(out, (q, k, v), bw, "sdpa")


LN_EPS = 1e-6  # added to the variance in a layer norm


def _check_layernorm(d: int, gain: Tensor, bias: Tensor, op: str) -> None:
    if gain.shape != (d,) or bias.shape != (d,):
        raise ContractError(f"{op}: gain {gain.shape} and bias {bias.shape} must be ({d},)")


def _layernorm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, stats=None):
    """(out, xhat, mu, inv): x normalized over its last axis to zero mean and
    unit variance (xhat), scaled by ``gain`` and shifted by ``bias`` (out),
    with the row mean mu and inverse deviation inv. Given ``stats`` = (mu,
    inv), xhat is rebuilt from them with the ops that first formed it."""
    if stats is None:
        mu = x.mean(axis=-1, keepdims=True)
        xhat = x - mu
        inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + LN_EPS)
    else:
        mu, inv = stats
        xhat = x - mu
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, xhat, mu, inv


def _layernorm_grad(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray,
                    need_dx: bool = True):
    """(dx, dgain, dbias) of ``_layernorm`` for the output gradient g; dx is
    None unless ``need_dx``."""
    dx = None
    if need_dx:
        gh = g * gain
        gh *= inv
        dx = gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
    lead = tuple(range(g.ndim - 1))
    return dx, (g * xhat).reshape(-1, g.shape[-1]).sum(axis=0), g.sum(axis=lead)


# -- pre-norm residual branches ------------------------------------------------


def attention_branch(x: Tensor, gain: Tensor, bias: Tensor, wq: Tensor, bq: Tensor,
                     wk: Tensor, bk: Tensor, wv: Tensor, bv: Tensor, wo: Tensor,
                     bo: Tensor, heads: int) -> Tensor:
    """x + (sdpa(LN(x) wq + bq, LN(x) wk + bk, LN(x) wv + bv) wo + bo), one node.

    LN is the layer norm over the last axis with ``gain`` and ``bias``;
    sdpa splits ``heads`` heads (``sdpa``). The closure keeps the row
    statistics of the layer norm, the attention output before wo and sdpa's
    logsumexp. Backward rebuilds the layer norm's output, then q, k and v
    from it, and drops them once sdpa's backward has run: over n keys of
    width d that costs 3·n·d² MACs against the attention's 2·n²·d. When x
    takes no gradient, backward skips the layer norm's input gradient. The
    output and every gradient are bitwise those of the chain layernorm,
    three ``linear``, ``sdpa``, ``linear`` and ``add`` (the chain in
    ``tests/reference_ops.py``), and MACs are charged as that chain's
    forward charges them. It raises the errors the chain raised; under
    debug checks a non-finite value names the stage:
    ``attention_branch/layernorm``, ``/q``, ``/k``, ``/v``, ``/sdpa`` (with
    sdpa's score index and head) and ``/out``.
    """
    op = "attention_branch"
    d = x.shape[-1]
    _check_layernorm(d, gain, bias, op)
    widths = [_linear_width(d, w, b, op) for w, b in ((wq, bq), (wk, bk), (wv, bv))]
    lead = x.shape[:-1]
    _sdpa_check(*(lead + (n,) for n in widths), heads, f"{op}/sdpa")
    if _linear_width(widths[2], wo, bo, op) != d:
        raise ContractError(f"{op}: output width {wo.shape[1]} != input width {d}")
    ln, _, mu, inv = _layernorm(x.data, gain.data, bias.data)
    _check_finite(ln, f"{op}/layernorm")
    ln2 = ln.reshape(-1, d)
    projected = []
    for name, w, b in (("q", wq, bq), ("k", wk, bk), ("v", wv, bv)):
        projected.append(_affine(ln2, w.data, b.data).reshape(lead + (w.shape[1],)))
        _check_finite(projected[-1], f"{op}/{name}")
    del ln, ln2
    q, k, v = projected
    a, lse, blocks = _sdpa_forward(q, k, v, heads, f"{op}/sdpa")
    _check_finite(a, f"{op}/sdpa")
    data = _affine(a.reshape(-1, widths[2]), wo.data, bo.data).reshape(x.shape)
    data += x.data

    def bw(g):
        ln, xhat, _, _ = _layernorm(x.data, gain.data, bias.data, (mu, inv))
        ln2 = ln.reshape(-1, d)
        qkv = [_affine_rebuild(ln2, w.data, b.data).reshape(lead + (w.shape[1],))
               for w, b in ((wq, bq), (wk, bk), (wv, bv))]
        da, dwo, dbo = _affine_grad(a.reshape(-1, widths[2]), wo.data, g.reshape(-1, d))
        dqkv = _sdpa_backward(*qkv, a, lse, blocks, da.reshape(a.shape), heads)
        del qkv, da
        dln, dparams = None, []
        for dp, w in zip(dqkv, (wq, wk, wv)):  # in the order the chain summed them
            dl, dw, db = _affine_grad(ln2, w.data, dp.reshape(-1, w.shape[1]))
            dln = dl if dln is None else dln + dl
            dparams += [dw, db]
        dx, dgain, dbias = _layernorm_grad(dln.reshape(x.shape), xhat, inv, gain.data,
                                           x.requires_grad)
        if dx is not None:
            dx += g
        return (dx, dgain, dbias, *dparams, dwo, dbo)

    return Tensor._result(data, (x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo), bw,
                          f"{op}/out")


def ffn_branch(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor,
               w2: Tensor, b2: Tensor) -> Tensor:
    """x + (gelu(LN(x) w1 + b1) w2 + b2), one node.

    LN is the layer norm over the last axis with ``gain`` and ``bias``.
    The closure keeps only the row statistics of the layer norm. Forward
    turns h = LN(x) w1 + b1 into gelu(h) in place. Backward rebuilds the
    layer norm's output, h from it, and gelu's tanh term t, 1 + t and
    output from h, then forms gelu's derivative in those buffers, so it
    holds five arrays of h's size at most. The output and every
    gradient are bitwise those of the chain layernorm, ``linear``,
    ``gelu``, ``linear`` and ``add`` (the chain in
    ``tests/reference_ops.py``), and MACs are charged as that chain's
    forward charges them. It raises the errors the chain raised; under
    debug checks a non-finite value names the stage:
    ``ffn_branch/layernorm``, ``/hidden`` and ``/out`` (gelu maps every
    finite h to a finite value, so its output is not scanned).
    """
    op = "ffn_branch"
    d = x.shape[-1]
    _check_layernorm(d, gain, bias, op)
    if _linear_width(_linear_width(d, w1, b1, op), w2, b2, op) != d:
        raise ContractError(f"{op}: output width {w2.shape[1]} != input width {d}")
    ln, _, mu, inv = _layernorm(x.data, gain.data, bias.data)
    _check_finite(ln, f"{op}/layernorm")
    h = _affine(ln.reshape(-1, d), w1.data, b1.data)
    del ln
    _check_finite(h, f"{op}/hidden")
    _gelu(h, _gelu_tanh(h), out=h)
    data = _affine(h, w2.data, b2.data).reshape(x.shape)
    data += x.data

    def bw(g):
        ln, xhat, _, _ = _layernorm(x.data, gain.data, bias.data, (mu, inv))
        ln2 = ln.reshape(-1, d)
        h = _affine_rebuild(ln2, w1.data, b1.data)
        t = _gelu_tanh(h)
        t1 = t.copy()
        act = _gelu(h, t1)
        dact, dw2, db2 = _affine_grad(act, w2.data, g.reshape(-1, d))
        dh = _gelu_grad(h, t, dact, t1, scratch=act, out=h)
        del t, t1, act, dact
        dln, dw1, db1 = _affine_grad(ln2, w1.data, dh)
        dx, dgain, dbias = _layernorm_grad(dln.reshape(x.shape), xhat, inv, gain.data)
        dx += g
        return dx, dgain, dbias, dw1, db1, dw2, db2

    return Tensor._result(data, (x, gain, bias, w1, b1, w2, b2), bw, f"{op}/out")


# -- convolution --------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(B*H*W, C_in*kh*kw) windows of a (B, C_in, H, W) map zero-padded to
    'same' size, as a new array."""
    bsz, cin, h, wid = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(bsz * h * wid, cin * kh * kw)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """3x3-style 2-D convolution, stride 1, zero 'same' padding, over a batch.

    x: (B, C_in, H, W); w: (C_out, C_in, kh, kw) with odd kh, kw; b: (C_out,).
    im2col over all B maps at once: the forward is one matmul, the backward
    one matmul for dw (summed over the batch) and one per kernel tap for dx,
    which it skips (returns None) when x takes no gradient. The backward
    rebuilds the im2col matrix from x rather than keeping it.
    """
    if x.ndim != 4:
        raise ContractError(f"conv2d: input must be (B, C, H, W), got {x.shape}")
    if w.ndim != 4:
        raise ContractError(f"conv2d: weight {w.shape} must be (C_out, C_in, kh, kw) "
                            f"for input {x.shape}")
    bsz, cin, h, wid = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ContractError(f"conv2d: input channels {cin} != weight channels {cin_w}")
    if b.shape != (cout,):
        raise ContractError(f"conv2d: bias {b.shape} must be ({cout},) for weight {w.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ContractError("conv2d: kernel dims must be odd")
    ph, pw = kh // 2, kw // 2
    cols = _im2col(x.data, kh, kw)
    wmat = w.data.reshape(cout, cin * kh * kw)
    # (C_out, B*H*W); cols @ wmat.T touched 12 MiB more 2-thread OpenBLAS buffer.
    out = wmat @ cols.T + b.data[:, None]
    macs.add(bsz * h * wid * cin * kh * kw * cout)
    data = np.ascontiguousarray(out.reshape(cout, bsz, h, wid).transpose(1, 0, 2, 3))

    def bw(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(bsz * h * wid, cout)
        dw = (gmat.T @ _im2col(x.data, kh, kw)).reshape(w.shape)
        db = gmat.sum(axis=0)
        if not x.requires_grad:
            return None, dw, db
        dxp = np.zeros((bsz, cin, h + 2 * ph, wid + 2 * pw))
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


def _accumulate(parents: tuple, grads, op: str) -> None:
    """Add the gradients the closure of ``op`` returned into its parents' ``.grad``.

    Closures never write into their incoming ``g``; each returns ``g``
    itself, a view of it, or an array it made in the call. A parent's
    first gradient is kept as it comes, with two exceptions, which are
    copied: an array that another parent already took in this call
    (``add`` returns its ``g`` twice), and a view that arrives at a leaf.
    An interior node only reads its gradient and drops it when its
    closure has run, so it may hold a view; a leaf keeps its ``.grad``,
    so every leaf's ``.grad`` owns its buffer. Under debug checks a
    non-finite gradient raises ``NumericError`` naming ``op`` and the parent.
    """
    taken: list[np.ndarray] = []
    for i, (parent, g) in enumerate(zip(parents, grads)):
        if g is None or not parent.requires_grad:
            continue
        _check_finite(g, f"backward of {op}, parent {i}")
        if g.shape != parent.shape:
            raise ContractError(
                f"backward: gradient shape {g.shape} does not match tensor {parent.shape}")
        if parent.grad is None:
            if ((g.base is not None and parent._backward_fn is None)
                    or any(g is t for t in taken)):
                g = np.array(g, dtype=np.float64)
            taken.append(g)
            parent.grad = g
        else:
            parent.grad = parent.grad + g


def backward(loss: Tensor) -> None:
    """Populate .grad on every leaf reachable from loss, consuming the graph.

    Each tape vertex drops its closure, parents and gradient as soon as its
    closure has run, so the arrays the closure read are freed during the walk.
    """
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    root = loss if loss._node is None else loss._node
    # Topological order via iterative post-order DFS; deterministic.
    topo: list = []
    visited: set[int] = set()
    stack: list[tuple] = [(root, False)]
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
    root.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        fn, g, parents = node._backward_fn, node.grad, node._parents
        if fn is None:
            continue  # a leaf keeps its gradient
        node._backward_fn, node._parents, node.grad = _consumed, (), None
        if g is not None:
            _accumulate(parents, fn(g), node.op)
