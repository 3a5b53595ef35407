"""Span tracer that instruments the ivt package from outside.

``Tracer.install()`` replaces every public function of the traced ivt
modules, plus a few methods, with a wrapper that records one span per
call: name, start, end, parent span and the operation (train call or eval
clip) and optimizer step it falls in. Spans live in flat arrays in memory
and are written out once, by ``write_tsv``, when the run ends.

Counts come from outside the program as well: MACs from the scopes of
``ivt.tensor.macs``, and the tape (nodes reachable from the loss, and
their bytes) walked just before ``tensor.backward`` runs, or from the
model outputs on an eval forward. Backward closures are not public
functions, so backward time is one ``tensor.backward`` span; it cannot be
split per layer until tape nodes carry their scope.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

TRACED_MODULES = ("synth", "igt", "video", "blocks", "tensor", "losses",
                  "codec", "metrics", "train", "checkpoint")
# (module, class, method) -> span name.
TRACED_METHODS = {
    ("train", "Adam", "step"): "train.adam_step",
    ("train", "Adam", "clip_gradients"): "train.adam_clip",
    ("train", "IVTModel", "forward"): "train.model_forward",
}
SETUP, WARMUP = -1, -2   # op ids of spans outside the timed loop


def tape_nodes(roots) -> list:
    """Tensors reachable from roots along the edges backward follows."""
    seen: set[int] = set()
    nodes = []
    stack = [r for r in roots if r.requires_grad]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(p for p in node._parents if p.requires_grad)
    return nodes


def buffer_bytes(arrays) -> int:
    """Bytes of distinct buffers; views (reshape) share their base's bytes."""
    seen: dict[int, int] = {}
    for a in arrays:
        if a is None:
            continue
        base = a
        while isinstance(base.base, np.ndarray):
            base = base.base
        seen[id(base)] = base.nbytes
    return sum(seen.values())


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.step = array("l")
        self._stack: list[int] = []
        self.cur_op = SETUP
        self.cur_step = 0
        self.tapes: list[tuple[int, int, int, int]] = []  # (op, nodes, data bytes, grad bytes)
        self._patched: list[tuple[object, str, object]] = []
        self._macs = None

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.cur_op)
        self.step.append(self.cur_step)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions everywhere the ivt package refers to them."""
        mods = {m: importlib.import_module(f"ivt.{m}") for m in TRACED_MODULES}
        replace: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(f"{short}.{attr}", fn)
                if short == "tensor" and attr == "backward":
                    wrapper = self._backward_wrapper(wrapper)
                replace[id(fn)] = (fn, wrapper)
        for (short, cls, meth), name in TRACED_METHODS.items():
            owner = getattr(mods[short], cls)
            fn = vars(owner)[meth]
            wrapper = self.wrap(name, fn)
            if (cls, meth) == ("Adam", "step"):
                wrapper = self._step_counter(wrapper)
            elif (cls, meth) == ("IVTModel", "forward"):
                wrapper = self._forward_tape(wrapper)
            self._set(owner, meth, wrapper)
        ivt_mods = [m for n, m in list(sys.modules.items())
                    if m is not None and (n == "ivt" or n.startswith("ivt."))]
        for mod in ivt_mods:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        self._macs = mods["tensor"].macs

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _step_counter(self, step_fn):
        def step(*args, **kwargs):
            try:
                return step_fn(*args, **kwargs)
            finally:
                self.cur_step += 1
        return step

    @staticmethod
    def _tape(roots) -> tuple[list, int]:
        nodes = tape_nodes(roots)
        return nodes, buffer_bytes(n.data for n in nodes)

    def _backward_wrapper(self, backward_fn):
        def backward(loss, *args, **kwargs):
            nodes, data_bytes = self.span("bench.tape_walk", self._tape, [loss])
            try:
                return backward_fn(loss, *args, **kwargs)
            finally:
                grad_bytes = self.span("bench.tape_walk", buffer_bytes,
                                       [n.grad for n in nodes])
                self.tapes.append((self.cur_op, len(nodes), data_bytes, grad_bytes))
                del nodes
        return backward

    def _forward_tape(self, forward_fn):
        def forward(*args, **kwargs):
            out = forward_fn(*args, **kwargs)
            if self.cur_op >= 0 and not self._in_train():
                roots = out.heatmaps + out.offsets3d + out.offsets2d
                nodes, data_bytes = self.span("bench.tape_walk", self._tape, roots)
                self.tapes.append((self.cur_op, len(nodes), data_bytes, 0))
                del nodes
            return out
        return forward

    def _in_train(self) -> bool:
        train_id = self._name_ids.get("train.train")
        return any(self.name[i] == train_id for i in self._stack)

    # -- MAC counting ------------------------------------------------------------

    def count_macs(self):
        """Context manager: count MACs (the program's own counter) while open."""
        self._macs.reset()
        return self._macs.counting()

    def macs_by_scope(self) -> dict[str, int]:
        return {"total": self._macs.total, **self._macs.by_scope}

    # -- analysis -----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.dtype(f"i{self.parent.itemsize}"), count=n)
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return {
            "name": np.frombuffer(self.name, dtype=np.dtype(f"i{self.name.itemsize}"), count=n),
            "op": np.frombuffer(self.op, dtype=np.dtype(f"i{self.op.itemsize}"), count=n),
            "parent": parent, "start": start, "end": end, "dur": dur,
            "self": dur - covered,
        }

    def summary(self, op_ids, units: int, wall_ns: int) -> dict:
        """Per-name self ms, inclusive ms and calls per unit (step or clip),
        over the spans of the given operations; plus top-level coverage."""
        a = self.arrays()
        keep = np.isin(a["op"], np.asarray(list(op_ids), dtype=a["op"].dtype))
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            sel = keep & (a["name"] == nid)
            if not sel.any():
                continue
            out[name] = {"self_ms": float(a["self"][sel].sum()) / 1e6 / units,
                         "total_ms": float(a["dur"][sel].sum()) / 1e6 / units,
                         "calls": float(sel.sum()) / units}
        top = keep & (a["parent"] < 0)
        coverage = float(a["dur"][top].sum()) / wall_ns if wall_ns else 0.0
        return {"layers": out, "top_coverage": coverage, "spans": int(keep.sum())}

    def write_tsv(self, path: Path) -> None:
        """One line per span: name, start_ns, end_ns, parent index, op, step."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\tstep\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                         f"{self.parent[i]}\t{self.op[i]}\t{self.step[i]}\n")
