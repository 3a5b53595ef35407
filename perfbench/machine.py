"""Machine facts that the benchmark's numbers depend on.

``host_facts`` uses the standard library only, so the runner can call it
without importing numpy; ``numpy_facts`` runs inside a workload process,
after the BLAS thread cap is in its environment.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# train() keeps the previous step's graph alive (its `out` and `loss`
# locals) while the next forward builds a new one, so peak RSS holds about
# two tapes. The benchmark measures this as it is.
TRAIN_GRAPH_NOTE = ("train() holds the previous step's graph during the next forward: "
                    "multiscale-train peaks near 5.6 GiB RSS, against the 3.7 GiB after "
                    "backward in the ROADMAP baseline")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_thread_env(environ=None) -> dict[str, str]:
    """Thread variables capped at nproc; a smaller value already set is kept."""
    environ = os.environ if environ is None else environ
    cap = nproc()
    out = {}
    for var in THREAD_VARS:
        try:
            value = int(environ.get(var, ""))
        except ValueError:
            value = cap
        out[var] = str(min(value, cap) if value > 0 else cap)
    return out


def mem_total_kib() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def git_revision(root: Path) -> str:
    """HEAD commit read from root/.git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(root: Path) -> dict:
    return {"python": platform.python_version(), "nproc": nproc(),
            "mem_total_kib": mem_total_kib(), "git_revision": git_revision(root),
            "platform": platform.platform(), "train_graph_note": TRAIN_GRAPH_NOTE}


def _openblas_threads() -> int | None:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def numpy_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": _openblas_threads(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}
