"""Fast tests of the benchmark itself, on tiny configs only.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import machine  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

wl.load_ivt()

TINY_SCENE = dict(persons=1, joints=2, frames=2, height=32, width=32, channels=1,
                  amplitude=1.0, blob_sigma=1.0, body_radius=2.0)
TINY_TRAIN = dict(frames=2, layers=1, scales=(4, 8), heads=2, fuse_heads=2,
                  head_hidden=4, teacher_forcing=True, threshold=0.3)
TINY = {
    "train": wl.Workload("tiny-train", "train", TINY_SCENE, TINY_TRAIN, steps=2),
    "single": wl.Workload("tiny-single", "train", TINY_SCENE,
                          {**TINY_TRAIN, "scales": (8,)}, steps=2),
    "eval": wl.Workload("tiny-eval", "eval", TINY_SCENE,
                        {**TINY_TRAIN, "teacher_forcing": False}),
}
COUNTS = ("tensor.macs.total", "tensor.macs.isa", "tensor.macs.ita", "tensor.macs.cisa",
          "tensor.tape_nodes", "tensor.tape_mib", "tensor.grad_mib")


def tiny_run(kind: str, tmp_path: Path, trace: bool, seed: int = 5) -> dict:
    return wl.run_workload(TINY[kind], seed, 0.01, trace, [0.1], out_dir=tmp_path)


def benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_the_code():
    doc = benchmark_json()
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in wl.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == wl.end_to_end_metrics()
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == wl.per_layer_metrics()
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tiny_runs_report_every_metric(kind, tmp_path):
    plain = tiny_run(kind, tmp_path, trace=False)
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["end_to_end"]) == set(wl.end_to_end_metrics())
    assert all(v > 0 for v in plain["end_to_end"].values())
    traced = tiny_run(kind, tmp_path, trace=True)
    assert traced["failed"] == 0, traced["problems"]
    assert set(traced["per_layer"]) == set(wl.per_layer_metrics())
    assert traced["per_layer"]["trace.top_coverage_pct"] >= 90.0
    assert (tmp_path / f"trace-{TINY[kind].name}-s5.tsv").is_file()


@pytest.mark.parametrize("kind", sorted(TINY))
def test_counts_repeat_exactly(kind, tmp_path):
    first = tiny_run(kind, tmp_path, trace=True)["per_layer"]
    second = tiny_run(kind, tmp_path, trace=True)["per_layer"]
    for key in COUNTS + tuple(k for k in first if k.endswith(".calls")):
        assert first[key] == second[key], key
    assert first["tensor.tape_nodes"] > 0 and first["tensor.macs.total"] > 0
    if kind == "eval":
        assert first["tensor.grad_mib"] == 0 and first["train.adam_step.calls"] == 0
    else:
        assert first["tensor.grad_mib"] > 0 and first["train.adam_step.calls"] == 1


def test_tracing_is_removed_after_a_traced_run(tmp_path):
    tensor = wl.ivt_module("tensor")
    gelu, step = tensor.gelu, wl.ivt_module("train").Adam.step
    tiny_run("single", tmp_path, trace=True)
    assert tensor.gelu is gelu and wl.ivt_module("train").Adam.step is step
    assert not hasattr(wl.ivt_module("blocks").T.gelu, "__wrapped__")


def test_forced_bad_output_raises_failed_share(tmp_path, monkeypatch):
    good = tiny_run("train", tmp_path, trace=False)
    assert good["failed"] == 0
    monkeypatch.setattr(wl, "load_reference",
                        lambda name, seed: {"loss_history": [1.0, 1.0]})
    bad = tiny_run("train", tmp_path, trace=False)
    assert bad["failed"] == bad["attempted"] >= 1
    assert "reference" in bad["problems"][0]


def test_train_check_catches_non_finite_and_drift():
    assert wl.check_train([1.0, 0.5], 2, None) == []
    assert wl.check_train([1.0, math.nan], 2, None)
    assert wl.check_train([1.0], 2, None)
    assert wl.check_train([1.0, 0.5], 2, [1.0, 0.5 * (1 + 1e-12)]) == []
    assert wl.check_train([1.0, 0.5], 2, [1.0, 0.5 * (1 + 1e-6)])


def test_eval_check_catches_lost_persons():
    ok = {"frames": 2, "matched_pairs": 3, "missed": 1, "mpjpe": 1.0,
          "pa_mpjpe": 0.5, "depth_error": 0.2}
    assert wl.check_eval(ok, 2, 2, None) == []
    assert wl.check_eval({**ok, "missed": 0}, 2, 2, None)
    assert wl.check_eval({**ok, "mpjpe": math.inf}, 2, 2, None)
    assert wl.check_eval({**ok, "mpjpe": None}, 2, 2, None)
    ref = {k: v for k, v in ok.items() if k != "frames"}
    assert wl.check_eval(ok, 2, 2, ref) == []
    assert wl.check_eval(ok, 2, 2, {**ref, "matched_pairs": 4})


def test_tail_needs_ten_samples_beyond():
    assert wl.tail([1.0] * 10)["percentile"] is None
    t = wl.tail([float(i) for i in range(31)])
    assert t["value"] == 20.0 and t["percentile"] == pytest.approx(100 * 20 / 30)


def test_blas_threads_capped_at_nproc():
    n = machine.nproc()
    capped = machine.blas_thread_env({"OPENBLAS_NUM_THREADS": str(n + 7),
                                      "OMP_NUM_THREADS": "1"})
    assert capped == {"OPENBLAS_NUM_THREADS": str(n), "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": str(n)}


def test_killed_child_is_a_failed_run(tmp_path):
    cmd = [sys.executable, "-c", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"]
    result = run.run_child(cmd, tmp_path / "none.json", {}, deadline=time.monotonic() + 60)
    assert result == {"error": "killed by signal SIGKILL"}


def test_runner_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark's files, it exits non-zero, no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fixture-train",
                          "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
