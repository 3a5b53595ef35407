"""Benchmark of the ivt pipeline: training throughput, eval latency, memory.

Each workload runs in a fresh process (``workloads.py``), so its peak RSS
is its own. The runner caps BLAS threads at nproc, times a few fresh
imports for the set-up figure, prints every metric by name and unit, and
ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the workload runs traced (spans recorded from outside the program) and the
metrics are the per-layer ones. Usage, from the repository root::

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload multiscale-eval --seed 3 --seconds 20
    python3 perfbench/run.py --workload fixture-train --trace 1

A workload process that dies (for example an OOM kill) is reported as a
failed run with its signal, and the remaining workloads still run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from machine import blas_thread_env, host_facts  # noqa: E402
from workloads import (DEFAULT_SEED, OUT_DIR, ROOT, SRC, WORKLOADS,  # noqa: E402
                       end_to_end_metrics, per_layer_metrics)

IMPORT_PROBES = 5
CHILD_BUDGET_S = 170.0
PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
         "import ivt; print(time.perf_counter() - t)")


def import_probes(env: dict) -> list[float]:
    """Seconds to import numpy and ivt in fresh interpreters."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip()))
    return times


def run_child(cmd: list[str], result_path: Path, env: dict, deadline: float) -> dict:
    """Run one workload process; a crash, signal or timeout becomes an error dict."""
    result_path.unlink(missing_ok=True)
    child = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out and was killed"}
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code < 0:
        return {"error": f"killed by signal {signal.Signals(-code).name}"}
    if code != 0 or not result_path.is_file():
        return {"error": f"exited with code {code}"}
    result = json.loads(result_path.read_text())
    if "end_to_end" not in result:
        result["error"] = f"no operation succeeded: {result['problems']}"
    return result


def run_workload_process(name: str, args, env: dict) -> dict:
    """Import probes, then the workload in a fresh process."""
    deadline = time.monotonic() + CHILD_BUDGET_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        probes = import_probes(env)
    except (subprocess.SubprocessError, ValueError) as exc:
        return {"error": f"import probe failed: {exc}"}
    result_path = OUT_DIR / f"result-{name}-s{args.seed}-t{args.trace}.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path),
           "--import-probes", ",".join(repr(p) for p in probes)]
    return run_child(cmd, result_path, env, deadline)


def show(name: str, result: dict) -> None:
    """Human-readable lines for one workload (to stdout, before the JSON line)."""
    if "error" in result:
        print(f"[{name}] FAILED RUN: {result['error']}")
        return
    units = {**end_to_end_metrics(), **per_layer_metrics()}
    share = result["failed"] / result["attempted"]
    print(f"[{name}] seed {result['seed']}, {result['units']} {result['unit']}s timed, "
          f"failed_share {share:.4f} ({result['failed']}/{result['attempted']} ops)")
    for problem in result["problems"]:
        print(f"[{name}]   problem: {problem}")
    for key, value in result["end_to_end"].items():
        print(f"[{name}]   {key} = {value:.6g} {units[key]}")
    t = result["latency"]["tail"]
    if t["percentile"] is None:
        print(f"[{name}]   op_ms.tail: undefined with {t['samples']} samples (needs 11+)")
    else:
        print(f"[{name}]   op_ms.tail = {t['value']:.6g} ms at p{t['percentile']:.1f} "
              f"of {t['samples']} samples")
    setup = result["setup"]
    print(f"[{name}]   set-up: import {setup['import_s']:.4f} s (median of "
          f"{len(setup['import_samples_s'])} fresh imports) + {setup['median_s']:.4f} s "
          f"(median of {len(setup['reps_s'])} set-ups)")
    for key, value in result.get("per_layer", {}).items():
        print(f"[{name}]   {key} = {value:.6g} {units[key]}")
    if "trace_file" in result:
        print(f"[{name}]   spans written to {result['trace_file']}")
    print(f"[{name}]   machine: {json.dumps(result['machine'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ivt" / "__init__.py").is_file():
        print(f"perfbench: no ivt sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    env = {**os.environ, **blas_thread_env()}
    env.pop("PYTHONPATH", None)
    host = host_facts(ROOT)
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"blas thread cap: {json.dumps(blas_thread_env(), sort_keys=True)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    metric_units = per_layer_metrics() if args.trace else end_to_end_metrics()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload_process(name, args, env)
        show(name, result)
        if "error" in result:
            correct = False
            attempted += 1
            failed += 1
            continue
        correct &= result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
        values = result["per_layer"] if args.trace else result["end_to_end"]
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, unit in metric_units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    print(f"wall {time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
