"""The benchmark's workloads, each run in its own process by ``run.py``.

A workload is a closed loop with one caller. It drives only the entry
points that ``ivt train`` and ``ivt eval`` use (``ivt.train.train``,
``ivt.train.load_model`` and ``ivt.train.evaluate``), checks every output,
and returns its metrics as a dict. All scene and train seeds derive from
the workload seed, so one seed always gives the same inputs.

Run one workload directly (``run.py`` does this in a fresh process)::

    python3 perfbench/workloads.py --workload fixture-train --seed 0 \\
        --seconds 20 --trace 0 --result .perfbench/out.json

Re-record the default-seed references (only when the program's numerics
are meant to change)::

    python3 perfbench/workloads.py --record-reference
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE_PATH = HERE / "reference.json"

DEFAULT_SEED = 0
BASE_SEED = 42          # the convergence fixture's scene and train seed
HELD_OUT = 16           # held-out scene seeds the eval loop cycles through
SETUP_REPS = 5
# Tolerance against the default-seed references. Float64 sums taken in
# another order (reversed softmax and layer-norm sums) moved the 8-step
# fixture loss history by at most 1.1e-15 relative; a 0.1% error in the
# GELU gradient moved it by 8e-5 to 5e-4 from the second step on.
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-12

# tests/test_acceptance.py::convergence_fixture, copied so the benchmark
# stays fixed when the tests change. Only `steps` differs (see Workload).
FIXTURE_SCENE = dict(persons=1, joints=2, frames=5, height=64, width=64,
                     channels=1, amplitude=0.0, blob_sigma=1.5, body_radius=5.0)
FIXTURE_TRAIN = dict(lr=5e-4, milestones=(0.6, 0.8), frames=5, layers=3,
                     alpha=10.0, scales=(8,), heads=2, fuse_heads=2,
                     head_hidden=8, teacher_forcing=True, threshold=0.3)
MULTISCALE_SCENE = {**FIXTURE_SCENE, "persons": 2, "amplitude": 1.0}
MULTISCALE_TRAIN = {**FIXTURE_TRAIN, "scales": (2, 4, 8)}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "train" or "eval"
    scene: dict               # SceneSpec fields, seed excluded
    train: dict               # TrainConfig fields, seed and steps excluded
    steps: int = 1            # optimizer steps per timed train() call (train only)
    why: str = ""


WORKLOADS = {w.name: w for w in (
    Workload("fixture-train", "train", FIXTURE_SCENE, FIXTURE_TRAIN, steps=8,
             why="convergence fixture: FFN/GELU, ISA/ITA and Adam dominate; "
                 "64x64 attention, so attention and tape changes show no gain"),
    Workload("multiscale-train", "train", MULTISCALE_SCENE, MULTISCALE_TRAIN, steps=2,
             why="3-scale clip, moving figures: CISA over 1344 tokens, backward "
                 "and a ~1.9 GiB tape dominate time and peak memory"),
    Workload("multiscale-eval", "eval", MULTISCALE_SCENE,
             {**MULTISCALE_TRAIN, "teacher_forcing": False},
             why="forward only from a loaded checkpoint, predicted offsets: "
                 "no_grad, alignment caching, decode and matching show here"),
)}

# Per-layer metrics of the traced run: self time and calls per step (train)
# or per clip (eval) for these spans ...
LAYER_SPANS = (
    "tensor.gelu", "blocks.ffn", "blocks.attention", "tensor.backward",
    "video.cisa", "video.mita", "video.ita", "video.isa", "video.align_tokens",
    "video.alignment_maps", "igt.predict_offsets", "igt.igt_frame",
    "losses.total_loss", "codec.encode_targets", "train.clip_loss",
    "train.adam_step", "train.adam_clip", "codec.decode_poses",
    "metrics.match_and_evaluate", "synth.generate", "checkpoint.save_params",
    "tensor.matmul", "tensor.softmax", "tensor.layernorm", "tensor.conv2d",
    "tensor.take_rows", "blocks.linear",
)
# ... inclusive time for the composite ones whose self time is small ...
INCLUSIVE_SPANS = (
    "video.cisa", "video.mita", "video.ita", "video.isa", "blocks.attention",
    "blocks.ffn", "igt.igt_frame", "train.model_forward",
)
# ... and time per set-up repetition for the set-up spans.
SETUP_SPANS = (
    ("synth.generate", "self_ms"), ("checkpoint.load_params", "self_ms"),
    ("train.build_model", "total_ms"),
)
MAC_SCOPES = ("total", "isa", "ita", "cisa")


def end_to_end_metrics() -> dict[str, str]:
    return {"setup_s": "s", "throughput_per_s": "1/s", "op_ms.p50": "ms",
            "peak_rss_mib": "MiB"}


def per_layer_metrics() -> dict[str, str]:
    names: dict[str, str] = {}
    for span in LAYER_SPANS:
        names[f"{span}.self_ms"] = "ms"
        names[f"{span}.calls"] = "count"
    for span in INCLUSIVE_SPANS:
        names[f"{span}.total_ms"] = "ms"
    for span, kind in SETUP_SPANS:
        names[f"setup.{span}.{kind}"] = "ms"
    for scope in MAC_SCOPES:
        names[f"tensor.macs.{scope}"] = "MAC"
    names.update({"tensor.tape_nodes": "count", "tensor.tape_mib": "MiB",
                  "tensor.grad_mib": "MiB", "trace.top_coverage_pct": "%",
                  "trace.overhead_pct": "%", "trace.spans": "count"})
    return names


# -- importing the program ---------------------------------------------------------


def load_ivt():
    """Import ivt from this checkout's src/, never from an installed copy."""
    if not (SRC / "ivt" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ivt package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ivt

    if Path(ivt.__file__).resolve().parent != (SRC / "ivt").resolve():
        raise ImportError(f"ivt imported from {ivt.__file__}, not from {SRC}")
    return ivt


def ivt_module(short: str):
    """ivt.<short> as a module (ivt.train is shadowed by the train function)."""
    return sys.modules[f"ivt.{short}"]


# -- output checks -------------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL)


def check_train(history, steps: int, reference: list[float] | None) -> list[str]:
    """Problems with one train() call's loss history (empty list: correct)."""
    problems = []
    if len(history) != steps:
        problems.append(f"loss history has {len(history)} entries, expected {steps}")
    bad = [i for i, v in enumerate(history) if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite loss at steps {bad}")
    if reference is not None and not problems:
        off = [i for i, (v, r) in enumerate(zip(history, reference)) if not _close(v, r)]
        if off:
            i = off[0]
            problems.append(f"loss at step {i} is {history[i]!r}, reference {reference[i]!r}")
    return problems


def eval_summary(report) -> dict:
    return {"frames": len(report.frames), "matched_pairs": report.matched_pairs,
            "missed": report.missed, "mpjpe": report.mpjpe,
            "pa_mpjpe": report.pa_mpjpe, "depth_error": report.depth_error}


def check_eval(summary: dict, persons: int, frames: int,
               reference: dict | None) -> list[str]:
    """Problems with one evaluate() report summary (empty list: correct)."""
    problems = []
    if summary["frames"] != frames:
        problems.append(f"report has {summary['frames']} frames, expected {frames}")
    if summary["matched_pairs"] + summary["missed"] != persons * frames:
        problems.append(f"matched {summary['matched_pairs']} + missed {summary['missed']}"
                        f" != {persons} persons x {frames} frames")
    for key in ("mpjpe", "pa_mpjpe", "depth_error"):
        value = summary[key]
        if value is None:
            if summary["matched_pairs"]:
                problems.append(f"{key} missing although pairs matched")
        elif not math.isfinite(value):
            problems.append(f"{key} is not finite: {value!r}")
    if reference is not None and not problems:
        for key, ref in reference.items():
            value = summary[key]
            same = (value == ref if value is None or ref is None or isinstance(ref, int)
                    else _close(value, ref))
            if not same:
                problems.append(f"{key} is {value!r}, reference {ref!r}")
    return problems


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED or not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload)


# -- statistics --------------------------------------------------------------------


def tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return {"percentile": None, "value": None, "samples": n}
    i = n - 11
    return {"percentile": 100.0 * i / (n - 1), "value": sorted(samples)[i], "samples": n}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the workload loop -----------------------------------------------------------------


@dataclass
class Run:
    """One workload's inputs and what the loop has seen so far."""
    workload: Workload
    seed: int
    ckpt: Path
    reference: object = None
    samples_ms: list[float] = field(default_factory=list)
    units: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


class WorkloadLoop:
    """Set-up, warm-up and the timed closed loop of one workload."""

    def __init__(self, run: Run):
        self.run = run
        w = run.workload
        self.ivt_train = ivt_module("train")
        self.synth = ivt_module("synth")
        self.spec = self.synth.SceneSpec(seed=BASE_SEED + run.seed, **w.scene)
        self.cfg = self.ivt_train.TrainConfig(seed=BASE_SEED + run.seed, steps=w.steps, **w.train)
        self.model = None

    def clip_spec(self, i: int):
        return replace(self.spec, seed=self.spec.seed + 1 + i % HELD_OUT)

    def write_checkpoint(self) -> None:
        """Untimed: the eval workload's seeded model, written once."""
        model = self.ivt_train.build_model(self.spec, self.cfg)
        ivt_module("checkpoint").save_params(self.run.ckpt, model.named_params())

    def setup_once(self) -> None:
        t = self.ivt_train
        if self.run.workload.kind == "train":
            self.synth.generate(replace(self.spec, frames=self.cfg.frames))
            model = t.build_model(self.spec, self.cfg)
            t.Adam(model.named_params())
        else:
            self.synth.generate(replace(self.clip_spec(0), frames=self.cfg.frames))
            self.model = t.load_model(self.spec, self.cfg, self.run.ckpt)

    def warm_up(self) -> None:
        if self.run.workload.kind == "train":
            result = self.ivt_train.train(self.spec, replace(self.cfg, steps=1), self.run.ckpt)
            problems = check_train(result.loss_history, 1, None)
        else:
            report = self.ivt_train.evaluate(self.model, self.spec, self.cfg)
            problems = check_eval(eval_summary(report), self.spec.persons,
                                  self.cfg.frames, None)
        if problems:
            raise RuntimeError(f"warm-up output is wrong: {problems}")

    def op(self, i: int) -> None:
        """One timed operation: a train() call, or one evaluate() clip."""
        run, t = self.run, self.ivt_train
        try:
            if run.workload.kind == "train":
                start = time.perf_counter()
                result = t.train(self.spec, self.cfg, run.ckpt)
                elapsed = time.perf_counter() - start
                problems = check_train(result.loss_history, self.cfg.steps,
                                       run.reference and run.reference["loss_history"])
                units = self.cfg.steps
            else:
                spec = self.clip_spec(i)
                start = time.perf_counter()
                report = t.evaluate(self.model, spec, self.cfg)
                elapsed = time.perf_counter() - start
                problems = check_eval(eval_summary(report), spec.persons, self.cfg.frames,
                                      run.reference and run.reference[i % HELD_OUT])
                units = 1
        except Exception as exc:  # a failed operation counts; the loop goes on
            run.record([f"op {i} raised {type(exc).__name__}: {exc}"])
            return
        run.record(problems)
        run.busy_s += elapsed
        run.units += units
        run.samples_ms.append(1000.0 * elapsed / units)

    def timed_loop(self, seconds: float, on_op=None) -> float:
        """Ops until `seconds` have passed (at least one); returns the wall time."""
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            if on_op is not None:
                on_op(i)
            self.op(i)
            i += 1
        return time.perf_counter() - start


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 import_samples: list[float], out_dir: Path = OUT_DIR) -> dict:
    """Run one workload in this process and return its result dict.

    Untraced: set-up, warm-up, then the timed loop. Traced: the same with
    spans recorded, then a second, untraced timed loop whose numbers are
    the end-to-end ones and the base of the tracing overhead.
    """
    name = workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, out_dir / f"{name}-s{seed}.ivtc", load_reference(name, seed))
    loop = WorkloadLoop(run)
    if workload.kind == "eval":
        loop.write_checkpoint()
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "unit": "step" if workload.kind == "train" else "clip"}
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            loop.setup_once()
            setup_times.append(time.perf_counter() - start)
        if tracer:
            traced = traced_pass(loop, tracer, seconds)
    finally:
        if tracer:
            tracer.uninstall()
    if not tracer:
        loop.warm_up()
    loop.timed_loop(seconds)
    if tracer:
        untraced_ms = 1000.0 * run.busy_s / run.units if run.units else math.nan
        per_layer = traced.pop("per_layer")
        per_layer["trace.overhead_pct"] = 100.0 * (traced.pop("ms_per_unit") / untraced_ms - 1.0)
        result["per_layer"] = per_layer
        trace_path = out_dir / f"trace-{name}-s{seed}.tsv"
        tracer.write_tsv(trace_path)
        result["trace_file"] = os.path.relpath(trace_path)
    import_s = statistics.median(import_samples)
    result.update({
        "attempted": run.attempted, "failed": run.failed, "problems": run.problems[:10],
        "units": run.units,
        "setup": {"import_s": import_s, "import_samples_s": import_samples,
                  "median_s": statistics.median(setup_times), "reps_s": setup_times},
        "latency": {"samples_ms": run.samples_ms, "tail": tail(run.samples_ms)},
    })
    if run.units:
        result["end_to_end"] = {
            "setup_s": import_s + statistics.median(setup_times),
            "throughput_per_s": run.units / run.busy_s,
            "op_ms.p50": statistics.median(run.samples_ms),
            "peak_rss_mib": peak_rss_mib(),
        }
    return result


def traced_pass(loop: WorkloadLoop, tracer, seconds: float) -> dict:
    """Warm-up and timed loop with spans on; resets the run's timing after."""
    from spans import SETUP, WARMUP

    run = loop.run
    tracer.cur_op = WARMUP
    loop.warm_up()
    first_op = run.attempted

    def enter(i):
        tracer.cur_op = first_op + i

    with tracer.count_macs():
        wall = loop.timed_loop(seconds, enter)
    macs = tracer.macs_by_scope()
    units = run.units
    if not units:
        return {"per_layer": {}, "ms_per_unit": math.nan}
    summary = tracer.summary(range(first_op, run.attempted), units, int(wall * 1e9))
    setup = tracer.summary([SETUP], SETUP_REPS, 0)["layers"]
    tapes = [t for t in tracer.tapes if t[0] >= 0]
    if summary["top_coverage"] < 0.9:
        run.record([f"top-level spans cover {summary['top_coverage']:.1%} "
                    "of the timed wall time, below 90%"])
    traced = {"per_layer": per_layer_values(summary, setup, macs, units, tapes),
              "ms_per_unit": 1000.0 * run.busy_s / units}
    run.busy_s, run.units, run.samples_ms = 0.0, 0, []
    return traced


def per_layer_values(summary: dict, setup: dict, macs: dict, units: int,
                     tapes: list) -> dict[str, float]:
    layers = summary["layers"]
    zero = {"self_ms": 0.0, "total_ms": 0.0, "calls": 0.0}
    values: dict[str, float] = {}
    for span in LAYER_SPANS:
        stats = layers.get(span, zero)
        values[f"{span}.self_ms"] = stats["self_ms"]
        values[f"{span}.calls"] = stats["calls"]
    for span in INCLUSIVE_SPANS:
        values[f"{span}.total_ms"] = layers.get(span, zero)["total_ms"]
    for span, kind in SETUP_SPANS:
        values[f"setup.{span}.{kind}"] = setup.get(span, zero)[kind]
    for scope in MAC_SCOPES:
        values[f"tensor.macs.{scope}"] = macs.get(scope, 0) / units
    mib = 1024.0 * 1024.0
    values["tensor.tape_nodes"] = float(max((t[1] for t in tapes), default=0))
    values["tensor.tape_mib"] = max((t[2] for t in tapes), default=0) / mib
    values["tensor.grad_mib"] = max((t[3] for t in tapes), default=0) / mib
    values["trace.top_coverage_pct"] = 100.0 * summary["top_coverage"]
    values["trace.overhead_pct"] = math.nan  # set once the untraced loop has run
    values["trace.spans"] = summary["spans"] / units
    return values


# -- reference recording -----------------------------------------------------------------


def record_reference() -> dict:
    """Default-seed outputs of every workload, as the checks compare them."""
    reference: dict = {"seed": DEFAULT_SEED, "rtol": REFERENCE_RTOL, "atol": REFERENCE_ATOL}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, workload in WORKLOADS.items():
        loop = WorkloadLoop(Run(workload, DEFAULT_SEED, OUT_DIR / f"{name}-reference.ivtc"))
        if workload.kind == "train":
            result = loop.ivt_train.train(loop.spec, loop.cfg, loop.run.ckpt)
            reference[name] = {"loss_history": result.loss_history}
        else:
            loop.write_checkpoint()
            loop.setup_once()
            clips = []
            for i in range(HELD_OUT):
                report = loop.ivt_train.evaluate(loop.model, loop.clip_spec(i), loop.cfg)
                summary = eval_summary(report)
                clips.append({k: v for k, v in summary.items() if k != "frames"})
            reference[name] = clips
    return reference


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--import-probes", default="",
                        help="comma-separated import times of fresh interpreters, in s")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    load_ivt()
    import_s = time.perf_counter() - start
    if args.record_reference:
        REFERENCE_PATH.write_text(json.dumps(record_reference(), indent=1) + "\n")
        return 0
    if args.workload is None or args.result is None:
        parser.error("--workload and --result are required")
    from machine import numpy_facts

    probes = [float(p) for p in args.import_probes.split(",") if p]
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                          [import_s, *probes])
    result["machine"] = numpy_facts()
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
