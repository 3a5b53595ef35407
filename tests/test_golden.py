"""The bitwise oracle: pinned runs recomputed and compared with tests/golden.json.

The file holds the float.hex loss histories of the 8-step convergence
fixture and of the 2-step multi-scale clip (seed 42), the sha256 of both
checkpoints, the multi-scale model's eval aggregates on scene seeds 43-45,
the `ivt bench --frames 1,3,5` MACs of a 16x16 run with scales (2, 4), the
errors of every ``GRAD_UNITS`` unit for seeds 0-2, and the machine facts
they were taken under (``cli.machine_facts()`` without the git revision).

Under the same machine facts every value must match bitwise. Under other
facts (another numpy, BLAS or BLAS thread setting) floats are compared at
rtol 1e-8, the tolerance of perfbench/reference.json, and integers
exactly. The checksums and gradient errors are then skipped: a checkpoint's
bytes move with the last bit of any parameter, and a gradient error is the
difference of an analytic and a finite-difference gradient, so its leading
digits are rounding noise that rtol cannot bound.

A change that moves a value on purpose rewrites the file with
``python tests/test_golden.py --write``, which prints every value that
moved, in ulps.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from ivt.cli import machine_facts, temporal_macs
from ivt.gradcheck import GRAD_UNITS
from ivt.synth import SceneSpec
from ivt.train import TrainConfig, evaluate, train

GOLDEN_PATH = Path(__file__).parent / "golden.json"
RTOL = 1e-8
SAME_MACHINE_ONLY = ("checkpoint_sha256", "grad_errors")

# The defaults plus what differs, as in tests/test_train.py.
RUNS = {
    "fixture": (SceneSpec(seed=42), TrainConfig(seed=42, steps=8)),
    "multiscale": (SceneSpec(seed=42, persons=2, amplitude=1.0),
                   TrainConfig(seed=42, steps=2, scales=(2, 4, 8))),
}
EVAL_SEEDS = (43, 44, 45)
# No persons: the defaults' figures do not fit a 16x16 map.
BENCH_RUN = (SceneSpec(persons=0, height=16, width=16), TrainConfig(scales=(2, 4)))
BENCH_FRAMES = (1, 3, 5)
GRAD_SEEDS = range(3)


def _hex(value):
    return None if value is None else float.hex(value)


def compute() -> dict:
    """Every golden value, floats as float.hex strings."""
    facts = {k: v for k, v in machine_facts().items() if k != "git_revision"}
    values: dict = {"machine": facts, "histories": {}, "checkpoint_sha256": {}}
    models = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (scene, cfg) in RUNS.items():
            path = Path(tmp) / f"{name}.ivtc"
            result = train(scene, cfg, checkpoint_path=path)
            values["histories"][name] = [float.hex(v) for v in result.loss_history]
            values["checkpoint_sha256"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
            models[name] = result.model
    scene, cfg = RUNS["multiscale"]
    values["eval"] = {}
    for seed in EVAL_SEEDS:
        report = evaluate(models["multiscale"], replace(scene, seed=seed), cfg)
        values["eval"][str(seed)] = {
            "matched_pairs": report.matched_pairs, "missed": report.missed,
            "mpjpe": _hex(report.mpjpe), "pa_mpjpe": _hex(report.pa_mpjpe),
            "depth_error": _hex(report.depth_error)}
    values["bench_macs"] = {str(t): temporal_macs(t, *BENCH_RUN)[0] for t in BENCH_FRAMES}
    values["grad_errors"] = {unit: [float.hex(check(np.random.default_rng(seed)))
                                    for seed in GRAD_SEEDS]
                             for unit, check in GRAD_UNITS.items()}
    return values


def flatten(values: dict, prefix: str = "") -> dict:
    """{"group/key/...": leaf} for every leaf of a nested dict or list."""
    out = {}
    for key, value in values.items():
        path = f"{prefix}/{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(flatten(value, path))
        elif isinstance(value, list):
            out.update(flatten(dict(enumerate(value)), path))
        else:
            out[path] = value
    return out


def _is_float(value) -> bool:
    return isinstance(value, str) and value.lstrip("-").startswith("0x")


def _ordered(x: float) -> int:
    """The float's position on the line of all float64 values."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def ulps(a: str, b: str) -> int:
    return abs(_ordered(float.fromhex(a)) - _ordered(float.fromhex(b)))


def differences(want: dict, got: dict) -> list[str]:
    """Every golden value that ``got`` does not reproduce: bitwise under the
    same machine facts, else floats at RTOL and the rest exactly, skipping
    ``SAME_MACHINE_ONLY``."""
    same = want["machine"] == got["machine"]
    want_flat = flatten({k: v for k, v in want.items() if k != "machine"})
    got_flat = flatten({k: v for k, v in got.items() if k != "machine"})
    out = [f"{key}: missing" for key in want_flat.keys() - got_flat.keys()]
    out += [f"{key}: not in the golden file" for key in got_flat.keys() - want_flat.keys()]
    for key in sorted(want_flat.keys() & got_flat.keys()):
        w, g = want_flat[key], got_flat[key]
        if w == g or (not same and key.split("/")[0] in SAME_MACHINE_ONLY):
            continue
        if not same and _is_float(w) and _is_float(g) and math.isclose(
                float.fromhex(w), float.fromhex(g), rel_tol=RTOL, abs_tol=0.0):
            continue
        moved = f" ({ulps(w, g)} ulps)" if _is_float(w) and _is_float(g) else ""
        out.append(f"{key}: {w} -> {g}{moved}")
    return out


def test_golden_values_are_unchanged():
    want = json.loads(GOLDEN_PATH.read_text())
    got = compute()
    diffs = differences(want, got)
    if want["machine"] == got["machine"]:
        assert not diffs, "not bitwise equal to tests/golden.json:\n" + "\n".join(diffs)
    else:
        assert not diffs, (
            f"the machine facts differ from tests/golden.json ({want['machine']} recorded, "
            f"{got['machine']} here), and values moved beyond rtol {RTOL}:\n"
            + "\n".join(diffs))


def test_other_machine_facts_compare_floats_at_rtol_and_skip_the_bytes():
    want = {"machine": {"numpy": "1"}, "histories": {"a": [float.hex(1.0)]},
            "checkpoint_sha256": {"a": "ab"}, "bench_macs": {"1": 5}}
    near = {"machine": {"numpy": "2"}, "histories": {"a": [float.hex(1.0 + 2**-40)]},
            "checkpoint_sha256": {"a": "cd"}, "bench_macs": {"1": 5}}
    assert differences(want, near) == []
    assert differences(want, dict(near, machine=want["machine"])) == [
        "checkpoint_sha256/a: ab -> cd",
        f"histories/a/0: {float.hex(1.0)} -> {float.hex(1.0 + 2**-40)} (4096 ulps)"]
    far = dict(near, histories={"a": [float.hex(1.0 + 1e-7)]}, bench_macs={"1": 6})
    assert [line.split(":")[0] for line in differences(want, far)] == [
        "bench_macs/1", "histories/a/0"]


def write() -> None:
    """Recompute the file and print every value that moved, in ulps."""
    got = compute()
    if GOLDEN_PATH.exists():
        old = json.loads(GOLDEN_PATH.read_text())
        if old["machine"] != got["machine"]:
            print(f"machine facts: {old['machine']} -> {got['machine']}")
        old["machine"] = got["machine"]  # report every move bitwise
        for line in differences(old, got):
            print(line)
    GOLDEN_PATH.write_text(json.dumps(got, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write()
