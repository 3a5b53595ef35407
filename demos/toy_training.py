"""Train the full pipeline on a tiny synthetic clip and evaluate it.

A seeded stick-figure generator provides frames, exact flows, and
ground-truth poses, so the whole loop — model, loss, Adam, decoding,
matching, metrics — runs end to end in under a minute with no data
downloads. Runs are bitwise deterministic for a fixed seed.
"""

from ivt.synth import SceneSpec
from ivt.train import TrainConfig, evaluate, train

# The defaults are the convergence fixture; this clip is shorter and smaller,
# and its model has one layer.
scene = SceneSpec(seed=11, frames=3, height=32, width=32, blob_sigma=1.2, body_radius=3.0)
cfg = TrainConfig(steps=60, frames=3, layers=1, seed=11)

result = train(scene, cfg)
hist = result.loss_history
print(f"\nloss: {hist[0]:.4f} -> {hist[-1]:.4f} "
      f"({hist[-1] / hist[0]:.1%} of initial after {cfg.steps} steps)")

report = evaluate(result.model, scene, cfg)
print(f"matched {report.matched_pairs} of {report.matched_pairs + report.missed} "
      f"ground-truth people")
print(f"MPJPE {report.mpjpe:.4f}  PA-MPJPE {report.pa_mpjpe:.4f}  "
      f"depth error {report.depth_error:.4f}")

rerun = train(scene, cfg)
print("\nrerun is bitwise deterministic:",
      rerun.loss_history == result.loss_history)
