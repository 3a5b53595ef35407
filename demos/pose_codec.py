"""Encode a handful of 3D poses into dense maps and decode them back.

The codec turns a list of people into a center heatmap (max of per-person
Gaussians at the root joints) plus per-joint offset maps stored at the
center pixels. Decoding peaks the heatmap with local-max NMS and reads
the offsets back out; on clean maps the round trip is exact.
"""

import numpy as np

from ivt.codec import Pose3D, decode_poses, encode_heatmap, encode_offsets, keypoint_nms
from ivt.metrics import mpjpe

rng = np.random.default_rng(7)

h = w = 24
people = []
for cx, cy in ((6, 6), (17, 9), (9, 18)):
    joints = np.empty((5, 3))
    joints[:, 0] = cx + rng.uniform(-2, 2, size=5)
    joints[:, 1] = cy + rng.uniform(-2, 2, size=5)
    joints[:, 2] = rng.uniform(0, 4, size=5)
    joints[0, :2] = (cx, cy)  # joint 0 is the root / heatmap center
    people.append(Pose3D(joints))

heatmap = encode_heatmap(people, h, w, 2.0)
offsets3d, centers = encode_offsets(people, 5, h, w)
print(f"encoded {len(people)} people -> heatmap {heatmap.shape}, "
      f"3D offsets {offsets3d.shape} at {int(centers.sum())} center pixels")
print("heatmap peaks at the root pixels:",
      [float(heatmap[cy, cx]) for cx, cy in ((6, 6), (17, 9), (9, 18))])

# NMS keeps only local maxima; running it twice changes nothing.
peaks = keypoint_nms(heatmap)
print("NMS idempotent:", np.array_equal(keypoint_nms(peaks), peaks))

decoded = decode_poses(heatmap, offsets3d, threshold=0.9, max_people=10)
decoded.sort(key=lambda p: tuple(p.root[:2]))
people.sort(key=lambda p: tuple(p.root[:2]))
errors = [mpjpe(d, g) for d, g in zip(decoded, people)]
print("round-trip MPJPE per person:", [f"{e:.2e}" for e in errors])

# Confidence ordering: lower a peak and it decodes last.
heatmap2 = heatmap * 1.0
heatmap2[6, 6] *= 0.95
order = [tuple(np.rint(p.root[:2]).astype(int)) for p in
         decode_poses(heatmap2, offsets3d, threshold=0.5, max_people=10)]
print("decode order after lowering (6,6):", order)
