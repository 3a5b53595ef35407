"""Trace one video layer: spatial attention, flow alignment, temporal attention.

Tokens live on a block grid per frame. With a single block size the
layer's cross-scale stage (CISA) is self-attention inside each frame.
The layer then shifts tokens along block-level motion so each grid slot
tracks the same content over time, and runs self-attention over each
slot's frames. The whole layer sits inside an outer residual, so
zeroing the inner blocks turns it into an exact doubling.
"""

import numpy as np

from ivt.blocks import block_params, zero_block_outputs
from ivt.tensor import Tensor, macs
from ivt.video import (GridGeometry, VideoConfig, alignment_maps, align_tokens, ita,
                       ivt_layer, video_params)

rng = np.random.default_rng(3)

frames, d_model = 2, 8
geom = GridGeometry(block_size=2, n_h=1, n_w=4)  # 2x8 pixels, 4 blocks in a row
# One block size; token width = joints * channels * 2 * 2 = d_model.
cfg = VideoConfig(joints=2, channels=1, scales=(2,), layers=1, heads=2, fuse_heads=2)
params = video_params(rng, cfg, 2, 8)["layer0"]
tokens = Tensor(rng.uniform(-1, 1, size=(frames, geom.n, d_model)))

# A uniform one-block shift to the right between the two frames. Earlier
# frames are relocated onto the last frame's grid, so frame 0 shifts and
# frame 1 stays put.
flow = np.zeros((2, 2, 8))
flow[0] = 2.0  # dx in pixels = one block
flows = [flow]

maps = alignment_maps(flows, geom, frames)
print("block source map per frame (slot <- source block):")
for t, m in enumerate(maps):
    print(f"  frame {t}: {m.tolist()}")
print("the rightmost two sources collide at the edge slot; the later one")
print("in grid order wins, and the vacated slot 0 keeps its own token.")

aligned = align_tokens(tokens, maps)
print("\nafter alignment, frame 0 slot 1 holds frame 0 block 0:",
      np.array_equal(aligned.data[0, 1], tokens.data[0, 0]))

# Temporal attention cost is linear in the window length.
params16 = block_params(rng, 16)

def ita_macs(t):
    macs.reset()
    with macs.counting():
        ita(Tensor(rng.uniform(-1, 1, size=(t, geom.n, 16))), params16, 2)
    return macs.by_scope["ita"]

print("\ntemporal MACs, 8 frames vs 4:", ita_macs(8) / ita_macs(4))

# Zero the inner block outputs (and use still footage so alignment is the
# identity) and the layer reduces to its residual paths.
zero_block_outputs(params["cisa"]["block"])
params["cisa"]["pos2"] = Tensor(np.zeros((geom.n, d_model)))
zero_block_outputs(params["mita"]["ita2"])
still = [alignment_maps([np.zeros((2, 2, 8))], geom, frames)]
out = ivt_layer([tokens], still, params, cfg, [geom])[0]
print("zeroed layer doubles the input exactly:",
      np.array_equal(out.data, 2.0 * tokens.data))
