"""Instance-guided video transformer for multi-person 3D pose from video.

Pure-numpy implementation: a reverse-mode autodiff tensor core, transformer
building blocks, instance-guided tokenization, spatial/temporal/cross-scale
video attention, a heatmap+offset pose codec, evaluation metrics, a
synthetic scene generator, and a toy training loop.
"""

from . import (blocks, checkpoint, codec, gradcheck, igt, losses, metrics, synth,
               tensor, train, video)

__version__ = "0.1.0"
