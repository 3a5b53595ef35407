"""Instance-guided video transformer for multi-person 3D pose from video.

Pure-numpy implementation: a reverse-mode autodiff tensor core, transformer
building blocks, instance-guided tokenization, spatial/temporal/cross-scale
video attention, a heatmap+offset pose codec, evaluation metrics, a
synthetic scene generator, and a toy training loop.
"""

from .tensor import (BoundsError, ConfigError, ContractError, MacCounter,
                     NumericError, ShapeError, Tensor, macs, set_debug_checks)
from .gradcheck import grad_check
from .blocks import (block_params, ffn, multi_head_self_attention,
                     transformer_block_self, zero_block_outputs)
from .igt import (GridGeometry, extract_blocks, gather_indices, offset_head_params,
                  predict_offsets, retile, take_frame_rows, tokenize)
from .video import (VideoConfig, align_tokens, alignment_maps, block_mean_flow, cisa,
                    cisa_params, ita, ivt_forward, ivt_layer, mita, split_to_finest,
                    tokenize_clip, video_params)
from .codec import (ROOT_JOINT, Pose3D, decode_poses, encode_heatmap,
                    encode_offsets, keypoint_nms, poses_from_lines, poses_to_lines)
from .losses import masked_l1, total_loss
from .metrics import (EvalReport, FrameEval, depth_error, greedy_match,
                      match_and_evaluate, mpjpe, pa_mpjpe, procrustes_align)
from .synth import SceneSpec, SceneTruth, generate
from .checkpoint import load_params, save_params
from .train import (Adam, IVTModel, ModelOutput, TrainConfig, TrainResult,
                    build_model, check_frames, clip_loss, clip_targets, decode_output,
                    evaluate, load_model, lr_at, prediction_head, train, video_config)

__version__ = "0.1.0"
