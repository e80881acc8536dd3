"""Motion-intensity coefficients and their conditioning network.

A coefficient is the temporal variance of a keypoint sequence, min/max
normalized over the training corpus into [0, 1]. The conditioning
network maps (facial, body) coefficients to a width-c embedding that is
added onto the timestep embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np

from .numerics import RngState, Tensor, bias_name, dense, init_params, silu


@dataclass(frozen=True)
class MotionNorm:
    """Corpus min/max of the raw variance statistic."""

    min: float
    max: float

    def __post_init__(self):
        if not self.max > self.min:
            raise ValueError(f"norm.max ({self.max}) must exceed norm.min ({self.min})")


def raw_motion_variance(seq: np.ndarray) -> float:
    """Mean over keypoints and coordinates of the temporal (population)
    variance of an [F x K x 2] sequence."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 3 or seq.shape[-1] != 2:
        raise ValueError(f"expected [F,K,2] sequence, got {seq.shape}")
    if seq.shape[0] < 2:
        raise ValueError(f"need at least 2 frames to measure motion, got {seq.shape[0]}")
    return float(seq.var(axis=0).mean())


def compute_coefficient(seq: np.ndarray, norm: MotionNorm) -> float:
    """Normalized motion intensity: clamp((var - min) / (max - min), 0, 1)."""
    raw = raw_motion_variance(seq)
    return float(np.clip((raw - norm.min) / (norm.max - norm.min), 0.0, 1.0))


# ----------------------------------------------------------------------
# conditioning network

EXPANSION = 4  # length-axis expansion pooled back down to one vector


def motion_param_shapes(width: int) -> Iterator[Tuple[str, Tuple[int, ...]]]:
    """(name, shape) of each conditioning-network tensor, in layer order."""
    for w, fan_in, fan_out in (("motion.mlp1.w", 2, width), ("motion.mlp2.w", width, width),
                               ("motion.res1.w", width, width), ("motion.res2.w", width, width),
                               ("motion.expand.w", width, EXPANSION * width)):
        yield w, (fan_in, fan_out)
        yield bias_name(w), (fan_out,)


def init_motion_params(width: int, rng: RngState,
                       zero_final: bool = True) -> Dict[str, Tensor]:
    """Parameters for the conditioning network; the expansion layer is
    zero-initialized by default so the embedding starts at zero."""
    return init_params(motion_param_shapes(width), rng, "motion",
                       ("motion.expand.w",) if zero_final else ())


def motion_embed(omega: Tensor, params: Dict[str, Tensor]) -> Tensor:
    """(facial, body) -> width-c embedding.

    Two dense layers, one residual block, then mean pooling over a
    learned length-4 expansion. `omega` is [2] or [B x 2].
    """
    omega = Tensor._wrap(omega)
    squeeze = omega.ndim == 1
    x = omega.reshape(1, 2) if squeeze else omega
    h = silu(dense(x, params, "motion.mlp1.w"))
    h = dense(h, params, "motion.mlp2.w")
    r = silu(dense(h, params, "motion.res1.w"))
    h = h + dense(r, params, "motion.res2.w")
    width = params["motion.mlp2.w"].shape[-1]
    expanded = dense(h, params, "motion.expand.w")
    batch = expanded.shape[0]
    pooled = expanded.reshape(batch, EXPANSION, width).mean(axis=1)
    return pooled.reshape(width) if squeeze else pooled
