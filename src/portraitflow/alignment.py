"""Audio/video token correspondence and lip-mask projection.

A clip pairs f latent frames with l audio tokens (l >= f). Segmentation
assigns each frame a contiguous audio span; frame-scoped attention over
those spans must agree with full-sequence attention under the matching
block mask, which is the oracle used throughout the tests. The lip mask
reaches the latent grid by trilinear projection, written as three 1-D
interpolations (width, height, time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .numerics import Tensor

NEG_INF = float("-inf")


@dataclass(frozen=True)
class AudioVideoMap:
    """Frame-to-audio-span assignment: frame i owns tokens
    [boundaries[i], boundaries[i+1])."""

    frames: int
    boundaries: Tuple[int, ...]

    def __post_init__(self):
        if len(self.boundaries) != self.frames + 1:
            raise ValueError(f"need {self.frames + 1} boundaries, got {len(self.boundaries)}")
        if self.boundaries[0] != 0:
            raise ValueError(f"boundaries must start at 0: {self.boundaries}")
        if any(lo > hi for lo, hi in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError(f"boundaries must be nondecreasing: {self.boundaries}")

    @property
    def audio_tokens(self) -> int:
        return self.boundaries[-1]

    def segment_lengths(self) -> Tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.boundaries, self.boundaries[1:]))

    def is_uniform(self) -> bool:
        lengths = self.segment_lengths()
        return len(set(lengths)) == 1


def segment_audio(l: int, f: int) -> AudioVideoMap:
    """Partition l audio tokens into f contiguous frame segments.

    boundaries[i] = round(i*l/f) with ties rounded half up, computed in
    exact integer arithmetic.
    """
    if f < 1:
        raise ValueError(f"need at least one frame, got f={f}")
    if l < f:
        raise ValueError(f"no audio token for some frame: l={l} < f={f}")
    boundaries = tuple((2 * i * l + f) // (2 * f) for i in range(f + 1))
    return AudioVideoMap(frames=f, boundaries=boundaries)


def block_mask(mapping: AudioVideoMap, h: int, w: int) -> Tensor:
    """Additive attention mask [(f*h*w) x l]: 0 inside a frame's own
    audio segment, -inf elsewhere."""
    f, l = mapping.frames, mapping.audio_tokens
    mask = np.full((f * h * w, l), NEG_INF, dtype=np.float64)
    per_frame = h * w
    for i in range(f):
        lo, hi = mapping.boundaries[i], mapping.boundaries[i + 1]
        mask[i * per_frame:(i + 1) * per_frame, lo:hi] = 0.0
    return Tensor(mask)


def project_mask_trilinear(pixel_mask: np.ndarray, f: int, h: int, w: int) -> np.ndarray:
    """Resample a pixel-space mask [F x H x W] onto the latent grid
    [f x h x w] by trilinear interpolation at cell centers: one linear
    interpolation per axis, width, then height, then time.

    Constants are preserved exactly and the map is pointwise monotone;
    output values stay in [0, 1] for inputs in [0, 1].
    """
    out = np.asarray(pixel_mask, dtype=np.float64)
    F, H, W = out.shape
    if F < f or H < h or W < w:
        raise ValueError(f"pixel grid {out.shape} smaller than latent ({f},{h},{w})")
    for axis, dst in ((2, w), (1, h), (0, f)):
        src = out.shape[axis]
        # align-corners-false sample positions, neighbors clamped at the edges
        centers = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
        lo = np.floor(centers).astype(np.int64)
        t = (centers - lo).reshape((-1,) + (1,) * (2 - axis))
        a = np.take(out, np.clip(lo, 0, src - 1), axis=axis)
        b = np.take(out, np.clip(lo + 1, 0, src - 1), axis=axis)
        out = a + t * (b - a)  # exact for a == b, monotone in both endpoints
    return np.clip(out, 0.0, 1.0)
