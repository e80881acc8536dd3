"""Audio/video token correspondence and lip-mask projection.

A clip pairs f latent frames with l audio tokens (l >= f). Segmentation
assigns each frame a contiguous audio span; frame-scoped attention over
those spans must agree with full-sequence attention under the matching
block mask, which is the oracle used throughout the tests.
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


def _source_coords(dst: int, src: int) -> tuple:
    """Align-corners-false sample positions with clamped neighbors."""
    centers = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    lo = np.floor(centers).astype(np.int64)
    frac = centers - lo
    lo_c = np.clip(lo, 0, src - 1)
    hi_c = np.clip(lo + 1, 0, src - 1)
    return lo_c, hi_c, frac


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    # a + t*(b-a): exact for a == b, monotone in both endpoints
    return a + t * (b - a)


def project_mask_trilinear(pixel_mask: np.ndarray, f: int, h: int, w: int) -> np.ndarray:
    """Resample a pixel-space mask [F x H x W] onto the latent grid
    [f x h x w] by trilinear interpolation at cell centers.

    Constants are preserved exactly and the map is pointwise monotone;
    output values stay in [0, 1] for inputs in [0, 1].
    """
    pixel_mask = np.asarray(pixel_mask, dtype=np.float64)
    F, H, W = pixel_mask.shape
    if F < f or H < h or W < w:
        raise ValueError(f"pixel grid {pixel_mask.shape} smaller than latent ({f},{h},{w})")
    t0, t1, tf = _source_coords(f, F)
    r0, r1, rf = _source_coords(h, H)
    c0, c1, cf = _source_coords(w, W)

    # gather the 8 neighbors on the full latent lattice, then nested lerp
    def gather(ti, ri, ci):
        return pixel_mask[np.ix_(ti, ri, ci)]

    tf_ = tf[:, None, None]
    rf_ = rf[None, :, None]
    cf_ = cf[None, None, :]
    front = _lerp(_lerp(gather(t0, r0, c0), gather(t0, r0, c1), cf_),
                  _lerp(gather(t0, r1, c0), gather(t0, r1, c1), cf_), rf_)
    back = _lerp(_lerp(gather(t1, r0, c0), gather(t1, r0, c1), cf_),
                 _lerp(gather(t1, r1, c0), gather(t1, r1, c1), cf_), rf_)
    out = _lerp(front, back, tf_)
    return np.clip(out, 0.0, 1.0)
