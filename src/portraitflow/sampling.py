"""Iterative denoising with audio classifier-free guidance.

`sample` integrates the flow ODE from t=1 (pure noise) to t=0 with
uniform Euler steps, z <- z - v * dt. Guidance extrapolates between the
conditional velocity and one computed with the audio condition dropped
by training's rule, `ConditioningBundle.drop` (identity and reference
are dropped too when `drop_all_conditions` is set; motion is kept).
Both velocities come from one B=2 forward per step on the bundle
`guidance_bundle` builds once per sample through `condition_bundle`:
row 0 conditional, row 1 unconditional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .encoders import (
    PixelVideo,
    crop_face,
    encode_audio,
    identity_attend,
    identity_conv_features,
    patchify_video,
    unpatchify_video,
)
from .model import ConditioningBundle, condition_bundle, model_forward
from .numerics import RngState, Tensor, no_grad
from .training import TrainerState


@dataclass(frozen=True)
class SampleConfig:
    steps: int = 30
    cfg_scale: float = 4.5
    omega_l: float = 0.5
    omega_b: float = 0.5
    seed: int = 0
    mode: Optional[str] = None       # None: the mode the checkpoint trained in
    drop_all_conditions: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"need at least one sampling step, got {self.steps}")
        if not (math.isfinite(self.cfg_scale) and self.cfg_scale >= 0):
            raise ValueError(
                f"guidance scale must be finite and nonnegative, got {self.cfg_scale}")
        for name in ("omega_l", "omega_b"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} {getattr(self, name)} outside [0, 1]")


def cfg_velocity(v_cond, v_uncond, s: float) -> Tensor:
    """v_uncond + s * (v_cond - v_uncond)."""
    v_cond, v_uncond = Tensor._wrap(v_cond), Tensor._wrap(v_uncond)
    if v_cond.shape != v_uncond.shape:
        raise ValueError(
            f"velocity shapes differ: {v_cond.shape} vs {v_uncond.shape}")
    return v_uncond + float(s) * (v_cond - v_uncond)


def identity_tokens(frame: np.ndarray, state: TrainerState) -> Tensor:
    """[1 x n_id x c] tokens of one [H,W,3] frame's face crop: the frozen
    conv features read by the trained query head. Eval embeds with it too."""
    feats = identity_conv_features(crop_face(frame, state.enc), state.enc_params, state.enc)
    return identity_attend(Tensor(feats[None]), state.params)


def guidance_bundle(state: TrainerState, reference_frame: np.ndarray,
                    envelope: np.ndarray, cfg: SampleConfig) -> ConditioningBundle:
    """The B=2 bundle of one guided sample: row 0 conditions on the
    reference frame, the envelope and cfg's motion; row 1 is the same clip
    with its audio dropped (identity and reference too when
    `cfg.drop_all_conditions` is set)."""
    ref_tokens = patchify_video(PixelVideo(reference_frame[None]), state.enc_params, state.enc)
    audio = encode_audio(envelope, state.enc_params, state.enc)
    identity = identity_tokens(reference_frame, state).data
    # None: the stage of the last step the checkpoint trained
    mode = cfg.mode or state.train.stage_at(state.step - 1)
    bundle = condition_bundle(state.params, state.dit, np.stack([ref_tokens] * 2),
                              np.stack([audio] * 2), Tensor(np.repeat(identity, 2, axis=0)),
                              [[cfg.omega_l, cfg.omega_b]] * 2, mode)
    d = cfg.drop_all_conditions
    return bundle.drop([[False, True], [False, d], [False, d]])


def sample(reference_frame: np.ndarray, envelope: np.ndarray, cfg: SampleConfig,
           state: TrainerState) -> Tuple[PixelVideo, Dict]:
    """Generate a video from a reference frame and an audio envelope.

    Deterministic given (cfg.seed, checkpoint). Returns the decoded
    video (clamped to [0, 1]) and an info record including the fraction
    of pre-clamp out-of-range pixel values and, per Euler step, the
    guidance gap: the RMS of v_cond - v_uncond.
    """
    dit, enc = state.dit, state.enc
    reference_frame = np.asarray(reference_frame, dtype=np.float32)
    if reference_frame.shape != (enc.height, enc.width, 3):
        raise ValueError(
            f"reference frame must be {(enc.height, enc.width, 3)}, "
            f"got {reference_frame.shape}")
    if np.size(envelope) != enc.envelope_samples:
        raise ValueError(f"audio envelope has {np.size(envelope)} samples, the checkpoint's "
                         f"encoder reads {enc.envelope_samples}")
    for name, arr in (("reference frame", reference_frame), ("audio envelope", envelope)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} holds non-finite values")

    with no_grad():
        bundle = guidance_bundle(state, reference_frame, envelope, cfg)
        z = RngState(cfg.seed).normal("init", size=(1, dit.video_tokens, dit.latent_width)
                                      ).astype(np.float32)
        dt, gaps = 1.0 / cfg.steps, []
        for k in range(cfg.steps):
            t = 1.0 - k * dt
            v = model_forward(Tensor(np.repeat(z, 2, axis=0)), t, bundle,
                              state.params, dit).numpy()
            gaps.append(float(np.sqrt(np.mean(np.square(v[0] - v[1], dtype=np.float64)))))
            z = z - cfg_velocity(v[:1], v[1:], cfg.cfg_scale).numpy() * dt
            del v  # free it before the next step's forward: a lower peak RSS

    decoded = unpatchify_video(z[0], state.enc_params, enc,
                               enc.latent_frames, enc.latent_h, enc.latent_w)
    raw = decoded.data
    overflow = float(((raw < 0.0) | (raw > 1.0)).mean())
    video = PixelVideo(np.clip(raw, 0.0, 1.0))
    info = {
        "steps": cfg.steps, "cfg_scale": cfg.cfg_scale, "seed": cfg.seed,
        "mode": bundle.mode, "omega_l": cfg.omega_l, "omega_b": cfg.omega_b,
        "overflow_fraction": overflow, "guidance_gap": gaps,
    }
    return video, info
