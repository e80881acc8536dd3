"""Iterative denoising with audio classifier-free guidance.

The flow ODE is integrated from t=1 (pure noise) to t=0 with uniform
Euler steps, z <- z - v * dt. Guidance extrapolates between the
conditional velocity and one computed with the audio condition dropped
by training's rule, `ConditioningBundle.drop` (identity and reference
are dropped too when `drop_all_conditions` is set; motion is kept).
Both velocities come from one B=2 forward per step, row 0 conditional
and row 1 unconditional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

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


def integrate_flow(z1: np.ndarray, velocity_fn: Callable[[np.ndarray, float], np.ndarray],
                   steps: int) -> np.ndarray:
    """Euler integration of dz/dt = v from t=1 down to t=0."""
    z = np.array(z1, copy=True)
    dt = 1.0 / steps
    for k in range(steps):
        t = 1.0 - k * dt
        z = z - velocity_fn(z, t) * dt
    return z


def identity_tokens(frame: np.ndarray, state: TrainerState) -> Tensor:
    """[1 x n_id x c] tokens of one [H,W,3] frame's face crop: the frozen
    conv features read by the trained query head. Eval embeds with it too."""
    feats = identity_conv_features(crop_face(frame, state.enc), state.enc_params, state.enc)
    return identity_attend(Tensor(feats[None]), state.params)


def _inference_bundle(state: TrainerState, reference_frame: np.ndarray,
                      envelope: np.ndarray, cfg: SampleConfig) -> ConditioningBundle:
    ref_tokens = patchify_video(PixelVideo(reference_frame[None]), state.enc_params, state.enc)
    audio = encode_audio(envelope, state.enc_params, state.enc)
    # None: the stage of the last step the checkpoint trained
    mode = cfg.mode or state.train.stage_at(state.step - 1)
    return condition_bundle(state.params, state.dit, ref_tokens[None], audio[None],
                            identity_tokens(reference_frame, state),
                            [[cfg.omega_l, cfg.omega_b]], mode)


def guidance_pair(cond: ConditioningBundle, drop_all_conditions: bool) -> ConditioningBundle:
    """The B=2 bundle of one guided step: row 0 is the B=1 bundle `cond`,
    row 1 the same clip with its audio dropped (identity and reference
    too when `drop_all_conditions` is set)."""
    pair = replace(cond, **{name: Tensor(np.repeat(getattr(cond, name).data, 2, axis=0))
                            for name in ("audio", "identity", "motion", "reference")})
    d = drop_all_conditions
    return pair.drop(np.array([[False, True], [False, d], [False, d]]))


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
        cond = _inference_bundle(state, reference_frame, envelope, cfg)
        pair = guidance_pair(cond, cfg.drop_all_conditions)

        rng = RngState(cfg.seed)
        z = rng.normal("init", size=(1, dit.video_tokens, dit.latent_width)
                       ).astype(np.float32)
        gaps = []

        def velocity(z_now: np.ndarray, t: float) -> np.ndarray:
            v = model_forward(Tensor(np.repeat(z_now, 2, axis=0)), t, pair,
                              state.params, dit).numpy()
            gaps.append(float(np.sqrt(np.mean(np.square(v[0] - v[1], dtype=np.float64)))))
            return cfg_velocity(v[:1], v[1:], cfg.cfg_scale).numpy()

        z0 = integrate_flow(z, velocity, cfg.steps)

    decoded = unpatchify_video(z0[0], state.enc_params, enc,
                               enc.latent_frames, enc.latent_h, enc.latent_w)
    raw = decoded.data
    overflow = float(((raw < 0.0) | (raw > 1.0)).mean())
    video = PixelVideo(np.clip(raw, 0.0, 1.0))
    info = {
        "steps": cfg.steps, "cfg_scale": cfg.cfg_scale, "seed": cfg.seed,
        "mode": cond.mode, "omega_l": cfg.omega_l, "omega_b": cfg.omega_b,
        "overflow_fraction": overflow, "guidance_gap": gaps,
    }
    return video, info
