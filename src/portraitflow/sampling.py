"""Iterative denoising with audio classifier-free guidance.

The flow ODE is integrated from t=1 (pure noise) to t=0 with uniform
Euler steps, z <- z - v * dt. Guidance extrapolates between the
conditional velocity and one computed with the audio condition replaced
by its learned null embedding (identity, reference and motion are kept
in the unconditional branch unless `drop_all_conditions` is set).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .alignment import segment_audio
from .encoders import (
    PixelVideo,
    crop_face,
    encode_audio,
    identity_attend,
    identity_conv_features,
    patchify_video,
    unpatchify_video,
)
from .model import ConditioningBundle, model_forward
from .motion import MotionCoefficients
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
        if self.cfg_scale < 0:
            raise ValueError(f"guidance scale must be nonnegative, got {self.cfg_scale}")


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


def checkpoint_mode(state: TrainerState) -> str:
    """Audio scoping the checkpoint last trained with."""
    return "frame" if state.step > state.train.steps_clip else "clip"


def _inference_bundle(state: TrainerState, reference_frame: np.ndarray,
                      envelope: np.ndarray, cfg: SampleConfig) -> ConditioningBundle:
    enc, params = state.enc, state.params
    ref_video = PixelVideo(reference_frame[None].astype(np.float32))
    hw = enc.latent_h * enc.latent_w
    ref_tokens = np.tile(patchify_video(ref_video, state.enc_params, enc)[:hw],
                         (enc.latent_frames, 1))[None]

    audio = encode_audio(envelope, state.enc_params, enc)[None]
    feats = identity_conv_features(crop_face(reference_frame, enc),
                                   state.enc_params, enc)[None]
    identity = identity_attend(Tensor(feats), params)
    omega = MotionCoefficients(facial=cfg.omega_l, body=cfg.omega_b)
    mode = cfg.mode or checkpoint_mode(state)
    return ConditioningBundle(
        audio=Tensor(audio),
        identity=identity,
        motion=Tensor(omega.as_array()[None]),
        reference=Tensor(ref_tokens),
        mode=mode,
        mapping=segment_audio(state.dit.audio_tokens, state.dit.latent_frames),
        null_audio=params["null_audio"],
        null_identity=params["null_identity"])


def sample(reference_frame: np.ndarray, envelope: np.ndarray, cfg: SampleConfig,
           state: TrainerState) -> Tuple[PixelVideo, Dict]:
    """Generate a video from a reference frame and an audio envelope.

    Deterministic given (cfg.seed, checkpoint). Returns the decoded
    video (clamped to [0, 1]) and an info record including the fraction
    of pre-clamp out-of-range pixel values.
    """
    dit, enc = state.dit, state.enc
    reference_frame = np.asarray(reference_frame, dtype=np.float32)
    if reference_frame.shape != (enc.height, enc.width, 3):
        raise ValueError(
            f"reference frame must be {(enc.height, enc.width, 3)}, "
            f"got {reference_frame.shape}")

    with no_grad():
        cond = _inference_bundle(state, reference_frame, envelope, cfg)
        uncond = cond.with_null_audio()
        if cfg.drop_all_conditions:
            null_id = uncond.identity * 0.0 + uncond.null_identity
            uncond = replace(uncond, identity=null_id,
                             reference=uncond.reference * 0.0)

        rng = RngState(cfg.seed)
        z = rng.normal("init", size=(1, dit.video_tokens, dit.latent_width)
                       ).astype(np.float32)

        def velocity(z_now: np.ndarray, t: float) -> np.ndarray:
            v_c = model_forward(Tensor(z_now), t, cond, state.params, dit)
            v_u = model_forward(Tensor(z_now), t, uncond, state.params, dit)
            return cfg_velocity(v_c, v_u, cfg.cfg_scale).numpy()

        z0 = integrate_flow(z, velocity, cfg.steps)

    decoded = unpatchify_video(z0[0], state.enc_params, enc,
                               enc.latent_frames, enc.latent_h, enc.latent_w)
    raw = decoded.data
    overflow = float(((raw < 0.0) | (raw > 1.0)).mean())
    video = PixelVideo(np.clip(raw, 0.0, 1.0))
    info = {
        "steps": cfg.steps, "cfg_scale": cfg.cfg_scale, "seed": cfg.seed,
        "mode": cond.mode, "omega_l": cfg.omega_l, "omega_b": cfg.omega_b,
        "overflow_fraction": overflow,
    }
    return video, info
