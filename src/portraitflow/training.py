"""Flow-matching training: objective, masked/gated loss, dropout, two stages.

Stage one ("clip") trains with full-clip audio attention and the plain
mean-squared velocity loss; stage two ("frame") switches to frame-scoped
audio attention and the lip-mask loss, applied with probability 1 - eta
per step. The optimizer is Adam(0.9, 0.999, 1e-8) at a constant learning
rate, identical in both stages. All randomness is drawn from per-step
counter-based streams, so a run is a pure function of (seed, config,
dataset) and checkpoint resume is bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .alignment import project_mask_trilinear, segment_audio
from .encoders import (
    EncoderConfig,
    EncoderParams,
    PixelVideo,
    crop_face,
    encode_audio,
    identity_attend,
    identity_conv_features,
    init_encoder_params,
    patchify_video,
)
from .model import ConditioningBundle, DiTConfig, init_model_params, model_forward
from .motion import MotionNorm, raw_motion_variance
from .numerics import RngState, Tensor


@dataclass(frozen=True)
class TrainConfig:
    steps_clip: int = 2000
    steps_frame: int = 500
    lr: float = 1e-4
    eta: float = 0.2
    dropout_audio: float = 0.1
    dropout_identity: float = 0.1
    dropout_reference: float = 0.1
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        for name in ("dropout_audio", "dropout_identity", "dropout_reference"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def total_steps(self) -> int:
        return self.steps_clip + self.steps_frame

    def stage_at(self, step: int) -> str:
        return "clip" if step < self.steps_clip else "frame"


@dataclass
class LossReport:
    step: int
    stage: str
    loss: float
    branch: str              # "masked" or "full"
    coverage: float          # fraction of latent cells with nonzero lip weight
    empty_mask_fallback: bool = False

    def to_json(self) -> str:
        return json.dumps({
            "step": self.step, "stage": self.stage, "loss": self.loss,
            "branch": self.branch, "coverage": round(self.coverage, 6),
            "empty_mask_fallback": self.empty_mask_fallback,
        })


# ----------------------------------------------------------------------
# noising


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def flow_noise_and_target(z, eps, t) -> Tuple[Tensor, Tensor]:
    """Straight-path interpolation z_t = (1-t) z + t eps with constant
    velocity target eps - z. `t` may be scalar or per-sample [B]."""
    z, eps = _as_array(z), _as_array(eps)
    t_arr = np.asarray(t, dtype=z.dtype)
    if np.any((t_arr < 0.0) | (t_arr > 1.0)):
        raise ValueError(f"t must lie in [0, 1], got {t_arr}")
    while t_arr.ndim < z.ndim:
        t_arr = t_arr[..., None]
    return Tensor((1.0 - t_arr) * z + t_arr * eps), Tensor(eps - z)


# ----------------------------------------------------------------------
# losses


@dataclass
class GateOutcome:
    branch: str
    coverage: float
    empty_mask_fallback: bool = False


def masked_gated_loss(per_element_loss: Tensor, mask: np.ndarray, eta: float,
                      rng: np.random.Generator) -> Tuple[Tensor, GateOutcome]:
    """Lip-weighted loss applied with probability 1 - eta.

    `per_element_loss` is [..., f, h, w, c]; `mask` is [..., f, h, w] in
    [0, 1]. One uniform draw decides the branch: p > eta takes the
    mask-normalized mean sum(M*L) / max(sum(M)*c, 1), otherwise the plain
    mean. An all-zero mask falls back to the plain mean with a warning
    flag.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    per_element_loss = Tensor._wrap(per_element_loss)
    mask = np.asarray(mask, dtype=per_element_loss.data.dtype)
    if mask.shape != per_element_loss.shape[:-1]:
        raise ValueError(
            f"mask shape {mask.shape} does not broadcast over loss "
            f"{per_element_loss.shape} (expected {per_element_loss.shape[:-1]})")
    channels = per_element_loss.shape[-1]
    coverage = float((mask > 0).mean())
    p = float(rng.random())
    if p > eta:
        mask_sum = float(mask.sum())
        if mask_sum == 0.0:
            return per_element_loss.mean(), GateOutcome("full", coverage, True)
        weighted = (per_element_loss * Tensor(mask[..., None])).sum()
        denom = max(mask_sum * channels, 1.0)
        return weighted * (1.0 / denom), GateOutcome("masked", coverage)
    return per_element_loss.mean(), GateOutcome("full", coverage)


def condition_dropout(bundle: ConditioningBundle,
                      probs: Tuple[float, float, float],
                      rng: np.random.Generator
                      ) -> Tuple[ConditioningBundle, np.ndarray]:
    """Independently replace audio / identity / reference per sample.

    Audio and identity fall back to their learned null embeddings, the
    reference latent to zeros. Returns the new bundle and the [3 x B]
    boolean drop matrix (rows: audio, identity, reference).
    """
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"dropout probabilities must lie in [0, 1], got {probs}")
    batch = bundle.audio.shape[0]
    draws = rng.random((3, batch))
    drop = draws < np.asarray(probs)[:, None]

    def mix(real: Tensor, null: Tensor, row: np.ndarray) -> Tensor:
        d = row.astype(real.data.dtype).reshape(batch, 1, 1)
        return real * Tensor(1.0 - d) + null * Tensor(d)

    audio = mix(bundle.audio, bundle.null_audio, drop[0])
    identity = mix(bundle.identity, bundle.null_identity, drop[1])
    keep_r = (1.0 - drop[2].astype(bundle.reference.data.dtype)).reshape(batch, 1, 1)
    reference = bundle.reference * Tensor(keep_r)
    return replace(bundle, audio=audio, identity=identity, reference=reference), drop


# ----------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction; update order is sorted by name so runs
    are bit-reproducible."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = float(lr)
        self.count = 0
        self.m: Dict[str, np.ndarray] = {}
        self.v: Dict[str, np.ndarray] = {}

    def step(self, params: Dict[str, Tensor]) -> None:
        self.count += 1
        b1c = 1.0 - self.BETA1 ** self.count
        b2c = 1.0 - self.BETA2 ** self.count
        for name in sorted(params):
            p = params[name]
            if not p.requires_grad or p.grad is None:
                continue
            g = p.grad.astype(np.float32)
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = self.BETA1 * self.m[name] + (1.0 - self.BETA1) * g
            self.v[name] = self.BETA2 * self.v[name] + (1.0 - self.BETA2) * g * g
            mhat = self.m[name] / b1c
            vhat = self.v[name] / b2c
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + self.EPS)).astype(p.data.dtype)

    def zero_grad(self, params: Dict[str, Tensor]) -> None:
        for p in params.values():
            p.grad = None


# ----------------------------------------------------------------------
# dataset tensors


@dataclass
class TrainingTensors:
    """Precomputed frozen-encoder outputs for a sample list."""

    latents: np.ndarray      # [n, N, c_lat]
    references: np.ndarray   # [n, N, c_lat]
    audio: np.ndarray        # [n, l, c_a]
    id_features: np.ndarray  # [n, n_feat, c_feat]
    lip_masks: np.ndarray    # [n, f, h, w]
    omegas: np.ndarray       # [n, 2]

    @property
    def count(self) -> int:
        return self.latents.shape[0]


def prepare_training_tensors(samples: Sequence, enc_params: EncoderParams,
                             enc: EncoderConfig) -> TrainingTensors:
    latents, references, audio, id_feats, masks, omegas = [], [], [], [], [], []
    hw = enc.latent_h * enc.latent_w
    for sample in samples:
        tokens = patchify_video(PixelVideo(sample.video), enc_params, enc)
        latents.append(tokens)
        references.append(np.tile(tokens[:hw], (enc.latent_frames, 1)))
        audio.append(encode_audio(sample.envelope, enc_params, enc))
        crop = crop_face(sample.video[0], enc)
        id_feats.append(identity_conv_features(crop, enc_params, enc).astype(np.float32))
        masks.append(project_mask_trilinear(
            sample.lip_mask, enc.latent_frames, enc.latent_h, enc.latent_w
        ).astype(np.float32))
        omegas.append([sample.spec.omega_l, sample.spec.omega_b])
    return TrainingTensors(
        latents=np.stack(latents), references=np.stack(references),
        audio=np.stack(audio), id_features=np.stack(id_feats),
        lip_masks=np.stack(masks), omegas=np.asarray(omegas, dtype=np.float32))


def motion_norms_from_samples(samples: Sequence) -> Tuple[MotionNorm, MotionNorm]:
    """Corpus min/max of the raw landmark / joint variances."""
    facial = [raw_motion_variance(s.landmarks) for s in samples]
    body = [raw_motion_variance(s.joints) for s in samples]

    def norm(values):
        lo, hi = float(min(values)), float(max(values))
        if hi <= lo:
            hi = lo + 1e-9
        return MotionNorm(min=lo, max=hi)

    return norm(facial), norm(body)


# ----------------------------------------------------------------------
# trainer


@dataclass
class TrainerState:
    dit: DiTConfig
    enc: EncoderConfig
    train: TrainConfig
    params: Dict[str, Tensor]
    enc_params: EncoderParams
    opt: Adam
    norm_facial: MotionNorm
    norm_body: MotionNorm
    step: int = 0


def init_trainer(dit: DiTConfig, enc: EncoderConfig, train: TrainConfig,
                 samples: Sequence) -> TrainerState:
    rng = RngState(train.seed)
    norm_f, norm_b = motion_norms_from_samples(samples)
    return TrainerState(
        dit=dit, enc=enc, train=train,
        params=init_model_params(dit, rng),
        enc_params=init_encoder_params(enc, rng),
        opt=Adam(train.lr),
        norm_facial=norm_f, norm_body=norm_b)


def build_bundle(state: TrainerState, data: TrainingTensors, idx: np.ndarray,
                 mode: str) -> ConditioningBundle:
    """Assemble the conditioning bundle for a batch of sample indices;
    identity tokens go through the trainable query head."""
    params = state.params
    id_tokens = identity_attend(Tensor(data.id_features[idx]), params)
    mapping = segment_audio(state.dit.audio_tokens, state.dit.latent_frames)
    return ConditioningBundle(
        audio=Tensor(data.audio[idx]),
        identity=id_tokens,
        motion=Tensor(data.omegas[idx]),
        reference=Tensor(data.references[idx]),
        mode=mode,
        mapping=mapping,
        null_audio=params["null_audio"],
        null_identity=params["null_identity"])


def train_step(state: TrainerState, data: TrainingTensors, step: int) -> LossReport:
    """One gradient update; stage, batch, noise, dropout and gate draws
    are all functions of (seed, step)."""
    cfg = state.train
    stage = cfg.stage_at(step)
    mode = "clip" if stage == "clip" else "frame"
    rng = RngState(cfg.seed)
    batch = cfg.batch_size

    idx = rng.stream("batch", step).integers(0, data.count, size=batch)
    z = data.latents[idx]
    t = rng.stream("t", step).random(batch)
    eps = rng.stream("eps", step).standard_normal(z.shape).astype(z.dtype)
    z_t, v_target = flow_noise_and_target(z, eps, t)

    bundle = build_bundle(state, data, idx, mode)
    probs = (cfg.dropout_audio, cfg.dropout_identity, cfg.dropout_reference)
    bundle, _ = condition_dropout(bundle, probs, rng.stream("drop", step))

    v_pred = model_forward(z_t, t, bundle, state.params, state.dit)
    per_element = (v_pred - v_target).square()

    dit = state.dit
    shaped = per_element.reshape(batch, dit.latent_frames, dit.latent_h,
                                 dit.latent_w, dit.latent_width)
    masks = data.lip_masks[idx]
    if stage == "frame":
        loss, outcome = masked_gated_loss(shaped, masks, cfg.eta,
                                          rng.stream("gate", step))
    else:
        loss = per_element.mean()
        outcome = GateOutcome("full", float((masks > 0).mean()))

    loss_value = float(loss.data)
    if not math.isfinite(loss_value):
        raise FloatingPointError(
            f"non-finite loss {loss_value} at step {step} (stage {stage})")

    loss.backward()
    state.opt.step(state.params)
    state.opt.zero_grad(state.params)
    state.step = step + 1
    return LossReport(step=step, stage=stage, loss=loss_value,
                      branch=outcome.branch, coverage=outcome.coverage,
                      empty_mask_fallback=outcome.empty_mask_fallback)


def run_two_stage(samples: Sequence, dit: DiTConfig, enc: EncoderConfig,
                  train: TrainConfig, out_dir,
                  state: Optional[TrainerState] = None,
                  log_name: str = "loss_log.jsonl"
                  ) -> Tuple[TrainerState, List[LossReport], Dict[str, Path]]:
    """Run (or resume) the clip stage followed by the frame stage.

    Emits a checkpoint at the stage boundary and at the end, plus a
    newline-delimited loss log. Returns the final state, the reports
    from this call, and the checkpoint paths.
    """
    from .checkpoint import save_checkpoint

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if state is None:
        state = init_trainer(dit, enc, train, samples)
    data = prepare_training_tensors(samples, state.enc_params, state.enc)

    artifacts: Dict[str, Path] = {}
    reports: List[LossReport] = []
    log_path = out_dir / log_name
    with open(log_path, "a") as log:
        for step in range(state.step, train.total_steps):
            report = train_step(state, data, step)
            reports.append(report)
            log.write(report.to_json() + "\n")
            if state.step == train.steps_clip and train.steps_clip > 0:
                path = out_dir / "checkpoint_clip.pfck"
                save_checkpoint(path, state)
                artifacts["clip"] = path
    final_path = out_dir / "checkpoint_final.pfck"
    save_checkpoint(final_path, state)
    artifacts["final"] = final_path
    artifacts["log"] = log_path
    return state, reports, artifacts
