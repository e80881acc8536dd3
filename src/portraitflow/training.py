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
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .alignment import project_mask_trilinear
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
from .model import (ConditioningBundle, DiTConfig, condition_bundle, init_model_params,
                    model_forward)
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
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"lr must be finite and nonnegative, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        for name in ("steps_clip", "steps_frame"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
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
class GateOutcome:
    branch: str                       # "masked" or "full"
    coverage: float                   # fraction of latent cells with nonzero lip weight
    empty_mask_fallback: bool = False


@dataclass
class LossReport:
    step: int
    stage: str
    loss: float
    gate: GateOutcome

    def to_json(self) -> str:
        return json.dumps({
            "step": self.step, "stage": self.stage, "loss": self.loss,
            "branch": self.gate.branch, "coverage": round(self.gate.coverage, 6),
            "empty_mask_fallback": self.gate.empty_mask_fallback,
        })


# ----------------------------------------------------------------------
# noising


def flow_noise_and_target(z, eps, t) -> Tuple[Tensor, Tensor]:
    """Straight-path interpolation z_t = (1-t) z + t eps with constant
    velocity target eps - z. `t` may be scalar or per-sample [B]."""
    t_arr = np.asarray(t, dtype=z.dtype)
    if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):  # NaN fails both
        raise ValueError(f"t must lie in [0, 1], got {t_arr}")
    while t_arr.ndim < z.ndim:
        t_arr = t_arr[..., None]
    return Tensor((1.0 - t_arr) * z + t_arr * eps), Tensor(eps - z)


# ----------------------------------------------------------------------
# losses


def masked_gated_loss(per_element_loss: Tensor, mask: np.ndarray, eta: float,
                      rng: np.random.Generator) -> Tuple[Tensor, GateOutcome]:
    """Lip-weighted loss applied with probability 1 - eta.

    `per_element_loss` is any [..., c] loss and `mask` its [...] weights in
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
    masked = rng.random() > eta
    mask_sum = float(mask.sum())
    if not masked or mask_sum == 0.0:
        return per_element_loss.mean(), GateOutcome("full", coverage, masked)
    weighted = (per_element_loss * Tensor(mask[..., None])).sum()
    denom = max(mask_sum * channels, 1.0)
    return weighted * (1.0 / denom), GateOutcome("masked", coverage)


def condition_dropout(bundle: ConditioningBundle,
                      probs: Tuple[float, float, float],
                      rng: np.random.Generator
                      ) -> Tuple[ConditioningBundle, np.ndarray]:
    """Independently drop audio / identity / reference per sample with
    the given probabilities (see `ConditioningBundle.drop`). Returns the
    new bundle and the [3 x B] boolean drop matrix (rows: audio,
    identity, reference).
    """
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"dropout probabilities must lie in [0, 1], got {probs}")
    drop = rng.random((3, bundle.audio.shape[0])) < np.asarray(probs)[:, None]
    return bundle.drop(drop), drop


# ----------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction. A parameter's update reads only its own
    gradient and moments, so the order of `params` cannot change a bit."""

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
        for name, p in params.items():
            if p.grad is None:
                continue
            g = np.asarray(p.grad, dtype=np.float32)
            p.grad = None  # consumed: the next backward starts from none
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            # in place, in the order of m = b1*m + (1-b1)*g and
            # v = b2*v + (1-b2)*g*g, so the bits match those formulas
            m, v = self.m[name], self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)


# ----------------------------------------------------------------------
# dataset tensors


@dataclass
class TrainingTensors:
    """Precomputed frozen-encoder outputs for a sample list. No reference
    latent is stored: `condition_bundle` repeats frame 0 of `latents`."""

    latents: np.ndarray      # [n, N, c_lat]
    audio: np.ndarray        # [n, l, c_a]
    id_features: np.ndarray  # [n, n_feat, c_feat]
    lip_masks: np.ndarray    # [n, f, h, w]
    omegas: np.ndarray       # [n, 2]

    @property
    def count(self) -> int:
        return self.latents.shape[0]


def prepare_training_tensors(samples: Sequence, enc_params: EncoderParams,
                             enc: EncoderConfig) -> TrainingTensors:
    """Encode every sample once into [n x ...] float32 arrays. Each row is
    written straight into its preallocated array: collecting per-sample
    lists and stacking them would hold every row twice (about 9 MB at 48
    clips) and leave the freed rows fragmenting the heap."""
    if not samples:
        raise ValueError("no samples to prepare")
    arrays = None
    for i, sample in enumerate(samples):
        row = (patchify_video(PixelVideo(sample.video), enc_params, enc),
               encode_audio(sample.envelope, enc_params, enc),
               identity_conv_features(crop_face(sample.video[0], enc), enc_params, enc),
               project_mask_trilinear(sample.lip_mask, enc.latent_frames,
                                      enc.latent_h, enc.latent_w))
        if arrays is None:
            arrays = [np.empty((len(samples),) + a.shape, dtype=np.float32) for a in row]
        for out, a in zip(arrays, row):
            out[i] = a
    latents, audio, id_features, lip_masks = arrays
    omegas = np.asarray([[s.spec.omega_l, s.spec.omega_b] for s in samples], dtype=np.float32)
    return TrainingTensors(latents=latents, audio=audio,
                           id_features=id_features, lip_masks=lip_masks, omegas=omegas)


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
    """`condition_bundle` for a batch of sample indices, as the sampler
    calls it; the identity tokens carry the query head's gradient."""
    return condition_bundle(
        state.params, state.dit, data.latents[idx], data.audio[idx],
        identity_attend(Tensor(data.id_features[idx]), state.params),
        data.omegas[idx], mode)


def train_step(state: TrainerState, data: TrainingTensors, step: int) -> LossReport:
    """One gradient update; stage, batch, noise, dropout and gate draws
    are all functions of (seed, step)."""
    cfg = state.train
    stage = cfg.stage_at(step)
    rng = RngState(cfg.seed)
    batch = cfg.batch_size

    idx = rng.stream("batch", step).integers(0, data.count, size=batch)
    z = data.latents[idx]
    t = rng.stream("t", step).random(batch)
    eps = rng.stream("eps", step).standard_normal(z.shape).astype(z.dtype)
    z_t, v_target = flow_noise_and_target(z, eps, t)

    bundle = build_bundle(state, data, idx, stage)
    probs = (cfg.dropout_audio, cfg.dropout_identity, cfg.dropout_reference)
    bundle, _ = condition_dropout(bundle, probs, rng.stream("drop", step))

    v_pred = model_forward(z_t, t, bundle, state.params, state.dit)
    per_element = (v_pred - v_target).square()

    # eta = 1 gates the lip mask off, so the clip stage takes the plain mean
    eta = cfg.eta if stage == "frame" else 1.0
    loss, outcome = masked_gated_loss(per_element, data.lip_masks[idx].reshape(batch, -1),
                                      eta, rng.stream("gate", step))

    loss_value = float(loss.data)
    if not math.isfinite(loss_value):
        raise FloatingPointError(
            f"non-finite loss {loss_value} at step {step} (stage {stage})")

    loss.backward()
    state.opt.step(state.params)
    state.step = step + 1
    return LossReport(step=step, stage=stage, loss=loss_value, gate=outcome)


def run_two_stage(samples: Sequence, dit: DiTConfig, enc: EncoderConfig,
                  train: TrainConfig, out_dir,
                  state: Optional[TrainerState] = None
                  ) -> Tuple[TrainerState, List[LossReport], Dict[str, Path]]:
    """Run (or resume) the clip stage followed by the frame stage.

    Emits a checkpoint at the stage boundary and at the end, plus a
    newline-delimited loss log. A resume keeps the log's leading lines for
    steps before `state.step` on disk, cuts the rest and appends, so each
    step is logged once; a fresh run does not read an old log, and a kept
    line with no integer step fails the resume before the log is cut. Returns
    the final state, the reports from this call, and the checkpoint
    paths. A resumed `state` must hold the configs given.
    """
    from .checkpoint import save_checkpoint

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if state is None:
        state = init_trainer(dit, enc, train, samples)
    for name, given in (("dit", dit), ("enc", enc), ("train", train)):
        if getattr(state, name) != given:
            raise ValueError(f"the state's {name} config differs from the {name} config given")
    data = prepare_training_tensors(samples, state.enc_params, state.enc)

    artifacts: Dict[str, Path] = {}
    reports: List[LossReport] = []
    log_path = out_dir / "loss_log.jsonl"
    kept = 0  # bytes of the log's leading lines before `state.step`, left on disk
    if state.step and log_path.exists():  # a fresh run keeps nothing of an old log
        with open(log_path, "rb") as old:
            for lineno, line in enumerate(old, 1):
                if not line.endswith(b"\n"):  # cut by a crash: dropped
                    break
                try:
                    logged = json.loads(line)["step"]
                except (ValueError, KeyError, TypeError):
                    logged = None
                if type(logged) is not int:
                    raise ValueError(f"{log_path} line {lineno}: no integer loss-log step")
                if logged >= state.step:
                    break
                kept += len(line)
        os.truncate(log_path, kept)
    with open(log_path, "a" if state.step else "w") as log:
        for step in range(state.step, train.total_steps):
            report = train_step(state, data, step)
            reports.append(report)
            log.write(report.to_json() + "\n")
            if state.step == train.steps_clip and train.steps_clip > 0:
                # a resume from this checkpoint keeps the log's lines on disk
                log.flush()
                os.fsync(log.fileno())
                path = out_dir / "checkpoint_clip.pfck"
                save_checkpoint(path, state)
                artifacts["clip"] = path
    final_path = out_dir / "checkpoint_final.pfck"
    save_checkpoint(final_path, state)
    artifacts["final"] = final_path
    artifacts["log"] = log_path
    return state, reports, artifacts
