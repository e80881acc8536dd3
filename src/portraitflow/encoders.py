"""Frozen toy encoders: video patchifier, audio featurizer, identity crop encoder.

The patchifier and audio encoder are deterministic functions of fixed
parameters, mirroring a frozen pretrained stack. The identity encoder is
split: a frozen convolutional feature extractor plus a small set of
trainable query vectors that cross-attend to the feature map (the
trainable half lives in the model parameter dict and is trained
end-to-end with everything else).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterator, Tuple

import numpy as np

from .numerics import RngState, Tensor, attention, dense


@dataclass(frozen=True)
class EncoderConfig:
    frames: int = 8
    height: int = 32
    width: int = 32
    patch: int = 8
    tokens_per_frame: int = 4        # audio tokens per latent frame
    samples_per_token: int = 64      # envelope samples per audio token
    audio_width: int = 32            # c_a
    crop_row: int = 4
    crop_col: int = 12
    crop_size: int = 16
    id_channels: int = 8             # conv1 output channels
    id_feat_width: int = 16          # conv2 output channels (c_feat)

    def __post_init__(self):
        for f in fields(self):
            # two stride-2 convs leave no identity feature from a crop under 4 pixels
            low = {"crop_row": 0, "crop_col": 0, "crop_size": 4}.get(f.name, 1)
            if getattr(self, f.name) < low:
                raise ValueError(f"{f.name} must be at least {low}, got {getattr(self, f.name)}")
        if self.height % self.patch or self.width % self.patch:
            raise ValueError(
                f"frame size {self.height}x{self.width} not divisible by patch {self.patch}")

    @property
    def latent_frames(self) -> int:
        return self.frames

    @property
    def latent_h(self) -> int:
        return self.height // self.patch

    @property
    def latent_w(self) -> int:
        return self.width // self.patch

    @property
    def patch_dim(self) -> int:
        return self.patch * self.patch * 3

    @property
    def latent_width(self) -> int:
        # lossless by construction: token width equals patch content size
        return self.patch_dim

    @property
    def audio_tokens(self) -> int:
        return self.tokens_per_frame * self.latent_frames

    @property
    def envelope_samples(self) -> int:
        # envelope length the audio encoder reads, all of it
        return self.audio_tokens * self.samples_per_token


@dataclass
class PixelVideo:
    """Video as [F, H, W, 3] floats in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 4 or self.data.shape[-1] != 3:
            raise ValueError(f"expected [F,H,W,3] video, got {self.data.shape}")
        if self.data.shape[0] < 1:
            raise ValueError("video needs at least one frame")

    @property
    def frames(self) -> int:
        return self.data.shape[0]


@dataclass
class EncoderParams:
    """Frozen encoder weights (plain arrays; never updated by training)."""

    patch_w: np.ndarray     # [patch_dim, c_lat]
    patch_b: np.ndarray     # [c_lat]
    unpatch_w: np.ndarray   # [c_lat, patch_dim]
    audio_w: np.ndarray     # [3, c_a]
    audio_b: np.ndarray     # [c_a]
    conv1_w: np.ndarray     # [ch1, 3, 3, 3]
    conv2_w: np.ndarray     # [c_feat, ch1, 3, 3]


def encoder_param_shapes(config: EncoderConfig) -> Iterator[Tuple[str, Tuple[int, ...]]]:
    """(name, shape) of each frozen encoder array, derived one at a time."""
    d, ch1 = config.patch_dim, config.id_channels
    yield from (("patch_w", (d, d)), ("patch_b", (d,)), ("unpatch_w", (d, d)),
                ("audio_w", (3, config.audio_width)), ("audio_b", (config.audio_width,)),
                ("conv1_w", (ch1, 3, 3, 3)), ("conv2_w", (config.id_feat_width, ch1, 3, 3)))


def init_encoder_params(config: EncoderConfig, rng: RngState) -> EncoderParams:
    """Identity patch embedding (lossless round trip), zero biases, and
    seeded frozen audio projection and conv filters scaled by
    1/sqrt(fan-in)."""
    def init(name, shape):
        if name.endswith("_b"):
            return np.zeros(shape)
        if name in ("patch_w", "unpatch_w"):
            return np.eye(shape[0])
        # audio_w is [in x out]; a conv filter is [out x in x 3 x 3]
        fan_in = shape[0] if name == "audio_w" else np.prod(shape[1:])
        return rng.normal("enc", name, size=shape) / np.sqrt(float(fan_in))

    return EncoderParams(**{name: init(name, shape).astype(np.float32)
                            for name, shape in encoder_param_shapes(config)})


# ----------------------------------------------------------------------
# video

def extract_patches(video: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Rearrange [F,H,W,3] pixels into [f*h*w x patch_dim], frame-major."""
    F, H, W, _ = video.shape
    p = config.patch
    h, w = H // p, W // p
    x = video.reshape(F, h, p, w, p, 3)
    x = x.transpose(0, 1, 3, 2, 4, 5)  # f, h, w, p, p, 3
    return x.reshape(F * h * w, p * p * 3)


def patchify_video(video: PixelVideo, params: EncoderParams,
                   config: EncoderConfig) -> np.ndarray:
    """[f*h*w x c_lat] float32 tokens in frame-major, row-major-spatial order."""
    _, H, W, _ = video.data.shape
    if H % config.patch or W % config.patch:
        raise ValueError(f"video {H}x{W} not divisible by patch size {config.patch}")
    patches = extract_patches(video.data.astype(np.float64), config)
    return (patches @ params.patch_w + params.patch_b).astype(np.float32)


def unpatchify_video(tokens: np.ndarray, params: EncoderParams, config: EncoderConfig,
                     f: int, h: int, w: int) -> PixelVideo:
    """Inverse of `patchify_video` up to the linear map (exact for the
    identity embedding)."""
    patches = (np.asarray(tokens, dtype=np.float64) - params.patch_b) @ params.unpatch_w
    p = config.patch
    x = patches.reshape(f, h, w, p, p, 3)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return PixelVideo(x.reshape(f, h * p, w * p, 3).astype(np.float32))


# ----------------------------------------------------------------------
# audio

def audio_window_features(envelope: np.ndarray, tokens: int,
                          samples_per_token: int) -> np.ndarray:
    """Per-window (mean, mean first difference, RMS energy) features.

    Strictly local: feature i sees only samples
    [i*samples_per_token, (i+1)*samples_per_token).
    """
    envelope = np.asarray(envelope, dtype=np.float64).reshape(-1)
    needed = tokens * samples_per_token
    if envelope.size < needed:
        raise ValueError(
            f"envelope has {envelope.size} samples, need {needed} for {tokens} tokens")
    windows = envelope[:needed].reshape(tokens, samples_per_token)
    mean = windows.mean(axis=1)
    if samples_per_token >= 2:
        slope = np.diff(windows, axis=1).mean(axis=1)
    else:
        slope = np.zeros(tokens)
    energy = np.sqrt((windows ** 2).mean(axis=1))
    return np.stack([mean, slope, energy], axis=1)


def encode_audio(envelope: np.ndarray, params: EncoderParams,
                 config: EncoderConfig) -> np.ndarray:
    """[l x c_a] float32 tokens; token i is a function of envelope window i only."""
    feats = audio_window_features(envelope, config.audio_tokens, config.samples_per_token)
    return (feats @ params.audio_w + params.audio_b).astype(np.float32)


# ----------------------------------------------------------------------
# identity

def _conv3x3_stride2(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Edge-padded 3x3 conv, stride 2. x: [H,W,Cin] -> [H/2,W/2,Cout]."""
    H, W, _ = x.shape
    padded = np.pad(x, ((1, 1), (1, 1), (0, 0)), mode="edge")
    out_h, out_w = H // 2, W // 2
    cout = weights.shape[0]
    out = np.zeros((out_h, out_w, cout))
    for dr in range(3):
        for dc in range(3):
            window = padded[dr:dr + H:2, dc:dc + W:2, :]
            out += window[:out_h, :out_w, :] @ weights[:, :, dr, dc].T
    return out


def identity_conv_features(crop: np.ndarray, params: EncoderParams,
                           config: EncoderConfig) -> np.ndarray:
    """Frozen conv stack: [crop_size,crop_size,3] -> [n_feat x c_feat]."""
    crop = np.asarray(crop, dtype=np.float64)
    expected = (config.crop_size, config.crop_size, 3)
    if crop.shape != expected:
        raise ValueError(f"face crop must be {expected}, got {crop.shape}")
    h1 = _conv3x3_stride2(crop, params.conv1_w)
    h1 = h1 / (1.0 + np.exp(-h1))           # silu
    h2 = _conv3x3_stride2(h1, params.conv2_w)
    h2 = h2 / (1.0 + np.exp(-h2))
    return h2.reshape(-1, config.id_feat_width)


def identity_attend(features: Tensor, params: Dict[str, Tensor]) -> Tensor:
    """Trainable half of the identity encoder: learned queries cross-attend
    to the (frozen) feature map. `features`: [... x n_feat x c_feat]."""
    k = dense(features, params, "id.wk")
    v = dense(features, params, "id.wv")
    out = attention(params["id.queries"], k, v)
    return dense(out, params, "id.wo")


def crop_face(frame: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Fixed-position face crop from one [H,W,3] frame."""
    r, c, s = config.crop_row, config.crop_col, config.crop_size
    if r + s > frame.shape[0] or c + s > frame.shape[1]:
        raise ValueError(f"crop box ({r},{c},{s}) exceeds frame {frame.shape[:2]}")
    return frame[r:r + s, c:c + s, :]
