"""Frozen toy encoders: video patchifier, audio featurizer, identity crop encoder.

The patchifier and audio encoder are deterministic functions of fixed
parameters, mirroring a frozen pretrained stack. The identity encoder is
split: a frozen convolutional feature extractor plus a small set of
trainable query vectors that cross-attend to the feature map (the
trainable half lives in the model parameter dict and is trained
end-to-end with everything else).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .numerics import RngState, Tensor, attention


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
    def video_tokens(self) -> int:
        return self.latent_frames * self.latent_h * self.latent_w

    @property
    def audio_tokens(self) -> int:
        return self.tokens_per_frame * self.latent_frames


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

    def named_arrays(self) -> Dict[str, np.ndarray]:
        return {
            "patch_w": self.patch_w, "patch_b": self.patch_b, "unpatch_w": self.unpatch_w,
            "audio_w": self.audio_w, "audio_b": self.audio_b,
            "conv1_w": self.conv1_w, "conv2_w": self.conv2_w,
        }


def init_encoder_params(config: EncoderConfig, rng: RngState) -> EncoderParams:
    """Identity patch embedding (lossless round trip) plus seeded frozen
    audio projection and conv filters."""
    d = config.patch_dim
    audio_w = rng.normal("enc", "audio_w", size=(3, config.audio_width)) / np.sqrt(3.0)
    conv1_w = rng.normal("enc", "conv1_w", size=(config.id_channels, 3, 3, 3)) / np.sqrt(27.0)
    conv2_w = rng.normal("enc", "conv2_w",
                         size=(config.id_feat_width, config.id_channels, 3, 3))
    conv2_w /= np.sqrt(9.0 * config.id_channels)
    return EncoderParams(
        patch_w=np.eye(d, dtype=np.float32),
        patch_b=np.zeros(d, dtype=np.float32),
        unpatch_w=np.eye(d, dtype=np.float32),
        audio_w=audio_w.astype(np.float32),
        audio_b=np.zeros(config.audio_width, dtype=np.float32),
        conv1_w=conv1_w.astype(np.float32),
        conv2_w=conv2_w.astype(np.float32),
    )


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
    k = features @ params["id.wk"] + params["id.wk_b"]
    v = features @ params["id.wv"] + params["id.wv_b"]
    out = attention(params["id.queries"], k, v)
    return out @ params["id.wo"] + params["id.wo_b"]


def crop_face(frame: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Fixed-position face crop from one [H,W,3] frame."""
    r, c, s = config.crop_row, config.crop_col, config.crop_size
    if r + s > frame.shape[0] or c + s > frame.shape[1]:
        raise ValueError(f"crop box ({r},{c},{s}) exceeds frame {frame.shape[:2]}")
    return frame[r:r + s, c:c + s, :]
