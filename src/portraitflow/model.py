"""Video-token transformer with timestep modulation and dual cross-attention.

Each block runs (1) gated self-attention over all video tokens under
shift/scale modulation from the conditioned timestep embedding, (2) an
additive audio cross-attention increment weighted lambda_audio and an
identity cross-attention increment weighted lambda_identity, both using
the block's own query projection on the running hidden state, and (3) a
gated MLP branch. Audio keys/values cover the whole clip in "clip" mode
and only each frame's own audio segment in "frame" mode.

Each tensor's name and shape is written once, in `param_shapes`, each linear
layer is read by its weight's name with `numerics.dense`, and `numerics.init_params`
starts each bias, `ZERO_INIT` head and `motion.expand.w` at zero, so the network
begins as (almost) the identity map with zero velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import chain
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .alignment import AudioVideoMap, segment_audio
from .encoders import EncoderConfig
from .motion import init_motion_params, motion_embed
from .numerics import RngState, Tensor, attention, bias_name, dense, init_params, layer_norm, silu

TIME_SCALE = 1000.0  # t in [0,1] is stretched before the sinusoids

# DiT field -> the `EncoderConfig` property it is derived from
ENCODER_GEOMETRY = {"audio_width": "audio_width", "audio_tokens": "audio_tokens",
                    "latent_frames": "latent_frames", "latent_h": "latent_h",
                    "latent_w": "latent_w", "latent_width": "latent_width",
                    "ref_channels": "latent_width", "id_feat_width": "id_feat_width"}


@dataclass(frozen=True)
class DiTConfig:
    depth: int = 4
    width: int = 64
    heads: int = 4
    head_dim: int = 16
    n_id: int = 4
    lambda_audio: float = 1.0
    lambda_identity: float = 0.5
    audio_width: int = 32
    audio_tokens: int = 32
    latent_frames: int = 8
    latent_h: int = 4
    latent_w: int = 4
    latent_width: int = 192
    ref_channels: int = 192
    id_feat_width: int = 16
    mlp_ratio: int = 2

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int" and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be at least 1, got {getattr(self, f.name)}")
        if self.width != self.heads * self.head_dim:
            raise ValueError(
                f"width {self.width} != heads {self.heads} x head_dim {self.head_dim}")
        if not all(math.isfinite(w) and w >= 0 for w in (self.lambda_audio, self.lambda_identity)):
            raise ValueError(f"lambda_audio {self.lambda_audio} and lambda_identity "
                             f"{self.lambda_identity} must be finite and nonnegative")

    @property
    def video_tokens(self) -> int:
        return self.latent_frames * self.latent_h * self.latent_w

    @property
    def mlp_width(self) -> int:
        return self.width * self.mlp_ratio

    @staticmethod
    def for_encoders(enc: EncoderConfig, **overrides) -> "DiTConfig":
        """The config with its `ENCODER_GEOMETRY` fields read from `enc`;
        `overrides`, which may name any field, win."""
        derived = {field: getattr(enc, prop) for field, prop in ENCODER_GEOMETRY.items()}
        return DiTConfig(**(derived | overrides))


@dataclass(frozen=True)
class ConditioningBundle:
    """Everything the backbone is conditioned on, batch-shaped.

    audio: [B x l x c_a]; identity: [B? x n_id x c]; motion: [B x 2];
    reference: [B x N x c_ref] (reference-frame latent repeated along f).
    The null embeddings are learned parameters, carried here so dropout
    and guidance can swap them in without reaching into the param dict.
    Training and sampling both build it with `condition_bundle`.
    """

    audio: Tensor
    identity: Tensor
    motion: Tensor
    reference: Tensor
    mode: str
    mapping: AudioVideoMap
    null_audio: Tensor
    null_identity: Tensor

    def __post_init__(self):
        if self.mode not in ("clip", "frame"):
            raise ValueError(f"unknown audio scoping mode {self.mode!r}")
        if self.mode == "frame" and not self.mapping.is_uniform():
            raise ValueError("frame mode requires equal-length audio segments")

    def drop(self, drop: np.ndarray) -> "ConditioningBundle":
        """The bundle with each condition dropped where `drop` is set:
        audio and identity fall back to their learned null embeddings, the
        reference latent to zeros. `drop` is [3 x B] or [3 x 1] boolean
        (rows: audio, identity, reference), broadcast over the batch.
        Training dropout and the sampler's unconditional branch both
        call this."""
        d = np.asarray(drop, dtype=self.audio.data.dtype).reshape(3, -1, 1, 1)
        keep = 1.0 - d
        return replace(
            self,
            audio=self.audio * Tensor(keep[0]) + self.null_audio * Tensor(d[0]),
            identity=self.identity * Tensor(keep[1]) + self.null_identity * Tensor(d[1]),
            reference=self.reference * Tensor(keep[2]))


def condition_bundle(params: Dict[str, Tensor], config: DiTConfig, latents: np.ndarray,
                     audio: np.ndarray, identity: Tensor, motion, mode: str
                     ) -> ConditioningBundle:
    """The bundle of a batch, by the one rule training and sampling share.
    The reference is the first h*w rows (frame 0) of each clip's `latents`
    tiled over the f latent frames; audio maps to frames by
    `segment_audio(l, f)`; the null embeddings are the model's parameters."""
    hw = config.latent_h * config.latent_w
    return ConditioningBundle(
        audio=Tensor(audio), identity=identity, motion=Tensor(motion),
        reference=Tensor(np.tile(latents[:, :hw], (1, config.latent_frames, 1))),
        mode=mode, mapping=segment_audio(config.audio_tokens, config.latent_frames),
        null_audio=params["null_audio"], null_identity=params["null_identity"])


# ----------------------------------------------------------------------
# parameters

ZERO_INIT = ("out_proj.w", "mod.w", "xa.wo", "xid.wo")  # heads that start at zero


def param_shapes(config: DiTConfig) -> Iterator[Tuple[str, Tuple[int, ...]]]:
    """(name, shape) of each of the DiT's own tensors, derived one at a time
    (the motion network's are `motion_param_shapes`). A linear layer is a
    [fan-in x fan-out] weight and its bias, named by `bias_name`."""
    c, ca, cm = config.width, config.audio_width, config.mlp_width
    yield from (("pos_video", (config.video_tokens, c)), ("pos_audio", (config.audio_tokens, ca)),
                ("null_audio", (1, ca)), ("null_identity", (1, c)), ("id.queries", (config.n_id, c)))
    top = (("in_proj.w", config.latent_width + config.ref_channels, c), ("t_mlp1.w", c, c),
           ("t_mlp2.w", c, c), ("out_proj.w", c, config.latent_width),
           ("id.wk", config.id_feat_width, c), ("id.wv", config.id_feat_width, c), ("id.wo", c, c))
    block = (("mod.w", c, 6 * c), ("attn.wq", c, c), ("attn.wk", c, c), ("attn.wv", c, c),
             ("attn.wo", c, c), ("xa.wk", ca, c), ("xa.wv", ca, c), ("xa.wo", c, c),
             ("xid.wk", c, c), ("xid.wv", c, c), ("xid.wo", c, c), ("mlp1.w", c, cm),
             ("mlp2.w", cm, c))
    for w, fan_in, fan_out in chain(top, ((f"block{i}.{w}", fan_in, fan_out)
                                          for i in range(config.depth)
                                          for w, fan_in, fan_out in block)):
        yield w, (fan_in, fan_out)
        yield bias_name(w), (fan_out,)


def init_model_params(config: DiTConfig, rng: RngState) -> Dict[str, Tensor]:
    """All trainable tensors, flat-named, by the module docstring's init rule."""
    return {**init_params(param_shapes(config), rng, "model", ZERO_INIT),
            **init_motion_params(config.width, rng)}


# ----------------------------------------------------------------------
# forward pieces

def sinusoidal_features(t: np.ndarray, width: int) -> np.ndarray:
    """Sin/cos features of the scaled timestep; injective for t in [0,1]
    at toy widths."""
    half = width // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    angles = np.asarray(t, dtype=np.float64).reshape(-1, 1) * TIME_SCALE * freqs
    feats = np.concatenate([np.cos(angles), np.sin(angles)], axis=1)
    if width % 2:
        feats = np.concatenate([feats, np.zeros((feats.shape[0], 1))], axis=1)
    return feats


def timestep_embedding(t, motion: Tensor, params: Dict[str, Tensor],
                       config: DiTConfig) -> List[Tensor]:
    """One [B x 1 x 6c] modulation tensor per block, from the timestep
    embedding plus the motion embedding. `t` is a scalar or a length-B
    array of values in [0, 1]; `motion` is [2] or [B x 2]."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):  # NaN fails both
        raise ValueError(f"timestep values must lie in [0, 1], got {t_arr}")
    feats = Tensor(sinusoidal_features(t_arr, config.width))
    h = silu(dense(feats, params, "t_mlp1.w"))
    t_embed = dense(h, params, "t_mlp2.w")

    gate_in = silu(t_embed + motion_embed(motion, params)).reshape(-1, 1, config.width)
    return [dense(gate_in, params, f"block{i}.mod.w") for i in range(config.depth)]


def cross_attention_increments(z: Tensor, bundle: ConditioningBundle,
                               params: Dict[str, Tensor], config: DiTConfig,
                               index: int) -> Tuple[Tensor, Tensor]:
    """Unit-weight audio and identity increments for block `index`,
    computed from the current hidden state with the block's shared query
    projection and no extra normalization. One audio `attention` call serves
    both stages: frame mode passes `blocks=f`, so each frame's video tokens
    attend only to that frame's audio segment."""
    b = f"block{index}."
    heads = config.heads
    q = dense(z, params, b + "attn.wq")
    audio = bundle.audio + params["pos_audio"]
    ak = dense(audio, params, b + "xa.wk")
    av = dense(audio, params, b + "xa.wv")
    ik = dense(bundle.identity, params, b + "xid.wk")
    iv = dense(bundle.identity, params, b + "xid.wv")
    blocks = bundle.mapping.frames if bundle.mode == "frame" else 1
    att = attention(q, ak, av, heads=heads, blocks=blocks)
    audio_inc = dense(att, params, b + "xa.wo")
    id_att = attention(q, ik, iv, heads=heads)
    id_inc = dense(id_att, params, b + "xid.wo")
    return audio_inc, id_inc


def dit_block(z: Tensor, bundle: ConditioningBundle, mod: Tensor,
              params: Dict[str, Tensor], config: DiTConfig, index: int) -> Tensor:
    """`mod` is the block's [B x 1 x 6c] modulation tensor: shift, scale
    and gate of the self-attention branch, then of the MLP branch."""
    b = f"block{index}."
    c = config.width
    shift1, scale1, gate1, shift2, scale2, gate2 = (
        mod.narrow(-1, j * c, c) for j in range(6))

    h = layer_norm(z, scale1, shift1)
    q = dense(h, params, b + "attn.wq")
    k = dense(h, params, b + "attn.wk")
    v = dense(h, params, b + "attn.wv")
    sa = dense(attention(q, k, v, heads=config.heads), params, b + "attn.wo")
    z = z + gate1 * sa

    audio_inc, id_inc = cross_attention_increments(z, bundle, params, config, index)
    z = z + config.lambda_audio * audio_inc + config.lambda_identity * id_inc

    h2 = layer_norm(z, scale2, shift2)
    m = silu(dense(h2, params, b + "mlp1.w"))
    m = dense(m, params, b + "mlp2.w")
    return z + gate2 * m


def model_forward(z_t: Tensor, t, bundle: ConditioningBundle,
                  params: Dict[str, Tensor], config: DiTConfig) -> Tensor:
    """Velocity prediction [B x N x c_lat] for noisy latents `z_t` of the
    same shape."""
    z_t = Tensor._wrap(z_t)
    if z_t.ndim != 3 or z_t.shape[1] != config.video_tokens:
        raise ValueError(
            f"expected [B x {config.video_tokens} x c] video tokens, got {z_t.shape}")

    x = Tensor(np.concatenate([z_t.data, bundle.reference.data], axis=-1))
    x = dense(x, params, "in_proj.w")
    x = x + params["pos_video"]

    mods = timestep_embedding(t, bundle.motion, params, config)
    for i in range(config.depth):
        x = dit_block(x, bundle, mods[i], params, config, i)

    zero = Tensor(np.zeros(config.width))
    x = layer_norm(x, zero, zero)
    return dense(x, params, "out_proj.w")
