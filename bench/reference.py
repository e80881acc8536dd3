"""Reference computations the benchmark checks the program against.

Everything here is plain float64 numpy written from the method's
definitions (README of the package, "How it fits together"), not from the
package's own code paths: a DiT forward pass, the Euler integration with
classifier-free guidance, patch (de)composition, audio window features and
the proxy metrics. The only things taken from the package are configuration
dataclasses and parameter arrays.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

LAYER_NORM_EPS = 1e-5
TIME_SCALE = 1000.0
MOTION_EXPANSION = 4

# Float32 carries about 7 decimal digits (eps 1.19e-7). A 4-block forward
# chains on the order of a thousand rounded operations, so the float32
# program may drift from the float64 reference by up to ~1e3 eps relative
# to the output scale; anything larger is a real discrepancy.
F32_FORWARD_RTOL = 1e3 * float(np.finfo(np.float32).eps)


def silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def layer_norm(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LAYER_NORM_EPS)


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray,
           mask: np.ndarray | None = None) -> np.ndarray:
    """softmax(q k^T / sqrt(d) + mask) v over the trailing two axes."""
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(q.shape[-1])
    if mask is not None:
        scores = scores + mask
    return softmax(scores) @ v


def segment_boundaries(l: int, f: int) -> list:
    """Frame i owns audio tokens [b_i, b_{i+1}) with b_i = round(i l / f),
    ties rounded up."""
    return [int(np.floor(i * l / f + 0.5)) for i in range(f + 1)]


def frame_block_mask(frames: int, tokens_per_frame: int, audio_tokens: int) -> np.ndarray:
    """Additive [N x l] mask: 0 on each frame's own audio segment, -inf elsewhere."""
    bounds = segment_boundaries(audio_tokens, frames)
    mask = np.full((frames * tokens_per_frame, audio_tokens), -np.inf)
    for i in range(frames):
        mask[i * tokens_per_frame:(i + 1) * tokens_per_frame, bounds[i]:bounds[i + 1]] = 0.0
    return mask


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    b, n, c = x.shape
    return x.reshape(b, n, heads, c // heads).transpose(0, 2, 1, 3)


def _merge(x: np.ndarray) -> np.ndarray:
    b, h, n, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * d)


def timestep_features(t: np.ndarray, width: int) -> np.ndarray:
    half = width // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    angles = np.asarray(t, dtype=np.float64).reshape(-1, 1) * TIME_SCALE * freqs
    feats = np.concatenate([np.cos(angles), np.sin(angles)], axis=1)
    if width % 2:
        feats = np.concatenate([feats, np.zeros((feats.shape[0], 1))], axis=1)
    return feats


def motion_embedding(omega: np.ndarray, p: Dict[str, np.ndarray]) -> np.ndarray:
    """(facial, body) [B x 2] -> [B x c]: two dense layers, a residual block,
    then the mean over a length-4 expansion."""
    h = silu(omega @ p["motion.mlp1.w"] + p["motion.mlp1.b"])
    h = h @ p["motion.mlp2.w"] + p["motion.mlp2.b"]
    h = h + silu(h @ p["motion.res1.w"] + p["motion.res1.b"]) @ p["motion.res2.w"] \
        + p["motion.res2.b"]
    e = h @ p["motion.expand.w"] + p["motion.expand.b"]
    return e.reshape(e.shape[0], MOTION_EXPANSION, -1).mean(axis=1)


def identity_tokens(features: np.ndarray, p: Dict[str, np.ndarray]) -> np.ndarray:
    """Learned queries attend (one head) over the frozen identity feature map."""
    k = features @ p["id.wk"] + p["id.wk_b"]
    v = features @ p["id.wv"] + p["id.wv_b"]
    return attend(p["id.queries"], k, v) @ p["id.wo"] + p["id.wo_b"]


def dit_forward(z_t: np.ndarray, t, audio: np.ndarray, identity: np.ndarray,
                motion: np.ndarray, reference: np.ndarray, mode: str,
                p: Dict[str, np.ndarray], cfg) -> np.ndarray:
    """Velocity prediction [B x N x c_lat] in float64.

    `cfg` is a DiTConfig (only its sizes and weights lambda are read); `p`
    maps parameter names to arrays. Frame mode is written as clip-wide
    attention under the block mask, the formulation the alignment theorem
    says it equals.
    """
    f64 = {k: np.asarray(v, dtype=np.float64) for k, v in p.items()}
    z_t, audio, identity, motion, reference = (
        np.asarray(a, dtype=np.float64) for a in (z_t, audio, identity, motion, reference))
    c, heads = cfg.width, cfg.heads
    bsz = z_t.shape[0]

    x = np.concatenate([z_t, reference], axis=-1) @ f64["in_proj.w"] + f64["in_proj.b"]
    x = x + f64["pos_video"]

    t_arr = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=np.float64)), (bsz,))
    h = silu(timestep_features(t_arr, c) @ f64["t_mlp1.w"] + f64["t_mlp1.b"])
    cond = h @ f64["t_mlp2.w"] + f64["t_mlp2.b"] + motion_embedding(motion, f64)
    gate_in = silu(cond)

    mask = None
    if mode == "frame":
        mask = frame_block_mask(cfg.latent_frames, cfg.latent_h * cfg.latent_w,
                                cfg.audio_tokens)
    audio = audio + f64["pos_audio"]

    for i in range(cfg.depth):
        b = f"block{i}."
        six = gate_in @ f64[b + "mod.w"] + f64[b + "mod.b"]
        shift1, scale1, gate1, shift2, scale2, gate2 = (
            six[:, None, j * c:(j + 1) * c] for j in range(6))

        hmod = layer_norm(x) * (1.0 + scale1) + shift1
        q = _heads(hmod @ f64[b + "attn.wq"] + f64[b + "attn.wq_b"], heads)
        k = _heads(hmod @ f64[b + "attn.wk"] + f64[b + "attn.wk_b"], heads)
        v = _heads(hmod @ f64[b + "attn.wv"] + f64[b + "attn.wv_b"], heads)
        sa = _merge(attend(q, k, v)) @ f64[b + "attn.wo"] + f64[b + "attn.wo_b"]
        x = x + gate1 * sa

        q = _heads(x @ f64[b + "attn.wq"] + f64[b + "attn.wq_b"], heads)
        ak = _heads(audio @ f64[b + "xa.wk"] + f64[b + "xa.wk_b"], heads)
        av = _heads(audio @ f64[b + "xa.wv"] + f64[b + "xa.wv_b"], heads)
        audio_inc = _merge(attend(q, ak, av, mask)) @ f64[b + "xa.wo"] + f64[b + "xa.wo_b"]
        ik = _heads(identity @ f64[b + "xid.wk"] + f64[b + "xid.wk_b"], heads)
        iv = _heads(identity @ f64[b + "xid.wv"] + f64[b + "xid.wv_b"], heads)
        id_inc = _merge(attend(q, ik, iv)) @ f64[b + "xid.wo"] + f64[b + "xid.wo_b"]
        x = x + cfg.lambda_audio * audio_inc + cfg.lambda_identity * id_inc

        hmod = layer_norm(x) * (1.0 + scale2) + shift2
        m = silu(hmod @ f64[b + "mlp1.w"] + f64[b + "mlp1.b"])
        x = x + gate2 * (m @ f64[b + "mlp2.w"] + f64[b + "mlp2.b"])

    return layer_norm(x) @ f64["out_proj.w"] + f64["out_proj.b"]


# ----------------------------------------------------------------------
# sampling


def euler_cfg(z1: np.ndarray,
              velocities: Callable[[np.ndarray, float], Tuple[np.ndarray, np.ndarray]],
              steps: int, scale: float) -> np.ndarray:
    """Integrate dz/dt = v from t=1 to t=0 with `steps` uniform Euler steps,
    where v = v_u + s (v_c - v_u) and `velocities(z, t)` returns (v_c, v_u).
    Arithmetic stays in the dtype of `z1`."""
    z = np.array(z1, copy=True)
    s = z.dtype.type(scale)
    dt = 1.0 / steps
    for k in range(steps):
        v_c, v_u = velocities(z, 1.0 - k * dt)
        z = z - (v_u + s * (v_c - v_u)) * dt
    return z


# ----------------------------------------------------------------------
# encoders' fixed parts


def patchify(video: np.ndarray, patch: int) -> np.ndarray:
    """[F,H,W,3] -> [F*h*w x patch*patch*3], frame-major, row-major tiles."""
    F, H, W, _ = video.shape
    h, w = H // patch, W // patch
    x = np.asarray(video, dtype=np.float64).reshape(F, h, patch, w, patch, 3)
    return x.transpose(0, 1, 3, 2, 4, 5).reshape(F * h * w, patch * patch * 3)


def unpatchify(tokens: np.ndarray, frames: int, height: int, width: int,
               patch: int) -> np.ndarray:
    """Inverse of `patchify`."""
    h, w = height // patch, width // patch
    x = np.asarray(tokens, dtype=np.float64).reshape(frames, h, w, patch, patch, 3)
    return x.transpose(0, 1, 3, 2, 4, 5).reshape(frames, height, width, 3)


def audio_features(envelope: np.ndarray, tokens: int, samples_per_token: int) -> np.ndarray:
    """Per-window (mean, mean first difference, RMS) of the envelope."""
    env = np.asarray(envelope, dtype=np.float64).reshape(-1)[:tokens * samples_per_token]
    win = env.reshape(tokens, samples_per_token)
    slope = (win[:, -1] - win[:, 0]) / (samples_per_token - 1)
    return np.stack([win.mean(axis=1), slope, np.sqrt((win ** 2).mean(axis=1))], axis=1)


def conditioning(frame: np.ndarray, envelope: np.ndarray, omega, id_features: np.ndarray,
                 enc, audio_w: np.ndarray, audio_b: np.ndarray,
                 p: Dict[str, np.ndarray]):
    """Batch-of-one conditioning inputs for a reference frame [H,W,3] and
    an envelope: the frame's latent tiled over the latent frames, audio
    tokens, identity tokens from the frozen feature map `id_features`, and
    the motion coefficients. `enc` is an EncoderConfig (sizes only)."""
    hw = enc.latent_h * enc.latent_w
    ref = np.tile(patchify(np.asarray(frame)[None], enc.patch)[:hw], (enc.latent_frames, 1))
    audio = audio_features(envelope, enc.audio_tokens, enc.samples_per_token) \
        @ np.asarray(audio_w, dtype=np.float64) + audio_b
    f64 = {k: np.asarray(v, dtype=np.float64) for k, v in p.items()}
    identity = identity_tokens(np.asarray(id_features, dtype=np.float64), f64)
    return ref[None], audio[None], identity[None], np.asarray(omega, dtype=np.float64)[None]


# ----------------------------------------------------------------------
# proxy metrics


def frame_envelope(envelope: np.ndarray, frames: int) -> np.ndarray:
    env = np.asarray(envelope, dtype=np.float64).reshape(-1)
    per = env.size // frames
    return env[:per * frames].reshape(frames, per).mean(axis=1)


def mask_box(mask: np.ndarray) -> Tuple[int, int, int, int]:
    """(r0, r1, c0, c1) bounding the union over frames of a [F,H,W] mask."""
    rows, cols = np.nonzero(np.asarray(mask).max(axis=0) > 0)
    return int(rows.min()), int(rows.max()) + 1, int(cols.min()), int(cols.max()) + 1


def sync_r(video: np.ndarray, envelope: np.ndarray, lip_mask: np.ndarray) -> float:
    """Pearson r of mouth-box brightness against the per-frame envelope."""
    r0, r1, c0, c1 = mask_box(lip_mask)
    series = np.asarray(video, dtype=np.float64)[:, r0:r1, c0:c1].mean(axis=(1, 2, 3))
    return float(np.corrcoef(series, frame_envelope(envelope, len(series)))[0, 1])


def dynamics(video: np.ndarray, fg_mask: np.ndarray) -> Tuple[float, float]:
    """Mean absolute frame-to-frame change inside / outside the union
    foreground mask (channel-averaged)."""
    v = np.asarray(video, dtype=np.float64)
    diff = np.abs(np.diff(v, axis=0)).mean(axis=-1)
    fg = np.asarray(fg_mask).max(axis=0) > 0.5
    return float(diff[:, fg].mean()), float(diff[:, ~fg].mean())
