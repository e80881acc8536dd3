"""Proxy metrics: lip sync, identity consistency, subject/background dynamics.

All three work on ground-truth regions from the synthetic generator, so
no pretrained detectors are involved: sync is the Pearson correlation of
mouth-region brightness against the per-frame envelope, identity error is
the mean cosine distance between frame-crop embeddings and the reference
embedding, and the dynamics pair is the mean absolute inter-frame pixel
difference inside / outside the foreground mask.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

import numpy as np


@dataclass
class MetricReport:
    sync_r: float
    id_err: float
    sd: float
    bd: float
    sync_degenerate_fraction: float = 0.0
    samples: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def table(self) -> str:
        rows = [("sync_r", self.sync_r), ("id_err", self.id_err),
                ("sd", self.sd), ("bd", self.bd)]
        lines = [f"metrics over {self.samples} sample(s)",
                 "-" * 28]
        lines += [f"{name:<10} {value: .5f}" for name, value in rows]
        return "\n".join(lines)


def _pearson(a: np.ndarray, b: np.ndarray) -> Tuple[float, bool]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sa, sb = a.std(), b.std()
    if sa < 1e-12 or sb < 1e-12:
        return 0.0, True
    r = float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))
    return float(np.clip(r, -1.0, 1.0)), False


def sync_proxy(video: np.ndarray, frame_envelope: np.ndarray,
               mouth_region: Tuple[int, int, int, int]) -> Tuple[float, bool]:
    """Correlation between mouth-region brightness and the per-frame
    envelope. Returns (r, degenerate); a zero-variance series gives
    (0, True)."""
    video = np.asarray(video)
    F, H, W = video.shape[:3]
    if F < 3:
        raise ValueError(f"need at least 3 frames for a correlation, got {F}")
    r0, r1, c0, c1 = mouth_region
    if not (0 <= r0 < r1 <= H and 0 <= c0 < c1 <= W):
        raise ValueError(f"mouth region {mouth_region} outside {H}x{W} frame")
    series = video[:, r0:r1, c0:c1].mean(axis=tuple(range(1, video.ndim)))
    drive = np.asarray(frame_envelope, dtype=np.float64).reshape(-1)
    if drive.size != F:
        raise ValueError(f"need one envelope value per frame: {drive.size} vs {F}")
    return _pearson(series, drive)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 and nb < 1e-12:
        return 0.0
    if na < 1e-12 or nb < 1e-12:
        return 1.0
    return float(1.0 - np.dot(a, b) / (na * nb))


def identity_proxy(video: np.ndarray, reference_crop: np.ndarray,
                   crop_region: Tuple[int, int, int],
                   encoder: Callable[[np.ndarray], np.ndarray]) -> float:
    """Mean cosine distance between per-frame crop embeddings and the
    reference crop embedding."""
    r, c, s = crop_region
    ref_embed = encoder(reference_crop)
    distances = [cosine_distance(encoder(frame[r:r + s, c:c + s]), ref_embed)
                 for frame in np.asarray(video)]
    return float(np.mean(distances))


def dynamics_proxy(video: np.ndarray,
                   foreground_mask: np.ndarray) -> Tuple[float, float]:
    """(subject, background) dynamics: mean absolute inter-frame pixel
    difference inside and outside the mask. The mask is [H x W] or
    per-frame [F x H x W] (a pixel counts as foreground for a frame pair
    if it is foreground in either frame)."""
    video = np.asarray(video, dtype=np.float64)
    F = video.shape[0]
    if F < 2:
        raise ValueError(f"need at least 2 frames, got {F}")
    diffs = np.abs(video[1:] - video[:-1]).mean(axis=-1)  # [F-1, H, W]
    mask = np.asarray(foreground_mask) > 0.5
    if mask.ndim == 2:
        pair_masks = np.broadcast_to(mask, diffs.shape)
    else:
        pair_masks = mask[1:] | mask[:-1]
    fg = diffs[pair_masks]
    bg = diffs[~pair_masks]
    sd = float(fg.mean()) if fg.size else 0.0
    bd = float(bg.mean()) if bg.size else 0.0
    return sd, bd


def mask_bounding_box(mask: np.ndarray) -> Tuple[int, int, int, int]:
    """Tight (r0, r1, c0, c1) box around the nonzero region of a 2d or
    per-frame mask."""
    mask = np.asarray(mask)
    if mask.ndim == 3:
        mask = mask.max(axis=0)
    rows = np.flatnonzero(mask.max(axis=1) > 0)
    cols = np.flatnonzero(mask.max(axis=0) > 0)
    if rows.size == 0:
        raise ValueError("mask is empty")
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def identity_embedder(state) -> Callable[[np.ndarray], np.ndarray]:
    """Crop -> flattened identity-token embedding using the checkpoint's
    (frozen conv + trained query head) identity encoder."""
    from .encoders import identity_attend, identity_conv_features
    from .numerics import Tensor, no_grad

    def embed(crop: np.ndarray) -> np.ndarray:
        feats = identity_conv_features(crop, state.enc_params, state.enc)
        with no_grad():
            tokens = identity_attend(Tensor(feats), state.params)
        return tokens.numpy().reshape(-1)

    return embed


def evaluate_model(state, samples: Sequence, sample_cfg) -> Tuple[MetricReport, list]:
    """Generate one video per held-out sample (conditioned on its
    reference frame, envelope and recorded motion coefficients) and
    score it against the sample's ground truth."""
    import dataclasses

    from .sampling import sample as run_sampler
    from .synthdata import per_frame_envelope

    embed = identity_embedder(state)
    enc = state.enc
    rows = []
    for i, item in enumerate(samples):
        cfg = dataclasses.replace(sample_cfg, omega_l=item.spec.omega_l,
                                  omega_b=item.spec.omega_b, seed=sample_cfg.seed + i)
        reference = item.video[0]
        video, info = run_sampler(reference, item.envelope, cfg, state)

        drive = per_frame_envelope(item.envelope, video.frames)
        region = mask_bounding_box(item.lip_mask)
        sync_r, degenerate = sync_proxy(video.data, drive, region)

        crop_region = (enc.crop_row, enc.crop_col, enc.crop_size)
        ref_crop = reference[enc.crop_row:enc.crop_row + enc.crop_size,
                             enc.crop_col:enc.crop_col + enc.crop_size]
        id_err = identity_proxy(video.data, ref_crop, crop_region, embed)

        sd, bd = dynamics_proxy(video.data, item.fg_mask.max(axis=0))
        rows.append({
            "index": i, "sync_r": sync_r, "sync_degenerate": degenerate,
            "id_err": id_err, "sd": sd, "bd": bd,
            "overflow_fraction": info["overflow_fraction"],
        })
    return aggregate_reports(rows), rows


def aggregate_reports(rows: Sequence[dict]) -> MetricReport:
    n = len(rows)
    if n == 0:
        raise ValueError("no per-sample metric rows to aggregate")
    return MetricReport(
        sync_r=float(np.mean([r["sync_r"] for r in rows])),
        id_err=float(np.mean([r["id_err"] for r in rows])),
        sd=float(np.mean([r["sd"] for r in rows])),
        bd=float(np.mean([r["bd"] for r in rows])),
        sync_degenerate_fraction=float(np.mean([r["sync_degenerate"] for r in rows])),
        samples=n)


def write_report(out_dir, report: MetricReport, rows: Sequence[dict]) -> None:
    """One human-readable table plus one machine-readable record file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.txt").write_text(report.table() + "\n")
    with open(out_dir / "metrics.jsonl", "w") as fh:
        fh.write(report.to_json() + "\n")
        for row in rows:
            fh.write(json.dumps(row) + "\n")
