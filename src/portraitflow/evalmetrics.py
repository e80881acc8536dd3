"""Proxy metrics: lip sync, identity consistency, subject/background dynamics.

All three work on ground-truth regions from the synthetic generator, so
no pretrained detectors are involved: sync is the Pearson correlation of
mouth-region brightness against the per-frame envelope, identity error is
the mean cosine distance between each frame's identity tokens and the
reference frame's (`sampling.identity_tokens`, the encoder the sampler
conditions on), and the dynamics pair is the mean absolute inter-frame
pixel difference inside / outside the foreground mask.

`evaluate_model` samples the clips in `eval_workers` forked processes,
which inherit the state unpickled, when the BLAS threads leave more than
one CPU share (say, `OPENBLAS_NUM_THREADS=1` on two cores), else in-process;
threads would not overlap, as the sampler holds the GIL. The caller scores
each clip in order as it arrives, so rows are byte-identical either way.
A worker killed mid-eval (say, by the OOM killer) fails the eval with
`BrokenProcessPool`, and no worker is left running.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence, Tuple

import numpy as np

from . import sampling
from .numerics import no_grad
from .synthdata import per_frame_envelope


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


def identity_proxy(video: np.ndarray, reference: np.ndarray,
                   embed: Callable[[np.ndarray], np.ndarray]) -> float:
    """Mean cosine distance between each frame's embedding and the
    reference frame's; `embed` maps one [H,W,3] frame to a vector."""
    ref_embed = embed(reference)
    distances = [cosine_distance(embed(frame), ref_embed) for frame in np.asarray(video)]
    return float(np.mean(distances))


def dynamics_proxy(video: np.ndarray,
                   foreground_mask: np.ndarray) -> Tuple[float, float]:
    """(subject, background) dynamics: mean absolute inter-frame pixel
    difference inside and outside the [H x W] mask."""
    video = np.asarray(video, dtype=np.float64)
    F = video.shape[0]
    if F < 2:
        raise ValueError(f"need at least 2 frames, got {F}")
    diffs = np.abs(video[1:] - video[:-1]).mean(axis=-1)  # [F-1, H, W]
    pair_masks = np.broadcast_to(np.asarray(foreground_mask) > 0.5, diffs.shape)
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


def eval_workers(clips: int) -> int:
    """Sampler processes for `clips` clips: usable CPUs // BLAS threads per
    process, where unset BLAS variables mean OpenBLAS's one per CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdecimal() and int(value) > 0:
            blas = int(value)
            break
    workers = min(clips, cpus // blas)
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            return workers
    return 1


_WORKER_STATE = None


def _adopt_state(state) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _sample_clip(job):
    return sampling.sample(*job, _WORKER_STATE)


def evaluate_model(state, samples: Sequence, sample_cfg) -> Tuple[MetricReport, list]:
    """Generate one video per held-out sample (conditioned on its
    reference frame, envelope and recorded motion coefficients) and
    score it against the sample's ground truth."""
    def embed(frame: np.ndarray) -> np.ndarray:
        with no_grad():
            return sampling.identity_tokens(frame, state).numpy().reshape(-1)

    jobs = [(item.video[0], item.envelope,
             replace(sample_cfg, omega_l=item.spec.omega_l, omega_b=item.spec.omega_b,
                     seed=sample_cfg.seed + i))
            for i, item in enumerate(samples)]
    workers = eval_workers(len(jobs))
    rows = []
    with ExitStack() as stack:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context
            # unlike multiprocessing.Pool, the executor notices a worker that
            # dies (say, an OOM kill) and raises BrokenProcessPool
            pool = ProcessPoolExecutor(workers, get_context("fork"), _adopt_state, (state,))
            stack.callback(pool.shutdown, cancel_futures=True)
            videos = pool.map(_sample_clip, jobs)
        else:
            videos = (sampling.sample(*job, state) for job in jobs)
        for i, (item, (video, info)) in enumerate(zip(samples, videos)):
            drive = per_frame_envelope(item.envelope, video.frames)
            region = mask_bounding_box(item.lip_mask)
            sync_r, degenerate = sync_proxy(video.data, drive, region)

            id_err = identity_proxy(video.data, item.video[0], embed)

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
