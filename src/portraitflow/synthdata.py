"""Procedural talking-portrait corpus.

Each sample is a short clip of a colored "head" ellipse over a drifting
textured background: the mouth rectangle opens with the audio envelope,
the head and eyes jitter with amplitude proportional to the facial
coefficient, and the torso plus background drift scale with the body
coefficient. A recipe's envelope lies in [0, 1], and the mouth opening is
antialiased, so the mouth-box brightness is exactly affine in each
frame's mean envelope; `evalmetrics.sync_proxy` is the one measure of
sync. Ground truth (lip mask, landmarks, joints, foreground mask,
coefficients) comes straight from the renderer. The face crop is not part
of a sample: `encoders.crop_face` cuts it from a frame with the encoder
config's box.

A stored corpus is a `manifest.json` (the `SynthConfig` and per-sample
scene recipes and checksums) plus one directory per sample holding six
tensor files: video, envelope, lip_mask, landmarks, joints, fg_mask.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .numerics import RngState, load_tensor, save_tensor

HEAD_JITTER = 1.5     # px at facial coefficient 1
TORSO_JITTER = 2.5    # px at body coefficient 1
DRIFT_RATE = 0.9      # background phase per frame at body coefficient 1
ENVELOPE_SMOOTH = 65  # Hann window length of the audio envelope, in samples


@dataclass(frozen=True)
class SynthConfig:
    frames: int = 8
    height: int = 32
    width: int = 32
    envelope_samples: int = 2048
    identities: int = 32

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:
                raise TypeError(f"{f.name} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"{f.name} must be at least 1, got {value}")
        r0, r1, c0, c1 = self.layout()["mouth"]
        if r0 == r1 or c0 == c1:
            raise ValueError(f"a {self.height}x{self.width} frame leaves the mouth box "
                             "empty: height and width must be at least 4")

    def layout(self) -> Dict[str, Tuple]:
        """Pixel-space scene layout, proportional to the frame size."""
        h, w = self.height, self.width

        def r(frac, size):
            return int(round(frac * size))

        return {
            "mouth": (r(17 / 32, h), r(23 / 32, h), r(17 / 32, w), r(23 / 32, w)),
            "face_center": (13.5 * h / 32, 19.5 * w / 32),
            "face_radii": (10.5 * h / 32, 8.5 * w / 32),
            "eye_rows": (r(9 / 32, h), r(11 / 32, h)),
            "eye_cols": (r(15 / 32, w), r(17 / 32, w), r(23 / 32, w), r(25 / 32, w)),
            "torso": (r(26 / 32, h), h, r(8 / 32, w), w),
        }


@dataclass
class SceneSpec:
    """Full recipe for one sample; generation is deterministic in it. The
    motion coefficients and every envelope value lie in [0, 1]: an opening
    outside it would paint outside the mouth box."""

    identity: Tuple[float, ...]      # face rgb, radius scale, eye offset
    omega_l: float
    omega_b: float
    envelope: np.ndarray
    background: Tuple[float, ...]    # two spatial frequencies + phase
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.omega_l <= 1.0 and 0.0 <= self.omega_b <= 1.0):
            raise ValueError(
                f"motion coefficients outside [0,1]: {self.omega_l}, {self.omega_b}")
        self.envelope = np.asarray(self.envelope, dtype=np.float32)
        if not np.all((self.envelope >= 0.0) & (self.envelope <= 1.0)):
            raise ValueError(f"envelope must be finite and lie in [0,1], got values "
                             f"from {self.envelope.min()} to {self.envelope.max()}")


@dataclass
class Sample:
    video: np.ndarray       # [F,H,W,3] in [0,1]
    envelope: np.ndarray    # [n]
    lip_mask: np.ndarray    # [F,H,W] binary
    landmarks: np.ndarray   # [F,12,2] normalized coords
    joints: np.ndarray      # [F,4,2]
    fg_mask: np.ndarray     # [F,H,W] binary
    spec: SceneSpec


def band_limited_walk(gen: np.random.Generator, samples: int) -> np.ndarray:
    """Random walk smoothed to a slowly varying envelope in [0.05, 0.95]."""
    walk = np.cumsum(gen.standard_normal(samples + ENVELOPE_SMOOTH))
    kernel = np.hanning(ENVELOPE_SMOOTH)
    kernel /= kernel.sum()
    sm = np.convolve(walk, kernel, mode="valid")[:samples]
    lo, hi = sm.min(), sm.max()
    if hi - lo < 1e-9:
        return np.full(samples, 0.5)
    return (0.05 + 0.9 * (sm - lo) / (hi - lo)).astype(np.float64)


def per_frame_envelope(envelope: np.ndarray, frames: int) -> np.ndarray:
    """Mean envelope value over each frame's equal share of samples."""
    envelope = np.asarray(envelope, dtype=np.float64).reshape(-1)
    per = envelope.size // frames
    if per < 1:
        raise ValueError(f"envelope too short: {envelope.size} samples for {frames} frames")
    return envelope[:per * frames].reshape(frames, per).mean(axis=1)


def random_scene_spec(corpus_seed: int, index: int,
                      config: SynthConfig) -> SceneSpec:
    """Sample a scene recipe; identity index cycles through the corpus
    identity pool so several clips share each identity."""
    rng = RngState(corpus_seed)
    identity_idx = index % config.identities
    id_gen = rng.stream("identity", identity_idx)
    color = 0.25 + 0.6 * id_gen.random(3)
    radius_scale = 0.9 + 0.2 * id_gen.random()
    eye_shift = id_gen.integers(-1, 2)
    sample_gen = rng.stream("scene", index)
    omega_l, omega_b = sample_gen.random(2)
    bg_gen = rng.stream("background", index)
    background = (1.0 + 2.0 * bg_gen.random(), 1.0 + 2.0 * bg_gen.random(),
                  float(2 * np.pi * bg_gen.random()))
    envelope = band_limited_walk(rng.stream("envelope", index), config.envelope_samples)
    seed = int(rng.stream("sample-seed", index).integers(0, 2 ** 62))
    return SceneSpec(
        identity=(float(color[0]), float(color[1]), float(color[2]),
                  float(radius_scale), float(eye_shift)),
        omega_l=float(omega_l), omega_b=float(omega_b),
        envelope=envelope, background=background, seed=seed)


def _smooth_unit_walk(gen: np.random.Generator, frames: int) -> np.ndarray:
    """Zero-mean walk normalized to peak 1 (per-frame offsets)."""
    walk = np.cumsum(gen.standard_normal(frames))
    walk -= walk.mean()
    peak = np.abs(walk).max()
    return walk / peak if peak > 1e-9 else walk


def generate_sample(spec: SceneSpec, config: SynthConfig = SynthConfig()) -> Sample:
    F, H, W = config.frames, config.height, config.width
    layout = config.layout()
    m_r0, m_r1, m_c0, m_c1 = layout["mouth"]
    face_r, face_c = layout["face_center"]
    rad_r, rad_c = layout["face_radii"]
    rad_r *= spec.identity[3]
    rad_c *= spec.identity[3]
    eye_r0, eye_r1 = layout["eye_rows"]
    ec = [c + int(spec.identity[4]) for c in layout["eye_cols"]]
    t_r0, t_r1, t_c0, t_c1 = layout["torso"]

    rng = RngState(spec.seed)
    head_dr = _smooth_unit_walk(rng.stream("head_r"), F) * spec.omega_l * HEAD_JITTER
    head_dc = _smooth_unit_walk(rng.stream("head_c"), F) * spec.omega_l * HEAD_JITTER
    torso_dc = _smooth_unit_walk(rng.stream("torso"), F) * spec.omega_b * TORSO_JITTER

    face_color = np.array(spec.identity[:3])
    torso_color = face_color * 0.55 + 0.15
    mouth_color = np.array([0.98, 0.92, 0.9])
    eye_color = np.array([0.05, 0.05, 0.08])

    opening = per_frame_envelope(spec.envelope, F)
    fa, fb, phase = spec.background
    rows = np.arange(H)[:, None]
    cols = np.arange(W)[None, :]

    video = np.zeros((F, H, W, 3), dtype=np.float32)
    lip_mask = np.zeros((F, H, W), dtype=np.float32)
    fg_mask = np.zeros((F, H, W), dtype=np.float32)
    landmarks = np.zeros((F, 12, 2), dtype=np.float32)
    joints = np.zeros((F, 4, 2), dtype=np.float32)

    for i in range(F):
        drift = phase + spec.omega_b * DRIFT_RATE * i
        tex = 0.45 + 0.18 * np.sin(2 * np.pi * (fa * rows + fb * cols) / H + drift) \
            + 0.12 * np.sin(2 * np.pi * (fb * rows - fa * cols) / W - 0.7 * drift)
        frame = np.repeat(tex[:, :, None], 3, axis=2)

        # torso with horizontal jitter
        dc = int(round(torso_dc[i]))
        c0, c1 = np.clip(t_c0 + dc, 0, W), np.clip(t_c1 + dc, 0, W)
        frame[t_r0:t_r1, c0:c1] = torso_color
        fg = np.zeros((H, W), dtype=bool)
        fg[t_r0:t_r1, c0:c1] = True

        # head ellipse with jitter
        cr, cc = face_r + head_dr[i], face_c + head_dc[i]
        ellipse = ((rows - cr) / rad_r) ** 2 + ((cols - cc) / rad_c) ** 2 <= 1.0
        frame[ellipse] = face_color
        fg |= ellipse

        # eyes follow the head
        er0 = int(round(eye_r0 + head_dr[i]))
        er1 = er0 + (eye_r1 - eye_r0)
        for c_lo, c_hi in ((ec[0], ec[1]), (ec[2], ec[3])):
            cl = int(round(c_lo + head_dc[i]))
            frame[er0:er1, cl:cl + (c_hi - c_lo)] = eye_color

        # mouth: fixed box, opening fills rows top-down with an
        # antialiased fractional edge so box brightness is linear in it
        frame[m_r0:m_r1, m_c0:m_c1] = face_color
        oh = opening[i] * (m_r1 - m_r0)
        full = int(np.floor(oh))
        frac = oh - full
        frame[m_r0:m_r0 + full, m_c0:m_c1] = mouth_color
        if full < (m_r1 - m_r0) and frac > 0:
            edge_row = frame[m_r0 + full, m_c0:m_c1]
            frame[m_r0 + full, m_c0:m_c1] = (1 - frac) * edge_row + frac * mouth_color
        lip_mask[i, m_r0:m_r1, m_c0:m_c1] = 1.0
        fg[m_r0:m_r1, m_c0:m_c1] = True

        video[i] = np.clip(frame, 0.0, 1.0)
        fg_mask[i] = fg

        # landmarks: 8 ellipse boundary points + 2 eye centers + 2 mouth corners
        angles = np.arange(8) * (np.pi / 4)
        pts = [(cr + rad_r * np.sin(a), cc + rad_c * np.cos(a)) for a in angles]
        pts += [((er0 + er1) / 2, ec[0] + head_dc[i] + 1),
                ((er0 + er1) / 2, ec[2] + head_dc[i] + 1)]
        lip_line = m_r0 + oh
        pts += [(lip_line, m_c0), (lip_line, m_c1 - 1)]
        landmarks[i] = [(r / H, c / W) for r, c in pts]

        joints[i] = [((t_r0) / H, (c0 + 1) / W), ((t_r0) / H, (c1 - 1) / W),
                     ((t_r1 - 1) / H, (c0 + 1) / W), ((t_r1 - 1) / H, (c1 - 1) / W)]

    return Sample(video=video, envelope=spec.envelope, lip_mask=lip_mask,
                  landmarks=np.clip(landmarks, 0.0, 1.0),
                  joints=np.clip(joints, 0.0, 1.0),
                  fg_mask=fg_mask, spec=spec)


# ----------------------------------------------------------------------
# on-disk corpus

_SAMPLE_FILES = ("video", "envelope", "lip_mask", "landmarks", "joints", "fg_mask")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_dataset(specs: Sequence[SceneSpec], out_dir,
                  config: SynthConfig = SynthConfig()) -> Path:
    """Generate and store one sample per spec; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for i, spec in enumerate(specs):
        sample = generate_sample(spec, config)
        sub = out_dir / f"sample_{i:05d}"
        sub.mkdir(exist_ok=True)
        checksums = {}
        for name in _SAMPLE_FILES:
            path = sub / f"{name}.pft"
            save_tensor(path, getattr(sample, name))
            checksums[name] = _sha256(path)
        records.append({
            "index": i, "dir": sub.name,
            "identity": list(spec.identity),
            "omega_l": spec.omega_l, "omega_b": spec.omega_b,
            "background": list(spec.background), "seed": spec.seed,
            "checksums": checksums,
        })
    manifest = {"config": asdict(config), "samples": records}
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return manifest_path


def read_dataset(data_dir) -> Tuple[List[Sample], SynthConfig]:
    """Load a stored corpus, verifying every file checksum. A manifest
    with a missing, unknown or wrongly typed entry, or a sample `dir` that
    is not a plain directory name, raises ValueError."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    try:
        config = SynthConfig(**manifest["config"])
        samples = [_read_sample(data_dir, i, record, config)
                   for i, record in enumerate(manifest["samples"])]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{manifest_path}: malformed manifest "
                         f"({type(exc).__name__}: {exc})") from exc
    return samples, config


def _read_sample(data_dir: Path, index: int, record: Dict, config: SynthConfig) -> Sample:
    if record["dir"] in ("", ".", "..") or Path(record["dir"]).name != record["dir"]:
        raise ValueError(f"manifest sample {index}: dir {record['dir']!r} is not "
                         f"the name of a directory inside the corpus")
    sub = data_dir / record["dir"]
    F, H, W = config.frames, config.height, config.width
    shapes = {"video": (F, H, W, 3), "envelope": (config.envelope_samples,),
              "lip_mask": (F, H, W), "landmarks": (F, 12, 2), "joints": (F, 4, 2),
              "fg_mask": (F, H, W)}
    arrays = {}
    for name in _SAMPLE_FILES:
        path = sub / f"{name}.pft"
        digest = _sha256(path)
        if digest != record["checksums"][name]:
            raise ValueError(f"checksum mismatch for {record['dir']}/{name}.pft")
        arrays[name] = load_tensor(path)
        if arrays[name].shape != shapes[name]:
            raise ValueError(f"{record['dir']}/{name}.pft has shape {arrays[name].shape}, "
                             f"the manifest's config implies {shapes[name]}")
    spec = SceneSpec(identity=tuple(record["identity"]),
                     omega_l=record["omega_l"], omega_b=record["omega_b"],
                     envelope=arrays["envelope"],
                     background=tuple(record["background"]),
                     seed=record["seed"])
    return Sample(spec=spec, **arrays)


def make_corpus_specs(count: int, corpus_seed: int,
                      config: SynthConfig = SynthConfig()) -> List[SceneSpec]:
    return [random_scene_spec(corpus_seed, i, config) for i in range(count)]
