"""Generator determinism, ground-truth consistency, corpus round trips."""

import dataclasses
import json
import time

import numpy as np
import pytest

from portraitflow.encoders import EncoderConfig, crop_face
from portraitflow.evalmetrics import mask_bounding_box, sync_proxy
from portraitflow.motion import raw_motion_variance
from portraitflow.synthdata import (
    SceneSpec,
    SynthConfig,
    band_limited_walk,
    generate_sample,
    make_corpus_specs,
    per_frame_envelope,
    random_scene_spec,
    read_dataset,
    write_dataset,
)

CFG = SynthConfig()


def spec_with(omega_l=0.5, omega_b=0.5, envelope=None, seed=7):
    if envelope is None:
        envelope = band_limited_walk(np.random.default_rng(3), CFG.envelope_samples)
    return SceneSpec(identity=(0.6, 0.4, 0.3, 1.0, 0.0), omega_l=omega_l,
                     omega_b=omega_b, envelope=envelope,
                     background=(1.5, 2.5, 0.3), seed=seed)


class TestGenerateSample:
    def test_deterministic(self):
        a = generate_sample(spec_with(), CFG)
        b = generate_sample(spec_with(), CFG)
        assert np.array_equal(a.video, b.video)
        assert np.array_equal(a.landmarks, b.landmarks)

    def test_silent_envelope_keeps_mouth_closed_and_constant(self):
        sample = generate_sample(spec_with(envelope=np.zeros(CFG.envelope_samples),
                                           omega_l=0.0, omega_b=0.0), CFG)
        r0, r1, c0, c1 = CFG.layout()["mouth"]
        region = sample.video[:, r0:r1, c0:c1]
        for i in range(1, CFG.frames):
            assert np.array_equal(region[i], region[0])
        # closed: no bright mouth interior pixels
        assert region.max() <= 0.75

    def test_zero_intensity_freezes_everything_but_the_mouth(self):
        sample = generate_sample(spec_with(omega_l=0.0, omega_b=0.0), CFG)
        r0, r1, c0, c1 = CFG.layout()["mouth"]
        outside = sample.video.copy()
        outside[:, r0:r1, c0:c1] = 0.0
        for i in range(1, CFG.frames):
            assert np.array_equal(outside[i], outside[0])
        # all landmarks except the two mouth corners are static
        for i in range(1, CFG.frames):
            assert np.array_equal(sample.landmarks[i, :10], sample.landmarks[0, :10])
        assert not np.array_equal(sample.landmarks[1:, 10:],
                                  np.tile(sample.landmarks[0, 10:], (CFG.frames - 1, 1, 1)))

    def test_mouth_envelope_correlation_on_corpus(self):
        # scored as `evaluate_model` scores sync: the mouth-box brightness
        # is affine in the per-frame envelope, so r is 1 up to rounding
        for size in (8, 16, 32, 48):
            for frames in (3, 8, 16):
                cfg = SynthConfig(frames=frames, height=size, width=size)
                for spec in make_corpus_specs(6, 11, cfg):
                    sample = generate_sample(spec, cfg)
                    r, degenerate = sync_proxy(
                        sample.video, per_frame_envelope(sample.envelope, frames),
                        mask_bounding_box(sample.lip_mask))
                    assert not degenerate and r >= 0.999, (size, frames, r)

    def test_face_brighter_than_the_mouth_generates(self):
        # a legal recipe whose mouth darkens as it opens: how well it syncs
        # is for eval to score, not for the generator to refuse
        spec = dataclasses.replace(spec_with(), identity=(1.0, 1.0, 1.0, 1.0, 0.0))
        sample = generate_sample(spec, CFG)
        r, _ = sync_proxy(sample.video, per_frame_envelope(sample.envelope, CFG.frames),
                          mask_bounding_box(sample.lip_mask))
        assert r <= -0.999

    def test_joint_variance_monotone_in_body_coefficient(self):
        raws = []
        for omega_b in (0.1, 0.5, 1.0):
            sample = generate_sample(spec_with(omega_b=omega_b), CFG)
            raws.append(raw_motion_variance(sample.joints))
        assert raws[0] < raws[1] < raws[2]

    def test_landmark_variance_monotone_in_facial_coefficient(self):
        raws = []
        for omega_l in (0.1, 0.5, 1.0):
            sample = generate_sample(spec_with(omega_l=omega_l), CFG)
            raws.append(raw_motion_variance(sample.landmarks))
        assert raws[0] < raws[1] < raws[2]

    def test_ground_truth_shapes_and_ranges(self):
        sample = generate_sample(spec_with(), CFG)
        F, H, W = CFG.frames, CFG.height, CFG.width
        assert sample.video.shape == (F, H, W, 3)
        assert sample.lip_mask.shape == (F, H, W)
        assert sample.landmarks.shape == (F, 12, 2)
        assert sample.joints.shape == (F, 4, 2)
        assert sample.fg_mask.shape == (F, H, W)
        enc = EncoderConfig()
        assert crop_face(sample.video[0], enc).shape == (enc.crop_size, enc.crop_size, 3)
        assert 0.0 <= sample.video.min() and sample.video.max() <= 1.0
        assert ((sample.landmarks >= 0) & (sample.landmarks <= 1)).all()

    def test_lip_mask_is_a_small_region(self):
        sample = generate_sample(spec_with(), CFG)
        assert 0 < sample.lip_mask.mean() < 0.1

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(identity=(0.5,) * 5, omega_l=1.4, omega_b=0.5,
                      envelope=np.zeros(4), background=(1, 1, 0), seed=0)

    @pytest.mark.parametrize("envelope", [
        np.full(CFG.envelope_samples, -0.3),
        np.linspace(-0.5, 0.5, CFG.envelope_samples),
        np.linspace(0.5, 2.0, CFG.envelope_samples),
        np.full(CFG.envelope_samples, np.nan),
    ], ids=["constant -0.3", "ramp -0.5..0.5", "ramp 0.5..2.0", "nan"])
    def test_envelope_outside_unit_interval_rejected(self, envelope):
        # a negative opening paints the edge row above the mouth box; the
        # ramps made the old in-generator sync check raise AssertionError
        with pytest.raises(ValueError, match="envelope"):
            spec_with(envelope=envelope)

    @pytest.mark.parametrize("sizes, message", [
        *[pytest.param({f.name: 0}, f"{f.name} must be at least 1", id=f.name)
          for f in dataclasses.fields(SynthConfig)],
        pytest.param({"height": 3}, "mouth box", id="height 3"),
        pytest.param({"width": 3}, "mouth box", id="width 3"),
    ])
    def test_config_size_below_one_rejected(self, sizes, message):
        # at envelope_samples 0, generation died inside numpy; at a frame
        # side of 3 the mouth box rounded to no pixel and every lip mask was 0
        with pytest.raises(ValueError, match=message):
            SynthConfig(**sizes)


class TestIdentitySeparation:
    def test_nearest_centroid_classifier_on_face_crops(self):
        cfg = SynthConfig(identities=32)
        specs = make_corpus_specs(64, 0, cfg)  # two clips per identity
        crops = [crop_face(generate_sample(s, cfg).video[0], EncoderConfig())
                 for s in specs]
        # mean color of the crop center, where the face always sits
        feats = np.stack([c[4:12, 4:12].mean(axis=(0, 1)) for c in crops])
        centroids = feats[:32]
        queries = feats[32:]
        predicted = np.argmin(
            ((queries[:, None, :] - centroids[None, :, :]) ** 2).sum(-1), axis=1)
        accuracy = (predicted == np.arange(32)).mean()
        assert accuracy >= 0.95


class TestCorpusIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        specs = make_corpus_specs(3, 2, CFG)
        originals = [generate_sample(s, CFG) for s in specs]
        write_dataset(specs, tmp_path, CFG)
        loaded, cfg = read_dataset(tmp_path)
        assert cfg == CFG
        assert len(loaded) == 3
        for a, b in zip(originals, loaded):
            assert np.array_equal(a.video, b.video)
            assert np.array_equal(a.envelope, b.envelope)
            assert np.array_equal(a.lip_mask, b.lip_mask)
            assert np.array_equal(a.landmarks, b.landmarks)
            assert np.array_equal(a.joints, b.joints)
            assert np.array_equal(a.fg_mask, b.fg_mask)
            assert a.spec.seed == b.spec.seed
            assert a.spec.omega_l == pytest.approx(b.spec.omega_l)

    def test_stored_layout_is_six_files_per_sample(self, tmp_path):
        cfg = SynthConfig(frames=4, height=16, width=16, envelope_samples=64, identities=2)
        write_dataset(make_corpus_specs(2, 0, cfg), tmp_path, cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == dataclasses.asdict(cfg)
        for record in manifest["samples"]:
            stored = sorted(p.name for p in (tmp_path / record["dir"]).iterdir())
            assert stored == sorted(f"{name}.pft" for name in (
                "video", "envelope", "lip_mask", "landmarks", "joints", "fg_mask"))
            assert sorted(record["checksums"]) == sorted(n[:-4] for n in stored)
        loaded, read_cfg = read_dataset(tmp_path)
        assert read_cfg == cfg and len(loaded) == 2

    def test_corrupted_file_names_the_sample(self, tmp_path):
        write_dataset(make_corpus_specs(2, 0, CFG), tmp_path, CFG)
        victim = tmp_path / "sample_00001" / "video.pft"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="sample_00001"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("key,value,named", [("frames", 16, "video"),
                                                 ("width", 24, "video"),
                                                 ("envelope_samples", 4096, "envelope")])
    def test_manifest_config_must_match_the_arrays(self, tmp_path, key, value, named):
        # unchecked, the config read back contradicts the files it describes
        write_dataset(make_corpus_specs(2, 0, CFG), tmp_path, CFG)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["config"][key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"sample_00000/{named}.pft"):
            read_dataset(tmp_path)

    def test_corpus_generation_speed(self, tmp_path):
        start = time.time()
        write_dataset(make_corpus_specs(256, 0, CFG), tmp_path, CFG)
        assert time.time() - start < 60.0


class TestHelpers:
    def test_per_frame_envelope_means(self):
        env = np.arange(8, dtype=float)
        out = per_frame_envelope(env, 4)
        assert np.allclose(out, [0.5, 2.5, 4.5, 6.5])

    def test_per_frame_envelope_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            per_frame_envelope(np.zeros(2), 4)

    def test_band_limited_walk_in_range(self):
        walk = band_limited_walk(np.random.default_rng(0), 512)
        assert walk.min() >= 0.0 and walk.max() <= 1.0
        # band-limited: successive values move slowly
        assert np.abs(np.diff(walk)).max() < 0.1

    def test_random_scene_spec_identity_cycling(self):
        cfg = SynthConfig(identities=4)
        a = random_scene_spec(0, 1, cfg)
        b = random_scene_spec(0, 5, cfg)  # same identity slot, next cycle
        assert a.identity == b.identity
        assert a.seed != b.seed
