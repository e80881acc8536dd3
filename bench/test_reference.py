"""Fast tests for the benchmark's own reference code and tracer, on a tiny
model. Run from the repository root:

    python3 -m pytest -q bench/test_reference.py
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

from portraitflow.alignment import segment_audio  # noqa: E402
from portraitflow.encoders import (  # noqa: E402
    EncoderConfig,
    audio_window_features,
    extract_patches,
    init_encoder_params,
)
from portraitflow.evalmetrics import dynamics_proxy, mask_bounding_box, sync_proxy  # noqa: E402
from portraitflow.model import (  # noqa: E402
    ConditioningBundle,
    DiTConfig,
    init_model_params,
    model_forward,
)
from portraitflow.motion import MotionNorm  # noqa: E402
from portraitflow.numerics import RngState, Tensor, precision  # noqa: E402
from portraitflow.sampling import SampleConfig, sample  # noqa: E402
from portraitflow.training import Adam, TrainConfig, TrainerState  # noqa: E402

TINY_ENC = EncoderConfig(frames=4, height=16, width=16, patch=8,
                         tokens_per_frame=2, samples_per_token=8,
                         audio_width=8, crop_row=0, crop_col=0, crop_size=16,
                         id_feat_width=8)
TINY_DIT = DiTConfig.for_encoders(TINY_ENC, depth=2, width=16, heads=2,
                                  head_dim=8, n_id=2)


def tiny_state(seed=0):
    state = TrainerState(
        dit=TINY_DIT, enc=TINY_ENC, train=TrainConfig(),
        params=init_model_params(TINY_DIT, RngState(seed)),
        enc_params=init_encoder_params(TINY_ENC, RngState(seed)),
        opt=Adam(1e-4), norm_facial=MotionNorm(0.0, 1.0), norm_body=MotionNorm(0.0, 1.0))
    run.fill_zero_heads(state, seed)
    return state


def tiny_clip(seed=0):
    gen = np.random.default_rng(seed)
    return types.SimpleNamespace(
        video=gen.random((TINY_ENC.frames, TINY_ENC.height, TINY_ENC.width, 3)).astype(np.float32),
        envelope=gen.random(TINY_ENC.audio_tokens * TINY_ENC.samples_per_token))


@pytest.mark.parametrize("mode", ["clip", "frame"])
def test_dit_forward_matches_model_forward_in_float64(mode):
    state = tiny_state(1)
    gen = np.random.default_rng(2)
    z = gen.standard_normal((2, TINY_DIT.video_tokens, TINY_DIT.latent_width))
    audio = gen.standard_normal((2, TINY_DIT.audio_tokens, TINY_DIT.audio_width))
    identity = gen.standard_normal((2, TINY_DIT.n_id, TINY_DIT.width)) * 0.3
    motion = gen.random((2, 2))
    ref = gen.standard_normal((2, TINY_DIT.video_tokens, TINY_DIT.ref_channels)) * 0.3
    t = np.array([0.9, 0.2])
    with precision("f64"):
        params = {k: Tensor(v.data.astype(np.float64)) for k, v in state.params.items()}
        bundle = ConditioningBundle(
            audio=Tensor(audio), identity=Tensor(identity), motion=Tensor(motion),
            reference=Tensor(ref), mode=mode,
            mapping=segment_audio(TINY_DIT.audio_tokens, TINY_DIT.latent_frames),
            null_audio=params["null_audio"], null_identity=params["null_identity"])
        got = model_forward(Tensor(z), t, bundle, params, TINY_DIT).numpy()
    want = reference.dit_forward(z, t, audio, identity, motion, ref, mode,
                                 {k: v.data for k, v in params.items()}, TINY_DIT)
    assert np.abs(want).max() > 0.1          # the filled heads make the output non-trivial
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_modes_differ_and_mask_follows_segmentation():
    for l, f in ((32, 8), (10, 4), (7, 3), (5, 5)):
        assert reference.segment_boundaries(l, f) == list(segment_audio(l, f).boundaries)
    mask = reference.frame_block_mask(2, 3, 4)
    assert (mask[:3, :2] == 0).all() and np.isneginf(mask[:3, 2:]).all()
    state = tiny_state(4)
    p = {k: v.data for k, v in state.params.items()}
    gen = np.random.default_rng(5)
    args = (gen.standard_normal((1, TINY_DIT.video_tokens, TINY_DIT.latent_width)), 0.5,
            gen.standard_normal((1, TINY_DIT.audio_tokens, TINY_DIT.audio_width)),
            gen.standard_normal((1, TINY_DIT.n_id, TINY_DIT.width)), gen.random((1, 2)),
            gen.standard_normal((1, TINY_DIT.video_tokens, TINY_DIT.ref_channels)))
    clip = reference.dit_forward(*args, "clip", p, TINY_DIT)
    frame = reference.dit_forward(*args, "frame", p, TINY_DIT)
    assert np.abs(clip - frame).max() > 1e-6


def test_euler_cfg_closed_forms():
    z1 = np.random.default_rng(0).standard_normal((3, 4))
    v_c, v_u = np.full((3, 4), 0.7), np.full((3, 4), -0.2)
    z0 = reference.euler_cfg(z1, lambda z, t: (v_c, v_u), steps=7, scale=4.5)
    np.testing.assert_allclose(z0, z1 - (v_u + 4.5 * (v_c - v_u)), atol=1e-12)
    # dz/dt = a z: each Euler step from t to t - dt multiplies by (1 - a dt)
    times = []
    z0 = reference.euler_cfg(z1, lambda z, t: (times.append(t) or 0.3 * z, 0.0 * z),
                             steps=10, scale=2.0)
    np.testing.assert_allclose(z0, z1 * (1 - 0.6 / 10) ** 10, rtol=1e-12)
    np.testing.assert_allclose(times, 1.0 - np.arange(10) / 10)


@pytest.mark.parametrize("mode", ["clip", "frame"])
def test_sample_matches_reference_loop_on_tiny_model(mode):
    state = tiny_state(6)
    clip = tiny_clip(7)
    cfg = SampleConfig(steps=6, mode=mode, seed=11, omega_l=0.3, omega_b=0.8)
    video, decoded = run.sample_pre_clamp(clip, cfg, state)
    np.testing.assert_array_equal(video.data, np.clip(decoded, 0.0, 1.0))
    unwrapped, _ = sample(clip.video[0], clip.envelope, cfg, state)
    np.testing.assert_array_equal(video.data, unwrapped.data)
    checks = run.Checks()
    run.check_against_reference_loop(state, clip, cfg, decoded, checks)
    assert checks.all_passed, checks.results
    # and the check notices a wrong video
    checks = run.Checks()
    run.check_against_reference_loop(state, clip, cfg, decoded * 0.5, checks)
    assert not checks.all_passed


def test_patch_and_audio_features_match_package():
    gen = np.random.default_rng(3)
    video = gen.random((TINY_ENC.frames, TINY_ENC.height, TINY_ENC.width, 3))
    patches = reference.patchify(video, TINY_ENC.patch)
    np.testing.assert_array_equal(patches, extract_patches(video, TINY_ENC))
    back = reference.unpatchify(patches, TINY_ENC.frames, TINY_ENC.height, TINY_ENC.width,
                                TINY_ENC.patch)
    np.testing.assert_array_equal(back, video)
    env = gen.random(100)
    np.testing.assert_allclose(reference.audio_features(env, 6, 16),
                               audio_window_features(env, 6, 16), atol=1e-14)


def test_proxy_metrics():
    gen = np.random.default_rng(9)
    frames = 8
    envelope = gen.random(frames * 32)
    drive = reference.frame_envelope(envelope, frames)
    lip = np.zeros((frames, 12, 12))
    lip[:, 4:7, 5:9] = 1
    video = gen.random((frames, 12, 12, 3)) * 0.1
    video[:, 4:7, 5:9] = (0.2 + 0.5 * drive)[:, None, None, None]
    assert reference.mask_box(lip) == (4, 7, 5, 9)
    assert abs(reference.sync_r(video, envelope, lip) - 1.0) < 1e-12

    fg = np.zeros((frames, 12, 12))
    fg[:, :6] = 1
    still = np.repeat(gen.random((1, 12, 12, 3)), frames, axis=0)
    still[::2, :6] += 0.25          # the foreground flickers by 0.25 every frame
    assert reference.dynamics(still, fg) == pytest.approx((0.25, 0.0), abs=1e-12)

    noisy = gen.random((frames, 12, 12, 3))
    r, _ = sync_proxy(noisy, drive, mask_bounding_box(lip))
    assert abs(reference.sync_r(noisy, envelope, lip) - r) < 1e-12
    assert reference.dynamics(noisy, fg) == pytest.approx(dynamics_proxy(noisy, fg.max(axis=0)),
                                                          abs=1e-12)


def test_tracer_breakdown_self_time_and_restore():
    holder = types.SimpleNamespace(leaf=lambda x: x + 1)
    holder.inner = lambda x: holder.leaf(x) * 2
    tracer = Tracer()
    tracer.wrap(holder, "leaf", "leaf")
    tracer.wrap(holder, "inner", "inner")
    for _ in range(3):
        with tracer.span("op"):
            assert holder.inner(1) == 4
            tracer.add("things", 5)
    rows = tracer.breakdown(("op",))
    assert len(rows) == 3
    assert all(r["inner#calls"] == 1 and r["leaf#calls"] == 1 and r["things"] == 5 for r in rows)
    assert all(r["op"] >= r["inner"] >= r["leaf"] > 0 for r in rows)
    summary = tracer.summary()
    assert summary["op"]["calls"] == 3
    assert summary["inner"]["self_ms"] == pytest.approx(
        summary["inner"]["inclusive_ms"] - summary["leaf"]["inclusive_ms"])
    with tracer.paused():
        assert holder.inner(1) == 4
    assert len(tracer.spans) == 9 and tracer.enabled
    tracer.restore()
    assert holder.inner(1) == 4 and not tracer.breakdown(("missing",))
    assert len(tracer.spans) == 9
