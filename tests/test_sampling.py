"""Guidance algebra, the guided bundle and the Euler loop."""

import dataclasses

import numpy as np
import pytest

from portraitflow import sampling
from portraitflow.encoders import PixelVideo, encode_audio, patchify_video
from portraitflow.model import condition_bundle, model_forward
from portraitflow.numerics import Tensor, no_grad, precision
from portraitflow.sampling import SampleConfig, cfg_velocity, guidance_bundle, sample
from portraitflow.training import build_bundle, prepare_training_tensors
from tiny_configs import TINY_DIT, TINY_ENC


class TestCfgVelocity:
    def test_scale_one_returns_conditional(self):
        rng = np.random.default_rng(0)
        vc, vu = rng.standard_normal(6).astype(np.float32), \
            rng.standard_normal(6).astype(np.float32)
        out = cfg_velocity(vc, vu, 1.0).numpy()
        assert np.abs(out - vc).max() <= 1e-6

    def test_scale_zero_returns_unconditional(self):
        rng = np.random.default_rng(1)
        vc, vu = rng.standard_normal(6).astype(np.float32), \
            rng.standard_normal(6).astype(np.float32)
        out = cfg_velocity(vc, vu, 0.0).numpy()
        assert np.abs(out - vu).max() <= 1e-6

    def test_extrapolation_formula(self):
        vc, vu = np.array([3.0]), np.array([1.0])
        assert cfg_velocity(vc, vu, 4.5).numpy()[0] == pytest.approx(10.0)

    def test_default_scale_is_4_5(self):
        assert SampleConfig().cfg_scale == 4.5
        assert SampleConfig().steps == 30
        assert SampleConfig().omega_l == 0.5 and SampleConfig().omega_b == 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            cfg_velocity(np.zeros(3), np.zeros(4), 1.0)


class TestIntegrateFlow:
    def test_constant_field_recovers_endpoint_for_any_step_count(self, tiny_state,
                                                                 monkeypatch):
        # a constant field v in both rows makes the guided velocity v at any
        # scale, and Euler is exact for it: every step count lands on z1 - v.
        # In float64, so the check is the loop's algebra, not float32 round-off
        state, samples = tiny_state
        field = np.random.default_rng(2).standard_normal(
            (state.dit.video_tokens, state.dit.latent_width))
        starts, ends = [], []

        def constant_forward(z, t, bundle, params, dit):
            if t == 1.0:
                starts.append(z.numpy()[0].copy())
            return Tensor(np.stack([field, field]))

        decode = sampling.unpatchify_video

        def capture(tokens, *args):
            ends.append(np.array(tokens, copy=True))
            return decode(tokens, *args)

        # z0 is the latent the decode receives: swap the decode out, as
        # bench/run.py's sample_pre_clamp does to read the pre-clamp video
        monkeypatch.setattr(sampling, "model_forward", constant_forward)
        monkeypatch.setattr(sampling, "unpatchify_video", capture)
        for steps in (1, 2, 7, 30):
            with precision("f64"):
                sample(samples[0].video[0], samples[0].envelope,
                       SampleConfig(steps=steps, seed=steps), state)
            assert np.abs(ends[-1] - (starts[-1] - field)).max() <= 1e-9, steps
        assert len(starts) == len(ends) == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SampleConfig(steps=0)
        with pytest.raises(ValueError):
            SampleConfig(cfg_scale=-1.0)


class TestSampleConfig:
    def test_motion_coefficient_range_validation(self):
        with pytest.raises(ValueError, match="omega_l"):
            SampleConfig(omega_l=1.2)
        with pytest.raises(ValueError, match="omega_b"):
            SampleConfig(omega_b=-0.1)
        SampleConfig(omega_l=0.0, omega_b=1.0)  # bounds included

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_guidance_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="finite"):
            SampleConfig(cfg_scale=scale)


def test_training_reference_is_the_sampler_reference(tiny_state):
    # training derives each clip's reference latent from its stored latents;
    # the sampler encodes the reference frame: the two must agree exactly
    state, samples = tiny_state
    data = prepare_training_tensors(samples, state.enc_params, TINY_ENC)
    derived = build_bundle(state, data, np.arange(data.count), "clip").reference.numpy()
    for i, clip in enumerate(samples):
        with no_grad():
            pair = guidance_bundle(state, clip.video[0], clip.envelope, SampleConfig())
        assert np.array_equal(derived[i], pair.reference.numpy()[0]), i


def test_sampler_identity_tokens_are_the_training_identity_tokens(tiny_state):
    # the sampler (and eval) encode a frame's identity as training does
    state, samples = tiny_state
    data = prepare_training_tensors(samples, state.enc_params, TINY_ENC)
    for i, clip in enumerate(samples):
        tokens = sampling.identity_tokens(clip.video[0], state).numpy()
        assert tokens.shape == (1, TINY_DIT.n_id, TINY_DIT.width)
        trained = build_bundle(state, data, [i], "frame").identity.numpy()
        assert np.array_equal(tokens, trained), i


class TestGuidancePair:
    @pytest.mark.parametrize("mode", ["clip", "frame"])
    @pytest.mark.parametrize("drop_all", [False, True])
    def test_rows_match_two_single_forwards(self, tiny_state, mode, drop_all):
        # row 0 of the sampler's bundle is the B=1 bundle `condition_bundle`
        # builds, row 1 that bundle dropped by training's rule
        state, samples = tiny_state
        dit, enc, params = state.dit, state.enc, state.params
        frame, envelope = samples[2].video[0], samples[2].envelope
        z = np.random.default_rng(5).standard_normal(
            (1, dit.video_tokens, dit.latent_width)).astype(np.float32)
        with no_grad():
            cond = condition_bundle(
                params, dit, patchify_video(PixelVideo(frame[None]), state.enc_params, enc)[None],
                encode_audio(envelope, state.enc_params, enc)[None],
                sampling.identity_tokens(frame, state), [[0.3, 0.8]], mode)
            uncond = cond.drop([[True], [drop_all], [drop_all]])
            pair = guidance_bundle(state, frame, envelope, SampleConfig(
                omega_l=0.3, omega_b=0.8, mode=mode, drop_all_conditions=drop_all))
            rows = model_forward(Tensor(np.repeat(z, 2, axis=0)), 0.6, pair, params, dit).numpy()
            for row, bundle in zip(rows, (cond, uncond)):
                want = model_forward(Tensor(z), 0.6, bundle, params, dit).numpy()[0]
                assert np.abs(row - want).max() <= 1e-6 * max(1.0, np.abs(want).max())
        assert not np.array_equal(rows[0], rows[1])

    def test_sample_runs_one_model_forward_per_step(self, tiny_state, monkeypatch):
        state, samples = tiny_state
        calls = []

        def counting_forward(*args, **kwargs):
            calls.append(args[0].shape[0])
            return model_forward(*args, **kwargs)

        monkeypatch.setattr(sampling, "model_forward", counting_forward)
        sample(samples[0].video[0], samples[0].envelope, SampleConfig(steps=5, seed=1), state)
        assert calls == [2] * 5


class TestGuidanceGap:
    @staticmethod
    def gaps(state, samples, drop_all=False):
        cfg = SampleConfig(steps=3, seed=2, drop_all_conditions=drop_all)
        return sample(samples[3].video[0], samples[3].envelope, cfg, state)[1]["guidance_gap"]

    @staticmethod
    def with_audio_heads(state, fill):
        params = dict(state.params)
        for i in range(state.dit.depth):
            for name in (f"block{i}.xa.wo", f"block{i}.xa.wo_b"):
                params[name] = Tensor(np.zeros_like(params[name].data))
        params["block0.xa.wo"] = Tensor(fill(params["block0.xa.wo"].shape))
        return dataclasses.replace(state, params=params)

    def test_one_gap_per_step(self, tiny_state):
        state, samples = tiny_state
        gaps = self.gaps(state, samples)
        assert len(gaps) == 3 and all(g > 0.0 for g in gaps)

    def test_zero_without_audio_heads_and_positive_with_one(self, tiny_state):
        # with drop_all_conditions off the two rows differ only in audio,
        # which reaches the output only through the xa.wo heads
        state, samples = tiny_state
        silent = self.with_audio_heads(state, np.zeros)
        assert self.gaps(silent, samples) == [0.0, 0.0, 0.0]
        assert all(g > 0.0 for g in self.gaps(silent, samples, drop_all=True))
        rng = np.random.default_rng(6)
        heard = self.with_audio_heads(state, lambda shape: rng.standard_normal(shape) * 0.1)
        assert all(g > 0.0 for g in self.gaps(heard, samples))


class TestSample:
    def test_deterministic_given_seed(self, tiny_state):
        state, samples = tiny_state
        cfg = SampleConfig(steps=4, seed=9)
        a, _ = sample(samples[0].video[0], samples[0].envelope, cfg, state)
        b, _ = sample(samples[0].video[0], samples[0].envelope, cfg, state)
        assert np.array_equal(a.data, b.data)

    def test_different_seeds_differ(self, tiny_state):
        state, samples = tiny_state
        a, _ = sample(samples[0].video[0], samples[0].envelope,
                      SampleConfig(steps=4, seed=1), state)
        b, _ = sample(samples[0].video[0], samples[0].envelope,
                      SampleConfig(steps=4, seed=2), state)
        assert not np.array_equal(a.data, b.data)

    def test_output_finite_in_range_with_overflow_report(self, tiny_state):
        state, samples = tiny_state
        video, info = sample(samples[1].video[0], samples[1].envelope,
                             SampleConfig(steps=4, seed=0), state)
        assert np.isfinite(video.data).all()
        assert video.data.min() >= 0.0 and video.data.max() <= 1.0
        assert 0.0 <= info["overflow_fraction"] <= 1.0

    def test_mode_defaults_to_trained_stage(self, tiny_state):
        state, samples = tiny_state
        assert state.step > state.train.steps_clip
        _, info = sample(samples[0].video[0], samples[0].envelope,
                         SampleConfig(steps=2, seed=0), state)
        assert info["mode"] == "frame"
        _, info = sample(samples[0].video[0], samples[0].envelope,
                         SampleConfig(steps=2, seed=0, mode="clip"), state)
        assert info["mode"] == "clip"

    @pytest.mark.parametrize("where", ["0", "steps_clip", "steps_clip + 1"])
    def test_default_mode_is_the_stage_of_the_last_trained_step(self, tiny_state, where):
        state, samples = tiny_state
        clip_steps = state.train.steps_clip
        step = {"0": 0, "steps_clip": clip_steps, "steps_clip + 1": clip_steps + 1}[where]
        _, info = sample(samples[0].video[0], samples[0].envelope, SampleConfig(steps=1),
                         dataclasses.replace(state, step=step))
        assert info["mode"] == ("frame" if where == "steps_clip + 1" else "clip")

    def test_drop_all_conditions_only_changes_guided_samples(self, tiny_state):
        # at scale 1 guidance reduces to v_cond, so nulling identity and
        # reference in the unconditional branch cannot change the video
        state, samples = tiny_state

        def video(scale, drop):
            cfg = SampleConfig(steps=4, seed=3, cfg_scale=scale, drop_all_conditions=drop)
            return sample(samples[2].video[0], samples[2].envelope, cfg, state)[0].data

        assert np.abs(video(1.0, True) - video(1.0, False)).max() <= 1e-6
        assert np.abs(video(4.5, True) - video(4.5, False)).max() > 1e-6

    def test_wrong_reference_shape_rejected(self, tiny_state):
        state, samples = tiny_state
        with pytest.raises(ValueError, match="reference frame"):
            sample(np.zeros((8, 8, 3)), samples[0].envelope,
                   SampleConfig(steps=2), state)
