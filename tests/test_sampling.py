"""Guidance algebra and flow integration."""

import numpy as np
import pytest

from portraitflow.encoders import EncoderConfig
from portraitflow.model import DiTConfig
from portraitflow.sampling import (
    SampleConfig,
    cfg_velocity,
    checkpoint_mode,
    integrate_flow,
    sample,
)
from portraitflow.synthdata import SynthConfig, generate_sample, make_corpus_specs
from portraitflow.training import TrainConfig, init_trainer, prepare_training_tensors, train_step

TINY_ENC = EncoderConfig(frames=4, height=16, width=16, patch=8,
                         tokens_per_frame=2, samples_per_token=8,
                         audio_width=8, crop_row=0, crop_col=0, crop_size=16,
                         id_feat_width=8)
TINY_DIT = DiTConfig.for_encoders(TINY_ENC, depth=2, width=16, heads=2,
                                  head_dim=8, n_id=2)
TINY_SYNTH = SynthConfig(frames=4, height=16, width=16, envelope_samples=64,
                         identities=4, crop_row=0, crop_col=0, crop_size=16)


@pytest.fixture(scope="module")
def tiny_state():
    samples = [generate_sample(s, TINY_SYNTH)
               for s in make_corpus_specs(4, 0, TINY_SYNTH)]
    cfg = TrainConfig(steps_clip=3, steps_frame=2, batch_size=2, seed=1)
    state = init_trainer(TINY_DIT, TINY_ENC, cfg, samples)
    data = prepare_training_tensors(samples, state.enc_params, TINY_ENC)
    for step in range(cfg.total_steps):
        train_step(state, data, step)
    return state, samples


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
    def test_single_step_euler(self):
        z1 = np.array([4.0, -2.0])
        vel = np.array([1.0, 3.0])
        out = integrate_flow(z1, lambda z, t: vel, steps=1)
        assert np.allclose(out, z1 - vel)

    def test_constant_field_recovers_endpoint_for_any_step_count(self):
        # velocity eps - z of the straight path is constant along it, so
        # Euler is exact: starting at eps, every step count lands on z
        rng = np.random.default_rng(2)
        z = rng.standard_normal((3, 4))
        eps = rng.standard_normal((3, 4))
        field = eps - z
        for steps in (1, 2, 7, 30):
            out = integrate_flow(eps.copy(), lambda y, t: field, steps)
            assert np.abs(out - z).max() <= 1e-9

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
        assert checkpoint_mode(state) == "frame"
        _, info = sample(samples[0].video[0], samples[0].envelope,
                         SampleConfig(steps=2, seed=0), state)
        assert info["mode"] == "frame"
        _, info = sample(samples[0].video[0], samples[0].envelope,
                         SampleConfig(steps=2, seed=0, mode="clip"), state)
        assert info["mode"] == "clip"

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
