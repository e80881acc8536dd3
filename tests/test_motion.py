"""Motion coefficients and the conditioning network."""

import numpy as np
import pytest

from portraitflow.motion import (
    MotionNorm,
    compute_coefficient,
    init_motion_params,
    motion_embed,
    raw_motion_variance,
)
from portraitflow.numerics import RngState, Tensor, grad_check


class TestComputeCoefficient:
    def test_static_sequence_is_zero(self):
        seq = np.tile(np.array([[0.4, 0.6]]), (5, 1)).reshape(5, 1, 2)
        assert compute_coefficient(seq, MotionNorm(0.0, 1.0)) == 0.0

    def test_corpus_maximum_maps_to_one(self):
        rng = np.random.default_rng(0)
        seq = rng.random((6, 3, 2))
        raw = raw_motion_variance(seq)
        assert compute_coefficient(seq, MotionNorm(0.0, raw)) == 1.0

    def test_hand_computed_two_frame_case(self):
        # (0,0) -> (0.2,0): population variance of x is 0.01, of y is 0;
        # mean over the two coordinates = 0.005
        seq = np.array([[[0.0, 0.0]], [[0.2, 0.0]]])
        assert raw_motion_variance(seq) == pytest.approx(0.005, abs=1e-12)
        coef = compute_coefficient(seq, MotionNorm(0.0, 0.01))
        assert coef == pytest.approx(0.5, abs=1e-9)

    def test_clamped_to_unit_interval(self):
        seq = np.array([[[0.0, 0.0]], [[0.9, 0.9]]])
        assert compute_coefficient(seq, MotionNorm(0.0, 1e-6)) == 1.0

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="frames"):
            raw_motion_variance(np.zeros((1, 2, 2)))

    def test_non_keypoint_sequence_rejected(self):
        for shape in ((4, 2), (4, 3, 3)):
            with pytest.raises(ValueError, match="F,K,2"):
                raw_motion_variance(np.zeros(shape))

    def test_bad_norm_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            MotionNorm(1.0, 1.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        seq = rng.random((8, 4, 2))
        shifted = seq + 0.17
        assert raw_motion_variance(seq) == pytest.approx(
            raw_motion_variance(shifted), rel=1e-9)

    def test_monotone_in_amplitude(self):
        rng = np.random.default_rng(4)
        base = rng.random((8, 4, 2))
        center = base.mean(axis=0, keepdims=True)
        for s in (1.5, 2.0, 4.0):
            scaled = center + s * (base - center)
            assert raw_motion_variance(scaled) >= raw_motion_variance(base)


class TestMotionEmbed:
    def test_zero_final_layer_gives_zero_embedding(self):
        params = init_motion_params(16, RngState(0))  # zero_final default
        out = motion_embed(Tensor([0.3, 0.8]), params)
        assert (out.numpy() == 0.0).all()

    def test_deterministic(self):
        params = init_motion_params(16, RngState(0), zero_final=False)
        a = motion_embed(Tensor([0.2, 0.4]), params).numpy()
        b = motion_embed(Tensor([0.2, 0.4]), params).numpy()
        assert np.array_equal(a, b)

    def test_batched_matches_single(self):
        params = init_motion_params(16, RngState(0), zero_final=False)
        single = motion_embed(Tensor([0.2, 0.9]), params).numpy()
        batched = motion_embed(Tensor([[0.2, 0.9], [0.5, 0.5]]), params).numpy()
        assert np.allclose(batched[0], single, atol=1e-6)

    def test_gradient_wrt_omega_matches_finite_differences(self):
        fixed = init_motion_params(24, RngState(1), zero_final=False)
        params = {"omega": Tensor([0.3, 0.6], requires_grad=True)}
        err = grad_check(lambda p: motion_embed(p["omega"], fixed).square().sum(),
                         params)
        assert err <= 1e-4

    def test_continuity_in_omega(self):
        params = init_motion_params(32, RngState(2), zero_final=False)
        base = motion_embed(Tensor([0.5, 0.5]), params).numpy()
        for delta in (1e-2, 1e-3, 1e-4):
            moved = motion_embed(Tensor([0.5 + delta, 0.5]), params).numpy()
            # Lipschitz-style bound at fixed parameters
            assert np.abs(moved - base).max() <= 10.0 * delta
