"""Audio segmentation, block masks, trilinear projection."""

import numpy as np
import pytest

from portraitflow.alignment import (
    AudioVideoMap,
    block_mask,
    project_mask_trilinear,
    segment_audio,
)
from portraitflow.numerics import Tensor, attention


class TestSegmentAudio:
    def test_even_division(self):
        assert segment_audio(16, 4).boundaries == (0, 4, 8, 12, 16)

    def test_identity_mapping(self):
        m = segment_audio(6, 6)
        assert m.segment_lengths() == (1,) * 6

    def test_half_up_rounding(self):
        # round(i*10/4) for i=0..4 with ties rounded half up
        assert segment_audio(10, 4).boundaries == (0, 3, 5, 8, 10)

    def test_too_few_audio_tokens(self):
        with pytest.raises(ValueError, match="no audio token"):
            segment_audio(3, 4)

    def test_partition_is_exact_for_all_small_sizes(self):
        # exhaustive: segments partition [0, l) for 1 <= f <= l <= 64
        for l in range(1, 65):
            for f in range(1, l + 1):
                m = segment_audio(l, f)
                assert m.boundaries[0] == 0
                assert m.boundaries[-1] == l
                lengths = m.segment_lengths()
                assert all(n >= 1 for n in lengths)
                assert sum(lengths) == l


class TestBlockMask:
    def test_single_frame_mask_is_all_zero(self):
        m = block_mask(segment_audio(5, 1), 2, 2).numpy()
        assert (m == 0.0).all()

    def test_identity_pattern(self):
        m = block_mask(segment_audio(3, 3), 1, 1).numpy()
        expected = np.where(np.eye(3) > 0, 0.0, -np.inf)
        assert np.array_equal(m, expected)

    def test_masked_clip_attention_equals_per_frame_attention(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            f, h, w, l, d = 3, 2, 2, 7, 4
            mapping = segment_audio(l, f)
            q = Tensor(rng.standard_normal((f * h * w, d)))
            k = Tensor(rng.standard_normal((l, d)))
            v = Tensor(rng.standard_normal((l, d)))
            full = attention(q, k, v, block_mask(mapping, h, w)).numpy()
            parts = []
            for i in range(f):
                lo, hi = mapping.boundaries[i], mapping.boundaries[i + 1]
                parts.append(attention(q.narrow(0, i * h * w, h * w),
                                       k.narrow(0, lo, hi - lo),
                                       v.narrow(0, lo, hi - lo)).numpy())
            assert np.abs(full - np.concatenate(parts, axis=0)).max() <= 1e-5


class TestTrilinearProjection:
    def test_constants_preserved_exactly(self):
        for value in (0.0, 1.0, 0.37):
            pix = np.full((8, 16, 16), value)
            out = project_mask_trilinear(pix, 4, 4, 4)
            assert (out == value).all()

    def test_hand_computed_two_times_downsampling(self):
        # 2x2x2 block of ones at [1:3,1:3,1:3] inside a 4x4x4 zero grid,
        # downsampled 2x. Each latent cell center lands halfway between
        # source cells, so each of the 8 neighbors carries weight 1/8;
        # exactly one neighbor of each latent cell is inside the block.
        pix = np.zeros((4, 4, 4))
        pix[1:3, 1:3, 1:3] = 1.0
        out = project_mask_trilinear(pix, 2, 2, 2)
        assert np.abs(out - 0.125).max() <= 1e-6

    def test_identity_when_sizes_match(self):
        rng = np.random.default_rng(2)
        pix = rng.random((4, 6, 6))
        out = project_mask_trilinear(pix, 4, 6, 6)
        assert np.allclose(out, pix)

    def test_monotone_in_the_pixel_mask(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            base = rng.random((6, 8, 8))
            bigger = np.clip(base + rng.random((6, 8, 8)) * 0.5, 0.0, 1.0)
            a = project_mask_trilinear(base, 3, 4, 4)
            b = project_mask_trilinear(bigger, 3, 4, 4)
            assert (b >= a - 1e-12).all()

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(4)
        out = project_mask_trilinear(rng.random((8, 32, 32)), 8, 4, 4)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_pixel_grid_smaller_than_latent_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            project_mask_trilinear(np.zeros((2, 4, 4)), 4, 4, 4)


def test_map_validation():
    with pytest.raises(ValueError, match="nondecreasing"):
        AudioVideoMap(frames=2, boundaries=(0, 3, 2))
    with pytest.raises(ValueError, match="start at 0"):
        AudioVideoMap(frames=1, boundaries=(1, 2))
    with pytest.raises(ValueError, match="boundaries"):
        AudioVideoMap(frames=2, boundaries=(0, 1))
