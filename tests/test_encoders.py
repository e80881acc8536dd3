"""Patchifier, audio featurizer, identity encoder."""

import numpy as np
import pytest

from portraitflow.encoders import (
    EncoderConfig,
    EncoderParams,
    PixelVideo,
    audio_window_features,
    crop_face,
    encode_audio,
    identity_attend,
    identity_conv_features,
    init_encoder_params,
    patchify_video,
    unpatchify_video,
)
from portraitflow.numerics import RngState, Tensor


@pytest.fixture
def enc16():
    return EncoderConfig(frames=8, height=16, width=16, patch=4)


@pytest.fixture
def params16(enc16):
    return init_encoder_params(enc16, RngState(0))


class TestPatchify:
    def test_stride_arithmetic(self, enc16, params16):
        video = PixelVideo(np.zeros((8, 16, 16, 3), dtype=np.float32))
        tokens = patchify_video(video, params16, enc16)
        assert tokens.shape == (8 * 4 * 4, enc16.patch_dim)
        assert tokens.dtype == np.float32

    def test_zero_video_zero_bias_gives_zero_tokens(self, enc16, params16):
        video = PixelVideo(np.zeros((8, 16, 16, 3), dtype=np.float32))
        assert (patchify_video(video, params16, enc16) == 0.0).all()

    def test_identity_embedding_round_trip_exact(self, enc16, params16):
        rng = np.random.default_rng(0)
        video = PixelVideo(rng.random((8, 16, 16, 3)).astype(np.float32))
        tokens = patchify_video(video, params16, enc16)
        back = unpatchify_video(tokens, params16, enc16, 8, 4, 4)
        assert np.array_equal(back.data, video.data)

    def test_frame_major_layout(self, enc16, params16):
        # token index f*(h*w) + r*w + c holds exactly frame f's patch (r, c)
        video = np.zeros((8, 16, 16, 3), dtype=np.float32)
        video[3, 8:12, 4:8, :] = 1.0  # frame 3, patch row 2, patch col 1
        tokens = patchify_video(PixelVideo(video), params16, enc16)
        hot = np.flatnonzero(np.abs(tokens).sum(axis=1))
        assert hot.tolist() == [3 * 16 + 2 * 4 + 1]

    def test_indivisible_dimensions_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(height=30, width=32, patch=8)
        cfg = EncoderConfig(frames=8, height=16, width=16, patch=4)
        params = init_encoder_params(cfg, RngState(0))
        with pytest.raises(ValueError, match="divisible"):
            patchify_video(PixelVideo(np.zeros((8, 18, 16, 3))), params, cfg)

    def test_latent_invariants(self):
        cfg = EncoderConfig()
        assert cfg.latent_frames == cfg.frames
        assert cfg.latent_h == cfg.height // cfg.patch
        assert cfg.latent_w == cfg.width // cfg.patch


class TestEncodeAudio:
    def test_constant_zero_envelope_gives_identical_tokens(self, enc16, params16):
        env = np.zeros(enc16.audio_tokens * enc16.samples_per_token)
        tokens = encode_audio(env, params16, enc16)
        assert np.allclose(tokens, tokens[0])

    def test_impulse_locality(self, enc16, params16):
        spt = enc16.samples_per_token
        base = np.zeros(enc16.audio_tokens * spt)
        for j in (0, spt - 1, 3 * spt + 7):
            env = base.copy()
            env[j] = 1.0
            tokens = encode_audio(env, params16, enc16)
            ref = encode_audio(base, params16, enc16)
            changed = np.flatnonzero(np.abs(tokens - ref).sum(axis=1))
            assert changed.tolist() == [j // spt]

    def test_sine_envelope_energy_matches_windowed_rms_oracle(self, enc16):
        spt, l = enc16.samples_per_token, enc16.audio_tokens
        env = np.sin(np.linspace(0, 20 * np.pi, l * spt)) * 0.5 + 0.5
        feats = audio_window_features(env, l, spt)
        # independent oracle: brute-force RMS per window
        oracle = np.array([np.sqrt(np.mean(env[i * spt:(i + 1) * spt] ** 2))
                           for i in range(l)])
        assert np.abs(feats[:, 2] - oracle).max() < 1e-12

    def test_window_mean_feature(self, enc16):
        spt, l = enc16.samples_per_token, enc16.audio_tokens
        env = np.arange(l * spt, dtype=float)
        feats = audio_window_features(env, l, spt)
        oracle = env.reshape(l, spt).mean(axis=1)
        assert np.allclose(feats[:, 0], oracle)

    def test_envelope_too_short_rejected(self, enc16, params16):
        with pytest.raises(ValueError, match="samples"):
            encode_audio(np.zeros(10), params16, enc16)

    def test_perturbing_window_changes_only_its_token(self, enc16, params16):
        rng = np.random.default_rng(1)
        spt = enc16.samples_per_token
        env = rng.random(enc16.audio_tokens * spt)
        env2 = env.copy()
        env2[5 * spt:6 * spt] += rng.random(spt)
        a = encode_audio(env, params16, enc16)
        b = encode_audio(env2, params16, enc16)
        changed = np.flatnonzero(np.abs(a - b).sum(axis=1))
        assert changed.tolist() == [5]


def _id_head_params(rng, c_feat=16, c=32, n_id=4, zero_bias=True):
    gen = np.random.default_rng(rng)
    mk = lambda shape: Tensor(gen.standard_normal(shape) * 0.1, requires_grad=True)
    zeros = lambda shape: Tensor(np.zeros(shape), requires_grad=True)
    return {
        "id.queries": mk((n_id, c)),
        "id.wk": mk((c_feat, c)), "id.wk_b": zeros(c),
        "id.wv": mk((c_feat, c)), "id.wv_b": zeros(c),
        "id.wo": mk((c, c)), "id.wo_b": zeros(c),
    }


def _encode_identity(crop, enc, head, cfg):
    return identity_attend(Tensor(identity_conv_features(crop, enc, cfg)), head).numpy()


class TestEncodeIdentity:
    def test_identical_crops_give_identical_tokens(self):
        cfg = EncoderConfig()
        enc = init_encoder_params(cfg, RngState(0))
        head = _id_head_params(0)
        crop = np.random.default_rng(2).random((16, 16, 3))
        a = _encode_identity(crop, enc, head, cfg)
        b = _encode_identity(crop.copy(), enc, head, cfg)
        assert np.array_equal(a, b)

    def test_zero_crop_zero_bias_gives_equal_outputs(self):
        cfg = EncoderConfig()
        enc = init_encoder_params(cfg, RngState(0))
        head = _id_head_params(0)
        tokens = _encode_identity(np.zeros((16, 16, 3)), enc, head, cfg)
        # constant features -> every query sees the same keys/values mix
        assert np.allclose(tokens - tokens[0], 0.0, atol=1e-7)

    def test_wrong_crop_size_rejected(self):
        cfg = EncoderConfig()
        enc = init_encoder_params(cfg, RngState(0))
        with pytest.raises(ValueError, match="crop"):
            identity_conv_features(np.zeros((8, 8, 3)), enc, cfg)

    def test_crop_region_bounds(self):
        cfg = EncoderConfig()
        with pytest.raises(ValueError, match="crop box"):
            crop_face(np.zeros((8, 8, 3)), cfg)

    def test_same_identity_crops_are_closer_than_cross_identity(self):
        # separation property measured on the synthetic corpus; the
        # frozen conv dominates, the trained head preserves it
        from portraitflow.synthdata import SynthConfig, generate_sample, make_corpus_specs

        cfg = EncoderConfig()
        enc = init_encoder_params(cfg, RngState(0))
        head = _id_head_params(0, c_feat=cfg.id_feat_width, c=64)
        synth = SynthConfig(identities=32)
        specs = make_corpus_specs(64, 7, synth)  # two clips per identity
        embeds, labels = [], []
        for i, spec in enumerate(specs):
            sample = generate_sample(spec, synth)
            crop = crop_face(sample.video[0], cfg)
            embeds.append(_encode_identity(crop, enc, head, cfg).ravel())
            labels.append(i % synth.identities)
        embeds = np.stack(embeds)
        embeds /= np.linalg.norm(embeds, axis=1, keepdims=True)
        cosine = embeds @ embeds.T
        labels = np.asarray(labels)
        same = labels[:, None] == labels[None, :]
        off_diag = ~np.eye(len(labels), dtype=bool)
        same_mean = cosine[same & off_diag].mean()
        cross_mean = cosine[~same].mean()
        assert same_mean > cross_mean
