"""Backbone contracts: modulation, block algebra, mode equivalence."""

import dataclasses
from itertools import chain

import numpy as np
import pytest

from portraitflow.alignment import block_mask, segment_audio
from portraitflow.model import (
    ZERO_INIT,
    ConditioningBundle,
    DiTConfig,
    condition_bundle,
    cross_attention_increments,
    dit_block,
    init_model_params,
    model_forward,
    param_shapes,
    sinusoidal_features,
    timestep_embedding,
)
from portraitflow.motion import motion_param_shapes
from portraitflow.numerics import RngState, Tensor, attention, bias_name, grad_check
from tiny_configs import TINY_DIT as TINY


def param_count(config: DiTConfig) -> int:
    """Closed-form trainable parameter count; guards architecture drift."""
    c, ca, cm = config.width, config.audio_width, config.mlp_width
    n = 0
    n += (config.latent_width + config.ref_channels) * c + c        # in_proj
    n += config.video_tokens * c + config.audio_tokens * ca         # positions
    n += ca + c                                                     # null embeddings
    n += 2 * (c * c + c)                                            # timestep MLP
    n += c * config.latent_width + config.latent_width              # out_proj
    n += config.n_id * c + 2 * (config.id_feat_width * c + c) + c * c + c   # id encoder head
    n += (2 * c + c) + (c * c + c) + 2 * (c * c + c) + (c * 4 * c + 4 * c)  # motion net
    per_block = (c * 6 * c + 6 * c)                                 # modulation head
    per_block += 4 * (c * c + c)                                    # self-attention
    per_block += 2 * (ca * c + c) + (c * c + c)                     # audio cross
    per_block += 3 * (c * c + c)                                    # identity cross
    per_block += c * cm + cm + cm * c + c                           # mlp
    n += config.depth * per_block
    return n


def make_bundle(config: DiTConfig, params, seed=0, mode="clip", batch=2):
    rng = np.random.default_rng(seed)
    return ConditioningBundle(
        audio=Tensor(rng.standard_normal((batch, config.audio_tokens,
                                          config.audio_width))),
        identity=Tensor(rng.standard_normal((batch, config.n_id, config.width)) * 0.2),
        motion=Tensor(rng.random((batch, 2))),
        reference=Tensor(rng.standard_normal((batch, config.video_tokens,
                                              config.ref_channels)) * 0.2),
        mode=mode,
        mapping=segment_audio(config.audio_tokens, config.latent_frames),
        null_audio=params["null_audio"],
        null_identity=params["null_identity"])


@pytest.fixture(scope="module")
def tiny_params():
    return init_model_params(TINY, RngState(0))


class TestTimestepEmbedding:
    def test_zero_initialized_heads_emit_zero_modulation(self, tiny_params):
        mods = timestep_embedding(0.4, Tensor([0.5, 0.5]), tiny_params, TINY)
        assert len(mods) == TINY.depth
        for mod in mods:
            assert mod.shape == (1, 1, 6 * TINY.width)
            assert (mod.numpy() == 0.0).all()

    def test_distinct_t_values_give_distinct_embeddings(self):
        params = init_model_params(TINY, RngState(0))
        params["block0.mod.w"] = Tensor(np.random.default_rng(6).standard_normal(
            (TINY.width, 6 * TINY.width)) * 0.1, requires_grad=True)
        grid = np.linspace(0.0, 1.0, 64)
        mods = timestep_embedding(grid, Tensor(np.tile([0.5, 0.5], (64, 1))),
                                  params, TINY)
        emb = mods[0].numpy()[:, 0]
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                assert np.abs(emb[i] - emb[j]).max() > 1e-9

    def test_odd_width_pads_the_sinusoids_with_a_zero_column(self):
        grid = np.linspace(0.0, 1.0, 5)
        feats = sinusoidal_features(grid, 7)
        assert feats.shape == (5, 7)
        assert np.array_equal(feats[:, :6], sinusoidal_features(grid, 6))
        assert not feats[:, 6].any()

    def test_sinusoids_injective_on_grid(self):
        grid = np.linspace(0.0, 1.0, 101)
        feats = sinusoidal_features(grid, 16)
        diffs = np.abs(feats[:, None, :] - feats[None, :, :]).max(axis=-1)
        mask = ~np.eye(len(grid), dtype=bool)
        assert diffs[mask].min() > 1e-9

    def test_motion_changes_modulation_when_embedding_nonzero(self):
        from portraitflow.motion import init_motion_params

        params = init_model_params(TINY, RngState(0))
        # live motion pathway and live modulation heads for sensitivity
        params.update(init_motion_params(TINY.width, RngState(5), zero_final=False))
        rng = np.random.default_rng(6)
        for i in range(TINY.depth):
            params[f"block{i}.mod.w"] = Tensor(
                rng.standard_normal((TINY.width, 6 * TINY.width)) * 0.1,
                requires_grad=True)
        mods_a = timestep_embedding(0.3, Tensor([0.1, 0.1]), params, TINY)
        mods_b = timestep_embedding(0.3, Tensor([0.9, 0.9]), params, TINY)
        delta = np.abs(mods_a[0].numpy() - mods_b[0].numpy()).max()
        assert delta > 1e-6

    def test_out_of_range_t_rejected(self, tiny_params):
        for bad in (1.5, float("nan")):
            with pytest.raises(ValueError, match="\\[0, 1\\]"):
                timestep_embedding(bad, Tensor([0.5, 0.5]), tiny_params, TINY)


class TestDitBlock:
    def test_annihilated_branches_give_exact_identity(self):
        config = dataclasses.replace(TINY, lambda_audio=0.0, lambda_identity=0.0)
        params = init_model_params(config, RngState(0))  # gates zero-init
        bundle = make_bundle(config, params)
        mods = timestep_embedding(np.array([0.2, 0.8]), bundle.motion,
                                  params, config)
        z = Tensor(np.random.default_rng(1).standard_normal(
            (2, config.video_tokens, config.width)))
        out = dit_block(z, bundle, mods[0], params, config, 0)
        assert np.array_equal(out.numpy(), z.numpy())

    def test_default_conditioning_weights(self):
        config = DiTConfig()
        assert config.lambda_audio == 1.0
        assert config.lambda_identity == 0.5

    def test_conditioning_is_linear_in_lambda(self, tiny_params):
        # pre-MLP algebra: with zero-init gates the block output is
        # z + la*A + li*B where A, B are the unit-weight increments
        params = tiny_params
        bundle = make_bundle(TINY, params)
        z = Tensor(np.random.default_rng(2).standard_normal(
            (2, TINY.video_tokens, TINY.width)))
        a_inc, i_inc = cross_attention_increments(z, bundle, params, TINY, 0)
        mods = timestep_embedding(np.array([0.2, 0.8]), bundle.motion,
                                  params, TINY)
        for la, li in ((0.0, 1.0), (1.0, 0.5), (2.0, 0.25), (0.3, 0.0)):
            config = dataclasses.replace(TINY, lambda_audio=la, lambda_identity=li)
            out = dit_block(z, bundle, mods[0], params, config, 0)
            expected = z.numpy() + la * a_inc.numpy() + li * i_inc.numpy()
            assert np.abs(out.numpy() - expected).max() <= 1e-5

    def test_frame_mode_equals_masked_clip_attention(self, tiny_params):
        params = tiny_params
        for seed in range(5):
            bundle = make_bundle(TINY, params, seed=seed, mode="frame")
            z = Tensor(np.random.default_rng(seed).standard_normal(
                (2, TINY.video_tokens, TINY.width)))
            frame_inc, _ = cross_attention_increments(z, bundle, params, TINY, 1)

            # oracle: full-length attention under the block mask, one
            # head per [B x H x n x d] slice
            b, heads, d = "block1.", TINY.heads, TINY.head_dim

            def split(x):
                return x.reshape(2, x.shape[1], heads, d).transpose((0, 2, 1, 3))

            q = split(z @ params[b + "attn.wq"] + params[b + "attn.wq_b"])
            audio = bundle.audio + params["pos_audio"]
            ak = split(audio @ params[b + "xa.wk"] + params[b + "xa.wk_b"])
            av = split(audio @ params[b + "xa.wv"] + params[b + "xa.wv_b"])
            mask = block_mask(bundle.mapping, TINY.latent_h, TINY.latent_w)
            att = attention(q, ak, av, mask).transpose((0, 2, 1, 3))
            att = att.reshape(2, TINY.video_tokens, TINY.width)
            oracle = att @ params[b + "xa.wo"] + params[b + "xa.wo_b"]
            assert np.abs(frame_inc.numpy() - oracle.numpy()).max() <= 1e-5

    def test_null_audio_makes_output_independent_of_audio(self, tiny_params):
        params = tiny_params
        audio_only = np.array([[True], [False], [False]])
        bundle_a = make_bundle(TINY, params, seed=3).drop(audio_only)
        bundle_b = make_bundle(TINY, params, seed=4).drop(audio_only)
        z = Tensor(np.random.default_rng(5).standard_normal(
            (2, TINY.video_tokens, TINY.width)))
        inc_a, _ = cross_attention_increments(z, bundle_a, params, TINY, 0)
        inc_b, _ = cross_attention_increments(z, bundle_b, params, TINY, 0)
        assert np.array_equal(inc_a.numpy(), inc_b.numpy())


class TestConditioningBundle:
    def test_drop_rows_broadcast_over_batch(self, tiny_params):
        bundle = make_bundle(TINY, tiny_params, batch=3)
        for rows in ([True, False, True], [False, True, False]):
            column = np.array(rows)[:, None]
            narrow = bundle.drop(column)
            full = bundle.drop(np.tile(column, (1, 3)))
            for name in ("audio", "identity", "reference"):
                assert np.array_equal(getattr(narrow, name).numpy(),
                                      getattr(full, name).numpy())

    def test_condition_bundle_applies_the_shared_rules(self, tiny_params):
        # the reference is frame 0's h*w token rows, tiled over the latent
        # frames; the audio map and the null embeddings are not per caller
        rng = np.random.default_rng(4)
        hw = TINY.latent_h * TINY.latent_w
        latents = rng.standard_normal((2, TINY.video_tokens, TINY.latent_width)
                                      ).astype(np.float32)
        audio = rng.standard_normal((2, TINY.audio_tokens, TINY.audio_width))
        identity = Tensor(rng.standard_normal((2, TINY.n_id, TINY.width)))
        motion = rng.random((2, 2))
        bundle = condition_bundle(tiny_params, TINY, latents, audio, identity, motion,
                                  "frame")
        assert np.array_equal(bundle.reference.numpy(),
                              np.concatenate([latents[:, :hw]] * TINY.latent_frames, axis=1))
        assert bundle.mapping == segment_audio(TINY.audio_tokens, TINY.latent_frames)
        assert bundle.null_audio is tiny_params["null_audio"]
        assert bundle.null_identity is tiny_params["null_identity"]
        assert bundle.identity is identity and bundle.mode == "frame"
        assert np.array_equal(bundle.audio.numpy(), audio.astype(np.float32))
        assert np.array_equal(bundle.motion.numpy(), motion.astype(np.float32))

    def test_bundle_is_a_frozen_value_of_its_init_fields(self, tiny_params):
        bundle = make_bundle(TINY, tiny_params)
        assert [f.name for f in dataclasses.fields(ConditioningBundle)] == [
            "audio", "identity", "motion", "reference", "mode", "mapping",
            "null_audio", "null_identity"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            bundle.audio = bundle.null_audio

    def test_unknown_mode_rejected(self, tiny_params):
        bundle = make_bundle(TINY, tiny_params)
        with pytest.raises(ValueError, match="unknown audio scoping mode 'frames'"):
            dataclasses.replace(bundle, mode="frames")

    def test_frame_mode_needs_equal_length_segments(self, tiny_params):
        # segments of 3, 2, 3 and 2 tokens cannot be one attention block per frame
        bundle = make_bundle(TINY, tiny_params)
        uneven = segment_audio(10, 4)
        with pytest.raises(ValueError, match="equal-length"):
            dataclasses.replace(bundle, mode="frame", mapping=uneven)
        assert dataclasses.replace(bundle, mode="clip", mapping=uneven).mapping == uneven


class TestModelForward:
    def test_output_shape_matches_latent_tokens(self, tiny_params):
        bundle = make_bundle(TINY, tiny_params)
        z = Tensor(np.zeros((2, TINY.video_tokens, TINY.latent_width)))
        out = model_forward(z, np.array([0.1, 0.9]), bundle, tiny_params, TINY)
        assert out.shape == (2, TINY.video_tokens, TINY.latent_width)

    def test_width_must_be_heads_times_head_dim(self):
        with pytest.raises(ValueError, match="width 16 != heads 2 x head_dim 4"):
            dataclasses.replace(TINY, head_dim=4)

    def test_unbatched_input_rejected(self, tiny_params):
        bundle = make_bundle(TINY, tiny_params, batch=1)
        z = Tensor(np.random.default_rng(0).standard_normal(
            (TINY.video_tokens, TINY.latent_width)))
        with pytest.raises(ValueError, match="tokens"):
            model_forward(z, 0.5, bundle, tiny_params, TINY)

    def test_deterministic(self, tiny_params):
        bundle = make_bundle(TINY, tiny_params)
        z = Tensor(np.random.default_rng(1).standard_normal(
            (2, TINY.video_tokens, TINY.latent_width)))
        a = model_forward(z, np.array([0.3, 0.6]), bundle, tiny_params, TINY).numpy()
        b = model_forward(z, np.array([0.3, 0.6]), bundle, tiny_params, TINY).numpy()
        assert np.array_equal(a, b)

    def test_wrong_token_count_rejected(self, tiny_params):
        bundle = make_bundle(TINY, tiny_params)
        z = Tensor(np.zeros((2, 7, TINY.latent_width)))
        with pytest.raises(ValueError, match="tokens"):
            model_forward(z, 0.5, bundle, tiny_params, TINY)

    def test_parameter_count_matches_closed_form(self):
        for config in (TINY, DiTConfig()):
            params = init_model_params(config, RngState(0))
            assert sum(p.size for p in params.values()) == param_count(config)

    def test_one_init_rule_builds_the_table(self):
        # every tensor is built with its table shape, and is all zeros
        # exactly when it is a bias, a ZERO_INIT head or the motion expansion;
        # the biases, named by `bias_name`, are the table's 1-D tensors
        for config in (TINY, DiTConfig()):
            params = init_model_params(config, RngState(0))
            table = dict(chain(param_shapes(config), motion_param_shapes(config.width)))
            assert {n: p.shape for n, p in params.items()} == table
            biases = {bias_name(n) for n in table} & set(table)
            assert biases == {n for n, shape in table.items() if len(shape) == 1}
            for name, p in params.items():
                zero = name in biases or name.endswith(("motion.expand.w",) + ZERO_INIT)
                assert (not p.data.any()) == zero, name

    def test_end_to_end_gradient_check(self, tiny_params):
        # full model loss vs central differences at f64, sampled coords
        rng = np.random.default_rng(7)
        z = rng.standard_normal((1, TINY.video_tokens, TINY.latent_width))
        target = rng.standard_normal(z.shape)
        audio = rng.standard_normal((1, TINY.audio_tokens, TINY.audio_width))
        identity = rng.standard_normal((1, TINY.n_id, TINY.width)) * 0.2
        reference = rng.standard_normal((1, TINY.video_tokens, TINY.ref_channels)) * 0.2
        omega = rng.random((1, 2))

        def live_params():
            params = init_model_params(TINY, RngState(3))
            from portraitflow.motion import init_motion_params
            params.update(init_motion_params(TINY.width, RngState(4),
                                             zero_final=False))
            gen = np.random.default_rng(8)
            for i in range(TINY.depth):
                for tail in ("mod.w", "xa.wo", "xid.wo"):
                    name = f"block{i}.{tail}"
                    params[name] = Tensor(
                        gen.standard_normal(params[name].shape) * 0.05,
                        requires_grad=True)
            params["out_proj.w"] = Tensor(
                gen.standard_normal(params["out_proj.w"].shape) * 0.05,
                requires_grad=True)
            return params

        def loss_fn(params):
            bundle = ConditioningBundle(
                audio=Tensor(audio), identity=Tensor(identity),
                motion=Tensor(omega), reference=Tensor(reference),
                mode="frame",
                mapping=segment_audio(TINY.audio_tokens, TINY.latent_frames),
                null_audio=params["null_audio"],
                null_identity=params["null_identity"])
            out = model_forward(Tensor(z), np.array([0.35]), bundle, params, TINY)
            return (out - Tensor(target)).square().mean()

        err = grad_check(loss_fn, live_params(), max_coords_per_param=2,
                         rng=RngState(11))
        assert err <= 1e-4
