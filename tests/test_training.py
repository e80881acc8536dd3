"""Objective, gated loss, dropout, optimizer, and the two-stage loop."""

import dataclasses

import numpy as np
import pytest

from portraitflow.alignment import segment_audio
from portraitflow.encoders import EncoderConfig
from portraitflow.model import ConditioningBundle, DiTConfig, init_model_params
from portraitflow.numerics import RngState, Tensor
from portraitflow.synthdata import SynthConfig, generate_sample, make_corpus_specs
from portraitflow.training import (
    Adam,
    TrainConfig,
    condition_dropout,
    flow_noise_and_target,
    init_trainer,
    masked_gated_loss,
    prepare_training_tensors,
    run_two_stage,
    train_step,
)

TINY_ENC = EncoderConfig(frames=4, height=16, width=16, patch=8,
                         tokens_per_frame=2, samples_per_token=8,
                         audio_width=8, crop_row=0, crop_col=0, crop_size=16,
                         id_feat_width=8)
TINY_DIT = DiTConfig.for_encoders(TINY_ENC, depth=2, width=16, heads=2,
                                  head_dim=8, n_id=2)
TINY_SYNTH = SynthConfig(frames=4, height=16, width=16, envelope_samples=64,
                         identities=4, crop_row=0, crop_col=0, crop_size=16)


@pytest.fixture(scope="module")
def tiny_samples():
    return [generate_sample(s, TINY_SYNTH)
            for s in make_corpus_specs(6, 0, TINY_SYNTH)]


class TestNoising:
    def test_flow_endpoints(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(5).astype(np.float32)
        eps = rng.standard_normal(5).astype(np.float32)
        z_t, v = flow_noise_and_target(z, eps, 0.0)
        assert np.array_equal(z_t.numpy(), z)
        assert np.allclose(v.numpy(), eps - z)
        z_t, _ = flow_noise_and_target(z, eps, 1.0)
        assert np.array_equal(z_t.numpy(), eps)

    def test_flow_hand_case(self):
        z_t, v = flow_noise_and_target(np.array([1.0]), np.array([3.0]), 0.25)
        assert z_t.numpy()[0] == pytest.approx(1.5)
        assert v.numpy()[0] == pytest.approx(2.0)

    def test_flow_time_derivative_equals_target(self):
        # d z_t / dt = eps - z for all t, exact by linearity
        rng = np.random.default_rng(1)
        z, eps = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        za, v = flow_noise_and_target(z, eps, 0.2)
        zb, _ = flow_noise_and_target(z, eps, 0.7)
        slope = (zb.numpy() - za.numpy()) / 0.5
        assert np.abs(slope - v.numpy()).max() <= 1e-6

    def test_flow_rejects_bad_t(self):
        with pytest.raises(ValueError):
            flow_noise_and_target(np.zeros(1), np.zeros(1), 1.2)


class TestMaskedGatedLoss:
    def _loss_and_mask(self, seed=0, shape=(2, 2, 2, 3)):
        rng = np.random.default_rng(seed)
        loss = Tensor(rng.random(shape))
        mask = (rng.random(shape[:-1]) > 0.5).astype(np.float64)
        return loss, mask

    def test_all_ones_mask_equals_plain_mean_in_both_branches(self):
        loss, _ = self._loss_and_mask()
        ones = np.ones(loss.shape[:-1])
        plain = loss.mean().numpy()
        masked_val, out_m = masked_gated_loss(loss, ones, 0.0,
                                              np.random.default_rng(1))
        full_val, out_f = masked_gated_loss(loss, ones, 1.0,
                                            np.random.default_rng(1))
        assert out_m.branch == "masked" and out_f.branch == "full"
        assert masked_val.numpy() == plain
        assert full_val.numpy() == plain

    def test_gate_endpoints(self):
        loss, mask = self._loss_and_mask()
        for draw in range(20):
            gen = np.random.default_rng(draw)
            _, out = masked_gated_loss(loss, mask, 1.0, gen)
            assert out.branch == "full"
            gen = np.random.default_rng(draw)
            _, out = masked_gated_loss(loss, mask, 0.0, gen)
            assert out.branch == "masked"

    def test_masked_branch_frequency(self):
        loss, mask = self._loss_and_mask()
        gen = RngState(123).stream("gate-freq")
        hits = 0
        n = 10_000
        for _ in range(n):
            _, out = masked_gated_loss(loss, mask, 0.2, gen)
            hits += out.branch == "masked"
        assert abs(hits / n - 0.8) <= 0.02

    def test_masked_value_formula(self):
        loss, mask = self._loss_and_mask(3)
        value, out = masked_gated_loss(loss, mask, 0.0, np.random.default_rng(0))
        c = loss.shape[-1]
        expected = (loss.numpy() * mask[..., None]).sum() / max(mask.sum() * c, 1.0)
        assert value.numpy() == pytest.approx(expected, rel=1e-6)
        assert out.coverage == pytest.approx((mask > 0).mean())

    def test_empty_mask_falls_back_with_flag(self):
        loss, _ = self._loss_and_mask()
        zeros = np.zeros(loss.shape[:-1])
        value, out = masked_gated_loss(loss, zeros, 0.0, np.random.default_rng(0))
        assert out.empty_mask_fallback
        assert value.numpy() == pytest.approx(loss.mean().numpy())

    def test_gradient_vanishes_exactly_where_mask_is_zero(self):
        rng = np.random.default_rng(5)
        pred = Tensor(rng.standard_normal((1, 2, 2, 2, 3)), requires_grad=True)
        target = Tensor(rng.standard_normal((1, 2, 2, 2, 3)))
        mask = np.zeros((1, 2, 2, 2))
        mask[0, 1, 0, 1] = 1.0
        loss, out = masked_gated_loss((pred - target).square(), mask, 0.0,
                                      np.random.default_rng(0))
        assert out.branch == "masked"
        loss.backward()
        grad = pred.grad
        assert (grad[mask == 0.0] == 0.0).all()
        assert np.abs(grad[mask == 1.0]).max() > 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mask shape"):
            masked_gated_loss(Tensor(np.zeros((2, 2, 2, 3))), np.zeros((3, 2, 2)),
                              0.2, np.random.default_rng(0))


class TestConditionDropout:
    def _bundle(self, params, batch):
        rng = np.random.default_rng(0)
        return ConditioningBundle(
            audio=Tensor(rng.standard_normal((batch, 4, 3)) + 1.0),
            identity=Tensor(rng.standard_normal((batch, 2, 6)) + 1.0),
            motion=Tensor(rng.random((batch, 2))),
            reference=Tensor(rng.standard_normal((batch, 4, 5)) + 1.0),
            mode="clip", mapping=segment_audio(4, 2),
            null_audio=params["null_audio"], null_identity=params["null_identity"])

    def _nulls(self):
        rng = np.random.default_rng(9)
        return {"null_audio": Tensor(rng.standard_normal((1, 3))),
                "null_identity": Tensor(rng.standard_normal((1, 6)))}

    def test_zero_probability_is_identity(self):
        params = self._nulls()
        bundle = self._bundle(params, 3)
        out, drop = condition_dropout(bundle, (0.0, 0.0, 0.0),
                                      np.random.default_rng(0))
        assert not drop.any()
        assert np.array_equal(out.audio.numpy(), bundle.audio.numpy())
        assert np.array_equal(out.identity.numpy(), bundle.identity.numpy())
        assert np.array_equal(out.reference.numpy(), bundle.reference.numpy())

    def test_total_dropout_nulls_everything(self):
        params = self._nulls()
        bundle = self._bundle(params, 3)
        out, drop = condition_dropout(bundle, (1.0, 1.0, 1.0),
                                      np.random.default_rng(0))
        assert drop.all()
        expected_audio = np.broadcast_to(params["null_audio"].numpy(),
                                         out.audio.shape)
        assert np.allclose(out.audio.numpy(), expected_audio)
        assert (out.reference.numpy() == 0.0).all()

    def test_rates_and_pairwise_independence(self):
        params = self._nulls()
        bundle = self._bundle(params, 10_000)
        _, drop = condition_dropout(bundle, (0.1, 0.1, 0.1),
                                    RngState(7).stream("drop-stats"))
        rates = drop.mean(axis=1)
        assert np.abs(rates - 0.1).max() <= 0.01
        # 2x2 chi-square per pair; critical value for df=1 at alpha=0.01
        for a in range(3):
            for b in range(a + 1, 3):
                table = np.zeros((2, 2))
                for i in (0, 1):
                    for j in (0, 1):
                        table[i, j] = np.sum((drop[a] == bool(i))
                                             & (drop[b] == bool(j)))
                n = table.sum()
                rows, cols = table.sum(1, keepdims=True), table.sum(0, keepdims=True)
                expected = rows @ cols / n
                chi2 = ((table - expected) ** 2 / expected).sum()
                assert chi2 < 6.634897  # independence not rejected

    def test_bad_probability_rejected(self):
        params = self._nulls()
        bundle = self._bundle(params, 2)
        with pytest.raises(ValueError):
            condition_dropout(bundle, (0.5, 1.5, 0.0), np.random.default_rng(0))


class TestAdam:
    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        params = {"w": Tensor(np.ones(4), requires_grad=True)}
        params["w"].grad = np.full(4, 2.0, dtype=np.float32)
        before = params["w"].data.copy()
        Adam(0.0).step(params)
        assert np.array_equal(params["w"].data, before)

    def test_descends_a_quadratic(self):
        params = {"w": Tensor(np.array([5.0]), requires_grad=True)}
        opt = Adam(0.1)
        for _ in range(200):
            params["w"].grad = (2.0 * params["w"].data).astype(np.float32)
            opt.step(params)
        assert abs(float(params["w"].data[0])) < 0.5


class TestTrainLoop:
    def _config(self, **kw):
        base = dict(steps_clip=3, steps_frame=2, batch_size=2, seed=5)
        base.update(kw)
        return TrainConfig(**base)

    def test_defaults_mirror_reference_schedule(self):
        cfg = TrainConfig()
        assert cfg.steps_clip == 2000 and cfg.steps_frame == 500
        assert cfg.steps_clip / cfg.steps_frame == 4.0
        assert cfg.lr == 1e-4 and cfg.eta == 0.2 and cfg.batch_size == 8
        assert (cfg.dropout_audio, cfg.dropout_identity, cfg.dropout_reference) \
            == (0.1, 0.1, 0.1)

    def test_zero_lr_step_reports_loss_without_update(self, tiny_samples):
        cfg = self._config(lr=0.0)
        state = init_trainer(TINY_DIT, TINY_ENC, cfg, tiny_samples)
        data = prepare_training_tensors(tiny_samples, state.enc_params, TINY_ENC)
        before = {k: v.data.copy() for k, v in state.params.items()}
        report = train_step(state, data, 0)
        assert np.isfinite(report.loss)
        for k in before:
            assert np.array_equal(state.params[k].data, before[k]), k

    def test_identical_seeds_reproduce_loss_sequence(self, tiny_samples):
        def run():
            cfg = self._config()
            state = init_trainer(TINY_DIT, TINY_ENC, cfg, tiny_samples)
            data = prepare_training_tensors(tiny_samples, state.enc_params, TINY_ENC)
            return [train_step(state, data, s).loss for s in range(cfg.total_steps)]

        assert run() == run()

    def test_stage_switch_and_modes(self, tiny_samples):
        cfg = self._config()
        state = init_trainer(TINY_DIT, TINY_ENC, cfg, tiny_samples)
        data = prepare_training_tensors(tiny_samples, state.enc_params, TINY_ENC)
        stages = [train_step(state, data, s).stage for s in range(cfg.total_steps)]
        assert stages == ["clip"] * 3 + ["frame"] * 2

    def test_single_sample_overfit(self, tiny_samples):
        cfg = self._config(steps_clip=50, steps_frame=0, batch_size=1, lr=1e-3,
                           dropout_audio=0.0, dropout_identity=0.0,
                           dropout_reference=0.0)
        state = init_trainer(TINY_DIT, TINY_ENC, cfg, tiny_samples[:1])
        data = prepare_training_tensors(tiny_samples[:1], state.enc_params, TINY_ENC)
        losses = [train_step(state, data, s).loss for s in range(50)]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_non_finite_loss_aborts_with_diagnostics(self, tiny_samples):
        cfg = self._config()
        state = init_trainer(TINY_DIT, TINY_ENC, cfg, tiny_samples)
        data = prepare_training_tensors(tiny_samples, state.enc_params, TINY_ENC)
        state.params["in_proj.w"].data[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="step 0"):
            train_step(state, data, 0)

    def test_frame_only_schedule(self, tiny_samples, tmp_path):
        cfg = self._config(steps_clip=0, steps_frame=3)
        state, reports, artifacts = run_two_stage(
            tiny_samples, TINY_DIT, TINY_ENC, cfg, tmp_path)
        assert [r.stage for r in reports] == ["frame"] * 3
        assert "final" in artifacts and "clip" not in artifacts

    def test_two_stage_emits_boundary_checkpoint_and_log(self, tiny_samples, tmp_path):
        import json

        cfg = self._config()
        state, reports, artifacts = run_two_stage(
            tiny_samples, TINY_DIT, TINY_ENC, cfg, tmp_path)
        assert artifacts["clip"].exists() and artifacts["final"].exists()
        lines = artifacts["log"].read_text().strip().splitlines()
        assert len(lines) == cfg.total_steps
        first = json.loads(lines[0])
        assert set(first) >= {"step", "stage", "loss", "branch", "coverage"}
