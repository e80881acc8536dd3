"""Objective, gated loss, dropout, optimizer, and the two-stage loop."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from portraitflow.alignment import segment_audio
from portraitflow.encoders import (
    EncoderConfig,
    PixelVideo,
    crop_face,
    encode_audio,
    identity_conv_features,
    patchify_video,
)
from portraitflow.model import ConditioningBundle, DiTConfig
from portraitflow.numerics import RngState, Tensor
from portraitflow.numerics.tensor import _Node
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
from tiny_configs import TINY_DIT, TINY_ENC, TINY_SYNTH


@pytest.fixture(scope="module")
def tiny_samples():
    return [generate_sample(s, TINY_SYNTH)
            for s in make_corpus_specs(6, 0, TINY_SYNTH)]


@pytest.fixture(scope="module")
def default_samples():
    synth = SynthConfig()
    return [generate_sample(s, synth) for s in make_corpus_specs(8, 0, synth)]


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
        for bad in (1.2, float("nan")):
            with pytest.raises(ValueError):
                flow_noise_and_target(np.zeros(1), np.zeros(1), bad)


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

    def test_eta_outside_unit_interval_rejected(self):
        loss, mask = self._loss_and_mask()
        for eta in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="eta must lie in"):
                masked_gated_loss(loss, mask, eta, np.random.default_rng(0))

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

    def test_in_place_update_matches_out_of_place_formula_bit_for_bit(self):
        rng = np.random.default_rng(9)
        shapes = {"a": (3, 4), "b": (5,)}
        params = {n: Tensor(rng.standard_normal(s), requires_grad=True)
                  for n, s in shapes.items()}
        ref = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros(s, dtype=np.float32) for n, s in shapes.items()}
        v = {n: np.zeros(s, dtype=np.float32) for n, s in shapes.items()}
        opt, b1, b2, eps, lr = Adam(1e-2), Adam.BETA1, Adam.BETA2, Adam.EPS, 1e-2
        for count in range(1, 4):
            grads = {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
            for n, p in params.items():
                p.grad = grads[n].copy()
                g = grads[n]
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * g * g
                mhat, vhat = m[n] / (1.0 - b1 ** count), v[n] / (1.0 - b2 ** count)
                ref[n] -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(ref[n].dtype)
            opt.step(params)
            for n, p in params.items():
                assert np.array_equal(p.data, ref[n]), (n, count)
                assert np.array_equal(opt.m[n], m[n]) and np.array_equal(opt.v[n], v[n])

    def test_parameter_without_gradient_is_skipped(self):
        # as `null_audio` is on a step that drops no audio
        params = {n: Tensor(np.ones(3), requires_grad=True) for n in ("a", "b")}
        params["a"].grad = np.full(3, 2.0, dtype=np.float32)
        opt = Adam(0.1)
        opt.step(params)
        assert np.array_equal(params["b"].data, np.ones(3))
        assert "b" not in opt.m and "b" not in opt.v
        assert "a" in opt.m and not np.array_equal(params["a"].data, np.ones(3))

    def test_step_consumes_every_gradient_it_applies(self):
        # so the next backward accumulates into no stale gradient
        params = {n: Tensor(np.ones(3), requires_grad=True) for n in ("a", "b", "c")}
        for n in ("a", "b"):
            params[n].grad = np.full(3, 2.0, dtype=np.float32)
        Adam(0.1).step(params)
        assert all(p.grad is None for p in params.values())
        assert not np.array_equal(params["a"].data, np.ones(3))

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

    @pytest.mark.parametrize("field,value", [
        ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")), ("batch_size", 0),
        ("steps_clip", -3), ("steps_frame", -1), ("eta", -0.1), ("eta", 1.5),
        ("dropout_audio", 1.2), ("dropout_identity", -0.1), ("dropout_reference", 2.0)])
    def test_impossible_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_zero_learning_rate_and_empty_stages_allowed(self):
        cfg = TrainConfig(lr=0.0, steps_clip=0, steps_frame=0, batch_size=1)
        assert cfg.total_steps == 0

    def test_prepared_rows_match_per_sample_encoders(self, tiny_samples):
        state = init_trainer(TINY_DIT, TINY_ENC, self._config(), tiny_samples)
        enc_params = state.enc_params
        data = prepare_training_tensors(tiny_samples, enc_params, TINY_ENC)
        assert data.count == len(tiny_samples)
        for i in (0, len(tiny_samples) - 1):
            clip = tiny_samples[i]
            assert np.array_equal(data.latents[i], patchify_video(
                PixelVideo(clip.video), enc_params, TINY_ENC))
            assert np.array_equal(data.audio[i], encode_audio(clip.envelope, enc_params, TINY_ENC))
            assert np.array_equal(data.id_features[i], identity_conv_features(
                crop_face(clip.video[0], TINY_ENC), enc_params, TINY_ENC).astype(np.float32))
        with pytest.raises(ValueError, match="no samples"):
            prepare_training_tensors([], enc_params, TINY_ENC)

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

    def _step_graphs(self, cfg, tiny_samples, monkeypatch):
        """Run `cfg`'s train steps. Return, per stage, the nodes reachable
        from each step's loss through `_parents`, walked as bench/run.py
        walks them, and the trainer."""
        def reachable(loss):
            seen, todo = {id(loss): loss}, [loss]
            while todo:
                for parent in todo.pop()._parents:
                    if id(parent) not in seen:
                        seen[id(parent)] = parent
                        todo.append(parent)
            return list(seen.values())

        state = init_trainer(TINY_DIT, TINY_ENC, cfg, tiny_samples)
        data = prepare_training_tensors(tiny_samples, state.enc_params, TINY_ENC)
        graphs = {"clip": [], "frame": []}
        backward = Tensor.backward

        def recording_backward(loss):
            graphs[cfg.stage_at(state.step)].append(reachable(loss))
            backward(loss)

        monkeypatch.setattr(Tensor, "backward", recording_backward)
        for step in range(cfg.total_steps):
            train_step(state, data, step)
        return graphs, state

    @staticmethod
    def _parameter_nodes(state) -> set:
        """The ids of the parameters' own nodes: the only parentless nodes
        a gradient may reach."""
        return {id(p._node) for p in state.params.values()}

    def test_graph_nodes_per_step(self, tiny_samples, monkeypatch):
        graphs, _ = self._step_graphs(self._config(), tiny_samples, monkeypatch)
        counts = {stage: [len(g) for g in steps] for stage, steps in graphs.items()}
        assert max(counts["clip"]) <= 185 and max(counts["frame"]) <= 186, counts

    def test_graph_holds_only_what_a_gradient_reaches(self, tiny_samples, monkeypatch):
        # constant operands (the 1.0s, lambda weights, masks, targets and
        # dropout keeps) are left out of `_parents`, so backward never walks one
        cfg = self._config(steps_clip=1, steps_frame=1)
        graphs, state = self._step_graphs(cfg, tiny_samples, monkeypatch)
        leaves = self._parameter_nodes(state)
        for stage, (graph,) in graphs.items():
            constants = [n for n in graph if not (n._parents or id(n) in leaves)]
            assert not constants, f"{stage} step: {len(constants)} constants in the graph"

    @staticmethod
    def _default_step(stage, samples, monkeypatch, at_backward):
        """One default-config train step at batch 8 of `stage` on a fresh
        trainer, calling `at_backward()` as `backward()` begins, and the
        trainer."""
        enc = EncoderConfig()
        cfg = TrainConfig(steps_clip=int(stage == "clip"), steps_frame=int(stage == "frame"))
        state = init_trainer(DiTConfig.for_encoders(enc), enc, cfg, samples)
        data = prepare_training_tensors(samples, state.enc_params, enc)
        backward = Tensor.backward

        def probing_backward(loss):
            at_backward()
            backward(loss)

        monkeypatch.setattr(Tensor, "backward", probing_backward)
        return lambda: train_step(state, data, 0), state

    @pytest.mark.parametrize("stage", ["clip", "frame"])
    def test_no_backward_computes_a_gradient_for_a_constant(self, default_samples,
                                                            monkeypatch, stage):
        # the lambda weights, the mean's 1/count, masks, dropout keeps, the
        # flow target and the final norm's zero scale/shift take no gradient
        step, state = self._default_step(stage, default_samples, monkeypatch, lambda: None)
        leaves = self._parameter_nodes(state)
        sent, accumulate = [], _Node._accumulate

        def recording_accumulate(node, grad):
            if not (node._parents or id(node) in leaves):
                sent.append(grad.shape)
            accumulate(node, grad)

        monkeypatch.setattr(_Node, "_accumulate", recording_accumulate)
        step()
        assert not sent, f"{stage} step: {len(sent)} gradients sent to constants {sent}"

    @pytest.mark.parametrize("stage", ["clip", "frame"])
    def test_graph_memory_when_backward_begins(self, default_samples, monkeypatch, stage):
        # a node keeps only what its backward reads: the forward's other
        # intermediates are freed before backward (51.9 / 50.9 MB when every
        # node held its data; 37.3 / 35.6 MB with only the arrays it reads)
        traced = []
        step, _ = self._default_step(stage, default_samples, monkeypatch,
                                     lambda: traced.append(tracemalloc.get_traced_memory()[0]))
        tracemalloc.start()
        try:
            step()
        finally:
            tracemalloc.stop()
        assert traced[0] / 2**20 <= 42.0, f"{stage} step: {traced[0] / 2**20:.1f} MB"

    @pytest.mark.parametrize("stage", ["clip", "frame"])
    def test_every_inventory_tensor_gets_an_adam_moment(self, tiny_samples, stage):
        # Adam keeps moments only for tensors with a gradient, so this holds
        # when the forward reads every declared tensor (no misnamed bias)
        cfg = self._config(steps_clip=int(stage == "clip"), steps_frame=int(stage == "frame"))
        state = init_trainer(TINY_DIT, TINY_ENC, cfg, tiny_samples)
        data = prepare_training_tensors(tiny_samples, state.enc_params, TINY_ENC)
        assert train_step(state, data, 0).stage == stage
        assert len(state.params) == 81
        assert set(state.opt.m) == set(state.params)

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


# Four seeded steps (two per stage) at the default model and batch 8, whose
# GEMMs are large enough for OpenBLAS to split across threads; prints the
# losses and a digest of the trained parameters.
_THREAD_RUN = """
import hashlib
from portraitflow.encoders import EncoderConfig
from portraitflow.model import DiTConfig
from portraitflow.synthdata import SynthConfig, generate_sample, make_corpus_specs
from portraitflow.training import TrainConfig, init_trainer, prepare_training_tensors, train_step

synth, enc = SynthConfig(), EncoderConfig()
samples = [generate_sample(s, synth) for s in make_corpus_specs(8, 0, synth)]
train = TrainConfig(steps_clip=2, steps_frame=2, batch_size=8, seed=5)
state = init_trainer(DiTConfig.for_encoders(enc), enc, train, samples)
data = prepare_training_tensors(samples, state.enc_params, enc)
losses = [train_step(state, data, step).loss for step in range(train.total_steps)]
digest = hashlib.sha256()
for name in sorted(state.params):
    digest.update(state.params[name].data.tobytes())
print([loss.hex() for loss in losses], digest.hexdigest())
"""


def test_training_is_bit_identical_across_blas_thread_counts():
    # a run is a pure function of (seed, config, dataset): the BLAS thread
    # count, fixed when numpy loads, must not reach the losses or parameters
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _THREAD_RUN], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
