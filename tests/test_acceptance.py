"""Acceptance suite: ten criteria, one pass/fail line each.

Criteria 6-8 and 10 share one full-default training run (2000 clip +
500 frame steps, batch 8, on a 256-sample corpus with 16 held out), so
this module takes tens of minutes; everything else is fast.
"""

import dataclasses
import time

import numpy as np
import pytest

from portraitflow.alignment import block_mask, project_mask_trilinear, segment_audio
from portraitflow.checkpoint import load_checkpoint
from portraitflow.cli import build_parser
from portraitflow.encoders import EncoderConfig
from portraitflow.evalmetrics import dynamics_proxy, evaluate_model
from portraitflow.model import (
    ConditioningBundle,
    DiTConfig,
    cross_attention_increments,
    init_model_params,
    model_forward,
)
from portraitflow.motion import init_motion_params, motion_embed
from portraitflow.numerics import (
    RngState,
    Tensor,
    attention,
    grad_check,
    layer_norm,
    silu,
    softmax_lastaxis,
)
from portraitflow.sampling import SampleConfig, cfg_velocity, sample
from portraitflow.synthdata import SynthConfig, generate_sample, make_corpus_specs
from portraitflow.training import (
    TrainConfig,
    init_trainer,
    masked_gated_loss,
    prepare_training_tensors,
    run_two_stage,
    train_step,
)

GRAD_ENC = EncoderConfig(frames=4, height=16, width=16, patch=8,
                         tokens_per_frame=2, samples_per_token=8,
                         audio_width=8, crop_row=0, crop_col=0, crop_size=16,
                         id_feat_width=8)
GRAD_DIT = DiTConfig.for_encoders(GRAD_ENC, depth=2, width=16, heads=2,
                                  head_dim=8, n_id=2)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One full default-scale training run reused by criteria 6, 7, 8, 10."""
    out = tmp_path_factory.mktemp("accept_train")
    synth = SynthConfig()
    samples = [generate_sample(s, synth) for s in make_corpus_specs(256, 0, synth)]
    train_samples, held_out = samples[:240], samples[240:]
    started = time.monotonic()
    state, reports, artifacts = run_two_stage(
        train_samples, DiTConfig.for_encoders(EncoderConfig()), EncoderConfig(),
        TrainConfig(), out)
    train_minutes = (time.monotonic() - started) / 60.0
    clip_state = load_checkpoint(artifacts["clip"])
    return {
        "state": state, "clip_state": clip_state, "held_out": held_out,
        "train_minutes": train_minutes, "final_loss": reports[-1].loss,
    }


def _live_tiny_params(seed=3):
    """Depth-2 parameters with every zero-initialized head replaced by
    small random values so gradients reach all pathways."""
    params = init_model_params(GRAD_DIT, RngState(seed))
    params.update(init_motion_params(GRAD_DIT.width, RngState(seed + 1),
                                     zero_final=False))
    gen = np.random.default_rng(seed + 2)
    for i in range(GRAD_DIT.depth):
        for tail in ("mod.w", "xa.wo", "xid.wo"):
            name = f"block{i}.{tail}"
            params[name] = Tensor(gen.standard_normal(params[name].shape) * 0.05,
                                  requires_grad=True)
    params["out_proj.w"] = Tensor(
        gen.standard_normal(params["out_proj.w"].shape) * 0.05, requires_grad=True)
    return params


def test_criterion_1_gradient_integrity(criterion_recorder):
    """Every layer type plus a full depth-2 model loss at f64."""
    started = time.monotonic()
    worst = 0.0
    for seed in range(20):
        gen = np.random.default_rng(seed)
        cases = {
            "matmul": ({"a": Tensor(gen.standard_normal((3, 4)), requires_grad=True),
                        "b": Tensor(gen.standard_normal((4, 2)), requires_grad=True)},
                       lambda p: (p["a"] @ p["b"]).square().sum()),
            "softmax": ({"x": Tensor(gen.standard_normal((3, 5)), requires_grad=True)},
                        lambda p: (softmax_lastaxis(p["x"])
                                   * Tensor(np.arange(15.0).reshape(3, 5))).sum()),
            "layer_norm": ({"x": Tensor(gen.standard_normal((4, 6)), requires_grad=True),
                            "g": Tensor(gen.standard_normal(6), requires_grad=True),
                            "b": Tensor(gen.standard_normal(6), requires_grad=True)},
                           lambda p: layer_norm(p["x"], p["g"], p["b"]).square().sum()),
            "silu": ({"x": Tensor(gen.standard_normal(8), requires_grad=True)},
                     lambda p: silu(p["x"]).square().sum()),
            "attention": ({"q": Tensor(gen.standard_normal((3, 4)), requires_grad=True),
                           "k": Tensor(gen.standard_normal((5, 4)), requires_grad=True),
                           "v": Tensor(gen.standard_normal((5, 4)), requires_grad=True)},
                          lambda p: attention(p["q"], p["k"], p["v"]).square().sum()),
            "motion": ({"omega": Tensor(gen.random(2), requires_grad=True)},
                       lambda p, fixed=init_motion_params(8, RngState(seed),
                                                          zero_final=False):
                       motion_embed(p["omega"], fixed).square().sum()),
        }
        for name, (params, fn) in cases.items():
            err = grad_check(fn, params)
            worst = max(worst, err)
            assert err <= 1e-4, f"{name} gradient error {err} at seed {seed}"

        # full depth-2 model loss
        z = gen.standard_normal((1, GRAD_DIT.video_tokens, GRAD_DIT.latent_width))
        target = gen.standard_normal(z.shape)
        audio = gen.standard_normal((1, GRAD_DIT.audio_tokens, GRAD_DIT.audio_width))
        identity = gen.standard_normal((1, GRAD_DIT.n_id, GRAD_DIT.width)) * 0.2
        reference = gen.standard_normal(
            (1, GRAD_DIT.video_tokens, GRAD_DIT.ref_channels)) * 0.2
        omega = gen.random((1, 2))

        def model_loss(params):
            bundle = ConditioningBundle(
                audio=Tensor(audio), identity=Tensor(identity),
                motion=Tensor(omega), reference=Tensor(reference),
                mode="frame",
                mapping=segment_audio(GRAD_DIT.audio_tokens, GRAD_DIT.latent_frames),
                null_audio=params["null_audio"],
                null_identity=params["null_identity"])
            out = model_forward(Tensor(z), np.array([0.4]), bundle, params, GRAD_DIT)
            return (out - Tensor(target)).square().mean()

        err = grad_check(model_loss, _live_tiny_params(seed),
                         max_coords_per_param=1, rng=RngState(seed))
        worst = max(worst, err)
        assert err <= 1e-4, f"model gradient error {err} at seed {seed}"

    minutes = (time.monotonic() - started) / 60.0
    passed = worst <= 1e-4 and minutes <= 2.0
    criterion_recorder("criterion-1 gradient integrity", passed,
                       f"max rel err {worst:.2e} over 20 seeds in {minutes:.2f} min")
    assert passed


def test_criterion_2_alignment_theorem(criterion_recorder):
    """Frame-scoped attention == block-masked full attention, 50 configs."""
    started = time.monotonic()
    worst = 0.0
    gen = np.random.default_rng(0)
    for case in range(50):
        f = int(gen.integers(1, 9))
        l = 4 * f
        hw = int(gen.integers(1, 7))
        d = int(gen.integers(2, 9))
        mapping = segment_audio(l, f)
        q = Tensor(gen.standard_normal((f * hw, d)))
        k = Tensor(gen.standard_normal((l, d)))
        v = Tensor(gen.standard_normal((l, d)))
        masked = attention(q, k, v, block_mask(mapping, hw, 1)).numpy()
        seg = l // f
        qf = q.reshape(1, f, hw, d)
        kf = k.reshape(1, f, seg, d)
        vf = v.reshape(1, f, seg, d)
        framed = attention(qf, kf, vf).numpy().reshape(f * hw, d)
        worst = max(worst, float(np.abs(masked - framed).max()))

    # and through the model blocks themselves
    params = _live_tiny_params(7)
    gen2 = np.random.default_rng(1)
    for case in range(5):
        base = dict(
            audio=Tensor(gen2.standard_normal((2, GRAD_DIT.audio_tokens,
                                               GRAD_DIT.audio_width))),
            identity=Tensor(gen2.standard_normal((2, GRAD_DIT.n_id,
                                                  GRAD_DIT.width)) * 0.2),
            motion=Tensor(gen2.random((2, 2))),
            reference=Tensor(gen2.standard_normal(
                (2, GRAD_DIT.video_tokens, GRAD_DIT.ref_channels)) * 0.2),
            mapping=segment_audio(GRAD_DIT.audio_tokens, GRAD_DIT.latent_frames),
            null_audio=params["null_audio"], null_identity=params["null_identity"])
        z = Tensor(gen2.standard_normal((2, GRAD_DIT.video_tokens, GRAD_DIT.width)))
        for index in range(GRAD_DIT.depth):
            frame_inc, _ = cross_attention_increments(
                z, ConditioningBundle(mode="frame", **base), params, GRAD_DIT, index)
            # heads split and merged inline: [B x n x c] <-> [B x H x n x d]
            b, heads, d = f"block{index}.", GRAD_DIT.heads, GRAD_DIT.head_dim
            q = (z @ params[b + "attn.wq"] + params[b + "attn.wq_b"]) \
                .reshape(2, GRAD_DIT.video_tokens, heads, d).transpose((0, 2, 1, 3))
            audio = base["audio"] + params["pos_audio"]
            ak = (audio @ params[b + "xa.wk"] + params[b + "xa.wk_b"]) \
                .reshape(2, GRAD_DIT.audio_tokens, heads, d).transpose((0, 2, 1, 3))
            av = (audio @ params[b + "xa.wv"] + params[b + "xa.wv_b"]) \
                .reshape(2, GRAD_DIT.audio_tokens, heads, d).transpose((0, 2, 1, 3))
            mask = block_mask(base["mapping"], GRAD_DIT.latent_h, GRAD_DIT.latent_w)
            att = attention(q, ak, av, mask).transpose((0, 2, 1, 3)) \
                .reshape(2, GRAD_DIT.video_tokens, GRAD_DIT.width)
            oracle = att @ params[b + "xa.wo"] + params[b + "xa.wo_b"]
            worst = max(worst, float(np.abs(frame_inc.numpy() - oracle.numpy()).max()))

    minutes = (time.monotonic() - started) / 60.0
    passed = worst <= 1e-5 and minutes <= 1.0
    criterion_recorder("criterion-2 alignment theorem", passed,
                       f"max abs diff {worst:.2e} in {minutes:.2f} min")
    assert passed


def test_criterion_3_gated_mask_semantics(criterion_recorder):
    rng = np.random.default_rng(0)
    loss = Tensor(rng.random((2, 3, 3, 4)))
    ones = np.ones((2, 3, 3))

    masked_val, _ = masked_gated_loss(loss, ones, 0.0, np.random.default_rng(1))
    full_val, _ = masked_gated_loss(loss, ones, 1.0, np.random.default_rng(1))
    branches_agree = (masked_val.numpy() == full_val.numpy()
                      == loss.mean().numpy())

    gen = RngState(42).stream("criterion3")
    mask = (rng.random((2, 3, 3)) > 0.6).astype(float)
    hits = sum(masked_gated_loss(loss, mask, 0.2, gen)[1].branch == "masked"
               for _ in range(10_000))
    frequency = hits / 10_000
    frequency_ok = abs(frequency - 0.8) <= 0.02

    pred = Tensor(rng.standard_normal((2, 3, 3, 4)), requires_grad=True)
    target = Tensor(rng.standard_normal((2, 3, 3, 4)))
    sparse = np.zeros((2, 3, 3))
    sparse[0, 1, 2] = 1.0
    sparse[1, 0, 0] = 1.0
    value, outcome = masked_gated_loss((pred - target).square(), sparse, 0.0,
                                       np.random.default_rng(2))
    value.backward()
    grads_vanish = (outcome.branch == "masked"
                    and (pred.grad[sparse == 0.0] == 0.0).all()
                    and np.abs(pred.grad[sparse == 1.0]).max() > 0)

    passed = branches_agree and frequency_ok and grads_vanish
    criterion_recorder("criterion-3 gated mask semantics", passed,
                       f"masked frequency {frequency:.3f} (target 0.8 +/- 0.02), "
                       f"zero-mask grads vanish: {grads_vanish}")
    assert passed


def test_criterion_4_trilinear_projection(criterion_recorder):
    constants_ok = True
    for value in (0.0, 1.0, 0.613):
        out = project_mask_trilinear(np.full((8, 32, 32), value), 8, 4, 4)
        constants_ok &= bool((out == value).all())

    pix = np.zeros((4, 4, 4))
    pix[1:3, 1:3, 1:3] = 1.0
    hand = project_mask_trilinear(pix, 2, 2, 2)
    # hand-computed: every latent center interpolates exactly one corner
    # of the ones-block with weight (1/2)^3
    hand_ok = bool(np.abs(hand - 0.125).max() <= 1e-6)

    rng = np.random.default_rng(0)
    monotone_ok = True
    for _ in range(1000):
        base = rng.random((4, 8, 8))
        bigger = np.clip(base + rng.random((4, 8, 8)), 0.0, 1.0)
        a = project_mask_trilinear(base, 2, 4, 4)
        b = project_mask_trilinear(bigger, 2, 4, 4)
        monotone_ok &= bool((b >= a - 1e-12).all())

    passed = constants_ok and hand_ok and monotone_ok
    criterion_recorder("criterion-4 trilinear projection", passed,
                       f"constants exact: {constants_ok}, hand case: {hand_ok}, "
                       f"monotone on 1000 pairs: {monotone_ok}")
    assert passed


def test_criterion_5_cfg_contract(criterion_recorder):
    rng = np.random.default_rng(0)
    v_c = rng.standard_normal((4, 6)).astype(np.float32)
    v_u = rng.standard_normal((4, 6)).astype(np.float32)
    err_one = float(np.abs(cfg_velocity(v_c, v_u, 1.0).numpy() - v_c).max())
    err_zero = float(np.abs(cfg_velocity(v_c, v_u, 0.0).numpy() - v_u).max())

    parser_default = build_parser().parse_args(
        ["sample", "--ckpt", "x", "--ref", "r", "--audio", "a", "--out", "o"]
    ).cfg_scale
    wired = SampleConfig().cfg_scale == 4.5 and parser_default == 4.5

    passed = err_one <= 1e-6 and err_zero <= 1e-6 and wired
    criterion_recorder("criterion-5 cfg contract", passed,
                       f"s=1 err {err_one:.1e}, s=0 err {err_zero:.1e}, "
                       f"default 4.5 wired: {wired}")
    assert passed


def test_criterion_6_two_stage_benefit(criterion_recorder, trained_run):
    started = time.monotonic()
    cfg = SampleConfig()
    full_report, _ = evaluate_model(trained_run["state"],
                                    trained_run["held_out"], cfg)
    clip_report, _ = evaluate_model(trained_run["clip_state"],
                                    trained_run["held_out"], cfg)
    eval_minutes = (time.monotonic() - started) / 60.0
    total_minutes = trained_run["train_minutes"] + eval_minutes

    gain = full_report.sync_r - clip_report.sync_r
    passed = (gain >= 0.1 and full_report.sync_r >= 0.3
              and total_minutes <= 30.0)
    criterion_recorder(
        "criterion-6 two-stage benefit", passed,
        f"sync_r full {full_report.sync_r:.3f} vs clip-only "
        f"{clip_report.sync_r:.3f} (gain {gain:.3f}, need >= 0.1 and "
        f">= 0.3 absolute); train {trained_run['train_minutes']:.1f} min "
        f"+ eval {eval_minutes:.1f} min")
    assert passed


def test_criterion_7_identity_ablation_direction(criterion_recorder, trained_run):
    cfg = SampleConfig()
    with_id, _ = evaluate_model(trained_run["state"], trained_run["held_out"], cfg)
    ablated_state = dataclasses.replace(
        trained_run["state"],
        dit=dataclasses.replace(trained_run["state"].dit, lambda_identity=0.0))
    without_id, _ = evaluate_model(ablated_state, trained_run["held_out"], cfg)
    passed = with_id.id_err < without_id.id_err
    criterion_recorder(
        "criterion-7 identity ablation direction", passed,
        f"id_err with identity {with_id.id_err:.4f} < without "
        f"{without_id.id_err:.4f}: {passed}")
    assert passed


def test_criterion_8_motion_knob_monotonicity(criterion_recorder, trained_run):
    state = trained_run["state"]
    held_out = trained_run["held_out"]
    monotone = 0
    details = []
    for seed in range(10):
        item = held_out[seed % len(held_out)]
        sds = []
        for omega_b in (0.1, 0.5, 1.0):
            cfg = SampleConfig(omega_l=0.5, omega_b=omega_b, seed=1000 + seed)
            video, _ = sample(item.video[0], item.envelope, cfg, state)
            sd, _ = dynamics_proxy(video.data, item.fg_mask.max(axis=0))
            sds.append(sd)
        ok = sds[0] <= sds[1] <= sds[2]
        monotone += ok
        details.append(round(sds[2] - sds[0], 4))
    passed = monotone >= 8
    criterion_recorder("criterion-8 motion knob monotonicity", passed,
                       f"nondecreasing for {monotone}/10 seeds (need >= 8); "
                       f"sd spans {details}")
    assert passed


def test_criterion_9_determinism_and_resume(criterion_recorder, tmp_path):
    synth = SynthConfig()
    samples = [generate_sample(s, synth) for s in make_corpus_specs(24, 5, synth)]
    dit = DiTConfig.for_encoders(EncoderConfig())
    enc = EncoderConfig()
    cfg = TrainConfig(steps_clip=50, steps_frame=50, seed=11)

    def fresh_losses():
        state = init_trainer(dit, enc, cfg, samples)
        data = prepare_training_tensors(samples, state.enc_params, enc)
        return [train_step(state, data, s).loss for s in range(cfg.total_steps)]

    deterministic = fresh_losses() == fresh_losses()

    full_state, full_reports, artifacts = run_two_stage(
        samples, dit, enc, cfg, tmp_path / "full")
    resumed = load_checkpoint(artifacts["clip"])
    resumed_state, tail_reports, _ = run_two_stage(
        samples, dit, enc, cfg, tmp_path / "resumed", state=resumed)
    losses_match = ([r.loss for r in full_reports[cfg.steps_clip:]]
                    == [r.loss for r in tail_reports])
    params_match = all(
        np.array_equal(full_state.params[k].data, resumed_state.params[k].data)
        for k in full_state.params)

    passed = deterministic and losses_match and params_match
    criterion_recorder(
        "criterion-9 determinism and resumability", passed,
        f"trajectory bit-exact: {deterministic}, resume over 100 steps "
        f"bit-exact: {losses_match and params_match}")
    assert passed


def test_criterion_10_sampler_convergence(criterion_recorder, trained_run):
    state = trained_run["state"]
    item = trained_run["held_out"][0]
    reference = sample(item.video[0], item.envelope,
                       SampleConfig(steps=128, seed=5), state)[0].data
    errors = []
    for steps in (4, 8, 16, 32):
        video, _ = sample(item.video[0], item.envelope,
                          SampleConfig(steps=steps, seed=5), state)
        errors.append(float(np.abs(video.data - reference).mean()))
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    criterion_recorder("criterion-10 sampler convergence", monotone,
                       "error vs 128-step reference over steps {4,8,16,32}: "
                       + str([round(e, 5) for e in errors]))
    assert monotone
