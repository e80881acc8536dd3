"""portraitflow benchmark: two-stage training, CFG sampling, held-out eval.

Run from the repository root:

    python3 bench/run.py --workload train-two-stage --seed 1 --seconds 30 --trace 0

The package is imported from ./src. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones (and the
spans go to bench/out/). The line before it is a JSON record of the
workload-specific figures behind the metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# numpy and the package are imported inside the functions: the BLAS thread
# count must be set, and ./src put on sys.path, before either is loaded.

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("train-two-stage", "sample-cfg", "eval-heldout")

CORPUS_CLIPS = 64          # generated per set-up; the last HELD_OUT are held out
HELD_OUT = 16
SETUP_REPEATS = 15         # setup_s is the median of these
BATCH = 8
WARMUP_OPS = 2             # first ops of each train stage / sample mode, untimed
HEAD_FILL_SCALE = 0.02     # std of the seeded values put into zero-initialised heads
ZERO_HEADS = ("mod.w", "xa.wo", "xid.wo")
NEVER = 10 ** 9            # a stage length no run reaches

# One BLAS thread: at these sizes a second thread does not shorten a train
# step or a sample (both measured), it only spins on the other core.
BLAS_THREADS = "1"

# Tolerances, fixed from float32 precision (eps 1.19e-7).
F32_EPS = 1.1920929e-07
LOSS0_RTOL = 64 * F32_EPS          # a float32 mean over ~2e5 squared terms
VIDEO_RTOL = 1e3 * F32_EPS         # pre-clamp pixels after 30 guided Euler steps
SCORE_ATOL = 1e-4                  # sync_r / sd / bd recomputed from a re-sampled video
AGG_RTOL = 1e-12                   # aggregate vs mean of rows, both float64
GRAD_RTOL = 1e-6                   # float64 directional derivative vs central difference,
GRAD_STEP = 1e-5                   # plus the difference's round-off floor, 10 eps64 |L| / h


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Put ./src first on sys.path and import the package from it; refuse
    to run against any other copy."""
    src = Path.cwd() / "src"
    if not (src / "portraitflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no portraitflow package under {src}; "
                         "run from the repository root")
    sys.path.insert(0, str(src))
    import portraitflow
    if Path(portraitflow.__file__).resolve().parent != (src / "portraitflow").resolve():
        raise SystemExit(f"error: imported portraitflow from {portraitflow.__file__}")


# ----------------------------------------------------------------------
# shared pieces


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """90th percentile, only when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Named output checks. A failed check counts `ops` failed operations
    (one by default): the operations whose output it judged."""

    def __init__(self):
        self.results = []
        self.failed_ops = 0

    def expect(self, name: str, ok: bool, detail: str = "", ops: int = 1) -> bool:
        self.results.append((name, bool(ok), detail))
        if not ok:
            self.failed_ops += ops
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        return bool(ok)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.results)


@dataclasses.dataclass
class Setup:
    train_clips: list
    held_out: list
    state: object
    data: object


def set_up(seed: int, fill_heads: bool) -> Setup:
    """Corpus generation, encoder preparation and model set-up."""
    from portraitflow import synthdata, training
    from portraitflow.encoders import EncoderConfig
    from portraitflow.model import DiTConfig

    synth = synthdata.SynthConfig()
    enc = EncoderConfig()
    specs = synthdata.make_corpus_specs(CORPUS_CLIPS, seed, synth)
    samples = [synthdata.generate_sample(s, synth) for s in specs]
    train_clips, held_out = samples[:-HELD_OUT], samples[-HELD_OUT:]
    train_cfg = training.TrainConfig(seed=seed, batch_size=BATCH,
                                     steps_clip=NEVER, steps_frame=NEVER)
    state = training.init_trainer(DiTConfig.for_encoders(enc), enc, train_cfg, train_clips)
    data = training.prepare_training_tensors(train_clips, state.enc_params, enc)
    if fill_heads:
        fill_zero_heads(state, seed)
    return Setup(train_clips, held_out, state, data)


def fill_zero_heads(state, seed: int) -> None:
    """Give every zero-initialised head small seeded values, so that each
    conditioning path adds to the velocity of an untrained model."""
    from portraitflow.numerics import RngState

    rng = RngState(seed)
    names = [f"block{i}.{tail}" for i in range(state.dit.depth) for tail in ZERO_HEADS]
    names += ["out_proj.w", "motion.expand.w"]
    for name in names:
        p = state.params[name]
        p.data[...] = rng.normal("bench-head-fill", name, size=p.shape) * HEAD_FILL_SCALE


def timed_setups(seed: int, fill_heads: bool, tracer):
    durations, setup = [], None
    for _ in range(SETUP_REPEATS):
        # Free the previous set-up before the timer starts, not inside it.
        setup = None
        gc.collect()
        start = perf_counter()
        with tracer.span("bench.setup"):
            setup = set_up(seed, fill_heads)
        durations.append(perf_counter() - start)
    return setup, durations


def run_op(fn, failures: list):
    """Call one benchmark operation; an exception fails that operation only."""
    try:
        return fn()
    except Exception:  # the run goes on; the failure is counted and shown
        failures.append(traceback.format_exc())
        print(failures[-1], file=sys.stderr)
        return None


# ----------------------------------------------------------------------
# train-two-stage


def train_two_stage(setup: Setup, seed: int, seconds: float, tracer, checks: Checks):
    import numpy as np

    from portraitflow import checkpoint, training

    state, data = setup.state, setup.data
    failures, reports, times = [], {}, {"clip": [], "frame": []}
    attempted = 0
    step = 0

    def stage(st, name, budget):
        nonlocal step, attempted
        start = perf_counter()
        done = 0
        while perf_counter() - start < budget:
            t0 = perf_counter()
            with tracer.span(f"bench.train_step.{name}"):
                report = run_op(lambda: training.train_step(st, data, step), failures)
            dt = perf_counter() - t0
            attempted += 1
            if report is not None:
                reports[step] = report
                if done >= WARMUP_OPS:
                    times[name].append(dt * 1e3)
            step += 1
            done += 1

    stage(state, "clip", seconds / 2)
    clip_steps = step

    # Stage boundary: from here on every step is a frame-stage step.
    state.train = dataclasses.replace(state.train, steps_clip=clip_steps)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"boundary-{os.getpid()}.pfck"
    try:
        with tracer.span("bench.checkpoint"):
            checkpoint.save_checkpoint(path, state)
            loaded = checkpoint.load_checkpoint(path)
        ckpt_bytes = path.stat().st_size
    finally:
        path.unlink(missing_ok=True)
    attempted += 1
    check_round_trip(state, loaded, checks)

    stage(loaded, "frame", seconds / 2)
    rss = peak_rss_mb()

    # ---- output checks (untimed)
    with tracer.paused():
        losses = [r.loss for r in reports.values()]
        checks.expect("every loss is finite", all(math.isfinite(x) for x in losses))
        if 0 in reports:
            expected = step0_loss(setup, seed)
            got = reports[0].loss
            checks.expect("step-0 loss equals mean((eps - z)^2)",
                          abs(got - expected) <= LOSS0_RTOL * expected,
                          f"program {got!r} vs float64 {expected!r}")
            tail = [reports[s].loss for s in range(max(1, clip_steps - 10), clip_steps)
                    if s in reports]
            checks.expect("late clip-stage loss is below the step-0 loss",
                          bool(tail) and float(np.mean(tail)) < got,
                          f"mean of last {len(tail)} = {np.mean(tail) if tail else None} "
                          f"vs step 0 = {got}")
        else:
            checks.expect("step 0 ran", False, "the first train step failed")
        checks.expect("frame stage ran in frame mode",
                      all(r.stage == "frame" for s, r in reports.items() if s >= clip_steps))
        directional_derivative_check(loaded, data, seed, step, checks)

    detail = {
        "clip_steps": clip_steps, "frame_steps": step - clip_steps,
        "train.clip_step_ms": median(times["clip"]),
        "train.clip_step_p90_ms": p90(times["clip"]),
        "train.frame_step_ms": median(times["frame"]),
        "train.frame_step_p90_ms": p90(times["frame"]),
        "timed_clip_steps": len(times["clip"]), "timed_frame_steps": len(times["frame"]),
        "checkpoint_bytes": ckpt_bytes,
    }
    all_times = times["clip"] + times["frame"]
    clips = BATCH * len(all_times)
    return all_times, clips, attempted, len(failures), rss, detail


def check_round_trip(saved, loaded, checks: Checks) -> None:
    import numpy as np

    same = (saved.params.keys() == loaded.params.keys()
            and saved.opt.m.keys() == loaded.opt.m.keys()
            and saved.opt.v.keys() == loaded.opt.v.keys())
    same = same and all(
        a.dtype == b.dtype and np.array_equal(a, b)
        for name in saved.params
        for a, b in [(saved.params[name].data, loaded.params[name].data)])
    same = same and all(
        np.array_equal(saved.opt.m[k], loaded.opt.m[k])
        and np.array_equal(saved.opt.v[k], loaded.opt.v[k]) for k in saved.opt.m)
    same = same and saved.opt.count == loaded.opt.count and saved.step == loaded.step
    checks.expect("checkpoint restores parameters and Adam moments bit for bit", same)


def step0_loss(setup: Setup, seed: int) -> float:
    """mean((eps - z)^2) in float64 for step 0: the velocity head starts at
    zero, so that is the whole loss. z is patchified here from pixels."""
    import numpy as np

    import reference
    from portraitflow.numerics import RngState

    rng = RngState(seed)
    idx = rng.stream("batch", 0).integers(0, len(setup.train_clips), size=BATCH)
    z = np.stack([reference.patchify(setup.train_clips[i].video, setup.state.enc.patch)
                  for i in idx])
    eps = rng.stream("eps", 0).standard_normal(z.shape)
    return float(np.mean((eps - z) ** 2))


def directional_derivative_check(state, data, seed: int, step: int, checks: Checks) -> None:
    """Autodiff gradient of the frame-stage training loss (lip-mask branch)
    along a random direction vs a float64 central difference."""
    import numpy as np

    from portraitflow import model, training
    from portraitflow.numerics import RngState, Tensor, precision

    rng = RngState(seed)
    gen = rng.stream("bench-graddir", step)
    idx = gen.integers(0, data.count, size=BATCH)
    t = gen.random(BATCH)
    z = data.latents[idx].astype(np.float64)
    eps = gen.standard_normal(z.shape)
    dit = state.dit
    names = sorted(state.params)
    direction = {n: gen.standard_normal(state.params[n].shape) for n in names}
    norm = math.sqrt(sum(float((d ** 2).sum()) for d in direction.values()))

    def loss_at(offset: float):
        params = {n: Tensor(state.params[n].data.astype(np.float64)
                            + offset * direction[n] / norm, requires_grad=True)
                  for n in names}
        st = dataclasses.replace(state, params=params)
        bundle = training.build_bundle(st, data, idx, "frame")
        bundle, _ = training.condition_dropout(bundle, (0.1, 0.1, 0.1),
                                               rng.stream("bench-graddir-drop", step))
        z_t, target = training.flow_noise_and_target(z, eps, t)
        v = model.model_forward(z_t, t, bundle, params, dit)
        per = (v - target).square().reshape(BATCH, dit.latent_frames, dit.latent_h,
                                             dit.latent_w, dit.latent_width)
        loss, outcome = training.masked_gated_loss(
            per, data.lip_masks[idx], 0.0, rng.stream("bench-graddir-gate", step))
        return loss, params, outcome

    with precision("f64"):
        loss, params, outcome = loss_at(0.0)
        loss.backward()
        analytic = sum(float((params[n].grad * direction[n]).sum()) for n in names
                       if params[n].grad is not None) / norm
        h = GRAD_STEP
        numeric = (float(loss_at(h)[0].data) - float(loss_at(-h)[0].data)) / (2 * h)
    err = abs(analytic - numeric)
    tol = GRAD_RTOL * abs(numeric) + 10 * np.finfo(np.float64).eps * abs(float(loss.data)) / h
    checks.expect("float64 directional derivative matches autodiff",
                  outcome.branch == "masked" and err <= tol,
                  f"analytic {analytic!r} vs numeric {numeric!r} (abs err {err:.2e}, "
                  f"tolerance {tol:.2e}, branch {outcome.branch})")


# ----------------------------------------------------------------------
# sample-cfg


def request(setup: Setup, seed: int, i: int):
    """The i-th request: a held-out clip, motion coefficients, sampler seed;
    even requests in clip mode, odd ones in frame mode."""
    from portraitflow.numerics import RngState
    from portraitflow.sampling import SampleConfig

    gen = RngState(seed).stream("bench-request", i)
    clip = setup.held_out[int(gen.integers(0, HELD_OUT))]
    omega_l, omega_b = gen.random(2)
    cfg = SampleConfig(omega_l=float(omega_l), omega_b=float(omega_b),
                       seed=int(gen.integers(0, 2 ** 31)), mode=("clip", "frame")[i % 2])
    return clip, cfg


def valid_video(video, enc) -> bool:
    import numpy as np

    v = video.data
    return (v.shape == (enc.frames, enc.height, enc.width, 3)
            and bool(np.isfinite(v).all()) and float(v.min()) >= 0.0
            and float(v.max()) <= 1.0)


def sample_cfg(setup: Setup, seed: int, seconds: float, tracer, checks: Checks):
    from portraitflow import sampling

    state = setup.state
    failures, times = [], {"clip": [], "frame": []}
    kept = []      # (clip, cfg, video) of the first requests of each mode
    invalid = []   # requests whose video failed `valid_video`
    attempted = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        clip, cfg = request(setup, seed, attempted)
        t0 = perf_counter()
        with tracer.span("bench.sample_request"):
            out = run_op(lambda: sampling.sample(clip.video[0], clip.envelope, cfg, state),
                         failures)
        dt = perf_counter() - t0
        attempted += 1
        if out is None:
            continue
        if not valid_video(out[0], state.enc):
            invalid.append(attempted - 1)
            continue
        if attempted <= 2:      # the first request of each mode
            kept.append((clip, cfg, out[0].data))
        if attempted > 2 * WARMUP_OPS:
            times[cfg.mode].append(dt * 1e3)
    rss = peak_rss_mb()

    with tracer.paused():
        checks.expect("every video is finite, in [0, 1] and full size", not invalid,
                      f"requests {invalid}", ops=len(invalid))
        for clip, cfg, video in kept:
            again, raw = sample_pre_clamp(clip, cfg, state)
            checks.expect(f"same seed gives a bit-identical video ({cfg.mode})",
                          (again.data == video).all())
            check_against_reference_loop(state, clip, cfg, raw, checks)

    detail = {
        "sample.latency_ms": median(times["clip"] + times["frame"]),
        "sample.latency_p90_ms": p90(times["clip"] + times["frame"]),
        "sample.clip_mode_ms": median(times["clip"]),
        "sample.frame_mode_ms": median(times["frame"]),
        "timed_requests": len(times["clip"]) + len(times["frame"]),
    }
    all_times = times["clip"] + times["frame"]
    return all_times, len(all_times), attempted, len(failures), rss, detail


def sample_pre_clamp(clip, cfg, state):
    """sample(), plus its decoded video before the clamp to [0, 1]. Most
    pixels of an untrained model's video lie outside [0, 1], so the
    reference loop is compared with the decode, where every pixel counts."""
    from portraitflow import sampling

    unpatchify, decoded = sampling.unpatchify_video, []

    def capture(*args, **kwargs):
        out = unpatchify(*args, **kwargs)
        decoded.append(out.data.copy())
        return out

    sampling.unpatchify_video = capture
    try:
        video, _ = sampling.sample(clip.video[0], clip.envelope, cfg, state)
    finally:
        sampling.unpatchify_video = unpatchify
    return video, decoded[0]


def numpy_params(state):
    return {name: p.data for name, p in state.params.items()}


def check_against_reference_loop(state, clip, cfg, decoded, checks: Checks) -> None:
    """model_forward against the float64 numpy DiT, then sample()'s
    pre-clamp decode against a numpy Euler loop that combines
    v_u + s (v_c - v_u) itself."""
    import numpy as np

    import reference
    from portraitflow.alignment import segment_audio
    from portraitflow.encoders import crop_face, identity_conv_features
    from portraitflow.model import ConditioningBundle, model_forward
    from portraitflow.numerics import RngState, Tensor, no_grad

    dit, enc, params = state.dit, state.enc, state.params
    frame = np.asarray(clip.video[0], dtype=np.float32)
    ref, audio, identity, motion = reference.conditioning(
        frame, clip.envelope, [cfg.omega_l, cfg.omega_b],
        identity_conv_features(crop_face(frame, enc), state.enc_params, enc), enc,
        state.enc_params.audio_w, state.enc_params.audio_b, numpy_params(state))
    null_audio = np.broadcast_to(params["null_audio"].data, audio.shape)

    def bundle(a):
        return ConditioningBundle(
            audio=Tensor(a), identity=Tensor(identity), motion=Tensor(motion),
            reference=Tensor(ref), mode=cfg.mode,
            mapping=segment_audio(dit.audio_tokens, dit.latent_frames),
            null_audio=params["null_audio"], null_identity=params["null_identity"])

    cond, uncond = bundle(audio), bundle(null_audio)
    z1 = RngState(cfg.seed).normal("init", size=(1, dit.video_tokens, dit.latent_width)) \
        .astype(np.float32)

    with no_grad():
        for t in (1.0, 0.37):
            got = model_forward(Tensor(z1), t, cond, params, dit).numpy()
            want = reference.dit_forward(z1, t, audio, identity, motion, ref, cfg.mode,
                                         numpy_params(state), dit)
            err = float(np.abs(got - want).max())
            scale = max(1.0, float(np.abs(want).max()))
            checks.expect(f"model_forward matches the float64 DiT ({cfg.mode}, t={t})",
                          err <= reference.F32_FORWARD_RTOL * scale,
                          f"max abs err {err:.3e} at output scale {scale:.3f}")

        def velocities(z, t):
            return (model_forward(Tensor(z), t, cond, params, dit).numpy(),
                    model_forward(Tensor(z), t, uncond, params, dit).numpy())

        z0 = reference.euler_cfg(z1, velocities, cfg.steps, cfg.cfg_scale)
    tokens = (z0[0].astype(np.float64) - state.enc_params.patch_b) @ state.enc_params.unpatch_w
    want = reference.unpatchify(tokens, enc.frames, enc.height, enc.width, enc.patch)
    err = float(np.abs(decoded - want).max())
    scale = max(1.0, float(np.abs(want).max()))
    checks.expect(f"sample() matches the reference Euler/CFG loop ({cfg.mode})",
                  err <= VIDEO_RTOL * scale,
                  f"max abs pre-clamp pixel err {err:.3e} at pixel scale {scale:.3f}")


# ----------------------------------------------------------------------
# eval-heldout


def eval_heldout(setup: Setup, seed: int, seconds: float, tracer, checks: Checks):
    import numpy as np

    from portraitflow import evalmetrics
    from portraitflow.numerics import RngState
    from portraitflow.sampling import SampleConfig

    state = setup.state
    failures, times, recheck = [], [], []
    attempted = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        cfg = SampleConfig(mode="frame",
                           seed=int(RngState(seed).stream("bench-eval", attempted)
                                    .integers(0, 2 ** 31)))
        t0 = perf_counter()
        with tracer.span("bench.eval_call"):
            out = run_op(lambda: evalmetrics.evaluate_model(state, setup.held_out, cfg),
                         failures)
        dt = perf_counter() - t0
        call = attempted
        attempted += 1
        if out is None:
            continue
        report, rows = out
        ok = len(rows) == HELD_OUT and report.samples == HELD_OUT
        ok = ok and not any(r["sync_degenerate"] for r in rows)
        ok = ok and all(math.isfinite(r[k]) for r in rows for k in ("sync_r", "id_err", "sd", "bd"))
        for key in ("sync_r", "id_err", "sd", "bd"):
            mean = float(np.mean([r[key] for r in rows]))
            ok = ok and abs(getattr(report, key) - mean) <= AGG_RTOL * max(1.0, abs(mean))
        if not checks.expect("eval rows are complete, non-degenerate and average to the report",
                             ok, f"call {call}"):
            continue
        recheck.append((cfg, call % HELD_OUT, rows[call % HELD_OUT]))
        times.append(dt * 1e3)
    rss = peak_rss_mb()

    with tracer.paused():
        for cfg, j, row in recheck:
            check_eval_row(state, setup.held_out[j], cfg, j, row, checks)

    detail = {"eval.call_ms": median(times), "eval.calls": len(times)}
    return times, HELD_OUT * len(times), attempted, len(failures), rss, detail


def check_eval_row(state, clip, cfg, j: int, row, checks: Checks) -> None:
    """Re-sample clip j as evaluate_model does and recompute its sync_r
    (np.corrcoef) and sd / bd (numpy frame differences)."""
    import reference
    from portraitflow import sampling

    cfg_j = dataclasses.replace(cfg, omega_l=clip.spec.omega_l, omega_b=clip.spec.omega_b,
                                seed=cfg.seed + j)
    video, _ = sampling.sample(clip.video[0], clip.envelope, cfg_j, state)
    r = reference.sync_r(video.data, clip.envelope, clip.lip_mask)
    sd, bd = reference.dynamics(video.data, clip.fg_mask)
    errs = {"sync_r": abs(r - row["sync_r"]), "sd": abs(sd - row["sd"]),
            "bd": abs(bd - row["bd"])}
    checks.expect("eval row matches numpy sync_r / sd / bd",
                  max(errs.values()) <= SCORE_ATOL,
                  ", ".join(f"{k} err {v:.2e}" for k, v in errs.items()))


# ----------------------------------------------------------------------
# tracing


def instrument(tracer) -> None:
    """Wrap the package's module functions at each layer boundary."""
    from portraitflow import checkpoint, encoders, evalmetrics, model, sampling, synthdata, training
    from portraitflow.numerics import Tensor

    def graph_nodes(loss) -> int:
        seen, todo = {id(loss)}, [loss]
        while todo:
            for parent in todo.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    todo.append(parent)
        return len(seen)

    tracer.wrap(synthdata, "generate_sample", "synthdata.generate_sample")
    tracer.wrap(training, "prepare_training_tensors", "encoders.prepare")
    tracer.wrap(training, "flow_noise_and_target", "training.batch")
    tracer.wrap(training, "build_bundle", "training.batch")
    tracer.wrap(training, "condition_dropout", "training.batch")
    tracer.wrap(training.Adam, "step", "training.adam")
    tracer.wrap(Tensor, "backward", "numerics.backward",
                before=lambda loss: tracer.add("numerics.graph_nodes", graph_nodes(loss)))
    tracer.count(Tensor, "__matmul__", "numerics.matmul")
    for module in (training, sampling):
        tracer.wrap(module, "model_forward", "model.forward")
    tracer.wrap(model, "timestep_embedding", "model.timestep_embedding")
    tracer.wrap(model, "dit_block", "model.dit_block")
    tracer.wrap(model, "cross_attention_increments", "model.cross_attention")
    for module in (model, encoders):
        tracer.wrap(module, "attention", "numerics.attention")
    tracer.wrap(model, "layer_norm", "numerics.layer_norm")
    tracer.wrap(sampling, "sample", "sampling.sample")
    for name in ("patchify_video", "encode_audio", "identity_conv_features", "identity_attend"):
        tracer.wrap(sampling, name, "sampling.condition")
    tracer.wrap(sampling, "unpatchify_video", "sampling.decode")
    for name in ("sync_proxy", "dynamics_proxy", "mask_bounding_box"):
        tracer.wrap(evalmetrics, name, "evalmetrics.score")
    tracer.wrap(evalmetrics, "identity_proxy", "evalmetrics.identity")
    tracer.wrap(checkpoint, "save_checkpoint", "checkpoint.save")
    tracer.wrap(checkpoint, "load_checkpoint", "checkpoint.load")


PER_LAYER = (
    ("numerics.graph_nodes_per_step", "count"),
    ("numerics.graph_nodes_per_frame_step", "count"),
    ("numerics.matmul_calls_per_step", "count"),
    ("numerics.backward_ms", "ms"),
    ("numerics.attention_ms", "ms"),
    ("numerics.layer_norm_ms", "ms"),
    ("model.forward_ms", "ms"),
    ("model.timestep_embedding_ms", "ms"),
    ("model.block_self_ms", "ms"),
    ("model.cross_attention_ms", "ms"),
    ("training.batch_ms", "ms"),
    ("training.adam_ms", "ms"),
    ("sampling.model_calls_per_sample", "count"),
    ("sampling.condition_ms", "ms"),
    ("sampling.decode_ms", "ms"),
    ("evalmetrics.score_ms_per_clip", "ms"),
    ("evalmetrics.identity_ms_per_clip", "ms"),
    ("synthdata.gen_ms_per_clip", "ms"),
    ("encoders.prepare_ms_per_clip", "ms"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
)

OP_ROOTS = {
    "train-two-stage": ("bench.train_step.clip", "bench.train_step.frame"),
    "sample-cfg": ("bench.sample_request",),
    "eval-heldout": ("bench.eval_call",),
}


def per_layer_metrics(tracer, workload: str, detail: dict) -> dict:
    """Per-layer figures from the spans: `*_ms` is the median over the
    workload's operations (train step, sample request, eval call) of the
    time inside that layer, except where the name says per clip; sampling
    figures are per sample() call."""
    ops = tracer.breakdown(OP_ROOTS[workload])

    def med(fn, rows=ops):
        return median([fn(r) for r in rows])

    m = {}
    for key, name in (("numerics.backward_ms", "numerics.backward"),
                      ("numerics.attention_ms", "numerics.attention"),
                      ("numerics.layer_norm_ms", "numerics.layer_norm"),
                      ("model.forward_ms", "model.forward"),
                      ("model.timestep_embedding_ms", "model.timestep_embedding"),
                      ("model.cross_attention_ms", "model.cross_attention"),
                      ("training.batch_ms", "training.batch"),
                      ("training.adam_ms", "training.adam")):
        m[key] = med(lambda r: r.get(name, 0.0))
    m["model.block_self_ms"] = med(
        lambda r: r.get("model.dit_block", 0.0) - r.get("model.cross_attention", 0.0))

    steps = {stage: tracer.breakdown((f"bench.train_step.{stage}",)) for stage in ("clip", "frame")}
    m["numerics.matmul_calls_per_step"] = med(
        lambda r: r.get("numerics.matmul", 0), steps["clip"] + steps["frame"])
    m["numerics.graph_nodes_per_step"] = med(lambda r: r.get("numerics.graph_nodes", 0),
                                             steps["clip"])
    m["numerics.graph_nodes_per_frame_step"] = max(
        [r.get("numerics.graph_nodes", 0) for r in steps["frame"]], default=0)

    samples = tracer.breakdown(("sampling.sample",))
    m["sampling.model_calls_per_sample"] = med(lambda r: r.get("model.forward#calls", 0),
                                               samples)
    m["sampling.condition_ms"] = med(lambda r: r.get("sampling.condition", 0.0), samples)
    m["sampling.decode_ms"] = med(lambda r: r.get("sampling.decode", 0.0), samples)

    calls = tracer.breakdown(("bench.eval_call",))
    m["evalmetrics.score_ms_per_clip"] = med(
        lambda r: (r.get("evalmetrics.score", 0.0) + r.get("evalmetrics.identity", 0.0))
        / HELD_OUT, calls)
    m["evalmetrics.identity_ms_per_clip"] = med(
        lambda r: r.get("evalmetrics.identity", 0.0) / HELD_OUT, calls)

    setups = tracer.breakdown(("bench.setup",))
    m["synthdata.gen_ms_per_clip"] = med(
        lambda r: r["synthdata.generate_sample"] / CORPUS_CLIPS, setups)
    m["encoders.prepare_ms_per_clip"] = med(
        lambda r: r["encoders.prepare"] / (CORPUS_CLIPS - HELD_OUT), setups)

    ckpt = tracer.breakdown(("bench.checkpoint",))
    m["checkpoint.save_ms"] = med(lambda r: r.get("checkpoint.save", 0.0), ckpt)
    m["checkpoint.load_ms"] = med(lambda r: r.get("checkpoint.load", 0.0), ckpt)
    m["checkpoint.bytes"] = detail.get("checkpoint_bytes", 0)
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}


# ----------------------------------------------------------------------


def environment() -> dict:
    import platform

    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, BLAS_THREADS)
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    from tracer import Tracer

    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    if args.trace:
        instrument(tracer)
    checks = Checks()
    run = {"train-two-stage": train_two_stage, "sample-cfg": sample_cfg,
           "eval-heldout": eval_heldout}[args.workload]

    setup, setup_times = timed_setups(args.seed, args.workload != "train-two-stage", tracer)
    times, clips, attempted, failed, rss, detail = run(
        setup, args.seed, args.seconds, tracer, checks)
    if not times:
        checks.expect("some operation completed", False, ops=0)

    op_ms = median(times)
    if args.trace:
        metrics = per_layer_metrics(tracer, args.workload, detail)
        tracer.restore()
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds})
        detail["trace_file"] = str(trace_path.relative_to(Path.cwd()))
    else:
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "op_ms": {"value": op_ms, "unit": "ms"},
        }
    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "op_ms": op_ms, "timed_ops": len(times),
                   "clips_per_s": clips / (sum(times) / 1e3) if times else 0.0,
                   "setup_s_all": setup_times,
                   "checks": [[n, ok, d] for n, ok, d in checks.results],
                   "environment": environment()})
    print(json.dumps(detail))
    correct = checks.all_passed
    failed = min(attempted, failed + checks.failed_ops)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
