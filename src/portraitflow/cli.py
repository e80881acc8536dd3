"""Command-line surface: gen-data | train | sample | eval | inspect.

Every command writes a reproducibility record (fully resolved config and
seeds) alongside its outputs. Config files are flat typed key=value text
(see config.py); command-line flags override file values. Environment
variables are never read, apart from the BLAS thread count that `eval`
reads to size its worker pool.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .checkpoint import checkpoint_contents, load_checkpoint
from .config import config_schema, configs_to_flat, flat_to_configs, parse_flat
from .encoders import EncoderConfig
from .evalmetrics import evaluate_model, write_report
from .numerics import load_tensor, save_tensor
from .sampling import SampleConfig, sample
from .synthdata import SynthConfig, make_corpus_specs, read_dataset, write_dataset
from .training import run_two_stage


def write_ppm(path, frame: np.ndarray) -> None:
    """Binary PPM (P6) dump of one [H,W,3] float frame."""
    data = (np.clip(frame, 0.0, 1.0) * 255.0).round().astype(np.uint8)
    h, w, _ = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def _write_record(out_dir: Path, command: str, payload: Dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"tool": "portraitflow", "version": __version__, "command": command}
    record.update(payload)
    (out_dir / "run_record.json").write_text(json.dumps(record, indent=1))


def _check_corpus(synth: SynthConfig, enc: EncoderConfig) -> None:
    """Reject a corpus whose clips the encoders would read only in part:
    its frames and frame size must be the encoder's, and its envelopes as
    long as the encoder's audio tokens cover."""
    have = (synth.frames, synth.height, synth.width, synth.envelope_samples)
    want = (enc.frames, enc.height, enc.width, enc.envelope_samples)
    if have != want:
        raise ValueError(f"corpus (frames, height, width, envelope_samples) {have} "
                         f"does not match the encoder config's {want}")


# ----------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    if args.count < 1:
        raise ValueError(f"count {args.count} must be at least 1")
    out = Path(args.out)
    synth = SynthConfig(frames=args.frames, height=args.size, width=args.size,
                        envelope_samples=EncoderConfig(frames=args.frames).envelope_samples,
                        identities=args.identities)
    specs = make_corpus_specs(args.count, args.seed, synth)
    manifest = write_dataset(specs, out, synth)
    _write_record(out, "gen-data", {
        "seed": args.seed, "count": args.count,
        "synth": dataclasses.asdict(synth), "manifest": str(manifest),
    })
    print(f"wrote {args.count} samples to {out}")
    return 0


def cmd_train(args) -> int:
    samples, synth = read_dataset(args.data)
    flat: Dict[str, object] = {}
    if args.config:
        flat.update(parse_flat(Path(args.config).read_text()))
    # a flag given overrides the file: its dest is the config key it sets
    keys = config_schema()
    flat.update((key, value) for key, value in vars(args).items()
                if key in keys and value is not None)
    # encoder geometry must match the stored corpus
    flat.setdefault("enc.frames", synth.frames)
    flat.setdefault("enc.height", synth.height)
    flat.setdefault("enc.width", synth.width)
    dit, enc, train = flat_to_configs(flat)
    _check_corpus(synth, enc)

    holdout = args.holdout
    if not 0 <= holdout < len(samples):
        raise ValueError(f"holdout {holdout} must lie in [0, corpus size {len(samples)})")
    train_samples = samples[:len(samples) - holdout]

    out = Path(args.out)
    state, reports, artifacts = run_two_stage(train_samples, dit, enc, train, out)
    _write_record(out, "train", {
        "data": str(args.data), "holdout": holdout,
        "config": {k: v for k, v in sorted(configs_to_flat(dit, enc, train).items())},
        "artifacts": {k: str(v) for k, v in artifacts.items()},
    })
    final_loss = reports[-1].loss if reports else float("nan")
    print(f"trained {len(reports)} step(s); final loss {final_loss:.5f}; "
          f"checkpoints in {out}")
    return 0


def _load_reference(path) -> np.ndarray:
    arr = load_tensor(path)
    if arr.ndim == 4 and len(arr):
        arr = arr[0]
    if arr.ndim != 3 or arr.shape[-1] != 3:
        raise ValueError(f"reference {path}: expected [H,W,3] or [F,H,W,3], "
                         f"got {arr.shape}")
    return arr


def cmd_sample(args) -> int:
    state = load_checkpoint(args.ckpt)
    reference = _load_reference(args.ref)
    envelope = load_tensor(args.audio).reshape(-1)
    cfg = SampleConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SampleConfig)})
    video, info = sample(reference, envelope, cfg, state)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_tensor(out / "video.pft", video.data)
    if args.dump_frames:
        for i, frame in enumerate(video.data):
            write_ppm(out / f"frame_{i:03d}.ppm", frame)
    _write_record(out, "sample", {
        "ckpt": str(args.ckpt), "ref": str(args.ref), "audio": str(args.audio),
        "sample_config": dataclasses.asdict(cfg), "info": info,
    })
    print(f"wrote video.pft ({video.frames} frames) to {out}; "
          f"overflow fraction {info['overflow_fraction']:.4f}")
    return 0


def cmd_eval(args) -> int:
    state = load_checkpoint(args.ckpt)
    if args.lambda_identity is not None:
        state.dit = dataclasses.replace(state.dit, lambda_identity=args.lambda_identity)
    samples, synth = read_dataset(args.data)
    _check_corpus(synth, state.enc)
    if not 1 <= args.count <= len(samples):
        raise ValueError(f"count {args.count} must lie in [1, corpus size {len(samples)}]")
    held_out = samples[len(samples) - args.count:]
    cfg = SampleConfig(steps=args.steps, cfg_scale=args.cfg_scale, seed=args.seed)
    report, rows = evaluate_model(state, held_out, cfg)
    out = Path(args.out)
    write_report(out, report, rows)
    _write_record(out, "eval", {
        "ckpt": str(args.ckpt), "data": str(args.data), "count": args.count,
        "sample_config": dataclasses.asdict(cfg),
        "lambda_identity_override": args.lambda_identity,
        "report": json.loads(report.to_json()),
    })
    print(report.table())
    return 0


def cmd_inspect(args) -> int:
    state = load_checkpoint(args.ckpt)
    flat, tensors = checkpoint_contents(state)
    total = sum(p.data.size for p in state.params.values())
    print(f"checkpoint {args.ckpt}")
    print(f"  step: {state.step}  adam updates: {state.opt.count}")
    print(f"  model tensors: {len(state.params)}  trainable parameters: {total}")
    print(f"  total stored tensors: {len(tensors)}")
    for key in sorted(flat):
        print(f"  {key} = {flat[key]}")
    return 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portraitflow",
        description="Toy audio-driven talking-portrait flow model")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=int, default=256)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--identities", type=int, default=SynthConfig.identities)
    g.add_argument("--frames", type=int, default=SynthConfig.frames)
    g.add_argument("--size", type=int, default=SynthConfig.height)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="two-stage training on a stored corpus")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", default=None, help="flat key=value config file")
    schema = config_schema()
    for flag, key in (("--steps-clip", "train.steps_clip"), ("--steps-frame", "train.steps_frame"),
                      ("--batch", "train.batch_size"), ("--lr", "train.lr"),
                      ("--eta", "train.eta"), ("--seed", "train.seed"),
                      ("--depth", "dit.depth"), ("--width", "dit.width")):
        t.add_argument(flag, type=schema[key], dest=key,
                       metavar=flag[2:].upper().replace("-", "_"))
    t.add_argument("--holdout", type=int, default=16,
                   help="samples kept out of training (tail of the corpus)")
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sample", help="generate a video from a checkpoint")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--ref", required=True, help="reference tensor file [H,W,3] or [F,H,W,3]")
    s.add_argument("--audio", required=True, help="envelope tensor file")
    s.add_argument("--out", required=True)
    s.add_argument("--motion-l", type=float, default=SampleConfig.omega_l, dest="omega_l")
    s.add_argument("--motion-b", type=float, default=SampleConfig.omega_b, dest="omega_b")
    s.add_argument("--cfg-scale", type=float, default=SampleConfig.cfg_scale)
    s.add_argument("--steps", type=int, default=SampleConfig.steps)
    s.add_argument("--seed", type=int, default=SampleConfig.seed)
    s.add_argument("--mode", choices=("clip", "frame"), default=SampleConfig.mode)
    s.add_argument("--dump-frames", action="store_true")
    s.add_argument("--drop-all-conditions", action="store_true")
    s.set_defaults(func=cmd_sample)

    e = sub.add_parser("eval", help="proxy metrics on held-out samples")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--count", type=int, default=16)
    e.add_argument("--steps", type=int, default=SampleConfig.steps)
    e.add_argument("--cfg-scale", type=float, default=SampleConfig.cfg_scale)
    e.add_argument("--seed", type=int, default=SampleConfig.seed)
    e.add_argument("--lambda-identity", type=float, default=None)
    e.set_defaults(func=cmd_eval)

    i = sub.add_parser("inspect", help="summarize a checkpoint")
    i.add_argument("--ckpt", required=True)
    i.set_defaults(func=cmd_inspect)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, EOFError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
