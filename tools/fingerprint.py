"""Fixed-run fingerprint: sha256 of every output of a short seeded run.

    python3 tools/fingerprint.py [SRC_DIR]

SRC_DIR is the directory holding the `portraitflow` package (default:
this checkout's `src/`). Run it once per tree, say a change and its
parent, to see whether the change leaves every output byte-identical and
how many lines of `src/` it took, e.g.

    for src in ../parent/src src; do python3 tools/fingerprint.py $src; done

The run: a 20-clip seed-0 corpus at the default sizes; 12 `train_step`s
(6 clip, 6 frame) at batch 4 and seed 3 on the first 17 clips; one
clip-mode and one frame-mode 4-step `sample()` from clip 17; and a
3-clip `evaluate_model` on the last 3 clips; then a `save_checkpoint`/
`load_checkpoint` round trip of the trained state. It prints the sha256
of the prepared tensors (the reference latents are the ones `build_bundle`
derives for every training clip, hashed where a stored array once was, so
a tree that stored them hashes alike), losses, parameters, videos, eval
rows and the loaded checkpoint's contents (configs, normalization, step
counters, parameters, Adam moments and encoder arrays, not the file
bytes, so two checkpoint formats holding the same state hash alike), one
sha256 over all six, the autodiff graph nodes of each train step, counted from the
loss as `bench/run.py` counts them, and the `model_forward` calls each
`sample()` makes. Last it prints three lines that are not hashed: the
memory each train step's forward left allocated when `backward()` began
(tracemalloc, started afresh for each step: the graph and the batch), the
sampler processes the eval ran on (`evalmetrics.eval_workers`, which
follows the BLAS thread variables, so run it under `OPENBLAS_NUM_THREADS=1`
and unpinned to hash both eval paths), and the line count of the `.py`
files under SRC_DIR/portraitflow (as `wc -l` counts them).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

CLIPS, TRAIN_CLIPS, EVAL_CLIPS = 20, 17, 3
STEPS_CLIP, STEPS_FRAME, BATCH, TRAIN_SEED = 6, 6, 4, 3
SAMPLE_STEPS = 4


def graph_nodes(loss) -> int:
    seen, todo = {id(loss)}, [loss]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def array_bytes(arr) -> bytes:
    arr = np.ascontiguousarray(arr)
    return f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()


def run() -> Tuple[Dict[str, bytes], Dict[str, List[int]], Dict[str, List[float]],
                   Dict[str, int]]:
    """Run the fixed pipeline; return the bytes of each output group, the
    graph nodes and the MB allocated at backward per train step, and the
    model calls per sample by mode."""
    from portraitflow import checkpoint, evalmetrics, sampling, synthdata, training
    from portraitflow.encoders import EncoderConfig
    from portraitflow.model import DiTConfig
    from portraitflow.numerics import Tensor

    synth = synthdata.SynthConfig()
    samples = [synthdata.generate_sample(spec, synth)
               for spec in synthdata.make_corpus_specs(CLIPS, 0, synth)]
    enc = EncoderConfig()
    train_cfg = training.TrainConfig(steps_clip=STEPS_CLIP, steps_frame=STEPS_FRAME,
                                     batch_size=BATCH, seed=TRAIN_SEED)
    train_clips = samples[:TRAIN_CLIPS]
    state = training.init_trainer(DiTConfig.for_encoders(enc), enc, train_cfg, train_clips)
    data = training.prepare_training_tensors(train_clips, state.enc_params, enc)
    # the derived reference latents stand where a stored array once did
    references = training.build_bundle(state, data, np.arange(data.count), "clip").reference
    out = {"prepared": b"".join(array_bytes(a) for a in (
        data.latents, references.data, data.audio, data.id_features, data.lip_masks,
        data.omegas))}

    nodes, graph_mb = {"clip": [], "frame": []}, {"clip": [], "frame": []}
    backward = Tensor.backward

    def counting_backward(loss):
        stage = train_cfg.stage_at(state.step)
        graph_mb[stage].append(tracemalloc.get_traced_memory()[0] / 2**20)
        nodes[stage].append(graph_nodes(loss))
        return backward(loss)

    def traced_step(step):
        tracemalloc.start()
        try:
            return training.train_step(state, data, step)
        finally:
            tracemalloc.stop()

    Tensor.backward = counting_backward
    try:
        reports = [traced_step(step) for step in range(train_cfg.total_steps)]
    finally:
        Tensor.backward = backward
    out["losses"] = "\n".join(r.to_json() for r in reports).encode()
    out["params"] = b"".join(name.encode() + array_bytes(state.params[name].data)
                             for name in sorted(state.params))

    videos, calls = [], {}
    clip = samples[TRAIN_CLIPS]
    model_forward = sampling.model_forward

    def counting_forward(*args, **kwargs):
        calls[mode] += 1
        return model_forward(*args, **kwargs)

    sampling.model_forward = counting_forward
    try:
        for mode in ("clip", "frame"):
            calls[mode] = 0
            cfg = sampling.SampleConfig(steps=SAMPLE_STEPS, seed=1, mode=mode)
            video, info = sampling.sample(clip.video[0], clip.envelope, cfg, state)
            videos.append(array_bytes(video.data) + json.dumps(info, sort_keys=True).encode())
    finally:
        sampling.model_forward = model_forward
    out["videos"] = b"".join(videos)

    report, rows = evalmetrics.evaluate_model(
        state, samples[-EVAL_CLIPS:], sampling.SampleConfig(steps=SAMPLE_STEPS, seed=2))
    out["rows"] = json.dumps({"report": report.to_json(), "rows": rows},
                             sort_keys=True).encode()

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint.save_checkpoint(Path(tmp) / "state.pfck", state)
        loaded = checkpoint.load_checkpoint(Path(tmp) / "state.pfck")
    arrays = {f"model.{name}": p.data for name, p in loaded.params.items()}
    for name in loaded.opt.m:
        arrays[f"opt.m.{name}"] = loaded.opt.m[name]
        arrays[f"opt.v.{name}"] = loaded.opt.v[name]
    for name, arr in vars(loaded.enc_params).items():
        arrays[f"enc.{name}"] = arr
    out["checkpoint"] = repr((loaded.dit, loaded.enc, loaded.train, loaded.norm_facial,
                              loaded.norm_body, loaded.step, loaded.opt.count)).encode()
    out["checkpoint"] += b"".join(name.encode() + array_bytes(arrays[name])
                                  for name in sorted(arrays))
    return out, nodes, graph_mb, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?",
                        default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the portraitflow package")
    args = parser.parse_args(argv)
    if not (Path(args.src) / "portraitflow" / "__init__.py").is_file():
        print(f"error: no portraitflow package under {args.src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(args.src).resolve()))

    out, nodes, graph_mb, calls = run()
    total = hashlib.sha256()
    for name, blob in out.items():
        digest = hashlib.sha256(blob).hexdigest()
        total.update(digest.encode())
        print(f"{name:<10} {digest}")
    print(f"{'all':<10} {total.hexdigest()}")
    for stage, counts in nodes.items():
        print(f"graph nodes per {stage} step: max {max(counts)}, each {counts}")
    for mode, count in calls.items():
        print(f"model_forward calls per {mode}-mode sample(): {count} "
              f"at {SAMPLE_STEPS} steps")
    for stage, mbs in graph_mb.items():
        print(f"graph MB at backward per {stage} step: max {max(mbs):.2f} (not hashed)")
    from portraitflow import evalmetrics
    # a tree without eval_workers samples its eval clips in-process
    workers = getattr(evalmetrics, "eval_workers", lambda clips: 1)(EVAL_CLIPS)
    print(f"eval workers: {workers} (not hashed)")
    lines = sum(p.read_bytes().count(b"\n")
                for p in (Path(args.src) / "portraitflow").rglob("*.py"))
    print(f"src lines: {lines} (not hashed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
