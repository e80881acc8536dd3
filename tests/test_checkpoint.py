"""Checkpoint round trips, exact resume and malformed files."""

import dataclasses
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import portraitflow
from portraitflow.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    read_checkpoint_raw,
    save_checkpoint,
)
from portraitflow.cli import main
from portraitflow.numerics import Tensor, save_tensor
from portraitflow.numerics.serialize import write_payload
from portraitflow.synthdata import generate_sample, make_corpus_specs
from portraitflow.training import (
    TrainConfig,
    init_trainer,
    prepare_training_tensors,
    run_two_stage,
    train_step,
)
from tiny_configs import TINY_DIT, TINY_ENC, TINY_SYNTH

# a two-stage run of the TrainConfig fields in argv[2] into argv[1] that dies
# at step argv[3] (default 12, two steps after the clip checkpoint), with no
# chance to flush (as a SIGKILL would); given argv[4], it resumes from that
# checkpoint
KILLED_RUN = """
import json, os, sys
from portraitflow import training
from portraitflow.checkpoint import load_checkpoint
from portraitflow.synthdata import generate_sample, make_corpus_specs
from tiny_configs import TINY_DIT, TINY_ENC, TINY_SYNTH

train_step = training.train_step
die_at = int(sys.argv[3]) if len(sys.argv) > 3 else 12
resume = load_checkpoint(sys.argv[4]) if len(sys.argv) > 4 else None


def die_at_step(state, data, step):
    if step == die_at:
        os._exit(3)
    return train_step(state, data, step)


training.train_step = die_at_step
samples = [generate_sample(s, TINY_SYNTH) for s in make_corpus_specs(5, 3, TINY_SYNTH)]
training.run_two_stage(samples, TINY_DIT, TINY_ENC,
                       training.TrainConfig(**json.loads(sys.argv[2])), sys.argv[1], resume)
"""


@pytest.fixture(scope="module")
def tiny_samples():
    return [generate_sample(s, TINY_SYNTH)
            for s in make_corpus_specs(5, 3, TINY_SYNTH)]


def trained_state(samples, steps_clip=3, steps_frame=2):
    cfg = TrainConfig(steps_clip=steps_clip, steps_frame=steps_frame,
                      batch_size=2, seed=4)
    state = init_trainer(TINY_DIT, TINY_ENC, cfg, samples)
    data = prepare_training_tensors(samples, state.enc_params, TINY_ENC)
    for step in range(cfg.total_steps):
        train_step(state, data, step)
    return state


class TestRoundTrip:
    def test_bit_exact(self, tiny_samples, tmp_path):
        state = trained_state(tiny_samples)
        path = tmp_path / "ckpt.pfck"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)

        assert loaded.dit == state.dit
        assert loaded.enc == state.enc
        assert loaded.train == state.train
        assert loaded.step == state.step
        assert loaded.opt.count == state.opt.count
        assert loaded.norm_facial == state.norm_facial
        assert loaded.norm_body == state.norm_body
        assert set(loaded.params) == set(state.params)
        for name in state.params:
            assert np.array_equal(loaded.params[name].data, state.params[name].data)
        for name in state.opt.m:
            assert np.array_equal(loaded.opt.m[name], state.opt.m[name])
            assert np.array_equal(loaded.opt.v[name], state.opt.v[name])
        for name, arr in vars(state.enc_params).items():
            assert np.array_equal(vars(loaded.enc_params)[name], arr)

    def test_save_load_save_is_stable(self, tiny_samples, tmp_path):
        state = trained_state(tiny_samples)
        p1, p2 = tmp_path / "a.pfck", tmp_path / "b.pfck"
        save_checkpoint(p1, state)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_mismatch_rejected(self, tiny_samples, tmp_path):
        state = trained_state(tiny_samples)
        path = tmp_path / "ckpt.pfck"
        save_checkpoint(path, state)
        raw = bytearray(path.read_bytes())
        raw[4] = FORMAT_VERSION + 1  # little-endian version field
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.pfck"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="not a checkpoint"):
            read_checkpoint_raw(path)


class TestResume:
    def test_boundary_checkpoint_resume_matches_uninterrupted(self, tiny_samples,
                                                              tmp_path):
        cfg = TrainConfig(steps_clip=4, steps_frame=3, batch_size=2, seed=9)
        full_state, full_reports, artifacts = run_two_stage(
            tiny_samples, TINY_DIT, TINY_ENC, cfg, tmp_path / "full")

        resumed = load_checkpoint(artifacts["clip"])
        assert resumed.step == cfg.steps_clip
        resumed_state, tail_reports, _ = run_two_stage(
            tiny_samples, TINY_DIT, TINY_ENC, cfg, tmp_path / "resume",
            state=resumed)

        head = [r.loss for r in full_reports[:cfg.steps_clip]]
        tail = [r.loss for r in tail_reports]
        assert head + tail == [r.loss for r in full_reports]
        for name in full_state.params:
            assert np.array_equal(full_state.params[name].data,
                                  resumed_state.params[name].data), name

    def test_resume_into_same_directory_logs_each_step_once(self, tiny_samples,
                                                            tmp_path):
        import json

        cfg = TrainConfig(steps_clip=3, steps_frame=3, batch_size=2, seed=2)
        _, full_reports, artifacts = run_two_stage(
            tiny_samples, TINY_DIT, TINY_ENC, cfg, tmp_path)
        # a crash cut the last line short
        with open(artifacts["log"], "a") as log:
            log.write('{"step": 6, "sta')
        run_two_stage(tiny_samples, TINY_DIT, TINY_ENC, cfg, tmp_path,
                      state=load_checkpoint(artifacts["clip"]))
        rows = [json.loads(line) for line in artifacts["log"].read_text().splitlines()]
        assert [r["step"] for r in rows] == list(range(cfg.total_steps))
        assert [r["loss"] for r in rows] == [r.loss for r in full_reports]

    def test_resume_after_a_hard_kill_logs_each_step_once(self, tiny_samples, tmp_path):
        # a log left in its write buffer lost steps 0-9 to the kill for good
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(portraitflow.__file__).parents[1]), str(Path(__file__).parent)]))
        cfg = TrainConfig(steps_clip=10, steps_frame=10, batch_size=2, seed=9)
        run = subprocess.run([sys.executable, "-c", KILLED_RUN, str(tmp_path),
                              json.dumps(dataclasses.asdict(cfg))], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 3, run.stderr
        run_two_stage(tiny_samples, TINY_DIT, TINY_ENC, cfg, tmp_path,
                      state=load_checkpoint(tmp_path / "checkpoint_clip.pfck"))
        rows = [json.loads(line) for line in (tmp_path / "loss_log.jsonl").read_text().splitlines()]
        assert [r["step"] for r in rows] == list(range(cfg.total_steps))

    def test_resume_killed_before_its_first_flush_keeps_the_logged_steps(self, tiny_samples,
                                                                          tmp_path):
        # a resume that rewrote the kept lines through its write buffer left
        # an empty log when killed before the buffer's first flush
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(portraitflow.__file__).parents[1]), str(Path(__file__).parent)]))
        cfg = TrainConfig(steps_clip=10, steps_frame=10, batch_size=2, seed=9)
        log = tmp_path / "loss_log.jsonl"
        for kill in (["12"], ["11", str(tmp_path / "checkpoint_clip.pfck")]):
            run = subprocess.run([sys.executable, "-c", KILLED_RUN, str(tmp_path),
                                  json.dumps(dataclasses.asdict(cfg)), *kill], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert run.returncode == 3, run.stderr
            assert [json.loads(line)["step"] for line in log.read_text().splitlines()] \
                == list(range(cfg.steps_clip))
        run_two_stage(tiny_samples, TINY_DIT, TINY_ENC, cfg, tmp_path,
                      state=load_checkpoint(tmp_path / "checkpoint_clip.pfck"))
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["step"] for r in rows] == list(range(cfg.total_steps))

    @pytest.mark.parametrize("bad", ["{}", '{"step": "x"}', "not json"])
    def test_resume_rejects_an_unreadable_kept_log_line(self, tiny_samples, tmp_path, bad):
        cfg = TrainConfig(steps_clip=3, steps_frame=3, batch_size=2, seed=2)
        _, _, artifacts = run_two_stage(tiny_samples, TINY_DIT, TINY_ENC, cfg, tmp_path)
        lines = artifacts["log"].read_text().splitlines(keepends=True)
        lines[1] = bad + "\n"
        artifacts["log"].write_text("".join(lines))
        with pytest.raises(ValueError, match=r"loss_log\.jsonl line 2: "):
            run_two_stage(tiny_samples, TINY_DIT, TINY_ENC, cfg, tmp_path,
                          state=load_checkpoint(artifacts["clip"]))
        assert artifacts["log"].read_text() == "".join(lines)

    @pytest.mark.parametrize("differs", ["dit", "train"])
    def test_resume_rejects_configs_the_state_does_not_hold(self, tiny_samples, tmp_path,
                                                            differs):
        # unchecked, the loop ran to the given train config's total while
        # every step took its seed, stage and batch from the state's
        cfg = TrainConfig(steps_clip=4, steps_frame=3, batch_size=2, seed=9)
        _, _, artifacts = run_two_stage(tiny_samples, TINY_DIT, TINY_ENC, cfg,
                                        tmp_path / "full")
        given = {"dit": (dataclasses.replace(TINY_DIT, lambda_identity=0.25), cfg),
                 "train": (TINY_DIT, TrainConfig(steps_clip=2, steps_frame=6, seed=1))}
        dit, train = given[differs]
        with pytest.raises(ValueError, match=f"the state's {differs} config differs"):
            run_two_stage(tiny_samples, dit, TINY_ENC, train, tmp_path / "resume",
                          state=load_checkpoint(artifacts["clip"]))
        assert not (tmp_path / "resume" / "checkpoint_final.pfck").exists()

    def test_failed_save_keeps_previous_checkpoint(self, tiny_samples, tmp_path):
        state = trained_state(tiny_samples)
        path = tmp_path / "ckpt.pfck"
        save_checkpoint(path, state)
        before = path.read_bytes()
        state.params["bad\ud800"] = Tensor(np.zeros(2))  # cannot be encoded
        with pytest.raises(UnicodeEncodeError):
            save_checkpoint(path, state)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.pfck"]


@pytest.fixture(scope="module")
def saved_bytes(tiny_samples, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.pfck"
    save_checkpoint(path, trained_state(tiny_samples))
    return path.read_bytes()


def _with_header(raw: bytes, edit) -> bytes:
    """Rewrite a checkpoint's header text with `edit` (str -> str)."""
    (length,) = struct.unpack("<Q", raw[8:16])
    header = edit(raw[16:16 + length].decode("utf-8")).encode("utf-8")
    return raw[:8] + struct.pack("<Q", len(header)) + header + raw[16 + length:]


def _with_records(raw: bytes, records) -> bytes:
    """Replace a checkpoint's tensor records with `records`, a list of
    (name, array): u32 count, then per record a u16-length name and the
    tensor's payload."""
    (length,) = struct.unpack("<Q", raw[8:16])
    buf = io.BytesIO()
    buf.write(struct.pack("<I", len(records)))
    for name, arr in records:
        buf.write(struct.pack("<H", len(name.encode())) + name.encode())
        write_payload(buf, arr)
    return raw[:16 + length] + buf.getvalue()


def _inspect_fails_cleanly(path, capsys) -> None:
    assert main(["inspect", "--ckpt", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def _fails_cleanly(command, path, tmp_path, capsys):
    """Run `command` ("sample" or "inspect") on the checkpoint at `path`;
    assert it exits 2 with one `error:` line and return that line and
    tracemalloc's peak in bytes."""
    argv = [command, "--ckpt", str(path)]
    if command == "sample":
        ref, audio = tmp_path / "ref.pft", tmp_path / "audio.pft"
        save_tensor(ref, np.zeros((TINY_ENC.height, TINY_ENC.width, 3)))
        save_tensor(audio, np.zeros(TINY_ENC.envelope_samples))
        argv += ["--ref", str(ref), "--audio", str(audio), "--out", str(tmp_path / "out"),
                 "--steps", "1"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("error:"), (command, err)
    return err[0], peak


class TestMalformed:
    @pytest.mark.parametrize("where", ["10 bytes", "mid-header", "mid-directory",
                                       "mid-payload"])
    def test_truncated_checkpoint_fails_cleanly(self, saved_bytes, tmp_path, capsys,
                                                where):
        (header_len,) = struct.unpack("<Q", saved_bytes[8:16])
        cut = {"10 bytes": 10, "mid-header": 16 + header_len // 2,
               "mid-directory": 16 + header_len + 4 + 7,
               "mid-payload": len(saved_bytes) - 10}[where]
        path = tmp_path / "cut.pfck"
        path.write_bytes(saved_bytes[:cut])
        _inspect_fails_cleanly(path, capsys)

    def test_retired_header_keys(self, saved_bytes, tmp_path, capsys):
        # only format-1 checkpoints carried these, and no reader is kept for them
        old = tmp_path / "old.pfck"
        for line in ("train.optimizer = adam\n", "enc.temporal_stride = 1\n"):
            old.write_bytes(_with_header(saved_bytes, lambda h: h + line))
            _inspect_fails_cleanly(old, capsys)

    def test_header_without_step_counters_fails_cleanly(self, saved_bytes, tmp_path,
                                                         capsys):
        path = tmp_path / "nostep.pfck"
        path.write_bytes(_with_header(saved_bytes, lambda h: "".join(
            line for line in h.splitlines(True) if not line.startswith("state.step"))))
        _inspect_fails_cleanly(path, capsys)

    @pytest.mark.parametrize("key", ["state.step", "state.adam_count"])
    def test_negative_step_counter_rejected(self, saved_bytes, tmp_path, capsys, key):
        # unchecked, step -7 loads and `sample` takes its mode from stage_at(-8)
        path = tmp_path / "negative.pfck"
        path.write_bytes(_with_header(saved_bytes, lambda h: "".join(
            f"{key} = -7\n" if line.startswith(key + " ") else line
            for line in h.splitlines(True))))
        assert main(["inspect", "--ckpt", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0], err

    @pytest.mark.parametrize("line", ["train.lr = -0.5", "train.batch_size = 0",
                                      "train.steps_frame = -1"])
    def test_impossible_training_value_in_header_rejected(self, saved_bytes, tmp_path,
                                                          line):
        key = line.split(" =")[0]
        path = tmp_path / "badtrain.pfck"
        path.write_bytes(_with_header(saved_bytes, lambda h: "".join(
            line + "\n" if old.startswith(key + " ") else old
            for old in h.splitlines(True))))
        with pytest.raises(ValueError, match=key.split(".")[1]):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["rename enc.audio_b", "rename model.id.wo_b",
                                      "rename opt.v.pos_audio", "reshape model.in_proj.b",
                                      "nan model.out_proj.b", "inf opt.v.pos_audio",
                                      "extra model.block2.mod.w"])
    def test_tensor_set_must_match_header(self, saved_bytes, tmp_path, capsys, edit):
        # a renamed tensor is reported missing under its old name; an Adam
        # moment needs its partner; a [1 x c] bias would broadcast silently;
        # one NaN or inf would make every sampled video NaN; a tensor of a
        # deeper model is named, not ignored
        action, named = edit.split()
        path = tmp_path / "edited.pfck"
        path.write_bytes(saved_bytes)
        if action == "rename":
            assert saved_bytes.count(named.encode()) == 1
            path.write_bytes(saved_bytes.replace(named.encode(), named[:-1].encode() + b"z"))
        elif action == "reshape":
            state = load_checkpoint(path)
            state.params["in_proj.b"] = Tensor(state.params["in_proj.b"].data[None])
            save_checkpoint(path, state)
        else:
            _, tensors = read_checkpoint_raw(path)
            if action == "extra":
                assert named not in tensors
                tensors[named] = np.zeros(3)
            else:
                tensors[named] = tensors[named].copy()
                tensors[named].flat[0] = float(action)
            path.write_bytes(_with_records(saved_bytes, sorted(tensors.items())))
        for command in ("sample", "inspect"):
            err = _fails_cleanly(command, path, tmp_path, capsys)[0]
            assert repr(named) in err
            assert action != "extra" or "the header implies no such tensor" in err, err

    @pytest.mark.parametrize("edit", [
        {"dit.depth": 5000},
        {"enc.patch": 40, "enc.height": 40, "enc.width": 40},
    ], ids=["depth", "patch and frame size"])
    def test_header_larger_than_the_file_allocates_nothing(self, saved_bytes, tmp_path,
                                                           capsys, edit):
        # a reader that builds the header-sized model to learn its shapes
        # peaks at 160-190 MB here, and asks for 32 GB at depth 100000
        def rewrite(header):
            kept = [line for line in header.splitlines(True) if line.split(" =")[0] not in edit]
            return "".join(kept) + "".join(f"{key} = {value}\n" for key, value in edit.items())

        path = tmp_path / "larger.pfck"
        path.write_bytes(_with_header(saved_bytes, rewrite))
        flat, _ = read_checkpoint_raw(path)
        assert all(flat[key] == value for key, value in edit.items())
        for command in ("sample", "inspect"):
            err, peak = _fails_cleanly(command, path, tmp_path, capsys)
            assert "the header implies" in err, err
            assert peak < 16e6, f"{command} peak {peak / 1e6:.1f} MB"

    def test_inspect_rejects_a_header_deeper_than_the_file(self, saved_bytes, tmp_path,
                                                           capsys):
        # a summary read from the header alone printed depth 9 beside the
        # 2-block file's 81 model tensors and exited 0
        def deeper(header):
            assert "dit.depth = 2\n" in header.splitlines(True)
            return header.replace("dit.depth = 2\n", "dit.depth = 9\n")

        path = tmp_path / "deeper.pfck"
        path.write_bytes(_with_header(saved_bytes, deeper))
        err, _ = _fails_cleanly("inspect", path, tmp_path, capsys)
        assert "tensor 'model.block2.mod.w' has no such tensor" in err, err

    def test_inspect_prints_the_stored_header(self, saved_bytes, tmp_path, capsys):
        path = tmp_path / "ckpt.pfck"
        path.write_bytes(saved_bytes)
        assert main(["inspect", "--ckpt", str(path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        (length,) = struct.unpack("<Q", saved_bytes[8:16])
        header = saved_bytes[16:16 + length].decode("utf-8").splitlines()
        assert printed[4:] == [f"  {line}" for line in header]
        model = {name: arr for name, arr in read_checkpoint_raw(path)[1].items()
                 if name.startswith("model.")}
        assert printed[2] == (f"  model tensors: {len(model)}  trainable parameters: "
                              f"{sum(arr.size for arr in model.values())}")

    def test_tensor_records_follow_the_header_in_name_order(self, saved_bytes, tmp_path):
        path = tmp_path / "ckpt.pfck"
        path.write_bytes(saved_bytes)
        _, tensors = read_checkpoint_raw(path)
        assert _with_records(saved_bytes, sorted(tensors.items())) == saved_bytes

    @pytest.mark.parametrize("edit", ["version 1", "version 2", "derived key in header",
                                      "key given twice in header", "name stored twice",
                                      "trailing bytes"])
    def test_unreadable_layout_fails_cleanly(self, saved_bytes, tmp_path, capsys, edit):
        path = tmp_path / "edited.pfck"
        path.write_bytes(saved_bytes)
        records = sorted(read_checkpoint_raw(path)[1].items())
        raw, message = {
            "version 1": (saved_bytes[:4] + struct.pack("<I", 1) + saved_bytes[8:],
                          "format version 1 unsupported (expected 3)"),
            "version 2": (saved_bytes[:4] + struct.pack("<I", 2) + saved_bytes[8:],
                          "format version 2 unsupported (expected 3)"),
            "derived key in header": (_with_header(saved_bytes,
                                                   lambda h: h + "dit.latent_h = 2\n"),
                                      "unknown config key 'dit.latent_h'"),
            "key given twice in header": (_with_header(saved_bytes,
                                                       lambda h: h + "train.seed = 1\n"),
                                          "config key 'train.seed' already given on line"),
            "name stored twice": (_with_records(saved_bytes, records[:2] + records[1:]),
                                  f"tensor {records[1][0]!r} stored twice"),
            "trailing bytes": (saved_bytes + bytes(16), "16 bytes after the last tensor"),
        }[edit]
        path.write_bytes(raw)
        assert main(["inspect", "--ckpt", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(prefix=st.sampled_from([b"", MAGIC, MAGIC + struct.pack("<I", FORMAT_VERSION)]),
           body=st.binary(max_size=96))
    def test_any_bytes_parse_or_raise(self, tmp_path, prefix, body):
        path = tmp_path / "fuzz.pfck"
        path.write_bytes(prefix + body)
        try:
            read_checkpoint_raw(path)
        except (ValueError, EOFError):
            pass

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupted_checkpoint_parses_or_raises(self, saved_bytes, tmp_path, data):
        raw = bytearray(saved_bytes)
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        path = tmp_path / "corrupt.pfck"
        path.write_bytes(bytes(raw[:data.draw(st.integers(0, len(raw)))]))
        try:
            read_checkpoint_raw(path)
        except (ValueError, EOFError):
            pass
