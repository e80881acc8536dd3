"""Checkpoint round trips, exact resume and malformed files."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from portraitflow.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    read_checkpoint_raw,
    save_checkpoint,
)
from portraitflow.cli import main
from portraitflow.encoders import EncoderConfig
from portraitflow.model import DiTConfig
from portraitflow.synthdata import SynthConfig, generate_sample, make_corpus_specs
from portraitflow.training import (
    TrainConfig,
    init_trainer,
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
        for name, arr in state.enc_params.named_arrays().items():
            assert np.array_equal(loaded.enc_params.named_arrays()[name], arr)

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


def _inspect_fails_cleanly(path, capsys) -> None:
    assert main(["inspect", "--ckpt", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


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
        # every checkpoint written before these keys were retired carries them
        current, old = tmp_path / "current.pfck", tmp_path / "old.pfck"
        current.write_bytes(saved_bytes)
        old.write_bytes(_with_header(
            saved_bytes, lambda h: h + "enc.temporal_stride = 1\ntrain.optimizer = adam\n"))
        a, b = load_checkpoint(current), load_checkpoint(old)
        assert (a.dit, a.enc, a.train, a.step) == (b.dit, b.enc, b.train, b.step)
        assert main(["inspect", "--ckpt", str(old)]) == 0
        for line in ("train.optimizer = sgd\n", "enc.temporal_stride = 2\n"):
            old.write_bytes(_with_header(saved_bytes, lambda h: h + line))
            _inspect_fails_cleanly(old, capsys)

    def test_header_without_step_counters_fails_cleanly(self, saved_bytes, tmp_path,
                                                         capsys):
        path = tmp_path / "nostep.pfck"
        path.write_bytes(_with_header(saved_bytes, lambda h: "".join(
            line for line in h.splitlines(True) if not line.startswith("state.step"))))
        _inspect_fails_cleanly(path, capsys)

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
