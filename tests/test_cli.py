"""Operator surface: every command end-to-end on a micro corpus."""

import hashlib
import json
import shutil

import numpy as np
import pytest

from portraitflow.cli import build_parser, main, write_ppm
from portraitflow.numerics import load_tensor, save_tensor
from portraitflow.sampling import SampleConfig
from portraitflow.synthdata import SynthConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Micro corpus + short training run shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--out", str(data), "--count", "10",
                 "--seed", "3", "--identities", "4"]) == 0
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--steps-clip", "4", "--steps-frame", "2", "--batch", "2",
                 "--holdout", "3", "--depth", "2", "--width", "32"]) == 0
    return root


def test_gen_data_outputs(workspace):
    data = workspace / "data"
    manifest = json.loads((data / "manifest.json").read_text())
    assert len(manifest["samples"]) == 10
    assert (data / "run_record.json").exists()
    assert (data / "sample_00000" / "video.pft").exists()


def test_train_outputs(workspace):
    run = workspace / "run"
    assert (run / "checkpoint_clip.pfck").exists()
    assert (run / "checkpoint_final.pfck").exists()
    lines = (run / "loss_log.jsonl").read_text().strip().splitlines()
    assert len(lines) == 6
    record = json.loads((run / "run_record.json").read_text())
    assert record["command"] == "train"
    assert record["config"]["train.steps_clip"] == 4
    assert record["config"]["dit.depth"] == 2


def test_sample_command_and_determinism(workspace):
    data, run = workspace / "data", workspace / "run"
    ref = data / "sample_00008" / "video.pft"
    audio = data / "sample_00008" / "envelope.pft"
    out1, out2 = workspace / "s1", workspace / "s2"
    args = ["sample", "--ckpt", str(run / "checkpoint_final.pfck"),
            "--ref", str(ref), "--audio", str(audio),
            "--steps", "3", "--seed", "11", "--dump-frames"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    v1 = load_tensor(out1 / "video.pft")
    v2 = load_tensor(out2 / "video.pft")
    assert v1.shape == (8, 32, 32, 3)
    assert np.array_equal(v1, v2)
    assert (out1 / "frame_000.ppm").exists()
    record = json.loads((out1 / "run_record.json").read_text())
    assert record["sample_config"]["cfg_scale"] == 4.5
    assert record["sample_config"]["steps"] == 3


def test_eval_command(workspace):
    data, run = workspace / "data", workspace / "run"
    out = workspace / "eval"
    assert main(["eval", "--ckpt", str(run / "checkpoint_final.pfck"),
                 "--data", str(data), "--out", str(out),
                 "--count", "2", "--steps", "2"]) == 0
    assert (out / "metrics.txt").exists()
    lines = (out / "metrics.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3  # aggregate + 2 samples
    assert (out / "run_record.json").exists()


def test_inspect_command(workspace, capsys):
    run = workspace / "run"
    assert main(["inspect", "--ckpt", str(run / "checkpoint_final.pfck")]) == 0
    printed = capsys.readouterr().out
    assert "trainable parameters" in printed
    assert "train.steps_clip = 4" in printed


def test_frame_only_schedule(workspace):
    data = workspace / "data"
    out = workspace / "frame_only"
    assert main(["train", "--data", str(data), "--out", str(out),
                 "--steps-clip", "0", "--steps-frame", "2", "--batch", "2",
                 "--holdout", "3", "--depth", "2", "--width", "32"]) == 0
    lines = (out / "loss_log.jsonl").read_text().strip().splitlines()
    assert all(json.loads(line)["stage"] == "frame" for line in lines)


def test_config_file_with_flag_override(workspace):
    data = workspace / "data"
    cfg = workspace / "train.cfg"
    cfg.write_text("train.steps_clip = 3\ntrain.steps_frame = 1\n"
                   "train.batch_size = 2\ndit.depth = 2\ndit.width = 32\n")
    out = workspace / "cfg_run"
    assert main(["train", "--data", str(data), "--out", str(out),
                 "--config", str(cfg), "--steps-clip", "2",
                 "--holdout", "3"]) == 0
    record = json.loads((out / "run_record.json").read_text())
    assert record["config"]["train.steps_clip"] == 2  # flag wins
    assert record["config"]["train.steps_frame"] == 1


def test_every_train_flag_sets_its_config_key(workspace):
    flags = {"--steps-clip": ("train.steps_clip", 1), "--steps-frame": ("train.steps_frame", 1),
             "--batch": ("train.batch_size", 3), "--lr": ("train.lr", 0.002),
             "--eta": ("train.eta", 0.5), "--seed": ("train.seed", 7),
             "--depth": ("dit.depth", 1), "--width": ("dit.width", 16)}
    out = workspace / "all_flags"
    assert main(["train", "--data", str(workspace / "data"), "--out", str(out),
                 "--holdout", "3"]
                + [arg for flag, (_, value) in flags.items() for arg in (flag, str(value))]) == 0
    config = json.loads((out / "run_record.json").read_text())["config"]
    assert {key: config[key] for key, _ in flags.values()} == dict(flags.values())


def test_parser_defaults_match_reference_settings():
    parser = build_parser()
    args = parser.parse_args(["sample", "--ckpt", "x", "--ref", "r",
                              "--audio", "a", "--out", "o"])
    assert args.cfg_scale == 4.5
    assert args.steps == 30
    assert args.omega_l == 0.5 and args.omega_b == 0.5
    ref = SampleConfig()
    assert (args.steps, args.cfg_scale, args.omega_l, args.omega_b, args.seed, args.mode,
            args.drop_all_conditions) == (ref.steps, ref.cfg_scale, ref.omega_l, ref.omega_b,
                                          ref.seed, ref.mode, ref.drop_all_conditions)
    args = parser.parse_args(["eval", "--ckpt", "x", "--data", "d", "--out", "o"])
    assert (args.steps, args.cfg_scale, args.seed) == (ref.steps, ref.cfg_scale, ref.seed)
    args = parser.parse_args(["gen-data", "--out", "o"])
    synth = SynthConfig()
    assert (args.frames, args.size, args.size, args.identities) \
        == (synth.frames, synth.height, synth.width, synth.identities)


@pytest.mark.parametrize("old", ["{}", '{"step": "x"}', "not json"])
def test_fresh_train_does_not_read_an_old_loss_log(workspace, tmp_path, old):
    # reading it, a fresh run died on a KeyError or TypeError traceback, or
    # exited 2, though it keeps nothing of the file
    out = tmp_path / "run"
    out.mkdir()
    (out / "loss_log.jsonl").write_text(old + "\n")
    assert main(["train", "--data", str(workspace / "data"), "--out", str(out),
                 "--steps-clip", "1", "--steps-frame", "1", "--batch", "2",
                 "--holdout", "3", "--depth", "1", "--width", "16"]) == 0
    lines = (out / "loss_log.jsonl").read_text().splitlines()
    assert [json.loads(line)["step"] for line in lines] == [0, 1]


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_non_finite_cfg_scale_rejected(workspace, capsys, scale):
    data, run = workspace / "data", workspace / "run"
    out = workspace / f"s_{scale}"
    assert main(["sample", "--ckpt", str(run / "checkpoint_final.pfck"),
                 "--ref", str(data / "sample_00008" / "video.pft"),
                 "--audio", str(data / "sample_00008" / "envelope.pft"),
                 "--steps", "2", "--cfg-scale", scale, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--batch", "0", "batch_size"), ("--lr", "-1", "lr"), ("--lr", "nan", "lr"),
    ("--steps-clip", "-3", "steps_clip"), ("--holdout", "-1", "holdout"),
    ("--holdout", "10", "holdout")])
def test_impossible_training_values_rejected(workspace, capsys, flag, value, field):
    # at 0 / -1 / nan / -3 these crashed, ascended, diverged or "trained 0 steps";
    # a holdout of -1 trained on the whole corpus
    out = workspace / f"bad_{flag.strip('-')}_{value}"
    assert main(["train", "--data", str(workspace / "data"), "--out", str(out),
                 "--steps-clip", "1", "--steps-frame", "0", "--holdout", "3",
                 "--depth", "1", "--width", "16", flag, value]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0], err
    assert not out.exists()


def test_impossible_training_value_in_config_file_rejected(workspace, capsys):
    cfg = workspace / "zero_batch.cfg"
    cfg.write_text("train.batch_size = 0\n")
    assert main(["train", "--data", str(workspace / "data"), "--out",
                 str(workspace / "zero_batch_run"), "--config", str(cfg),
                 "--holdout", "3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "batch_size" in err[0], err


def test_config_key_given_twice_rejected(workspace, capsys):
    # the parent kept the last value and trained 2 steps
    cfg = workspace / "twice.cfg"
    cfg.write_text("train.steps_clip = 1\ntrain.steps_frame = 0\ntrain.steps_clip = 2\n")
    out = workspace / "twice_run"
    assert main(["train", "--data", str(workspace / "data"), "--out", str(out),
                 "--config", str(cfg), "--holdout", "3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "line 3: config key 'train.steps_clip' already given on line 1" in err[0]
    assert not out.exists()


def test_non_finite_conditioning_weight_in_config_file_rejected(workspace, capsys):
    cfg = workspace / "inf_lambda.cfg"
    cfg.write_text("train.steps_clip = 1\ntrain.steps_frame = 0\ndit.lambda_audio = inf\n")
    out = workspace / "inf_lambda_run"
    assert main(["train", "--data", str(workspace / "data"), "--out", str(out),
                 "--config", str(cfg), "--holdout", "3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("weight", ["nan", "inf", "-1"])
def test_bad_identity_weight_override_rejected(workspace, capsys, weight):
    # at nan the parent printed a table of nan metrics and exited 0
    out = workspace / f"eval_lambda_{weight}"
    assert main(["eval", "--ckpt", str(workspace / "run" / "checkpoint_final.pfck"),
                 "--data", str(workspace / "data"), "--out", str(out), "--count", "1",
                 "--steps", "1", "--lambda-identity", weight]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "lambda_identity" in err[0], err
    assert not out.exists()


def test_unreadable_checkpoint_fails_with_diagnostic(workspace, capsys, tmp_path):
    bad = tmp_path / "bad.pfck"
    bad.write_bytes(b"garbage")
    assert main(["inspect", "--ckpt", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_version_mismatch_fails_cleanly(workspace, capsys, tmp_path):
    run = workspace / "run"
    ckpt = (run / "checkpoint_final.pfck").read_bytes()
    patched = tmp_path / "patched.pfck"
    raw = bytearray(ckpt)
    raw[4] = 99
    patched.write_bytes(bytes(raw))
    assert main(["inspect", "--ckpt", str(patched)]) == 2
    assert "version" in capsys.readouterr().err


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--nonsense"])
    assert exc.value.code != 0


def test_conflicting_derived_config_rejected(workspace, capsys):
    data = workspace / "data"
    cfg = workspace / "bad.cfg"
    cfg.write_text("dit.latent_h = 7\n")
    assert main(["train", "--data", str(data), "--out",
                 str(workspace / "bad_run"), "--config", str(cfg),
                 "--holdout", "3"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_checkpoint_only_config_keys_rejected(workspace, capsys):
    # state.* and norm.* belong to checkpoint headers; a config file cannot set them
    cfg = workspace / "header_keys.cfg"
    for line in ("state.step = 7", "norm.facial_min = 5.0", "state.adam_count = 3"):
        cfg.write_text(f"train.steps_clip = 1\ntrain.steps_frame = 0\n{line}\n")
        assert main(["train", "--data", str(workspace / "data"), "--out",
                     str(workspace / "header_run"), "--config", str(cfg),
                     "--holdout", "3"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert f"unknown config key {line.split(' =')[0]!r}" in err[0]


def test_write_ppm(tmp_path):
    frame = np.zeros((4, 5, 3))
    frame[1, 2] = [1.0, 0.5, 0.0]
    path = tmp_path / "f.ppm"
    write_ppm(path, frame)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n5 4\n255\n")
    assert len(raw) == len(b"P6\n5 4\n255\n") + 4 * 5 * 3


def test_empty_reference_video_rejected(workspace, capsys, tmp_path):
    data, run = workspace / "data", workspace / "run"
    ref = tmp_path / "empty.pft"
    save_tensor(ref, np.zeros((0, 32, 32, 3)))
    out = workspace / "s_empty_ref"
    assert main(["sample", "--ckpt", str(run / "checkpoint_final.pfck"),
                 "--ref", str(ref), "--audio", str(data / "sample_00008" / "envelope.pft"),
                 "--steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "reference" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("flag,name", [("--ref", "video"), ("--audio", "envelope")])
def test_tensor_file_with_trailing_bytes_rejected(workspace, capsys, tmp_path, flag, name):
    data, run = workspace / "data", workspace / "run"
    inputs = {"--ref": data / "sample_00008" / "video.pft",
              "--audio": data / "sample_00008" / "envelope.pft"}
    padded = tmp_path / f"{name}.pft"
    padded.write_bytes(inputs[flag].read_bytes() + b"garbage!")
    inputs[flag] = padded
    out = workspace / f"s_padded_{name}"
    assert main(["sample", "--ckpt", str(run / "checkpoint_final.pfck"),
                 "--ref", str(inputs["--ref"]), "--audio", str(inputs["--audio"]),
                 "--steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "after the tensor" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    lambda manifest: manifest["samples"][-1].pop("checksums"),
    lambda manifest: manifest["samples"][-1].pop("seed"),
    lambda manifest: manifest["config"].update(gamma=1.0),
    lambda manifest: manifest.update(samples={"0": manifest["samples"][0]}),
    lambda manifest: manifest["config"].update(frames=8.5),
    lambda manifest: manifest["config"].update(height=32.0),
    lambda manifest: manifest["config"].update(frames=True),
], ids=["no checksums", "no seed", "unknown config key", "samples as an object",
        "fractional frames", "float height", "boolean frames"])
def test_malformed_manifest_fails_cleanly(workspace, capsys, tmp_path, edit):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    manifest = json.loads((data / "manifest.json").read_text())
    edit(manifest)
    (data / "manifest.json").write_text(json.dumps(manifest))
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--holdout", "3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "manifest" in err[0], err


@pytest.mark.parametrize("outside", ["absolute", "dot-dot"])
def test_manifest_dir_outside_the_corpus_rejected(workspace, capsys, tmp_path, outside):
    # record 0 names a checksum-true copy of its sample outside the corpus;
    # the parent loaded it with the other samples and trained
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    shutil.copytree(data / "sample_00000", tmp_path / "elsewhere")
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["samples"][0]["dir"] = {"absolute": str(tmp_path / "elsewhere"),
                                     "dot-dot": "../elsewhere"}[outside]
    (data / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--holdout", "3",
                 "--steps-clip", "1", "--steps-frame", "0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: manifest sample 0: dir"), err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-2", "11"])
def test_eval_count_outside_corpus_rejected(workspace, capsys, count):
    out = workspace / f"eval_count_{count}"
    assert main(["eval", "--ckpt", str(workspace / "run" / "checkpoint_final.pfck"),
                 "--data", str(workspace / "data"), "--out", str(out), "--count", count,
                 "--steps", "1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "count" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--identities", "0"], "identities"), (["--frames", "0"], "frames"),
    (["--size", "0"], "height"), (["--count", "-2"], "count"), (["--count", "0"], "count"),
], ids=["identities 0", "frames 0", "size 0", "count -2", "count 0"])
def test_gen_data_rejects_empty_sizes(capsys, tmp_path, flags, named):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--count", "2", *flags]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("line,field", [("enc.patch = 0", "patch"), ("dit.depth = -1", "depth")])
def test_size_below_one_in_config_file_rejected(workspace, capsys, line, field):
    # the parent died on ZeroDivisionError at patch 0 and trained a
    # block-less model at depth -1
    cfg = workspace / f"size_{field}.cfg"
    cfg.write_text(f"train.steps_clip = 1\ntrain.steps_frame = 0\n{line}\n")
    out = workspace / f"size_{field}_run"
    assert main(["train", "--data", str(workspace / "data"), "--out", str(out),
                 "--config", str(cfg), "--holdout", "3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("source", ["config file", "checkpoint header"])
def test_crop_under_four_pixels_rejected_by_name(workspace, capsys, tmp_path, source):
    # two stride-2 convs leave no identity feature from a 3-pixel crop; the
    # parent exited 2 with numpy's "zero-size array to reduction operation"
    data, out = workspace / "data", tmp_path / "out"
    if source == "config file":
        cfg = tmp_path / "crop.cfg"
        cfg.write_text("train.steps_clip = 1\ntrain.steps_frame = 0\nenc.crop_size = 3\n")
        args = ["train", "--data", str(data), "--config", str(cfg), "--holdout", "3"]
    else:
        raw = (workspace / "run" / "checkpoint_final.pfck").read_bytes()
        assert raw.count(b"enc.crop_size = 16\n") == 1
        ckpt = tmp_path / "crop3.pfck"
        # the same header length: the value is padded, not shortened
        ckpt.write_bytes(raw.replace(b"enc.crop_size = 16\n", b"enc.crop_size =  3\n"))
        args = ["sample", "--ckpt", str(ckpt), "--ref", str(data / "sample_00008" / "video.pft"),
                "--audio", str(data / "sample_00008" / "envelope.pft"), "--steps", "1"]
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: crop_size must be at least 4, got 3"], err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "sample"])
def test_zero_patch_in_checkpoint_header_rejected(workspace, capsys, tmp_path, command):
    data = workspace / "data"
    raw = (workspace / "run" / "checkpoint_final.pfck").read_bytes()
    assert raw.count(b"enc.patch = 8\n") == 1
    ckpt = tmp_path / "zero_patch.pfck"
    ckpt.write_bytes(raw.replace(b"enc.patch = 8\n", b"enc.patch = 0\n"))
    out = tmp_path / "out"
    args = {"eval": ["--data", str(data), "--count", "1", "--steps", "1"],
            "sample": ["--ref", str(data / "sample_00008" / "video.pft"),
                       "--audio", str(data / "sample_00008" / "envelope.pft"),
                       "--steps", "1"]}[command]
    assert main([command, "--ckpt", str(ckpt), "--out", str(out), *args]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "patch" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("flag,name,value", [("--audio", "envelope", np.nan),
                                             ("--ref", "video", np.inf)])
def test_non_finite_sampler_input_rejected(workspace, capsys, tmp_path, flag, name, value):
    # the parent wrote an all-NaN video.pft and exited 0
    data, run = workspace / "data", workspace / "run"
    inputs = {"--ref": data / "sample_00008" / "video.pft",
              "--audio": data / "sample_00008" / "envelope.pft"}
    arr = load_tensor(inputs[flag]).copy()
    arr.reshape(-1)[5] = value
    inputs[flag] = tmp_path / f"{name}.pft"
    save_tensor(inputs[flag], arr)
    out = tmp_path / "out"
    assert main(["sample", "--ckpt", str(run / "checkpoint_final.pfck"),
                 "--ref", str(inputs["--ref"]), "--audio", str(inputs["--audio"]),
                 "--steps", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0], err
    assert not out.exists()


def test_eval_corpus_must_match_the_checkpoint_encoder(workspace, capsys, tmp_path):
    # unchecked, an 8-frame model samples from the first half of each
    # 16-frame envelope while sync is scored against all of it
    data = tmp_path / "data16"
    assert main(["gen-data", "--out", str(data), "--count", "2", "--identities", "2",
                 "--frames", "16"]) == 0
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["eval", "--ckpt", str(workspace / "run" / "checkpoint_final.pfck"),
                 "--data", str(data), "--out", str(out), "--count", "1",
                 "--steps", "1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "corpus" in err[0], err
    assert not out.exists()


def test_train_corpus_must_match_the_config_encoder(workspace, capsys):
    # unchecked, 32 samples per token would cover only the first half of
    # each clip's envelope
    cfg = workspace / "short_tokens.cfg"
    cfg.write_text("train.steps_clip = 1\ntrain.steps_frame = 0\nenc.samples_per_token = 32\n")
    out = workspace / "short_tokens_run"
    assert main(["train", "--data", str(workspace / "data"), "--out", str(out),
                 "--config", str(cfg), "--holdout", "3", "--depth", "1",
                 "--width", "16"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "envelope_samples" in err[0], err
    assert not out.exists()


def test_train_on_a_manifest_contradicting_its_arrays(workspace, capsys, tmp_path):
    # a manifest describing 16-frame clips over 8-frame files: the parent
    # read them, created the run directory and failed only in `encode_audio`
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["config"].update(frames=16, envelope_samples=4096)
    (data / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--holdout", "3",
                 "--steps-clip", "1", "--steps-frame", "0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "video.pft" in err[0], err
    assert not out.exists()


def _raise_stored_envelope(data):
    # a checksum-true envelope file with one value above 1
    path = data / "sample_00000" / "envelope.pft"
    envelope = load_tensor(path)
    envelope[0] = 1.5
    save_tensor(path, envelope)
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["samples"][0]["checksums"]["envelope"] = hashlib.sha256(
        path.read_bytes()).hexdigest()
    (data / "manifest.json").write_text(json.dumps(manifest))


def _raise_stored_omega(data):
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["samples"][0]["omega_l"] = 1.5
    (data / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("edit, named", [(_raise_stored_envelope, "envelope"),
                                         (_raise_stored_omega, "motion coefficients")],
                         ids=["envelope", "omega"])
def test_train_on_a_recipe_outside_the_unit_interval(workspace, capsys, tmp_path, edit,
                                                     named):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    edit(data)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--holdout", "3",
                 "--steps-clip", "1", "--steps-frame", "0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0], err
    assert not out.exists()


def test_sample_rejects_an_envelope_longer_than_the_encoder_reads(workspace, capsys,
                                                                  tmp_path):
    # the parent sampled from the first half of a 16-frame clip's audio
    data, run = workspace / "data", workspace / "run"
    audio = tmp_path / "envelope16.pft"
    save_tensor(audio, np.tile(load_tensor(data / "sample_00008" / "envelope.pft"), 2))
    out = tmp_path / "out"
    assert main(["sample", "--ckpt", str(run / "checkpoint_final.pfck"),
                 "--ref", str(data / "sample_00008" / "video.pft"), "--audio", str(audio),
                 "--steps", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "envelope" in err[0], err
    assert not (out / "video.pft").exists()
