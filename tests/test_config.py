"""Flat typed config text."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from portraitflow.config import (
    SECTIONS,
    config_schema,
    configs_to_flat,
    dump_flat,
    flat_to_configs,
    format_value,
    parse_flat,
)
from portraitflow.encoders import EncoderConfig
from portraitflow.model import DiTConfig
from portraitflow.training import TrainConfig


def test_round_trip_preserves_values_exactly():
    enc = EncoderConfig()
    dit = DiTConfig.for_encoders(enc, lambda_identity=0.123456789123456)
    train = TrainConfig(lr=3.0000000000000004e-05, seed=42)
    flat = configs_to_flat(dit, enc, train)
    text = dump_flat(flat)
    parsed = parse_flat(text)
    dit2, enc2, train2 = flat_to_configs(parsed)
    assert dit2 == dit and enc2 == enc and train2 == train


def test_retired_keys_rejected():
    for line in ("train.optimizer = adam", "enc.temporal_stride = 1"):
        with pytest.raises(ValueError, match="line 1: unknown config key"):
            parse_flat(line + "\n")


def test_dit_geometry_derived_from_encoder_keys():
    dit, enc, _ = flat_to_configs({"enc.frames": 4, "enc.patch": 4, "dit.width": 32})
    assert (dit.latent_frames, dit.latent_h, dit.latent_width) == (4, 8, 48)
    assert dit.head_dim == 8  # width / heads
    for line in ("dit.latent_frames = 8", "dit.head_dim = 16"):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_flat(line + "\n")
    for heads in (3, 0):
        with pytest.raises(ValueError, match="not divisible"):
            flat_to_configs({"dit.width": 32, "dit.heads": heads})


def test_for_encoders_derives_head_dim_and_round_trips():
    # `head_dim` follows the final width, not the default one
    enc = EncoderConfig()
    dit = DiTConfig.for_encoders(enc, width=32)
    assert dit.head_dim == 8
    text = dump_flat(configs_to_flat(dit, enc, TrainConfig()))
    assert flat_to_configs(parse_flat(text))[0] == dit


@pytest.mark.parametrize("key", sorted(k for k in config_schema()
                                       if k.split(".")[0] in SECTIONS))
def test_every_config_key_round_trips_two_legal_values(key):
    enc = EncoderConfig()
    default = configs_to_flat(DiTConfig.for_encoders(enc), enc, TrainConfig())[key]
    other = (default * 2 or 1) if isinstance(default, int) else default / 2
    for value in (default, other):
        configs = flat_to_configs(parse_flat(f"{key} = {format_value(value)}\n"))
        assert configs_to_flat(*configs)[key] == value


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_flat("train.nope = 1\n")


def test_bad_value_rejected_with_line_number():
    with pytest.raises(ValueError, match="line 1"):
        parse_flat("train.lr = banana\n")


def test_key_given_twice_rejected_with_both_line_numbers():
    # the parent kept the last value: {'train.seed': 2}
    with pytest.raises(ValueError, match="line 3: config key 'train.seed' already given on line 1"):
        parse_flat("train.seed = 1\n# a comment\ntrain.seed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ValueError, match="key = value"):
        parse_flat("train.lr 0.1\n")


def test_comments_and_blank_lines_ignored():
    parsed = parse_flat("# comment\n\ntrain.seed = 7  # trailing\n")
    assert parsed == {"train.seed": 7}


def test_bool_parsing():
    schema = config_schema()
    assert schema["train.seed"] is int
    assert schema["train.lr"] is float


def test_schema_covers_all_dataclass_fields():
    # every enc/train field is settable; every dit field is a key or is set by
    # `for_encoders` (so it follows the encoders)
    schema = config_schema()
    for section, cls in (("enc", EncoderConfig), ("train", TrainConfig)):
        for field in dataclasses.fields(cls):
            assert f"{section}.{field.name}" in schema
    enc = EncoderConfig(frames=4, patch=4, audio_width=8, id_feat_width=8)
    flat = {f"enc.{name}": value for name, value in dataclasses.asdict(enc).items()}
    dit, _, _ = flat_to_configs({**flat, "dit.width": 32})
    default = DiTConfig.for_encoders(EncoderConfig())
    for field in dataclasses.fields(DiTConfig):
        assert (f"dit.{field.name}" in schema
                or getattr(dit, field.name) != getattr(default, field.name))


_KEYS = sorted(config_schema()) + ["train.optimizer", "enc.temporal_stride"]
_LINE = st.tuples(st.sampled_from(_KEYS), st.text()).map(lambda kv: f"{kv[0]} = {kv[1]}")


@given(st.one_of(st.text(), st.lists(_LINE).map("\n".join)))
def test_parse_flat_parses_or_rejects_any_text(text):
    try:
        parse_flat(text)
    except ValueError:
        pass
