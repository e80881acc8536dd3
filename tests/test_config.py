"""Flat typed config text."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from portraitflow.config import (
    config_schema,
    configs_to_flat,
    dump_flat,
    flat_to_configs,
    parse_flat,
)
from portraitflow.encoders import EncoderConfig
from portraitflow.model import DiTConfig
from portraitflow.training import TrainConfig


def test_round_trip_preserves_values_exactly():
    dit = DiTConfig(lambda_identity=0.123456789123456)
    enc = EncoderConfig()
    train = TrainConfig(lr=3.0000000000000004e-05, seed=42)
    flat = configs_to_flat(dit, enc, train)
    text = dump_flat(flat)
    parsed = parse_flat(text)
    dit2, enc2, train2 = flat_to_configs(parsed)
    assert dit2 == dit and enc2 == enc and train2 == train


def test_retired_keys_accepted_at_their_one_value_and_dropped():
    text = "train.optimizer = adam\nenc.temporal_stride = 1\ntrain.seed = 2\n"
    assert parse_flat(text) == {"train.seed": 2}
    for line in ("train.optimizer = sgd", "enc.temporal_stride = 2"):
        with pytest.raises(ValueError, match="line 1: retired key"):
            parse_flat(line + "\n")


def test_dit_geometry_derived_from_encoder_keys():
    dit, enc, _ = flat_to_configs({"enc.frames": 4, "enc.patch": 4, "dit.width": 32})
    assert (dit.latent_frames, dit.latent_h, dit.latent_width) == (4, 8, 48)
    assert dit.head_dim == 8  # width / heads
    with pytest.raises(ValueError, match="conflicts"):
        flat_to_configs({"enc.frames": 4, "dit.latent_frames": 8})


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_flat("train.nope = 1\n")


def test_bad_value_rejected_with_line_number():
    with pytest.raises(ValueError, match="line 1"):
        parse_flat("train.lr = banana\n")


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
    with pytest.raises(ValueError, match="true/false"):
        from portraitflow.config import parse_value
        parse_value("yes", bool)


def test_schema_covers_all_dataclass_fields():
    schema = config_schema()
    for section, cls in (("dit", DiTConfig), ("enc", EncoderConfig),
                         ("train", TrainConfig)):
        import dataclasses
        for field in dataclasses.fields(cls):
            assert f"{section}.{field.name}" in schema


_KEYS = sorted(config_schema()) + ["train.optimizer", "enc.temporal_stride"]
_LINE = st.tuples(st.sampled_from(_KEYS), st.text()).map(lambda kv: f"{kv[0]} = {kv[1]}")


@given(st.one_of(st.text(), st.lists(_LINE).map("\n".join)))
def test_parse_flat_parses_or_rejects_any_text(text):
    try:
        parse_flat(text)
    except ValueError:
        pass
