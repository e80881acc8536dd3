"""Flat, typed key=value configuration text.

One `section.key = value` pair per line; `#` starts a comment. The
schema is derived from the three config dataclasses (sections "dit",
"enc", "train"), so every key has a declared type and unknown keys are
rejected. Floats are written with repr, which round-trips exactly.
Environment variables are never consulted. The retired keys that older
checkpoints still carry are dropped at their one working value.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from .encoders import EncoderConfig
from .model import DiTConfig
from .training import TrainConfig

SECTIONS = {"dit": DiTConfig, "enc": EncoderConfig, "train": TrainConfig}

_RETIRED_KEYS = {"train.optimizer": "adam", "enc.temporal_stride": 1}

# DiT fields freely settable by the user; the rest are derived from the
# encoder geometry and must agree with it.
_FREE_DIT_FIELDS = ("depth", "width", "heads", "head_dim", "n_id",
                    "lambda_audio", "lambda_identity", "mlp_ratio")

_EXTRA_KEYS = {
    "norm.facial_min": float, "norm.facial_max": float,
    "norm.body_min": float, "norm.body_max": float,
    "state.step": int, "state.adam_count": int,
}


def config_schema() -> Dict[str, type]:
    schema = dict(_EXTRA_KEYS)
    for section, cls in SECTIONS.items():
        for field in dataclasses.fields(cls):
            if field.type in ("int", int):
                schema[f"{section}.{field.name}"] = int
            elif field.type in ("float", float):
                schema[f"{section}.{field.name}"] = float
            elif field.type in ("bool", bool):
                schema[f"{section}.{field.name}"] = bool
            else:
                schema[f"{section}.{field.name}"] = str
    return schema


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_value(raw: str, typ: type):
    raw = raw.strip()
    if typ is bool:
        if raw not in ("true", "false"):
            raise ValueError(f"expected true/false, got {raw!r}")
        return raw == "true"
    return typ(raw)


def dump_flat(values: Dict[str, object]) -> str:
    lines = [f"{key} = {format_value(values[key])}" for key in sorted(values)]
    return "\n".join(lines) + "\n"


def parse_flat(text: str) -> Dict[str, object]:
    """Parse and type-check config text against the schema."""
    schema = config_schema()
    values: Dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in _RETIRED_KEYS:
            kept = _RETIRED_KEYS[key]
            if raw != format_value(kept):
                raise ValueError(f"line {lineno}: retired key {key} only "
                                 f"accepts {format_value(kept)}, got {raw!r}")
            continue
        if key not in schema:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = parse_value(raw, schema[key])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return values


def configs_to_flat(dit: DiTConfig, enc: EncoderConfig,
                    train: TrainConfig) -> Dict[str, object]:
    flat: Dict[str, object] = {}
    for section, obj in (("dit", dit), ("enc", enc), ("train", train)):
        for field in dataclasses.fields(obj):
            flat[f"{section}.{field.name}"] = getattr(obj, field.name)
    return flat


def flat_to_configs(flat: Dict[str, object]
                    ) -> Tuple[DiTConfig, EncoderConfig, TrainConfig]:
    """Build (dit, enc, train), deriving the DiT geometry from the encoder
    config: a conflicting dit key is rejected, a missing head_dim inferred."""
    def section(name: str) -> Dict[str, object]:
        return {k.split(".", 1)[1]: v for k, v in flat.items()
                if k.startswith(name + ".")}

    enc = EncoderConfig(**section("enc"))
    derived = DiTConfig.for_encoders(enc)
    dit_kwargs = {}
    for name, value in section("dit").items():
        if name in _FREE_DIT_FIELDS:
            dit_kwargs[name] = value
        elif value != getattr(derived, name):
            raise ValueError(
                f"config key dit.{name}={value} conflicts with encoder-derived "
                f"value {getattr(derived, name)}")
    if "head_dim" not in dit_kwargs and ("width" in dit_kwargs or "heads" in dit_kwargs):
        width = dit_kwargs.get("width", derived.width)
        heads = dit_kwargs.get("heads", derived.heads)
        if width % heads:
            raise ValueError(f"width {width} not divisible by heads {heads}")
        dit_kwargs["head_dim"] = width // heads
    dit = dataclasses.replace(derived, **dit_kwargs)
    return dit, enc, TrainConfig(**section("train"))
