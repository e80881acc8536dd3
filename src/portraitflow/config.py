"""Flat, typed key=value configuration text.

One `section.key = value` pair per line; `#` starts a comment. The
schema is derived from the three config dataclasses (sections "dit",
"enc", "train"), so every key has a declared type and unknown keys are
rejected. The DiT fields with no default (the encoder geometry and
`head_dim`) are derived by `DiTConfig.for_encoders`, not set, so every
key has more than one legal value. Floats are written with repr, which
round-trips exactly. Environment variables are never consulted.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Tuple

from .encoders import EncoderConfig
from .model import DiTConfig
from .training import TrainConfig

SECTIONS = {"dit": DiTConfig, "enc": EncoderConfig, "train": TrainConfig}


def config_schema() -> Dict[str, type]:
    """Each settable `section.key` and its type: every config field with a
    default (the DiT fields with none are derived)."""
    return {f"{section}.{field.name}": {"int": int, "float": float}[field.type]
            for section, cls in SECTIONS.items() for field in dataclasses.fields(cls)
            if field.default is not dataclasses.MISSING}


def format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def dump_flat(values: Dict[str, object]) -> str:
    lines = [f"{key} = {format_value(values[key])}" for key in sorted(values)]
    return "\n".join(lines) + "\n"


def parse_flat(text: str, extra: Mapping[str, type] = {}) -> Dict[str, object]:
    """Parse and type-check config text against the schema plus `extra`
    (the keys only a checkpoint header carries). A key may be given once."""
    schema = {**config_schema(), **extra}
    values: Dict[str, object] = {}
    first_line: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in schema:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"line {lineno}: config key {key!r} "
                             f"already given on line {first_line[key]}")
        first_line[key] = lineno
        try:
            values[key] = schema[key](raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return values


def configs_to_flat(dit: DiTConfig, enc: EncoderConfig,
                    train: TrainConfig) -> Dict[str, object]:
    configs = {"dit": dit, "enc": enc, "train": train}
    return {key: getattr(configs[section], name)
            for key in config_schema() for section, name in [key.split(".", 1)]}


def flat_to_configs(flat: Dict[str, object]
                    ) -> Tuple[DiTConfig, EncoderConfig, TrainConfig]:
    """Build (dit, enc, train); the DiT's derived fields come from the
    encoder config through `DiTConfig.for_encoders`."""
    def section(name: str) -> Dict[str, object]:
        return {k.split(".", 1)[1]: v for k, v in flat.items()
                if k.startswith(name + ".")}

    enc = EncoderConfig(**section("enc"))
    return DiTConfig.for_encoders(enc, **section("dit")), enc, TrainConfig(**section("train"))
