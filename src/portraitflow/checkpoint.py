"""Single-file checkpoints.

Layout (format 3, all little-endian): magic + u32 format version, a
u64-length-prefixed canonical config text block (the config-text keys
of config.py, plus motion normalization statistics and step counters,
which only a header carries), a u32 tensor count, then one
record per tensor in name order: a u16-length UTF-8 name followed by
the tensor's `serialize.write_payload` payload. The file is read front
to back once; a name stored twice or a byte after the last tensor is
rejected. Model parameters are stored under "model.", Adam moments under
"opt.m." / "opt.v." (so a resumed run continues bit-exactly), and the
frozen encoder weights under "enc.".
"""

from __future__ import annotations

import os
import struct
from itertools import chain
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from .config import configs_to_flat, dump_flat, flat_to_configs, parse_flat
from .encoders import EncoderParams, encoder_param_shapes
from .model import param_shapes
from .motion import MotionNorm, motion_param_shapes
from .numerics import Tensor
from .numerics.serialize import _file_end, _read_exact, read_payload, write_payload
from .training import Adam, TrainerState

MAGIC = b"PFCK"
FORMAT_VERSION = 3

# Header keys beyond the config text; `--config` files may not set them.
_HEADER_KEYS = {
    "norm.facial_min": float, "norm.facial_max": float,
    "norm.body_min": float, "norm.body_max": float,
    "state.step": int, "state.adam_count": int,
}


def _state_to_tensors(state: TrainerState) -> Dict[str, np.ndarray]:
    tensors = {f"model.{name}": p.data for name, p in state.params.items()}
    for name, arr in state.opt.m.items():
        tensors[f"opt.m.{name}"] = arr
        tensors[f"opt.v.{name}"] = state.opt.v[name]
    for name, arr in state.enc_params.named_arrays().items():
        tensors[f"enc.{name}"] = arr
    return tensors


def save_checkpoint(path, state: TrainerState) -> None:
    flat = configs_to_flat(state.dit, state.enc, state.train)
    flat.update({
        "norm.facial_min": state.norm_facial.min,
        "norm.facial_max": state.norm_facial.max,
        "norm.body_min": state.norm_body.min,
        "norm.body_max": state.norm_body.max,
        "state.step": state.step,
        "state.adam_count": state.opt.count,
    })
    header = dump_flat(flat).encode("utf-8")
    tensors = _state_to_tensors(state)

    # Written beside the target and renamed over it, so a crash mid-write
    # never leaves a cut checkpoint under the final name.
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            fh.write(struct.pack("<I", len(tensors)))
            for name in sorted(tensors):
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                write_payload(fh, tensors[name])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_checkpoint_raw(path) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Parse a checkpoint into (flat config values, named arrays)."""
    with open(path, "rb") as fh:
        end = _file_end(fh)
        if fh.read(4) != MAGIC:
            raise ValueError(f"{Path(path).name}: not a checkpoint file")
        version = struct.unpack("<I", _read_exact(fh, 4, end))[0]
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{Path(path).name}: format version {version} unsupported "
                f"(expected {FORMAT_VERSION})")
        header_len = struct.unpack("<Q", _read_exact(fh, 8, end))[0]
        flat = parse_flat(_read_exact(fh, header_len, end).decode("utf-8"), _HEADER_KEYS)
        missing = sorted(set(_HEADER_KEYS) - set(flat))
        if missing:
            raise ValueError(f"{Path(path).name}: header lacks {', '.join(missing)}")
        for key in ("state.step", "state.adam_count"):
            if flat[key] < 0:
                raise ValueError(f"{Path(path).name}: {key} {flat[key]} is negative")
        count = struct.unpack("<I", _read_exact(fh, 4, end))[0]
        tensors = {}
        for _ in range(count):
            name_len = struct.unpack("<H", _read_exact(fh, 2, end))[0]
            name = _read_exact(fh, name_len, end).decode("utf-8")
            if name in tensors:
                raise ValueError(f"{Path(path).name}: tensor {name!r} stored twice")
            tensors[name] = read_payload(fh)
        if fh.tell() != end:
            raise ValueError(f"{Path(path).name}: {end - fh.tell()} bytes after "
                             f"the last tensor")
    return flat, tensors


def _check_tensors(path, tensors: Dict[str, np.ndarray], dit, enc) -> None:
    """Raise ValueError naming the first header-implied tensor that is
    missing, the wrong shape (a wrong-shaped bias would otherwise broadcast
    silently) or holds a NaN or inf (which would turn every output NaN),
    then any tensor the header does not imply. Adam moments are optional,
    but come in (m, v) pairs shaped like their parameter. Shapes are derived
    one at a time, so a header naming a model larger than its file fails at
    its first missing tensor and allocates nothing."""
    def check(name, shape):
        if name not in tensors or tensors[name].shape != shape:
            found = f"shape {tensors[name].shape}" if name in tensors else "no such tensor"
            raise ValueError(f"{Path(path).name}: tensor {name!r} has {found}, "
                             f"the header implies shape {shape}")
        if not np.isfinite(tensors[name]).all():
            raise ValueError(f"{Path(path).name}: tensor {name!r} holds NaN or inf")
        implied.add(name)

    implied = set()
    for name, shape in chain(param_shapes(dit), motion_param_shapes(dit.width)):
        check(f"model.{name}", shape)
        if f"opt.m.{name}" in tensors or f"opt.v.{name}" in tensors:
            check(f"opt.m.{name}", shape)
            check(f"opt.v.{name}", shape)
    for name, shape in encoder_param_shapes(enc):
        check(f"enc.{name}", shape)
    extra = sorted(set(tensors) - implied)
    if extra:
        raise ValueError(f"{Path(path).name}: tensor {extra[0]!r} has shape "
                         f"{tensors[extra[0]].shape}, the header implies no such tensor")


def load_checkpoint(path) -> TrainerState:
    flat, tensors = read_checkpoint_raw(path)
    dit, enc, train = flat_to_configs(flat)
    _check_tensors(path, tensors, dit, enc)
    groups = {prefix: {name[len(prefix):]: arr for name, arr in tensors.items()
                       if name.startswith(prefix)}
              for prefix in ("model.", "enc.", "opt.m.", "opt.v.")}
    opt = Adam(train.lr)
    opt.count, opt.m, opt.v = int(flat["state.adam_count"]), groups["opt.m."], groups["opt.v."]
    return TrainerState(
        dit=dit, enc=enc, train=train,
        params={n: Tensor(arr, requires_grad=True) for n, arr in groups["model."].items()},
        enc_params=EncoderParams(**groups["enc."]), opt=opt,
        norm_facial=MotionNorm(min=flat["norm.facial_min"], max=flat["norm.facial_max"]),
        norm_body=MotionNorm(min=flat["norm.body_min"], max=flat["norm.body_max"]),
        step=int(flat["state.step"]))
