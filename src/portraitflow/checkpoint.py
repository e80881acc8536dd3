"""Single-file checkpoints.

Layout (format 3, all little-endian): magic + u32 format version, a
u64-length-prefixed canonical config text block (the config-text keys
of config.py, plus motion normalization statistics and step counters,
which only a header carries), a u32 tensor count, then one
record per tensor in name order: a u16-length UTF-8 name followed by
the tensor's `serialize.write_payload` payload. `checkpoint_contents`
names what a state stores; `load_checkpoint` reads the file front to
back once, then checks and builds the state in one walk over the
parameter tables its header implies.
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


def checkpoint_contents(state: TrainerState
                        ) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """What a checkpoint stores of `state`: (header values, named arrays).
    Model parameters are named "model.*", Adam moments "opt.m.*" / "opt.v.*"
    (so a resumed run continues bit-exactly) and encoder weights "enc.*"."""
    flat = {**configs_to_flat(state.dit, state.enc, state.train),
            "norm.facial_min": state.norm_facial.min, "norm.facial_max": state.norm_facial.max,
            "norm.body_min": state.norm_body.min, "norm.body_max": state.norm_body.max,
            "state.step": state.step, "state.adam_count": state.opt.count}
    arrays = {f"model.{name}": p.data for name, p in state.params.items()}
    arrays.update({f"opt.m.{name}": arr for name, arr in state.opt.m.items()})
    arrays.update({f"opt.v.{name}": arr for name, arr in state.opt.v.items()})
    arrays.update({f"enc.{name}": arr for name, arr in vars(state.enc_params).items()})
    return flat, arrays


def save_checkpoint(path, state: TrainerState) -> None:
    flat, tensors = checkpoint_contents(state)
    header = dump_flat(flat).encode("utf-8")

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
    """Parse a checkpoint into (flat header values, named arrays). The file's
    layout and header are checked; its records are returned unchecked, as
    read: `load_checkpoint` checks them against the header."""
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


def load_checkpoint(path) -> TrainerState:
    """Read a checkpoint and build its state, checking one tensor at a time
    against the header's parameter tables. The first tensor missing, of the
    wrong shape (a bias would broadcast silently) or holding a NaN or inf
    raises ValueError, then any tensor left over. Adam moments are optional
    but come in (m, v) pairs. A header naming a model larger than its file
    fails at its first missing tensor and allocates nothing."""
    flat, records = read_checkpoint_raw(path)
    dit, enc, train = flat_to_configs(flat)

    def take(name, shape):
        arr = records.pop(name, None)
        if arr is None or arr.shape != shape:
            found = "no such tensor" if arr is None else f"shape {arr.shape}"
            raise ValueError(f"{Path(path).name}: tensor {name!r} has {found}, "
                             f"the header implies shape {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{Path(path).name}: tensor {name!r} holds NaN or inf")
        return arr

    params, opt = {}, Adam(train.lr)
    for name, shape in chain(param_shapes(dit), motion_param_shapes(dit.width)):
        params[name] = Tensor(take(f"model.{name}", shape), requires_grad=True)
        if f"opt.m.{name}" in records or f"opt.v.{name}" in records:
            opt.m[name], opt.v[name] = take(f"opt.m.{name}", shape), take(f"opt.v.{name}", shape)
    enc_params = EncoderParams(**{name: take(f"enc.{name}", shape)
                                  for name, shape in encoder_param_shapes(enc)})
    if records:
        extra = min(records)
        raise ValueError(f"{Path(path).name}: tensor {extra!r} has shape "
                         f"{records[extra].shape}, the header implies no such tensor")
    opt.count = int(flat["state.adam_count"])
    return TrainerState(
        dit=dit, enc=enc, train=train, params=params, enc_params=enc_params, opt=opt,
        norm_facial=MotionNorm(min=flat["norm.facial_min"], max=flat["norm.facial_max"]),
        norm_body=MotionNorm(min=flat["norm.body_min"], max=flat["norm.body_max"]),
        step=int(flat["state.step"]))
