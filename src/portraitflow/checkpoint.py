"""Single-file checkpoints.

Layout: magic + u32 format version, a length-prefixed canonical config
text block (configs, motion normalization statistics, step counters),
then a tensor directory of (name, shape, payload offset) entries
followed by the raw little-endian float32 payloads. Model parameters
are stored under "model.", Adam moments under "opt.m." / "opt.v." (so a
resumed run continues bit-exactly), and the frozen encoder weights
under "enc.".
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from .config import _EXTRA_KEYS, configs_to_flat, dump_flat, flat_to_configs, parse_flat
from .encoders import EncoderParams
from .motion import MotionNorm
from .numerics import Tensor
from .numerics.serialize import _file_end, _read_exact, _read_f32, _read_shape
from .training import Adam, TrainerState

MAGIC = b"PFCK"
FORMAT_VERSION = 1


def _state_to_tensors(state: TrainerState) -> Dict[str, np.ndarray]:
    tensors: Dict[str, np.ndarray] = {}
    for name, p in state.params.items():
        tensors[f"model.{name}"] = p.data.astype(np.float32)
    for name, arr in state.opt.m.items():
        tensors[f"opt.m.{name}"] = arr.astype(np.float32)
        tensors[f"opt.v.{name}"] = state.opt.v[name].astype(np.float32)
    for name, arr in state.enc_params.named_arrays().items():
        tensors[f"enc.{name}"] = arr.astype(np.float32)
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

    names = sorted(tensors)
    payloads = [np.ascontiguousarray(tensors[n], dtype="<f4") for n in names]
    offsets = []
    cursor = 0
    for arr in payloads:
        offsets.append(cursor)
        cursor += arr.nbytes

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(names)))
        for name, arr, offset in zip(names, payloads, offsets):
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<Q", extent))
            fh.write(struct.pack("<Q", offset))
        for arr in payloads:
            fh.write(arr.tobytes(order="C"))


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
        flat = parse_flat(_read_exact(fh, header_len, end).decode("utf-8"))
        missing = sorted(set(_EXTRA_KEYS) - set(flat))
        if missing:
            raise ValueError(f"{Path(path).name}: header lacks {', '.join(missing)}")
        count = struct.unpack("<I", _read_exact(fh, 4, end))[0]
        directory = []
        for _ in range(count):
            name_len = struct.unpack("<H", _read_exact(fh, 2, end))[0]
            name = _read_exact(fh, name_len, end).decode("utf-8")
            shape = _read_shape(fh, end)
            offset = struct.unpack("<Q", _read_exact(fh, 8, end))[0]
            directory.append((name, shape, offset))
        base = fh.tell()
        tensors = {}
        for name, shape, offset in directory:
            if offset > end - base:
                raise EOFError(f"truncated payload for tensor {name!r}")
            fh.seek(base + offset)
            tensors[name] = _read_f32(fh, shape, end)
    return flat, tensors


def load_checkpoint(path) -> TrainerState:
    flat, tensors = read_checkpoint_raw(path)
    dit, enc, train = flat_to_configs(flat)

    params = {name[len("model."):]: Tensor(arr, requires_grad=True)
              for name, arr in tensors.items() if name.startswith("model.")}
    enc_arrays = {name[len("enc."):]: arr
                  for name, arr in tensors.items() if name.startswith("enc.")}
    enc_params = EncoderParams(**enc_arrays)

    opt = Adam(train.lr)
    opt.count = int(flat["state.adam_count"])
    for name, arr in tensors.items():
        if name.startswith("opt.m."):
            opt.m[name[len("opt.m."):]] = arr.copy()
        elif name.startswith("opt.v."):
            opt.v[name[len("opt.v."):]] = arr.copy()

    return TrainerState(
        dit=dit, enc=enc, train=train,
        params=params, enc_params=enc_params, opt=opt,
        norm_facial=MotionNorm(min=flat["norm.facial_min"], max=flat["norm.facial_max"]),
        norm_body=MotionNorm(min=flat["norm.body_min"], max=flat["norm.body_max"]),
        step=int(flat["state.step"]))
