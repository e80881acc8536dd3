"""Tensor file round trips."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from portraitflow.numerics import load_tensor, save_tensor
from portraitflow.numerics.serialize import TENSOR_FILE_MAGIC, read_payload, write_payload


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(3,), (2, 5), (4, 3, 2, 2), ()]:
        arr = rng.standard_normal(shape).astype(np.float32)
        path = tmp_path / "t.pft"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


def test_payload_round_trip_in_memory():
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    buf = io.BytesIO()
    write_payload(buf, arr)
    buf.seek(0)
    assert np.array_equal(read_payload(buf), arr)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pft"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_tensor(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.pft"
    save_tensor(path, np.ones((4, 4), dtype=np.float32))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(EOFError):
        load_tensor(path)


def test_huge_extent_rejected_before_allocating(tmp_path):
    path = tmp_path / "huge.pft"
    path.write_bytes(TENSOR_FILE_MAGIC + struct.pack("<IQ", 1, 2 ** 40) + b"\x00" * 16)
    with pytest.raises(EOFError):
        load_tensor(path)


@given(st.one_of(st.binary(max_size=64),
                 st.builds(lambda ndim, rest: struct.pack("<I", ndim) + rest,
                           st.integers(0, 2 ** 32 - 1), st.binary(max_size=64))))
def test_read_payload_parses_or_rejects_any_bytes(data):
    try:
        read_payload(io.BytesIO(data))
    except (ValueError, EOFError):
        pass
