"""Deterministic, platform-independent randomness.

Every source of randomness in the project draws from `RngState`, a thin
wrapper around numpy's Philox counter-based generator. Streams are
addressed by (seed, tags): the 128-bit Philox key is derived by hashing
the seed together with the tag tuple, so any consumer can be re-derived
at any time without tracking generator state. This makes data
generation, dropout draws, and loss-gate draws reproducible regardless
of iteration order, and makes checkpoint resume exact: the "RNG state"
is just the seed plus the step counters.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _key_for(seed: int, tags: tuple) -> np.ndarray:
    h = hashlib.blake2b(digest_size=16)
    h.update(b"portraitflow-rng")
    h.update(int(seed).to_bytes(8, "little"))
    for tag in tags:
        if isinstance(tag, str):
            raw = tag.encode("utf-8")
            h.update(b"s" + len(raw).to_bytes(4, "little") + raw)
        elif isinstance(tag, (int, np.integer)):
            h.update(b"i" + (int(tag) & _MASK64).to_bytes(8, "little"))
        else:
            raise TypeError(f"rng stream tags must be str or int, got {type(tag)!r}")
    digest = h.digest()
    lo = int.from_bytes(digest[:8], "little")
    hi = int.from_bytes(digest[8:], "little")
    return np.array([lo, hi], dtype=np.uint64)


class RngState:
    """Seeded handle from which independent named streams are derived.

    The generator is Philox (4x64, counter-based); identical seeds give
    identical streams on every platform. Values are drawn in float64 so
    a stream yields the same numbers under either compute precision.
    """

    ALGORITHM = "philox4x64"

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64

    def stream(self, *tags) -> np.random.Generator:
        """A fresh generator for the (seed, tags) address."""
        return np.random.Generator(np.random.Philox(key=_key_for(self.seed, tags)))

    def normal(self, *tags, size=None) -> np.ndarray:
        return self.stream(*tags).standard_normal(size)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, algorithm={self.ALGORITHM!r})"
