"""Randomness sources.

Every operation that needs randomness takes an explicit source so that
tests can reproduce blobs byte-for-byte from a seeded source.  The
default source is the OS CSPRNG; the seeded source is a simple SHA-256
counter stream and must never be used outside tests.
"""

from __future__ import annotations

import hashlib
import os


class RandomSource:
    """OS-backed randomness."""

    def randbytes(self, n: int) -> bytes:
        return os.urandom(n)


class SeededSource(RandomSource):
    """Deterministic byte stream: block i is SHA-256(seed || i).

    Fully specified, so blobs produced from the same seed are identical
    across platforms and Python versions. INSECURE by construction.
    """

    def __init__(self, seed: bytes | int):
        if isinstance(seed, int):
            seed = seed.to_bytes(8, "big", signed=False)
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes or int")
        self._seed = bytes(seed)
        self._counter = 0
        self._buf = b""

    def randbytes(self, n: int) -> bytes:
        # The leftover and the new blocks grow one buffer in place, copied
        # out once, so a large draw peaks near twice its size.
        buf = bytearray(self._buf)
        while len(buf) < n:
            counter = self._counter.to_bytes(8, "big")
            buf += hashlib.sha256(self._seed + counter).digest()
            self._counter += 1
        self._buf = bytes(buf[n:])
        with memoryview(buf) as view:
            return bytes(view[:n])


def system_rng() -> RandomSource:
    return RandomSource()


def seeded_rng(seed: bytes | int) -> SeededSource:
    return SeededSource(seed)


def random_scalar_below(rng: RandomSource, order: int) -> int:
    """Uniform integer in [1, order), by rejection on the covering byte length."""
    nbytes = (order.bit_length() + 7) // 8
    while True:
        v = int.from_bytes(rng.randbytes(nbytes), "big")
        if 1 <= v < order:
            return v
