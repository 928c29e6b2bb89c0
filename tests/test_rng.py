import tracemalloc

import pytest

from helpers import seeded_stream
from purb.rng import SeededSource, seeded_rng


def test_one_large_request_equals_many_small_and_oracle():
    n = 1 << 20
    whole = seeded_rng(7).randbytes(n)
    rng = seeded_rng(7)
    sizes = (1, 31, 32, 33, 0, 100, 4096, 7)
    pieces, total, i = [], 0, 0
    while total < n:
        size = min(sizes[i % len(sizes)], n - total)
        pieces.append(rng.randbytes(size))
        total += size
        i += 1
    assert b"".join(pieces) == whole
    assert whole == seeded_stream((7).to_bytes(8, "big"), n)


def test_stream_continues_across_requests():
    rng = seeded_rng(b"seed")
    head = rng.randbytes(5)
    tail = rng.randbytes(1000)
    assert head + tail == seeded_stream(b"seed", 1005)
    assert rng.randbytes(0) == b""


def test_large_draw_peaks_near_twice_its_size():
    # One buffer grows in place and is copied out once; the stream
    # itself is pinned by the oracle tests above.
    n = 4 << 20
    rng = seeded_rng(9)
    rng.randbytes(5)  # a leftover partial block rides along
    tracemalloc.start()
    try:
        out = rng.randbytes(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == n
    assert peak <= 2.5 * n, peak / n


def test_seed_must_be_bytes_or_int():
    with pytest.raises(TypeError, match="bytes or int"):
        SeededSource("x")
