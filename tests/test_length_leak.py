"""How much a blob's length tells about its recipient count, pinned on a
small grid of tests/length_leak.py's measure (the README's "What the
length reveals" table is its full grid)."""

import math
from collections import Counter

import pytest

from length_leak import (
    MIXES,
    leak,
    length_distribution,
    median_anonymity_set,
    mutual_information,
    synthetic_payload_lens,
)

COUNTS = (1, 2, 4, 8, 16, 32)


def test_one_recipient_has_one_length():
    # 32-byte key, one 64-byte entry, 1,000 payload bytes and the 32-byte
    # tag make 1,128, which Padmé pads to 1,152.
    assert length_distribution({"B": 1}, [1000], 20, 18) == Counter({1152: 20})


def test_four_recipients_length_distribution():
    assert length_distribution({"B": 4}, [1000], 100, 18) == Counter(
        {1344: 50, 1408: 29, 1472: 12, 1536: 7, 1664: 2}
    )


def test_measure_extremes():
    same = [Counter({100: 3, 200: 1})] * 4
    apart = [Counter({n: 5}) for n in range(4)]
    assert mutual_information(same) == 0.0
    assert median_anonymity_set(same) == 4
    assert mutual_information(apart) == math.log2(4)
    assert median_anonymity_set(apart) == 1


@pytest.mark.parametrize(
    "mix,model,bits,distinct,median",
    [
        ("B", "1000", 2.539517, 37, 1),
        ("B", "100000", 1.237260, 4, 3),
        ("B", "synthetic", 0.772077, 144, 5),
        ("A+B", "1000", 2.198281, 67, 2),
        ("A+B", "100000", 1.388583, 13, 4),
        ("A+B", "synthetic", 0.878448, 203, 4),
        ("A+B+pw", "1000", 2.046249, 79, 2),
        ("A+B+pw", "100000", 1.545126, 20, 3),
        ("A+B+pw", "synthetic", 0.866733, 215, 4),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_leak_grid(mix, model, bits, distinct, median):
    # R uniform over six counts (H(R) = 2.58 bits), 100 placements per
    # count; the synthetic model is the first 50 log-uniform lengths.
    payload_lens = synthetic_payload_lens()[:50] if model == "synthetic" else [int(model)]
    got_bits, got_distinct, got_median = leak(MIXES[mix], payload_lens, 100, 18, counts=COUNTS)
    assert (round(got_bits, 6), got_distinct, got_median) == (bits, distinct, median)
