"""What a blob's length tells an outsider about its recipient count.

    python tests/length_leak.py

Run from the root of a checkout.  A blob's length depends only on its
header's end and the payload length, and the header's end only on the
recipient multiset and the entries' position keys.  So the lengths here
come from the header planner alone, as encode computes them:
HeaderLayout.reserve_pubkeys, then place_entry_points with seeded
uniform position keys (in encode they are SHA-256 outputs), then
finalize_lengths.  No key is made and nothing is encrypted.

The recipient count R is drawn uniformly from COUNTS, and each suite of
a mix gets R recipients.  For each mix and payload-length model the
script prints I(R; L), the bits of R that the blob length L gives away
(H(R) = log2 12 = 3.58 bits), the number of distinct lengths, and the
median anonymity set: the number of counts that could have produced
the observed length, at the median over (R, L).  A known payload length
is one model; the other draws the payload length log-uniformly from
SYNTHETIC, the same for every R, so that only L is seen.  The README's
"What the length reveals" figures are this script's output (SAMPLES
placements per count from SEED, about 11 s on a 2-vCPU host);
tests/test_length_leak.py pins a small grid of the same functions.
pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

from purb.layout import HeaderLayout  # noqa: E402
from purb.rng import seeded_rng  # noqa: E402
from purb.suites import SUITES  # noqa: E402

COUNTS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
MIXES = {"B": ("B",), "A+B": ("A", "B"), "A+B+pw": ("A", "B", "pw")}
KNOWN = (1_000, 100_000, 10_000_000)
# Payload lengths log-uniform over [100 B, 10 MB]: (count, lo, hi, seed).
SYNTHETIC = (400, 100, 10_000_000, 18)
# Placements per recipient count, and the seed of their position keys.
SAMPLES, SEED = 200, 18


def length_distribution(
    counts: dict[str, int], payload_lens, samples: int, seed: int
) -> Counter:
    """Blob lengths for a recipient multiset, counts (suite alias to its
    number of recipients), over `samples` placements with position keys
    from random.Random(seed), each placement finalized at every payload
    length in payload_lens: a Counter from blob length to its number of
    (placement, payload length) pairs.  Exact for a given seed."""
    rand, rng = random.Random(seed), seeded_rng(seed)
    suites = [s for s in SUITES if counts.get(s.alias)]
    by_end = {}  # header end: [a layout that ends there, its placement count]
    for _ in range(samples):
        hdr = HeaderLayout()
        hdr.reserve_pubkeys(suites)
        for suite in suites:
            keys = [rand.getrandbits(256) for _ in range(counts[suite.alias])]
            hdr.place_entry_points(suite, keys, rng)
        end = hdr.finalize_lengths(0).payload_start
        by_end.setdefault(end, [hdr, 0])[1] += 1
    lengths = Counter()
    for hdr, n in by_end.values():
        for payload_len in payload_lens:
            lengths[hdr.finalize_lengths(payload_len).purb_len] += n
    return lengths


def mutual_information(dists: list[Counter]) -> float:
    """I(R; L) in bits, R uniform over the indices of dists and L drawn
    from dists[R]."""
    probs = [{x: Fraction(n, sum(d.values())) for x, n in d.items()} for d in dists]
    marginal = Counter()
    for p in probs:
        for x, px in p.items():
            marginal[x] += px / len(dists)
    return sum(
        float(px / len(dists)) * math.log2(px / marginal[x])
        for p in probs
        for x, px in p.items()
    )


def median_anonymity_set(dists: list[Counter]) -> int:
    """The median, over R uniform and L drawn from dists[R], of the number
    of indices whose distribution can give L."""
    sizes = Counter()
    for d in dists:
        for x in d:
            sizes[x] += 1
    weights = Counter()
    for d in dists:
        total = sum(d.values())
        for x, n in d.items():
            weights[sizes[x]] += Fraction(n, total * len(dists))
    cumulative = Fraction(0)
    for size in sorted(weights):
        cumulative += weights[size]
        if cumulative >= Fraction(1, 2):
            return size
    raise ValueError("no lengths")


def synthetic_payload_lens() -> list[int]:
    count, lo, hi, seed = SYNTHETIC
    rand = random.Random(seed)
    return [
        min(hi, max(lo, int(math.exp(rand.uniform(math.log(lo), math.log(hi))))))
        for _ in range(count)
    ]


def leak(mix: tuple[str, ...], payload_lens, samples: int, seed: int, counts=COUNTS):
    """(I(R; L) in bits, distinct lengths, median anonymity set) for a mix,
    each of its suites with R recipients, R uniform over counts."""
    dists = [
        length_distribution(dict.fromkeys(mix, r), payload_lens, samples, seed)
        for r in counts
    ]
    distinct = len(set().union(*dists))
    return mutual_information(dists), distinct, median_anonymity_set(dists)


def main() -> int:
    models = [(f"{n:,} B", [n]) for n in KNOWN]
    _, lo, hi, _ = SYNTHETIC
    models.append((f"log-uniform {lo:,} B-{hi:,} B", synthetic_payload_lens()))
    print(f"R uniform over {COUNTS}; H(R) = {math.log2(len(COUNTS)):.2f} bits")
    print("| mix | payload | I(R; L), bits | distinct lengths | median anonymity set |")
    print("|---|---|---:|---:|---:|")
    for name, mix in MIXES.items():
        for label, payload_lens in models:
            bits, distinct, median = leak(mix, payload_lens, SAMPLES, SEED)
            print(f"| {name} | {label} | {bits:.2f} | {distinct} | {median} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
