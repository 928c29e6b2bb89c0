"""Host-speed references: fixed loops timed between ops to rescale a run's times.

On a shared host the speed of a CPU drifts by a fifth or more between
runs of half a minute, while CPU time stays equal to wall time, and
every op of a run moves with it.  A reference is a fixed piece of work
that calls nothing in purb.  The timed loop runs it once before every
op, and the times of each pass are scaled by nominal / median reference
time in that pass (each set-up by the references timed just before it),
so they read as on a host where the reference takes its nominal time.
A change to the library cannot move the reference; a slower host moves
both.

The drift hits kinds of work unequally: in the same runs a pure-Python
loop slowed by a third while SHA-256 over 256 KiB slowed by 4%.  So
each workload uses the reference whose work is like its own.
"""

from __future__ import annotations

import statistics
from typing import Callable, NamedTuple

KIB = 1 << 10
P25519 = 2**255 - 19


def bigint_loop() -> None:
    """Modular squarings on a 255-bit prime in pure Python, like the curve codecs."""
    x = 1234567
    for _ in range(300):
        x = (x * x + 7) % P25519


def buffer_loop() -> None:
    """Fill and copy 512 KiB, like the payload path's buffers."""
    bytes(bytearray(512 * KIB))


class Reference(NamedTuple):
    name: str
    run: Callable[[], None]
    # median time on the 2-vCPU host the benchmark was tuned on, in a
    # stretch when that host ran fast
    nominal_ns: int


BIGINT = Reference("bigint_loop", bigint_loop, 200_000)
BUFFER = Reference("buffer_loop", buffer_loop, 670_000)


def scale(reference: Reference, samples: list[int]) -> float:
    """Factor that turns this run's times into times at the nominal speed."""
    return reference.nominal_ns / statistics.median(samples)
