"""The paper's strawman header, kept as the baseline that hash tables beat.

Entry points are packed one after another from the suite's table base,
so a decoder must scan linearly.  Nothing in the library produces or
reads this layout; the decode-cost tests build it here by handing the
encoder a different slot choice for one call.
"""

from __future__ import annotations

import itertools
from unittest import mock

import purb.layout
from purb.codec import (
    EncodeReport,
    Identity,
    derive_entry_keys,
    encode_detailed,
    open_entry_point,
)
from purb.layout import xor_extract
from purb.suites import decap


def flat_slots(position_keys: list[int], blocked: set[int]) -> list[int]:
    """The first free slots from the table base, one per key in order."""
    free = (g for g in itertools.count() if g not in blocked)
    return [next(free) for _ in position_keys]


def encode_flat(*args, **kwargs) -> tuple[bytes, EncodeReport]:
    """encode_detailed with the strawman layout in place of hash tables."""
    with mock.patch.object(purb.layout, "_min_max_slots", flat_slots):
        return encode_detailed(*args, **kwargs)


def scan_flat(blob: bytes, identity: Identity) -> tuple[bytes | None, int]:
    """Try every entry-sized slot from the table base until one opens.

    Returns the entry plaintext (or None) and the number of trials.
    """
    suite = identity.suite
    tau = xor_extract(blob, suite)
    if tau is None:
        return None, 0
    z, _ = derive_entry_keys(decap(suite, identity.native_key, tau), suite)
    ep_len = suite.entry_len
    trials = 0
    for start in range(suite.ht_base, len(blob) - ep_len + 1, ep_len):
        trials += 1
        plain = open_entry_point(suite, z, blob[start : start + ep_len])
        if plain is not None:
            return plain, trials
    return None, trials
