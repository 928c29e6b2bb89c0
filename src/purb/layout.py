"""Header layout: byte-region reservation and blob geometry.

Plan, then write once.  HeaderLayout first fixes the plan, an
EncodeReport, and writes no bytes: the report is the one record of the
header's geometry, and what is reserved is read back from it.  Then
build_blob writes the random fill and padding straight into the blob's
own buffer, where encode writes the sealed entries, keys and tag.
A suite's primary key position is the first of its allowed positions
that overlaps no allowed position of an earlier suite; its entry points
go into the hash tables that table_slots walks, avoiding every primary
and every entry already placed, in the assignment with the lowest last
slot, which keeps the header short.  The finished blob is padded so that
the trailing TAG_LEN-byte tag never lands on any suite's key position,
and the whole length is always a Padmé length.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from dataclasses import dataclass, field

from .padding import PadSpec
from .rng import RandomSource
from .suites import ENTRY_LEN, SUITES, TAG_LEN, SuiteSpec

# Every blob pads with Padmé.  Called through PadSpec.pad_len, which
# benchmark tracing wraps, not through padme_len.
_PADME = PadSpec.padme()


@dataclass
class EncodeReport:
    """Geometry of one blob, in byte offsets.

    suites holds one dict per suite, in canonical order: the "suite"
    itself (a SuiteSpec), its "alias", its "primary" key position and its
    entry "slots", (start, end) in recipient order; encode adds the
    suite's hidden key or salt as "tau".  The primary ranges and the
    slots are all the header has reserved; no two of them overlap.
    """

    suites: list[dict] = field(default_factory=list)
    payload_start: int = 0
    payload_end: int = 0
    mac_pos: int = 0
    purb_len: int = 0

    @property
    def header_len(self) -> int:
        return self.payload_start

    @property
    def entry_count(self) -> int:
        return sum(len(s["slots"]) for s in self.suites)

    @property
    def compactness(self) -> float:
        """Fraction of header bytes carrying keys or entry points."""
        if not self.payload_start:
            return 1.0
        keys = sum(s["suite"].encoded_key_len for s in self.suites)
        return (keys + ENTRY_LEN * self.entry_count) / self.payload_start


def _global_slots(position_key: int) -> Iterator[int]:
    """The key's slot in tables 0, 1, 2, ..., counted in entry lengths
    from the suite's ht_base.

    Table j holds 2^j slots and starts where table j-1 ends, at slot
    f = 2^j - 1; f is also the mask of position_key mod 2^j, so the
    key's slot in table j is f + (position_key & f).
    """
    f = 0
    while True:
        yield f + (position_key & f)
        f = 2 * f + 1


def table_slots(suite: SuiteSpec, pkey: int, blob_len: int) -> Iterator[tuple[int, int]]:
    """Position key pkey's (start, end) in tables 0, 1, 2, ..., while it
    fits in the blob: the order in which a decoder tries them."""
    for g in _global_slots(pkey):
        start = suite.ht_base + g * suite.entry_len
        if start + suite.entry_len > blob_len:
            return
        yield start, start + suite.entry_len


def table_index(suite: SuiteSpec, start: int) -> int:
    """The table holding the suite's slot that begins at start."""
    return ((start - suite.ht_base) // suite.entry_len + 1).bit_length() - 1


def _greedy_slots(position_keys: list[int], blocked: set[int]) -> list[int]:
    """Each key, in order, takes its slot in the first table where it is free."""
    taken = set(blocked)
    out = []
    for pkey in position_keys:
        for g in _global_slots(pkey):
            if g not in taken:
                break
        out.append(g)
        taken.add(g)
    return out


def _augment(
    root: int,
    bound: int,
    position_keys: list[int],
    blocked: set[int],
    owner: list[int],
    slot_of: list[int],
) -> bool:
    """Kuhn's augmenting-path search, iterative: give the unplaced entry
    root a slot below bound, moving other entries along the path.

    Changes nothing and returns False when no such path exists.
    """
    seen = set()
    # Per entry on the path, its slots left to try.
    stack = [_global_slots(position_keys[root])]
    path = [root]  # path[d] moves to took[d], taken from path[d + 1]
    took = []
    while stack:
        for slot in stack[-1]:  # slots ascend: the first >= bound ends them
            if slot >= bound:
                break
            if slot not in seen and slot not in blocked:
                seen.add(slot)
                took.append(slot)
                if owner[slot] < 0:
                    for e, s in zip(path, took):
                        owner[s] = e
                        slot_of[e] = s
                    return True
                path.append(owner[slot])
                stack.append(_global_slots(position_keys[owner[slot]]))
                break
        if slot >= bound:  # no way on from this entry
            stack.pop()
            path.pop()
            if took:
                took.pop()
    return False


def _min_max_slots(position_keys: list[int], blocked: set[int]) -> list[int]:
    """Distinct global slots, one per key at its own table slot, avoiding
    blocked, with the lowest possible last slot (a bottleneck matching).

    Starts from the greedy assignment, then repeatedly moves the entry on
    the last slot below it along an augmenting path.  Every other entry is
    already below, so when the search fails the unplaced entry is the only
    one and, by Berge's theorem, no assignment has a lower last slot.
    """
    slot_of = _greedy_slots(position_keys, blocked)
    n = len(slot_of)
    top = max(slot_of, default=0)
    if n <= 1 or top == n - 1:  # n keys need n slots: greedy is optimal
        return slot_of
    owner = [-1] * (top + 1)
    for e, g in enumerate(slot_of):
        owner[g] = e
    while True:
        while owner[top] < 0:
            top -= 1
        if top == n - 1:
            return slot_of
        entry = owner[top]
        owner[top] = -1
        if not _augment(entry, top, position_keys, blocked, owner, slot_of):
            owner[top] = entry
            return slot_of


class HeaderLayout:
    """Single-owner plan for one blob under construction."""

    def __init__(self):
        self.plan = EncodeReport()

    def _reserved(self) -> Iterator[tuple[int, int]]:
        """Each primary key range and entry slot in the plan, (start, end)."""
        for record in self.plan.suites:
            primary = record["primary"]
            yield primary, primary + record["suite"].encoded_key_len
            yield from record["slots"]

    def reserve_pubkeys(self, suites: list[SuiteSpec]) -> None:
        """Pick each suite's primary key position, in canonical order.

        A later suite's primary overlaps none of this suite's positions,
        so it never sits on bytes that this suite's decoders will XOR.
        """
        order = [s.suite_id for s in suites]
        if order != sorted(set(order)):
            raise ValueError("suites must be given in canonical order")
        pinned = []  # key ranges at the positions of earlier suites
        for suite in suites:
            klen = suite.encoded_key_len
            # Some position is always free: the suite table is built so
            # that every subset of it places (test_every_subset_placeable).
            primary = next(
                pos for pos in suite.allowed_positions
                if all(end <= pos or pos + klen <= start for start, end in pinned)
            )
            self.plan.suites.append(
                {"suite": suite, "alias": suite.alias, "primary": primary, "slots": []}
            )
            pinned.extend((pos, pos + klen) for pos in suite.allowed_positions)

    def place_entry_points(
        self, suite: SuiteSpec, position_keys: list[int], rng: RandomSource
    ) -> list[tuple[int, int]]:
        """Reserve one hash-table slot per position key, header kept short.

        A decoder tries its key's slot in every table in turn (see
        table_slots), so any table will do.  Among the assignments of
        distinct slots that overlap no primary and no entry already
        placed, this picks one with the lowest last slot (see
        _min_max_slots).  Returns (start, end) per key, in key order, and
        draws entry_len bytes per key.
        """
        if self.plan.purb_len:
            raise ValueError("entry points must be placed before finalizing")
        ep_len = suite.entry_len
        base = suite.ht_base
        blocked = set()
        for start, end in self._reserved():
            # A range below base blocks negative slots, which no key uses.
            blocked.update(range((start - base) // ep_len, (end - 1 - base) // ep_len + 1))
        chosen = _min_max_slots(position_keys, blocked)
        slots = [(base + g * ep_len, base + (g + 1) * ep_len) for g in chosen]
        # Never written: the sealed entries take these slots.  The draw
        # exists only to keep the seeded stream, and so the golden blobs,
        # where they are.
        rng.randbytes(ep_len * len(slots))
        record = next(r for r in self.plan.suites if r["suite"] is suite)
        record["slots"] = slots
        return slots

    def fill_random(self, view, rng: RandomSource) -> None:
        """Write random bytes into every unreserved byte of view below the
        header end: one draw per gap between reserved ranges, in address
        order.  view is any writable buffer at least that long."""
        pos = 0  # the header ends where its last reserved range does
        for start, end in sorted(self._reserved()):
            if pos < start:
                view[pos:start] = rng.randbytes(start - pos)
            pos = end

    def _mac_collides(self, purb_len: int) -> bool:
        """Would the tag at the blob tail touch any suite's key position?

        Checked against every suite in SUITES, not just the suites in
        use: decoders of any suite XOR those ranges.
        """
        mac_pos = purb_len - TAG_LEN
        for suite in SUITES:
            klen = suite.encoded_key_len
            for pos in suite.allowed_positions:
                if pos < purb_len and pos + klen > mac_pos:
                    return True
        return False

    def finalize_lengths(self, payload_len: int) -> EncodeReport:
        """Fix payload, padding, tag offsets and the total padded length."""
        plan = self.plan
        plan.payload_start = max((end for _, end in self._reserved()), default=0)
        plan.payload_end = plan.payload_start + payload_len
        purb_len = _PADME.pad_len(plan.payload_end + TAG_LEN)
        while self._mac_collides(purb_len):
            purb_len = _PADME.pad_len(purb_len + 1)
        plan.purb_len = purb_len
        plan.mac_pos = purb_len - TAG_LEN
        return plan

    def build_blob(self, rng: RandomSource) -> io.BytesIO:
        """The final buffer: random fill in the header's gaps, random
        padding, and zeros everywhere else.

        The caller writes the entries, the payload ciphertext into
        [payload_start, payload_end), the keys and the tag from mac_pos
        on, through the buffer's getbuffer() view, then releases the view
        and takes the blob with getvalue().  The blob is this one buffer
        (zeroed_buffer): its pages are zeroed by the allocator and
        faulted in once, where they are written, and CPython's getvalue()
        hands back the shared bytes object itself, not a copy.  Only
        speed depends on that; any other getvalue() returns the same
        bytes through a copy.
        """
        plan = self.plan
        if plan.purb_len == 0:
            raise ValueError("finalize_lengths must run first")
        blob = zeroed_buffer(plan.purb_len)
        with blob.getbuffer() as view:
            self.fill_random(view, rng)
            view[plan.payload_end : plan.mac_pos] = rng.randbytes(
                plan.mac_pos - plan.payload_end
            )
        return blob


def zeroed_buffer(n: int) -> io.BytesIO:
    """A BytesIO over bytes(n), n zero bytes that cost no zeroing pass.

    bytes(n) is calloc'd: a large one gets fresh mmap pages, already
    zero, and they fault in as they are first written.  The BytesIO
    shares that bytes object, and while nothing else refers to it,
    getbuffer() writes into it without a copy and getvalue() returns it.
    See HeaderLayout.build_blob.  n may be 0.
    """
    return io.BytesIO(bytes(n))


def in_range_positions(suite: SuiteSpec, purb_len: int) -> list[int]:
    """Positions whose full key range fits inside the blob.

    Both sides apply the same rule, so encoder and decoder agree on which
    ranges participate in the XOR.
    """
    klen = suite.encoded_key_len
    return [p for p in suite.allowed_positions if p + klen <= purb_len]


def _xor_ranges(blob, positions, klen: int, acc: int) -> int:
    """acc XORed with each blob[pos:pos + klen], read as an integer."""
    for pos in positions:
        acc ^= int.from_bytes(blob[pos : pos + klen], "little")
    return acc


def xor_encode(
    blob: bytearray | memoryview, suite: SuiteSpec, tau: bytes, primary: int
) -> None:
    """Store tau at the primary position, masked by the other positions.

    The blob is any writable buffer: encode passes a view of the blob
    under construction.  Afterwards the XOR of the blob content over all
    in-range positions of the suite equals tau exactly.
    """
    klen = suite.encoded_key_len
    others = [p for p in in_range_positions(suite, len(blob)) if p != primary]
    acc = _xor_ranges(blob, others, klen, int.from_bytes(tau, "little"))
    blob[primary : primary + klen] = acc.to_bytes(klen, "little")


def xor_extract(blob, suite: SuiteSpec) -> bytes | None:
    """Decoder side: XOR all in-range positions to recover the encoded key.

    The blob may be any bytes-like object; only the key ranges are read.
    """
    positions = in_range_positions(suite, len(blob))
    if not positions:
        return None
    klen = suite.encoded_key_len
    return _xor_ranges(blob, positions, klen, 0).to_bytes(klen, "little")
