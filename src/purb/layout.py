"""Header layout: byte-region reservation and blob geometry.

Builds the header as a growable byte array with two reservation maps:
one for written content, one for key positions pinned by earlier suites.
A suite's primary key position is the first of its allowed positions not
pinned by an earlier suite; its entry points go into hash tables of
doubling sizes starting right after the suite's first possible position.
The finished blob is padded so that the trailing authentication tag
never lands on any registered suite's key position, and the whole length
is always a permitted padded length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .padding import PadSpec
from .rng import RandomSource
from .suites import Registry, SuiteSpec


@dataclass
class HeaderPlan:
    pubkey_pos: dict[int, int] = field(default_factory=dict)
    payload_start: int = 0
    payload_end: int = 0
    mac_pos: int = 0
    purb_len: int = 0
    labels: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def header_len(self) -> int:
        return self.payload_start

    def compactness(self) -> float:
        """Fraction of header bytes carrying keys or entry points."""
        useful = sum(b - a for a, b, _ in self.labels)
        return useful / self.payload_start if self.payload_start else 1.0


def _is_free(mask: bytearray, start: int, end: int) -> bool:
    return not any(mask[start:end])


def _mark(mask: bytearray, start: int, end: int) -> None:
    if len(mask) < end:
        mask.extend(b"\x00" * (end - len(mask)))
    mask[start:end] = b"\x01" * (end - start)


class HeaderLayout:
    """Single-owner mutable state for one blob under construction."""

    def __init__(self, registry: Registry):
        self.registry = registry
        self.content = bytearray()
        self.occupied = bytearray()
        self.fixed = bytearray()  # positions pinned against later suites
        self.plan = HeaderPlan()
        self._filled = False

    @property
    def end(self) -> int:
        return len(self.content)

    def _write(self, start: int, end: int, data: bytes) -> None:
        if len(self.content) < end:
            grow = end - len(self.content)
            self.content.extend(b"\x00" * grow)
        self.content[start:end] = data
        _mark(self.occupied, start, end)

    def reserve_pubkeys(self, suites: list[SuiteSpec]) -> dict[int, int]:
        """Pick each suite's primary key position, in canonical order.

        The primary range is written as a zero placeholder (the XOR step
        replaces it); all the suite's positions are then pinned so later
        suites cannot sit on bytes this suite's decoders will XOR.
        """
        order = [s.order_index for s in suites]
        if order != sorted(order) or len(set(order)) != len(order):
            raise ValueError("suites must be given in canonical order")
        for suite in suites:
            klen = suite.encoded_key_len
            primary = None
            for pos in suite.allowed_positions:
                if _is_free(self.fixed, pos, pos + klen):
                    primary = pos
                    break
            if primary is None:
                raise ValueError(f"no free key position for suite {suite.alias}")
            self.plan.pubkey_pos[suite.suite_id] = primary
            self._write(primary, primary + klen, b"\x00" * klen)
            self.plan.labels.append((primary, primary + klen, "pubkey-primary"))
            for pos in suite.allowed_positions:
                _mark(self.fixed, pos, pos + klen)
        return self.plan.pubkey_pos

    def place_entry_points(
        self, suite: SuiteSpec, position_keys: list[int], rng: RandomSource
    ) -> list[tuple[int, int]]:
        """Reserve one hash-table slot per position key.

        Table j holds 2^j slots and starts where table j-1 ends; the only
        slot tried in table j is position_key mod 2^j, and a collision
        moves straight to the next table.
        """
        slots = []
        ep_len = suite.entry_len
        for pkey in position_keys:
            ht_len, ht_pos = 1, 0
            while True:
                index = pkey % ht_len
                start = suite.ht_base + ht_pos + index * ep_len
                end = start + ep_len
                if _is_free(self.occupied, start, end):
                    self._write(start, end, rng.randbytes(ep_len))
                    self.plan.labels.append((start, end, "entry-slot"))
                    slots.append((start, end))
                    break
                ht_pos += ht_len * ep_len
                ht_len *= 2
        return slots

    def write_entry(self, slot: tuple[int, int], data: bytes) -> None:
        start, end = slot
        if len(data) != end - start:
            raise ValueError("entry-point ciphertext has wrong length")
        self.content[start:end] = data

    def fill_random(self, rng: RandomSource) -> None:
        """Overwrite every unreserved byte below the header end."""
        mask = self.occupied
        i, end = 0, len(self.content)
        while i < end:
            gap_start = mask.find(b"\x00", i, end)
            if gap_start < 0:
                break
            gap_end = mask.find(b"\x01", gap_start, end)
            if gap_end < 0:
                gap_end = end
            self.content[gap_start:gap_end] = rng.randbytes(gap_end - gap_start)
            i = gap_end
        _mark(self.occupied, 0, end)
        self._filled = True

    def _mac_collides(self, purb_len: int, mac_len: int) -> bool:
        """Would the tag at the blob tail touch any registered key position?

        Checked against the whole registry, not just the suites in use:
        decoders of any suite XOR those ranges.
        """
        mac_pos = purb_len - mac_len
        for suite in self.registry:
            klen = suite.encoded_key_len
            for pos in suite.allowed_positions:
                if pos < purb_len and pos + klen > mac_pos:
                    return True
        return False

    def finalize_lengths(
        self, payload_len: int, mac_len: int, pad: PadSpec
    ) -> HeaderPlan:
        """Fix payload, padding, tag offsets and the total padded length."""
        if not self._filled:
            raise ValueError("header must be filled before finalizing")
        plan = self.plan
        plan.payload_start = self.end
        plan.payload_end = plan.payload_start + payload_len
        purb_len = pad.pad_len(plan.payload_end + mac_len)
        while self._mac_collides(purb_len, mac_len):
            purb_len = pad.pad_len(purb_len + 1)
        plan.purb_len = purb_len
        plan.mac_pos = purb_len - mac_len
        return plan

    def build_blob(self, rng: RandomSource) -> bytearray:
        """The final buffer: header, zeroed payload region, random padding,
        zeroed tag region.

        The caller writes the payload ciphertext into
        [payload_start, payload_end) and the tag from mac_pos on.
        """
        plan = self.plan
        if plan.purb_len == 0:
            raise ValueError("finalize_lengths must run first")
        blob = bytearray(plan.purb_len)
        blob[: self.end] = self.content
        blob[plan.payload_end : plan.mac_pos] = rng.randbytes(
            plan.mac_pos - plan.payload_end
        )
        return blob


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


def xor_encode(blob: bytearray, suite: SuiteSpec, tau: bytes, primary: int) -> None:
    """Store tau at the primary position, masked by the other positions.

    Afterwards the XOR of the blob content over all in-range positions of
    the suite equals tau exactly.
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
