"""Length padding schemes and their overhead calculator.

Padmé pads a length L so that, written as a binary float
1.mantissa * 2^e with e = floor(log2 L), the mantissa carries no more
significant bits than e's own binary representation: padme_len clears
the low e - e.bit_length() bits, rounding up.  Everything is exact
integer arithmetic: logarithms are bit lengths, rounding is a bit mask.
A PadSpec's kind is the scheme's CLI spelling (padme, next2, block or
none), so parsing and printing a spec translate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

PADME = "padme"
NEXT_P2 = "next2"
FIXED_BLOCK = "block"
NONE = "none"

def padme_len(length: int) -> int:
    """Round up so that the low e - e.bit_length() bits of the result are
    clear, where e = floor(log2 length); lengths 0 and 1 clear none."""
    e = length.bit_length() - 1
    mask = (1 << max(0, e - e.bit_length())) - 1
    return (length + mask) & ~mask


@dataclass(frozen=True)
class PadSpec:
    """A padding function: padme, next power of two, fixed blocks, or none."""

    kind: str
    block: int | None = None

    @classmethod
    def padme(cls) -> "PadSpec":
        return cls(PADME)

    @classmethod
    def next_p2(cls) -> "PadSpec":
        return cls(NEXT_P2)

    @classmethod
    def fixed_block(cls, block: int) -> "PadSpec":
        if block < 1:
            raise ValueError("block size must be >= 1")
        return cls(FIXED_BLOCK, block)

    @classmethod
    def from_string(cls, text: str) -> "PadSpec":
        """Parse CLI notation: padme | next2 | block:<b> | none."""
        kind, colon, block = text.partition(":")
        if kind == FIXED_BLOCK and colon:
            return cls.fixed_block(int(block))
        if kind in (PADME, NEXT_P2, NONE) and not colon:
            return cls(kind)
        raise ValueError(f"unknown pad spec {text!r}")

    def __str__(self) -> str:
        if self.kind == FIXED_BLOCK:
            return f"block:{self.block}"
        return self.kind

    def pad_len(self, length: int) -> int:
        """Padded length for a content length; total on all lengths >= 0."""
        if length < 0:
            raise ValueError("length must be >= 0")
        if self.kind == PADME:
            return padme_len(length)
        if self.kind == NEXT_P2:
            if length <= 1:
                return length
            return 1 << (length - 1).bit_length()
        if self.kind == FIXED_BLOCK:
            return -(-length // self.block) * self.block
        return length


def overhead(spec: PadSpec, length: int) -> tuple[int, Fraction]:
    """(extra bytes, extra bytes relative to the input length)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    additive = spec.pad_len(length) - length
    return additive, Fraction(additive, length)
