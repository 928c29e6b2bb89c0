"""Length padding schemes and their leakage/overhead calculators.

The interesting scheme pads a length so that, written as a binary float
1.mantissa * 2^exponent, the mantissa carries no more significant bits
than the exponent's own binary representation.  Everything is exact
integer arithmetic: logarithms are bit lengths, rounding is a bit mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

PADME = "padme"
NEXT_P2 = "next_p2"
FIXED_BLOCK = "fixed_block"
NONE = "none"

# Brute-force leakage counting is capped to keep the operation bounded.
LEAKAGE_MAX_LEN = 2**24


@dataclass(frozen=True)
class PadmeParams:
    """Derived quantities for one input length.

    exponent: floor(log2 L); exp_bits: bits needed to write the exponent;
    zero_bits: low bits forced to zero, clamped at 0 for L <= 1;
    mask: zero_bits ones in the LSBs.
    """

    exponent: int
    exp_bits: int
    zero_bits: int
    mask: int


def padme_params(length: int) -> PadmeParams:
    if length <= 1:
        # log2 is undefined at 0 and the mask degenerates at 1; both pad
        # to themselves, so clamp to the identity mask.
        return PadmeParams(exponent=0, exp_bits=1, zero_bits=0, mask=0)
    e = length.bit_length() - 1
    s = e.bit_length()
    z = max(0, e - s)
    return PadmeParams(exponent=e, exp_bits=s, zero_bits=z, mask=(1 << z) - 1)


def padme_len(length: int) -> int:
    """Round up so the low zero_bits of the result are clear."""
    m = padme_params(length).mask
    return (length + m) & ~m


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
    def none(cls) -> "PadSpec":
        return cls(NONE)

    @classmethod
    def from_string(cls, text: str) -> "PadSpec":
        """Parse CLI notation: padme | next2 | block:<b> | none."""
        if text == "padme":
            return cls.padme()
        if text == "next2":
            return cls.next_p2()
        if text == "none":
            return cls.none()
        if text.startswith("block:"):
            return cls.fixed_block(int(text.split(":", 1)[1]))
        raise ValueError(f"unknown pad spec {text!r}")

    def __str__(self) -> str:
        if self.kind == FIXED_BLOCK:
            return f"block:{self.block}"
        return {PADME: "padme", NEXT_P2: "next2", NONE: "none"}[self.kind]

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


def leakage_bits(spec: PadSpec, max_len: int) -> int:
    """Bits needed to tell apart the padded lengths of inputs 1..max_len.

    Counts the distinct outputs and returns ceil(log2 count).  All four
    schemes are monotone and idempotent, so the count can walk the image
    directly: every input in [L, pad(L)] pads to pad(L).
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if max_len > LEAKAGE_MAX_LEN:
        raise ValueError(f"max_len above brute-force cap {LEAKAGE_MAX_LEN}")
    if spec.kind == NONE or (spec.kind == FIXED_BLOCK and spec.block == 1):
        count = max_len  # identity padding: every length is its own bucket
    else:
        count = 0
        length = 1
        while length <= max_len:
            count += 1
            length = spec.pad_len(length) + 1
    return (count - 1).bit_length()


def overhead(spec: PadSpec, length: int) -> tuple[int, Fraction]:
    """(extra bytes, extra bytes relative to the input length)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    additive = spec.pad_len(length) - length
    return additive, Fraction(additive, length)
