"""Curve25519 field arithmetic and the Elligator2 point codec.

Only the codec lives here: a map between Montgomery u-coordinates and
32-byte strings indistinguishable from random.  Scalar multiplication is
done natively (see suites.py).  The field operations are pure Python:
hide runs on each ephemeral key drawn (about two per blob per suite, as
key generation retries), unhide once per recipient on encode and once
per identity per blob on decode.

About half of all curve points have no representative; key generation
simply retries until it draws one.  A representative is 254 bits wide:
the top two bits of the 32-byte encoding are noise and get randomized on
encode, masked off on decode.  Decoding never fails: every 32-byte
string maps to some curve point.
"""

from __future__ import annotations

from .fieldmath import invert, is_square_mod, legendre, powmod
from .rng import RandomSource

P = 2**255 - 19
A = 486662


class Fe:
    """Field element modulo 2^255 - 19."""

    __slots__ = ("val",)

    def __init__(self, x: int):
        self.val = x % P

    def __neg__(self):
        return Fe(-self.val)

    def __add__(self, o):
        return Fe(self.val + o.val)

    def __sub__(self, o):
        return Fe(self.val - o.val)

    def __mul__(self, o):
        return Fe(self.val * o.val)

    def __truediv__(self, o):
        return Fe(self.val * invert(o.val, P))

    def __pow__(self, s: int):
        return Fe(powmod(self.val, s, P))

    def __eq__(self, other):
        return isinstance(other, Fe) and self.val == other.val

    def __hash__(self):
        return hash(self.val)

    def is_negative(self) -> bool:
        # "negative" means the representative in (p-1)/2 .. p-1
        return self.val > (P - 1) // 2

    def __abs__(self):
        return -self if self.is_negative() else self

    def __bytes__(self):
        return self.val.to_bytes(32, "little")

    def __repr__(self):
        return f"Fe({self.val})"


def is_square(n: Fe) -> bool:
    return is_square_mod(n.val, P)


# sqrt(-1), used to fix up square roots since p = 5 mod 8
SQRT_M1 = abs(Fe(2) ** ((P - 1) // 4))
assert SQRT_M1 * SQRT_M1 == Fe(-1)


def sqrt(n: Fe) -> Fe:
    """Positive square root; raises ValueError on non-squares."""
    if not is_square(n):
        raise ValueError("not a square")
    root = n ** ((P + 3) // 8)
    if root * root != n:
        root = root * SQRT_M1
    return abs(root)


def invsqrt(x: Fe) -> tuple[Fe, bool]:
    """(1/sqrt(x), True) for non-zero squares; otherwise a related value
    and False.  Single-exponentiation trick specific to p = 5 mod 8."""
    isr = x ** ((P - 5) // 8)
    quartic = x * isr**2
    if quartic == Fe(-1) or quartic == -SQRT_M1:
        isr = isr * SQRT_M1
    square = quartic == Fe(1) or quartic == Fe(-1)
    return isr, square


# The map needs a fixed non-square; 2 is the conventional choice.
NON_SQUARE = Fe(2)


def map_from_curve(u: Fe, v_is_negative: bool) -> Fe:
    """Curve point back to its 254-bit representative.

    Fails (ValueError) for the unmappable half of the curve; key
    generation filters those out up front with can_hide().
    """
    t = u + Fe(A)
    r = -NON_SQUARE * u * t
    isr, square = invsqrt(r)
    if not square:
        raise ValueError("point has no representative")
    if v_is_negative:
        u = t
    return abs(u * isr)


def can_map_from_curve(u: Fe) -> bool:
    return u != Fe(-A) and is_square(-NON_SQUARE * u * (u + Fe(A)))


ENCODED_LEN = 32
_HIGH_MASK = (1 << 254) - 1


def can_hide(point: bytes) -> bool:
    """Whether a u-coordinate (32 bytes little-endian) is encodable."""
    return can_map_from_curve(Fe(int.from_bytes(point, "little")))


def hide(point: bytes, rng: RandomSource) -> bytes | None:
    """Encode a u-coordinate as 32 uniform bytes; None if not encodable.

    The v sign is unused by X25519, so a random sign picks one of the two
    representatives; two more random bits fill the unused top of the
    encoding.
    """
    u = Fe(int.from_bytes(point, "little"))
    if not can_map_from_curve(u):
        return None
    noise = rng.randbytes(1)[0]
    r = map_from_curve(u, bool(noise & 1))
    return (r.val | ((noise >> 1) & 3) << 254).to_bytes(32, "little")


def unhide(rep: bytes) -> bytes:
    """Decode 32 bytes to a u-coordinate; total, never fails.

    X25519 uses u alone, so only the u half of the Elligator2 map runs:
    w = -A / (1 + 2r^2), and u = w if w is the u of a curve point, else
    u = -A - w.  The denominator never vanishes: -1/2 is not a square.
    """
    if len(rep) != ENCODED_LEN:
        raise ValueError("representative must be 32 bytes")
    r = int.from_bytes(rep, "little") & _HIGH_MASK
    u = -A * invert(1 + NON_SQUARE.val * r * r, P) % P
    if legendre(u * (u * u + A * u + 1), P) == -1:
        u = (-A - u) % P
    return u.to_bytes(32, "little")
