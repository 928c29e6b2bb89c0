"""The Elligator2 point codec for Curve25519, on plain integers.

Only the codec lives here: a map between Montgomery u-coordinates and
32-byte strings indistinguishable from random.  Scalar multiplication is
done natively (see suites.py).  Field elements are ints modulo p, worked
with the shared `fieldmath` kernel plus the one inverse square root that
p = 5 mod 8 calls for; "negative" means above (p - 1) / 2.  hide runs on
each ephemeral key drawn (about two per blob per suite, as key
generation retries).  unhide decodes a list: encode passes it every
recipient key of a suite at once, so the list shares one inversion, and
decode passes one key per identity per blob.

About half of all curve points have no representative; key generation
simply retries until it draws one.  A representative is 254 bits wide:
the top two bits of the 32-byte encoding are noise and get randomized on
encode, masked off on decode.  Decoding never fails: every 32-byte
string maps to some curve point.
"""

from __future__ import annotations

from typing import Sequence

from .fieldmath import invert_all, is_square
from .rng import RandomSource

P = 2**255 - 19
A = 486662

# The map needs a fixed non-square; 2 is the conventional choice.
NON_SQUARE = 2

# sqrt(-1), the non-negative one, used to fix up square roots since
# p = 5 mod 8
SQRT_M1 = pow(2, (P - 1) // 4, P)
assert SQRT_M1 * SQRT_M1 % P == P - 1 and SQRT_M1 <= (P - 1) // 2


def invsqrt(x: int) -> tuple[int, bool]:
    """(1/sqrt(x), True) for non-zero squares; otherwise a related value
    and False.  Single-exponentiation trick specific to p = 5 mod 8."""
    isr = pow(x, (P - 5) // 8, P)
    quartic = x * isr * isr % P
    if quartic in (P - 1, P - SQRT_M1):
        isr = isr * SQRT_M1 % P
    return isr, quartic in (1, P - 1)


def map_from_curve(u: int, v_is_negative: bool) -> int:
    """Curve point back to its 254-bit representative, the non-negative
    one of the pair r, -r (at most (p - 1) / 2).

    Fails (ValueError) for the unmappable half of the curve; hide tests
    can_map_from_curve() first and returns None for those points.
    """
    t = (u + A) % P
    isr, square = invsqrt(-NON_SQUARE * u * t % P)
    if not square:
        raise ValueError("point has no representative")
    if v_is_negative:
        u = t
    r = u * isr % P
    return min(r, P - r)


def can_map_from_curve(u: int) -> bool:
    """Whether u in [0, p) is the u-coordinate of a point with a
    representative; u = 0, the point of order 2, and u = -A have none."""
    return u not in (0, P - A) and is_square(-NON_SQUARE * u * (u + A), P)


ENCODED_LEN = 32
_HIGH_MASK = (1 << 254) - 1


def hide(point: bytes, rng: RandomSource) -> bytes | None:
    """Encode a u-coordinate as 32 uniform bytes; None if not encodable.

    The v sign is unused by X25519, so a random sign picks one of the two
    representatives; two more random bits fill the unused top of the
    encoding.
    """
    u = int.from_bytes(point, "little") % P
    if not can_map_from_curve(u):
        return None
    noise = rng.randbytes(1)[0]
    r = map_from_curve(u, bool(noise & 1))
    return (r | ((noise >> 1) & 3) << 254).to_bytes(32, "little")


def unhide(reps: Sequence[bytes]) -> list[bytes]:
    """Decode 32-byte strings to u-coordinates, in order; total, never
    fails.

    X25519 uses u alone, so only the u half of the Elligator2 map runs:
    w = -A / (1 + 2r^2), and u = w if w is the u of a curve point, else
    u = -A - w.  The denominator never vanishes: -1/2 is not a square.
    The list's denominators share one inversion.
    """
    rs = []
    for rep in reps:
        if len(rep) != ENCODED_LEN:
            raise ValueError("representative must be 32 bytes")
        rs.append(int.from_bytes(rep, "little") & _HIGH_MASK)
    points = []
    for inv in invert_all([1 + NON_SQUARE * r * r for r in rs], P):
        u = -A * inv % P
        if not is_square(u * (u * u + A * u + 1), P):
            u = (-A - u) % P
        points.append(u.to_bytes(32, "little"))
    return points
