"""secp256k1 constants and a 64-byte uniform point codec.

The codec writes a point as a pair of field elements (u, v) with
f(u) + f(v) = P, where f is the Shallue-van de Woestijne map.  Encoding
draws random u until P - f(u) lands in the image of one of f's four
inverse branches; every point encodes after a couple of tries, and every
64-byte string decodes, so decoding is total.

Field elements and affine points are plain ints and int pairs.  The
forward map's curve lift, from a candidate x to the y of the parity it
needs, is SEC1 point decompression in OpenSSL; `fieldmath` serves
`reverse_map`, whose roots are of values that are not of the form
x^3 + 7.  Each hide attempt and each decoded key needs exactly one
point addition, so there is no projective point library: `_add_all` is
affine.

As with the Curve25519 codec, hide runs once per blob per suite (on the
ephemeral key), and unhide decodes a list: every recipient key of a
suite at once on encode, one key per identity per blob on decode.  A
list takes two inversions in all, one for the forward maps of all its
halves and one for all its additions.  Scalar multiplication is left to
the native backend (see suites.py).
"""

from __future__ import annotations

from typing import Sequence

from cryptography.hazmat.primitives.asymmetric import ec

from .fieldmath import invert_all, is_square, sqrt
from .rng import RandomSource

P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
B = 7

Point = tuple[int, int]

# Shallue-van de Woestijne map constants.
C1 = sqrt(-3, P)
C2 = (C1 - 1) * pow(2, -1, P) % P

_CURVE = ec.SECP256K1()


def _add_all(pairs: list[tuple[Point, Point]]) -> list[Point | None]:
    """p1 + p2 for each pair, with one inversion for the list; None for
    p1 + (-p1), the point at infinity.  Equal points double."""
    # x1 = x2 takes the tangent's 2 y1, never 0 (the order is odd).
    dens = [x2 - x1 or 2 * y1 for (x1, y1), (x2, _) in pairs]
    sums: list[Point | None] = []
    for ((x1, y1), (x2, y2)), inv in zip(pairs, invert_all(dens, P)):
        if x1 != x2:
            lam = (y2 - y1) * inv % P
        elif (y1 + y2) % P:
            lam = 3 * x1 * x1 * inv % P
        else:
            sums.append(None)
            continue
        x3 = (lam * lam - x1 - x2) % P
        sums.append((x3, (lam * (x1 - x3) - y1) % P))
    return sums


def _lift(x: int, prefix: bytes) -> int | None:
    """The y of the parity the SEC1 prefix names, or None when x is not
    the x of a curve point."""
    try:
        key = ec.EllipticCurvePublicKey.from_encoded_point(
            _CURVE, prefix + x.to_bytes(32, "big")
        )
    except ValueError:
        return None
    return key.public_numbers().y


def forward_map_all(us: list[int]) -> list[Point]:
    """Field elements in [0, P) to curve points, in order; total.

    The three candidate x-values satisfy an identity forcing at least one
    of them onto the curve.  The denominator 1 + B + s never vanishes,
    since -8 is a non-square mod P; the third candidate's 3s does at
    u = 0, but there the first candidate is on the curve.  y takes the
    parity of u.
    """
    squares = [u * u % P for u in us]
    dens = [1 + B + s for s in squares]
    # One inversion for the list: inv = 1 / (3 s den), so 1 / den is
    # 3 s inv and the third candidate's 1 / (3s) is den inv.  At s = 0
    # the list holds den alone; the first candidate is then C2, whatever
    # inv is, and the third is never reached.
    invs = invert_all([3 * s * den or den for s, den in zip(squares, dens)], P)
    points = []
    for u, s, den, inv in zip(us, squares, dens, invs):
        prefix = bytes([2 | (u & 1)])
        x = (C2 - 3 * C1 * s * s % P * inv) % P
        y = _lift(x, prefix)
        if y is None:
            x = (-x - 1) % P
            y = _lift(x, prefix)
            if y is None:
                x = (1 - den * den % P * den * inv) % P
                y = _lift(x, prefix)
        points.append((x, y))
    return points


def reverse_map(x: int, y: int, i: int) -> int | None:
    """One of up to four preimages of (x, y) under the forward map.

    Branch i in [0, 4); branches independently return None, all non-None
    results are distinct, and together they cover every preimage.
    """
    if i == 0 or i == 1:
        z = 2 * x + 1
        t1 = (C1 - z) % P
        t2 = (C1 + z) % P
        if not is_square(t1 * t2, P):
            return None
        if i == 0:
            if t2 == 0:
                return None
            if t1 == 0 and y & 1:
                return None
            u = sqrt((1 + B) * t1 * pow(t2, -1, P), P)
        else:
            x1 = -x - 1
            if is_square(x1 * x1 * x1 + B, P):
                return None
            u = sqrt((1 + B) * t2 * pow(t1, -1, P), P)
    else:
        z = (2 - 4 * B - 6 * x) % P
        disc = (z * z - 16 * (B + 1) ** 2) % P
        if not is_square(disc, P):
            return None
        if i == 2:
            s = (z + sqrt(disc, P)) * pow(4, -1, P) % P
        else:
            if disc == 0:
                return None
            s = (z - sqrt(disc, P)) * pow(4, -1, P) % P
        if not is_square(s, P):
            return None
        den = (1 + B + s) % P
        x1 = (C2 - C1 * s * pow(den, -1, P)) % P
        if is_square(x1 * x1 * x1 + B, P):
            return None
        u = sqrt(s, P)
    if y & 1 != u & 1:
        u = -u % P
    return u


ENCODED_LEN = 64


def hide(point: Point, rng: RandomSource) -> bytes:
    """Encode a point as 64 uniform bytes; succeeds for every point."""
    while True:
        u = int.from_bytes(rng.randbytes(32), "big")
        if u >= P:
            continue
        branch = rng.randbytes(1)[0] & 3
        fx, fy = forward_map_all([u])[0]
        t = (fx, -fy % P)
        q = _add_all([(t, point)])[0]
        if q is None:
            q = t  # f(u) = P exactly; decode's infinity rule mirrors this
        v = reverse_map(*q, branch)
        if v is not None:
            return u.to_bytes(32, "big") + v.to_bytes(32, "big")


def unhide(reps: Sequence[bytes]) -> list[Point]:
    """Decode 64-byte strings to curve points, in order; total, never
    fails.

    A string u || v decodes to f(u) + f(v), or to f(u) when that sum is
    the point at infinity.
    """
    us = []
    for rep in reps:
        if len(rep) != ENCODED_LEN:
            raise ValueError("representative must be 64 bytes")
        us.append(int.from_bytes(rep[:32], "big") % P)
        us.append(int.from_bytes(rep[32:], "big") % P)
    halves = forward_map_all(us)
    pairs = list(zip(halves[::2], halves[1::2]))
    return [q or t for (t, _), q in zip(pairs, _add_all(pairs))]
