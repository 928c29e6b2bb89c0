"""secp256k1 arithmetic and a 64-byte uniform point codec.

The codec writes a point as a pair of field elements (u, v) with
f(u) + f(v) = P, where f is the Shallue-van de Woestijne map.  Encoding
draws random u until P - f(u) lands in the image of one of f's four
inverse branches; every point encodes after a couple of tries, and every
64-byte string decodes, so decoding is total.

As with the Curve25519 codec, hide runs once per blob per suite (on the
ephemeral key) and unhide once per recipient on encode and once per
identity per blob on decode; scalar multiplication is left to the
native backend (see suites.py).
"""

from __future__ import annotations

from .fieldmath import invert, is_square_mod, powmod
from .rng import RandomSource

P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


class Fe:
    """Field element modulo the secp256k1 prime."""

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

    def is_odd(self) -> bool:
        return self.val & 1 == 1

    def is_square(self) -> bool:
        return is_square_mod(self.val, P)

    def sqrt(self) -> "Fe":
        # p = 3 mod 4
        root = powmod(self.val, (P + 1) // 4, P)
        if root * root % P != self.val:
            raise ValueError("not a square")
        return Fe(root)

    def to_bytes(self) -> bytes:
        return self.val.to_bytes(32, "big")

    def __repr__(self):
        return f"Fe(0x{self.val:064x})"


# Jacobian point arithmetic; None is the point at infinity.

Point = tuple[int, int]
Jac = tuple[int, int, int] | None


def to_jac(pt: Point) -> Jac:
    return (pt[0], pt[1], 1)


def jac_double(q: Jac) -> Jac:
    if q is None or q[1] == 0:
        return None
    x, y, z = q
    s = 4 * x * y * y % P
    m = 3 * x * x % P
    nx = (m * m - 2 * s) % P
    y2 = y * y % P
    ny = (m * (s - nx) - 8 * y2 * y2) % P
    nz = 2 * y * z % P
    return (nx, ny, nz)


def jac_add(q1: Jac, q2: Jac) -> Jac:
    if q1 is None:
        return q2
    if q2 is None:
        return q1
    x1, y1, z1 = q1
    x2, y2, z2 = q2
    z1s, z2s = z1 * z1 % P, z2 * z2 % P
    u1, u2 = x1 * z2s % P, x2 * z1s % P
    s1, s2 = y1 * z2s * z2 % P, y2 * z1s * z1 % P
    if u1 == u2:
        if s1 != s2:
            return None
        return jac_double(q1)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    h2 = h * h % P
    h3 = h2 * h % P
    u1h2 = u1 * h2 % P
    nx = (r * r - h3 - 2 * u1h2) % P
    ny = (r * (u1h2 - nx) - s1 * h3) % P
    nz = h * z1 * z2 % P
    return (nx, ny, nz)


def jac_neg(q: Jac) -> Jac:
    if q is None:
        return None
    return (q[0], (-q[1]) % P, q[2])


def jac_affine(q: Jac) -> Point:
    if q is None:
        raise ValueError("point at infinity has no affine form")
    x, y, z = q
    zi = invert(z, P)
    zi2 = zi * zi % P
    return (x * zi2 % P, y * zi2 * zi % P)


# Shallue-van de Woestijne map constants.
C1 = Fe(-3).sqrt()
C2 = (C1 - Fe(1)) / Fe(2)
FB = Fe(B)


def forward_map(u: Fe) -> tuple[Fe, Fe]:
    """Field element to curve point; total.

    The three candidate x-values satisfy an identity forcing at least one
    of them onto the curve whenever the formulas are defined; the two
    degenerate denominators fall back to the base point.
    """
    s = u**2
    den = Fe(1) + FB + s
    if den == Fe(0):
        return (Fe(GX), Fe(GY))
    x1 = C2 - C1 * s / den
    g1 = x1**3 + FB
    if g1.is_square():
        x, g = x1, g1
    else:
        x2 = -x1 - Fe(1)
        g2 = x2**3 + FB
        if g2.is_square():
            x, g = x2, g2
        elif s == Fe(0):
            return (Fe(GX), Fe(GY))
        else:
            x3 = Fe(1) - den**2 / (Fe(3) * s)
            x, g = x3, x3**3 + FB
    y = g.sqrt()
    if y.is_odd() != u.is_odd():
        y = -y
    return x, y


def reverse_map(x: Fe, y: Fe, i: int) -> Fe | None:
    """One of up to four preimages of (x, y) under forward_map.

    Branch i in [0, 4); branches independently return None, all non-None
    results are distinct, and together they cover every preimage.
    """
    if i == 0 or i == 1:
        z = Fe(2) * x + Fe(1)
        t1 = C1 - z
        t2 = C1 + z
        if not (t1 * t2).is_square():
            return None
        if i == 0:
            if t2 == Fe(0):
                return None
            if t1 == Fe(0) and y.is_odd():
                return None
            u = ((Fe(1) + FB) * t1 / t2).sqrt()
        else:
            x1 = -x - Fe(1)
            if (x1**3 + FB).is_square():
                return None
            u = ((Fe(1) + FB) * t2 / t1).sqrt()
    else:
        z = Fe(2) - Fe(4) * FB - Fe(6) * x
        disc = z**2 - Fe(16) * (FB + Fe(1)) ** 2
        if not disc.is_square():
            return None
        if i == 2:
            s = (z + disc.sqrt()) / Fe(4)
        else:
            if disc == Fe(0):
                return None
            s = (z - disc.sqrt()) / Fe(4)
        if not s.is_square():
            return None
        den = Fe(1) + FB + s
        if den == Fe(0):
            return None
        x1 = C2 - C1 * s / den
        if (x1**3 + FB).is_square():
            return None
        u = s.sqrt()
    if y.is_odd() != u.is_odd():
        u = -u
    return u


ENCODED_LEN = 64


def hide(point: Point, rng: RandomSource) -> bytes:
    """Encode a point as 64 uniform bytes; succeeds for every point."""
    target = to_jac(point)
    while True:
        u_int = int.from_bytes(rng.randbytes(32), "big")
        if u_int >= P:
            continue
        branch = rng.randbytes(1)[0] & 3
        u = Fe(u_int)
        t = jac_neg(to_jac(_fe_point(forward_map(u))))
        q = jac_add(t, target)
        if q is None:
            q = t  # f(u) = P exactly; decode's infinity rule mirrors this
        qa = jac_affine(q)
        v = reverse_map(Fe(qa[0]), Fe(qa[1]), branch)
        if v is not None:
            return u.to_bytes() + v.to_bytes()


def unhide(rep: bytes) -> Point:
    """Decode 64 bytes to a curve point; total, never fails."""
    if len(rep) != ENCODED_LEN:
        raise ValueError("representative must be 64 bytes")
    u = Fe(int.from_bytes(rep[:32], "big"))
    v = Fe(int.from_bytes(rep[32:], "big"))
    t = to_jac(_fe_point(forward_map(u)))
    s = to_jac(_fe_point(forward_map(v)))
    q = jac_add(t, s)
    if q is None:
        q = t
    return jac_affine(q)


def _fe_point(pt: tuple[Fe, Fe]) -> Point:
    return (pt[0].val, pt[1].val)
