"""Modular arithmetic for the point codecs, on plain Python integers.

One function per operation, shared by both curves.  Inversion is the
built-in extended Euclid (`pow(a, -1, p)`) and the quadratic-residue
test is a binary Jacobi symbol; both cost a fraction of the 256-bit
exponentiation that Fermat and Euler would need.  An inversion still
costs some fifty multiplications, so the codecs decode a whole list of
keys through `invert_all`, which inverts the list with one of them.
`sqrt` serves primes p = 3 mod 4: secp256k1's `reverse_map` and map
constant, while the forward map lifts x to a point by SEC1
decompression in OpenSSL.  Curve25519's p = 5 mod 8 only needs the
inverse square root that its codec computes itself.  Only public values
reach these kernels: points and representatives, never a secret scalar.
"""

from __future__ import annotations

from typing import Sequence


def invert_all(values: Sequence[int], p: int) -> list[int]:
    """Every value's inverse mod p, with one inversion and 3(n - 1)
    multiplications (Montgomery's simultaneous inversion).  ValueError
    when any value is 0 mod p, as for a single inversion."""
    if not values:
        return []
    prefix = []
    acc = 1
    for a in values:
        acc = acc * a % p
        prefix.append(acc)
    # Walk back: inv is the inverse of the product of values[:i + 1].
    inv = pow(acc, -1, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % p
        inv = inv * values[i] % p
    out[0] = inv
    return out


def legendre(a: int, p: int) -> int:
    """Jacobi symbol (a/p) for odd p > 0; the Legendre symbol when p is
    prime.  0 when a is a multiple of p."""
    a %= p
    t = 1
    while a:
        if not a & 1:
            z = (a & -a).bit_length() - 1
            a >>= z
            # (2/p) = -1 exactly when p = 3 or 5 mod 8
            if z & 1 and p & 7 in (3, 5):
                t = -t
        # Reciprocity: flip when both are 3 mod 4.
        if a & p & 2:
            t = -t
        a, p = p % a, a
    return t if p == 1 else 0


def is_square(a: int, p: int) -> bool:
    """Whether a is a quadratic residue modulo an odd prime p; 0 counts."""
    return legendre(a, p) != -1


def sqrt(a: int, p: int) -> int:
    """A square root of a modulo a prime p = 3 mod 4; ValueError on
    non-squares."""
    root = pow(a, (p + 1) // 4, p)
    if (root * root - a) % p:
        raise ValueError("not a square")
    return root
