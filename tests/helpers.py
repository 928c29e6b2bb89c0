"""Independent oracles used across the test suite.

Everything here recomputes expected values by a different route than the
library code under test: permitted lengths by mantissa inspection,
Padmé's exponent / width / zero-bits split by counting binary digits,
worst-case padding overhead by closed form, Diffie-Hellman by a
hand-rolled ladder, leakage by full enumeration (and by walking the
padded image, leakage_bits, which the paper's size-leakage criterion
uses and the library does not need), field kernels by Fermat
and Euler, the Elligator2 maps by their textbook formulas, the
secp256k1 pair codec's forward map by Euler's criterion and a 256-bit
exponentiation in place of SEC1 decompression, XOR masking
of key positions one byte at a time, the seeded byte stream by its
SHA-256 counter definition, and entry-point placement by Hall's
condition over every subset of keys.  Two test-data helpers close the
module: log-uniform synthetic sizes and the reader of a .pk key file.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

from purb.analyzer import SizeDataset
from purb.padding import FIXED_BLOCK, NONE, PadSpec


def permitted_length(n: int) -> bool:
    """A length is permitted when, written as 1.m * 2^e, the mantissa m
    has no more significant bits than e's own binary representation."""
    if n <= 1:
        return True
    e = n.bit_length() - 1
    trailing = (n & -n).bit_length() - 1
    mantissa_bits = e - trailing
    return mantissa_bits <= e.bit_length()


def scan_padded(n: int) -> int:
    """Smallest permitted length >= n, by linear scan."""
    while not permitted_length(n):
        n += 1
    return n


def padme_split(n: int) -> tuple[int, int, int]:
    """(exponent, exponent width, zero bits) of a length under Padmé, from
    the digits of its binary string: the exponent is floor(log2 n), the
    width is the exponent's own digit count, and the rule clears
    exponent - width low bits, none for n <= 1 (exponent 0, width 1)."""
    exponent = len(f"{n:b}") - 1
    width = len(f"{exponent:b}")
    return exponent, width, max(0, exponent - width)


def padme_worst_overhead(max_len: int) -> tuple[Fraction, int]:
    """Exact maximum of (padded - L) / L over 2 <= L <= max_len, and the
    smallest L attaining it, by closed form per binary octave.

    In octave E (2^E <= L < 2^(E+1)) the rule clears z = E - E.bit_length()
    low bits, so padding costs at most 2^z - 1 bytes, and only lengths above
    2^E pay at all.  L = 2^E + 1 pays exactly 2^z - 1 on the smallest
    denominator, so it is the octave's unique worst case.
    """
    best, best_at = Fraction(0), 2
    for e in range(1, max_len.bit_length()):
        length = (1 << e) + 1
        z = e - e.bit_length()
        if length > max_len or z <= 0:
            continue
        ratio = Fraction((1 << z) - 1, length)
        if ratio > best:
            best, best_at = ratio, length
    return best, best_at


def leakage_by_enumeration(pad_fn, max_len: int) -> int:
    """ceil(log2 |image|) by padding every single input length."""
    image = {pad_fn(length) for length in range(1, max_len + 1)}
    return (len(image) - 1).bit_length()


# Brute-force leakage counting is capped to keep the operation bounded.
LEAKAGE_MAX_LEN = 2**24


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


# Montgomery ladder on Curve25519, for cross-checking the native backend.

_P25519 = 2**255 - 19
_A24 = 121665


def _x25519_ladder(k: int, u: int) -> int:
    x1 = u % _P25519
    x2, z2, x3, z3 = 1, 0, x1, 1
    swap = 0
    for t in reversed(range(255)):
        bit = (k >> t) & 1
        swap ^= bit
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = bit
        a = (x2 + z2) % _P25519
        aa = a * a % _P25519
        b = (x2 - z2) % _P25519
        bb = b * b % _P25519
        e = (aa - bb) % _P25519
        c = (x3 + z3) % _P25519
        d = (x3 - z3) % _P25519
        da = d * a % _P25519
        cb = c * b % _P25519
        x3 = (da + cb) % _P25519
        x3 = x3 * x3 % _P25519
        z3 = (da - cb) % _P25519
        z3 = x1 * z3 * z3 % _P25519
        x2 = aa * bb % _P25519
        z2 = e * (aa + _A24 * e) % _P25519
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return x2 * pow(z2, _P25519 - 2, _P25519) % _P25519


def x25519_oracle(scalar: bytes, point: bytes) -> bytes:
    """RFC-style X25519 with clamping, little-endian bytes in and out."""
    k = bytearray(scalar)
    k[0] &= 248
    k[31] &= 127
    k[31] |= 64
    u = int.from_bytes(point, "little") & ((1 << 255) - 1)
    out = _x25519_ladder(int.from_bytes(bytes(k), "little"), u)
    return out.to_bytes(32, "little")


# Field kernels by Fermat and Euler: one full exponentiation each.


def invert_pure(a: int, mod: int) -> int:
    return pow(a, mod - 2, mod)


def legendre_pure(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


# secp256k1 by affine double-and-add, for cross-checking the native backend.

K256_P = 2**256 - 2**32 - 977
K256_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
K256_G = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)


def _k256_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        if (y1 + y2) % K256_P == 0:
            return None
        lam = 3 * x1 * x1 * pow(2 * y1, -1, K256_P)
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, K256_P)
    x3 = (lam * lam - x1 - x2) % K256_P
    return x3, (lam * (x1 - x3) - y1) % K256_P


def scalar_mult(k: int, pt: tuple[int, int] = K256_G) -> tuple[int, int] | None:
    """k * pt on secp256k1; None is the point at infinity."""
    k %= K256_N
    acc = None
    while k:
        if k & 1:
            acc = _k256_add(acc, pt)
        pt = _k256_add(pt, pt)
        k >>= 1
    return acc


def is_on_curve(pt: tuple[int, int]) -> bool:
    x, y = pt
    return (y * y - (x * x * x + 7)) % K256_P == 0


# The Shallue-van de Woestijne map on secp256k1, lifting x by Jacobi
# symbol and square root in place of SEC1 decompression.

_K256_C1 = pow(-3 % K256_P, (K256_P + 1) // 4, K256_P)
_K256_C2 = (_K256_C1 - 1) * pow(2, -1, K256_P) % K256_P


def k256_map_candidates(u: int) -> list[int]:
    """The candidate x-values of the forward map at u, in the order it
    tries them; the third is undefined at u = 0, so there are two."""
    p = K256_P
    s = u * u % p
    den = (8 + s) % p
    x1 = (_K256_C2 - _K256_C1 * s * pow(den, -1, p)) % p
    candidates = [x1, (-x1 - 1) % p]
    if s:
        candidates.append((1 - den * den * pow(3 * s, -1, p)) % p)
    return candidates


def k256_forward_map_reference(u: int) -> tuple[int, int] | None:
    """The first candidate with x^3 + 7 a square, with y of u's parity;
    None if there is none, which the map's identity rules out."""
    p = K256_P
    for x in k256_map_candidates(u):
        g = (x * x * x + 7) % p
        if legendre_pure(g, p) != -1:
            y = pow(g, (p + 1) // 4, p)
            if y & 1 != u & 1:
                y = -y % p
            return x, y
    return None


# Textbook Elligator2 on Curve25519, for cross-checking the fast maps.

_A25519 = 486662


def chi(n: int) -> int:
    """Legendre symbol of n modulo 2^255 - 19: 0, 1, or -1."""
    return legendre_pure(n, _P25519)


def sqrt25519(n: int) -> int:
    """Non-negative square root modulo 2^255 - 19 (at most (p - 1) / 2);
    raises ValueError on non-squares.  Since p = 5 mod 8, a candidate
    n^((p+3)/8) is off by at most a factor sqrt(-1) = 2^((p-1)/4)."""
    p = _P25519
    if chi(n) == -1:
        raise ValueError("not a square")
    root = pow(n, (p + 3) // 8, p)
    if (root * root - n) % p:
        root = root * pow(2, (p - 1) // 4, p) % p
    return min(root, p - root)


def map_to_curve_reference(r: int) -> tuple[int, int]:
    p, a = _P25519, _A25519
    w = -a * invert_pure(1 + 2 * r * r, p) % p
    e = chi(w**3 + a * w * w + w)
    u = (e * w - (1 - e) * (a // 2)) % p
    v = -e * sqrt25519(u**3 + a * u * u + u) % p
    return u, v


def map_from_curve_reference(u: int, v_is_negative: bool) -> int:
    p, a = _P25519, _A25519
    if u == p - a or chi(-2 * u * (u + a)) == -1:
        raise ValueError("point has no representative")
    if v_is_negative:
        return sqrt25519(-(u + a) * invert_pure(2 * u, p))
    return sqrt25519(-u * invert_pure(2 * (u + a), p))


def xor_ranges_bytewise(blob, positions, klen: int) -> bytes:
    """XOR of blob[pos:pos + klen] over all positions, byte by byte."""
    out = bytearray(klen)
    for pos in positions:
        for i in range(klen):
            out[i] ^= blob[pos + i]
    return bytes(out)


def seeded_stream(seed: bytes, n: int) -> bytes:
    """First n bytes of the seeded source: block i is SHA-256(seed || i)."""
    out = bytearray()
    i = 0
    while len(out) < n:
        out += hashlib.sha256(seed + i.to_bytes(8, "big")).digest()
        i += 1
    return bytes(out[:n])


# Entry-point placement over global hash-table slots: table j holds slots
# 2^j - 1 .. 2^(j+1) - 2, and a key may only sit at 2^j - 1 + key mod 2^j.


def table_slots(pkey: int, last: int) -> set[int]:
    """Every slot of pkey's, one per table, up to slot `last`."""
    out, j = set(), 0
    while (1 << j) - 1 <= last:
        g = (1 << j) - 1 + pkey % (1 << j)
        if g <= last:
            out.add(g)
        j += 1
    return out


def greedy_placement(position_keys: list[int], blocked: set[int]) -> list[int]:
    """Slots of the first-free-table rule: each key in order takes its slot
    in the lowest table not blocked or taken by an earlier key."""
    taken = set(blocked)
    out = []
    for pkey in position_keys:
        j = 0
        while (1 << j) - 1 + pkey % (1 << j) in taken:
            j += 1
        out.append((1 << j) - 1 + pkey % (1 << j))
        taken.add(out[-1])
    return out


def min_max_last_slot(position_keys: list[int], blocked: set[int]) -> int:
    """Lowest last slot over all placements of distinct, unblocked slots.

    A bound works when Hall's condition holds: every subset of keys can
    reach at least as many slots at or below it as it has keys.  Tries
    each bound upward from n - 1; exponential in the key count, so for
    small instances only.
    """
    n = len(position_keys)
    bound = n - 1
    while True:
        reach = [table_slots(p, bound) - blocked for p in position_keys]
        if all(
            len(set().union(*(reach[i] for i in subset))) >= size
            for size in range(1, n + 1)
            for subset in itertools.combinations(range(n), size)
        ):
            return bound
        bound += 1


def log_uniform_sizes(
    count: int, lo: int = 1024, hi: int = 2**30, seed: int = 0
) -> SizeDataset:
    """Synthetic sizes spread uniformly in log scale over [lo, hi]."""
    rnd = random.Random(seed)
    lo_l, hi_l = math.log(lo), math.log(hi)
    sizes = [
        min(hi, max(lo, int(math.exp(rnd.uniform(lo_l, hi_l)))))
        for _ in range(count)
    ]
    return SizeDataset(name=f"log-uniform[{lo},{hi}]", sizes=sizes)


def read_public_key(path: str) -> bytes:
    """The hidden public key in a .pk file, written as hex text."""
    with open(path, "r", encoding="ascii") as f:
        return bytes.fromhex(f.read().strip())
