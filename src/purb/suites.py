"""Cipher suites: groups, point-hiding codecs, AEADs, hashes, positions.

A suite fixes the group and its uniform point codec, the entry-point
AEAD and its key length, and the public list of byte offsets where the
suite's encoded key may live in a blob.  SUITES is the one suite table,
a public constant of the format like the scrypt cost in password_secret:
suite_id is the canonical order, and every entry point is 64 bytes.
All suites share the two hash roles, SHA-256 under two prefixes:
kem_hash (shared secret to key material) and derive_hash (labeled
derivations).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM, ChaCha20Poly1305

from . import curve25519, secp256k1
from .rng import RandomSource, random_scalar_below

PUBLIC_KEY = "public-key"
PASSWORD = "password"

# Entry-point plaintext is one session key plus one metadata block.
# Sealed, it gains the 16-byte tag that every entry-point AEAD adds, so
# every suite's hash-table slot is ENTRY_LEN bytes.
SESSION_KEY_LEN = 32
META_LEN = 16
ENTRY_PLAIN_LEN = SESSION_KEY_LEN + META_LEN
ENTRY_LEN = ENTRY_PLAIN_LEN + 16

# The HMAC-SHA256 tag at the end of every blob.
TAG_LEN = 32

# Domain-separation prefixes keeping the two hash roles distinct.
_KEM_PREFIX = b"purb-H"
_DERIVE_PREFIX = "purb-Ĥ".encode()  # H-circumflex


def kem_hash(shared: bytes) -> bytes:
    return hashlib.sha256(_KEM_PREFIX + shared).digest()


def derive_hash(data: bytes) -> bytes:
    return hashlib.sha256(_DERIVE_PREFIX + data).digest()


class Curve25519Group:
    """X25519 exponentiation with the Elligator2 codec."""

    name = "x25519"
    encoded_len = curve25519.ENCODED_LEN
    # An exchange takes about 22 us and gains nothing from a second
    # thread (2x200 exchanges took 8.8 ms on one thread and 8.9 ms on
    # two), so X25519 keys alone never start encode's helper.
    parallel_dh = False

    def private_key(self, sk: bytes) -> X25519PrivateKey:
        return X25519PrivateKey.from_private_bytes(sk)

    def keygen_raw(self, rng: RandomSource) -> tuple[bytes, bytes, X25519PrivateKey]:
        sk = rng.randbytes(32)
        priv = self.private_key(sk)
        return sk, priv.public_key().public_bytes_raw(), priv

    def dh(self, priv: X25519PrivateKey, element: bytes) -> bytes:
        try:
            return priv.exchange(X25519PublicKey.from_public_bytes(element))
        except ValueError:
            # Small-order peer point; the all-zero secret keeps the
            # operation total and fails trial decryption downstream.
            return b"\x00" * 32

    def hide(self, element: bytes, rng: RandomSource) -> bytes | None:
        return curve25519.hide(element, rng)

    def unhide(self, reps: Sequence[bytes]) -> list[bytes]:
        return curve25519.unhide(reps)


class Secp256k1Group:
    """Native ECDH on secp256k1 with the 64-byte pair codec."""

    name = "k256"
    encoded_len = secp256k1.ENCODED_LEN
    # OpenSSL's exchange takes about 210 us and releases the GIL, so two
    # of them start encode's helper, which shares the exchange jobs:
    # 2x200 exchanges took 84 ms on one thread and 44 ms on two (2 vCPU).
    # unhide holds the GIL and stays on the calling thread, one batch
    # per suite: 400 keys took 57-62 ms as one batch on one thread and
    # 84-92 ms as two batches of 200 on two.
    parallel_dh = True

    def private_key(self, sk: bytes) -> ec.EllipticCurvePrivateKey:
        k = int.from_bytes(sk, "big")
        if not 1 <= k < secp256k1.N:
            raise ValueError("scalar out of range")
        return ec.derive_private_key(k, ec.SECP256K1())

    def keygen_raw(
        self, rng: RandomSource
    ) -> tuple[bytes, tuple[int, int], ec.EllipticCurvePrivateKey]:
        sk = random_scalar_below(rng, secp256k1.N).to_bytes(32, "big")
        priv = self.private_key(sk)
        nums = priv.public_key().public_numbers()
        return sk, (nums.x, nums.y), priv

    def dh(self, priv: ec.EllipticCurvePrivateKey, element: tuple[int, int]) -> bytes:
        pub = ec.EllipticCurvePublicNumbers(
            element[0], element[1], ec.SECP256K1()
        ).public_key()
        return priv.exchange(ec.ECDH(), pub)

    def hide(self, element: tuple[int, int], rng: RandomSource) -> bytes | None:
        return secp256k1.hide(element, rng)

    def unhide(self, reps: Sequence[bytes]) -> list[tuple[int, int]]:
        return secp256k1.unhide(reps)


@dataclass(frozen=True)
class SuiteSpec:
    suite_id: int  # also the canonical order
    alias: str
    name: str
    kind: str
    encoded_key_len: int
    ep_aead: type  # entry-point AEAD; every one has a 16-byte tag
    ep_key_len: int
    allowed_positions: tuple[int, ...]
    group: Curve25519Group | Secp256k1Group | None = None

    @property
    def entry_len(self) -> int:
        """Entry-point ciphertext length, the hash-table slot size."""
        return ENTRY_LEN

    @property
    def ht_base(self) -> int:
        """Hash tables start right after the first possible key position."""
        return self.allowed_positions[0] + self.encoded_key_len


@dataclass(frozen=True)
class KeyPair:
    suite: SuiteSpec
    sk: bytes
    pk: object
    pk_encoded: bytes
    attempts: int
    # The group's native key for sk, built once by keygen; not part of
    # the pair's identity.
    native_key: object = field(compare=False, repr=False)


_K256 = Secp256k1Group()
_X25519 = Curve25519Group()


def _pk_suite(suite_id, alias, group, aead_name, aead, key_len, positions):
    name = f"purb-{aead_name}-sha256-{group.name}"
    return SuiteSpec(
        suite_id, alias, name, PUBLIC_KEY, group.encoded_len, aead, key_len,
        positions, group,
    )


# The suite table, in canonical order: suite_id i is row i.  It is part
# of the format: every encoder and decoder shares it, and changing a row
# changes which blobs decode.
SUITES = (
    _pk_suite(0, "A", _K256, "aes128gcm", AESGCM, 16, (0,)),
    _pk_suite(1, "B", _X25519, "aes128gcm", AESGCM, 16, (0, 64)),
    _pk_suite(2, "C", _K256, "aes256gcm", AESGCM, 32, (0, 96)),
    _pk_suite(3, "D", _X25519, "aes256gcm", AESGCM, 32, (0, 32, 64, 160)),
    _pk_suite(4, "E", _K256, "chacha20poly1305", ChaCha20Poly1305, 32,
              (0, 64, 128, 192)),
    _pk_suite(5, "F", _X25519, "chacha20poly1305", ChaCha20Poly1305, 32,
              (0, 32, 64, 96, 128, 256)),
    # 288 is beyond every other suite's position ranges, so a salt can
    # always be placed no matter which suites share the blob.
    SuiteSpec(6, "pw", "purb-chacha20poly1305-sha256-scrypt", PASSWORD, 32,
              ChaCha20Poly1305, 32, (0, 32, 288)),
)


class Registry:
    """Read-only lookup over SUITES."""

    _by_alias = {s.alias: s for s in SUITES}

    def __iter__(self):
        return iter(SUITES)

    def by_alias(self, alias: str) -> SuiteSpec:
        return self._by_alias[alias]


_DEFAULT = Registry()


def default_registry() -> Registry:
    return _DEFAULT


def keygen(suite: SuiteSpec, rng: RandomSource) -> KeyPair:
    """Generate a key pair whose public key has a uniform encoding.

    Roughly half of all Curve25519 points are encodable, so expect two
    attempts on average there; the 64-byte pair codec always succeeds.
    """
    if suite.kind != PUBLIC_KEY:
        raise ValueError("keygen needs a public-key suite")
    attempts = 0
    while True:
        attempts += 1
        sk, pk, native_key = suite.group.keygen_raw(rng)
        encoded = suite.group.hide(pk, rng)
        if encoded is not None:
            return KeyPair(suite, sk, pk, encoded, attempts, native_key)


def encap(suite: SuiteSpec, eph: KeyPair, recipients: Sequence[object]) -> list[bytes]:
    """One shared secret per recipient point, against eph, in order.

    eph is the suite's ephemeral key pair from keygen, and eph.pk_encoded
    is the hidden key that goes in the blob; recipients are group
    elements, as unhide returns them.  encap draws nothing, so it may run
    on any thread; codec decides which (see its module docstring).
    """
    if suite.kind != PUBLIC_KEY:
        raise ValueError("encap needs a public-key suite")
    if not recipients:
        raise ValueError("no recipients")
    return [kem_hash(suite.group.dh(eph.native_key, pk)) for pk in recipients]


def decap(suite: SuiteSpec, sk: object, tau: bytes) -> bytes:
    """Recover the shared secret from a hidden ephemeral key.

    sk is the group's native key for the private scalar (private_key).
    Total: any string of the right length decodes to some group element,
    so a wrong or random tau surfaces only as trial-decryption failure.
    """
    if len(tau) != suite.encoded_key_len:
        raise ValueError("encoded key has wrong length")
    element = suite.group.unhide([tau])[0]
    return kem_hash(suite.group.dh(sk, element))


def password_secret(suite: SuiteSpec, salt: bytes, passphrase: bytes) -> bytes:
    """Memory-hard derivation of an entry-point secret from a passphrase."""
    if suite.kind != PASSWORD:
        raise ValueError("password_secret needs a password suite")
    if len(salt) != suite.encoded_key_len:
        raise ValueError("salt has wrong length")
    # The cost N = 4096, r = 8, p = 1 is a constant of the format.
    return hashlib.scrypt(passphrase, salt=salt, n=4096, r=8, p=1, dklen=32)


def write_key_files(prefix: str, kp: KeyPair) -> tuple[str, str]:
    """Write <prefix>.sk (raw scalar) and <prefix>.pk (hex encoded point)."""
    sk_path, pk_path = prefix + ".sk", prefix + ".pk"
    with open(sk_path, "wb") as f:
        f.write(kp.sk)
    with open(pk_path, "w", encoding="ascii") as f:
        f.write(kp.pk_encoded.hex() + "\n")
    return sk_path, pk_path


def read_secret_key(path: str) -> bytes:
    """Read a private scalar, raw binary or its hex text form."""
    with open(path, "rb") as f:
        data = f.read()
    stripped = data.strip()
    if stripped and all(c in b"0123456789abcdefABCDEF" for c in stripped):
        try:
            return bytes.fromhex(stripped.decode("ascii"))
        except ValueError:
            pass
    return data
