"""Cipher suites: groups, point-hiding codecs, AEADs, hashes, positions.

A suite fixes everything one header layer needs: the group and its
uniform point codec, the entry-point AEAD, the two hash roles (SHA-256
under two prefixes: shared secret to key material, and labeled
derivations), and the public list of byte offsets where the suite's
encoded key may live in a blob.  The default registry is immutable and
safe to share.
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

# Entry-point plaintext is one session key plus one metadata block; the
# split is fixed so the slot size is a per-suite constant.
SESSION_KEY_LEN = 32
META_LEN = 16
ENTRY_PLAIN_LEN = SESSION_KEY_LEN + META_LEN

# Domain-separation prefixes keeping the two hash roles distinct.
_KEM_PREFIX = b"purb-H"
_DERIVE_PREFIX = "purb-Ĥ".encode()  # H-circumflex


class Curve25519Group:
    """X25519 exponentiation with the Elligator2 codec."""

    name = "x25519"
    encoded_len = curve25519.ENCODED_LEN
    scalar_len = 32

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

    def unhide(self, rep: bytes) -> bytes:
        return curve25519.unhide(rep)


class Secp256k1Group:
    """Native ECDH on secp256k1 with the 64-byte pair codec."""

    name = "k256"
    encoded_len = secp256k1.ENCODED_LEN
    scalar_len = 32

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

    def unhide(self, rep: bytes) -> tuple[int, int]:
        return secp256k1.unhide(rep)


# Entry-point AEAD bindings: constructor, key length, tag length.
EP_AEADS = {
    "aes128gcm": (AESGCM, 16, 16),
    "aes256gcm": (AESGCM, 32, 16),
    "chacha20poly1305": (ChaCha20Poly1305, 32, 16),
}

@dataclass(frozen=True)
class KdfParams:
    """scrypt cost parameters; public constants of the password suite."""

    n: int = 4096
    r: int = 8
    p: int = 1


@dataclass(frozen=True)
class SuiteSpec:
    suite_id: int
    alias: str
    name: str
    order_index: int
    kind: str
    encoded_key_len: int
    ep_aead_id: str
    ep_tag_len: int
    allowed_positions: tuple[int, ...]
    group: Curve25519Group | Secp256k1Group | None = None
    kdf_params: KdfParams | None = field(default=None)

    def __post_init__(self):
        if self.encoded_key_len <= 0 or self.ep_tag_len <= 0:
            raise ValueError("lengths must be positive")
        pos = self.allowed_positions
        if not pos or pos[0] != 0:
            raise ValueError("allowed positions must start at offset 0")
        for a, b in zip(pos, pos[1:]):
            # Strictly increasing and non-overlapping ranges, otherwise the
            # XOR over positions would double-count bytes.
            if b < a + self.encoded_key_len:
                raise ValueError("allowed positions overlap")
        if self.kind == PUBLIC_KEY and self.group is None:
            raise ValueError("public-key suite needs a group")
        if self.kind == PASSWORD and self.kdf_params is None:
            raise ValueError("password suite needs kdf parameters")

    @property
    def entry_len(self) -> int:
        """Entry-point ciphertext length, the hash-table slot size."""
        return ENTRY_PLAIN_LEN + self.ep_tag_len

    @property
    def ht_base(self) -> int:
        """Hash tables start right after the first possible key position."""
        return self.allowed_positions[0] + self.encoded_key_len

    def ep_aead(self):
        return EP_AEADS[self.ep_aead_id]

    def kem_hash(self, shared: bytes) -> bytes:
        return hashlib.sha256(_KEM_PREFIX + shared).digest()

    def derive_hash(self, data: bytes) -> bytes:
        return hashlib.sha256(_DERIVE_PREFIX + data).digest()


@dataclass(frozen=True)
class KeyPair:
    suite: SuiteSpec
    sk: bytes
    pk: object
    pk_encoded: bytes
    attempts: int = 1
    # The group's native key for sk, built once by keygen; not part of
    # the pair's identity.
    native_key: object = field(default=None, compare=False, repr=False)


class Registry:
    """Ordered, immutable suite collection."""

    def __init__(self, suites: Sequence[SuiteSpec]):
        ordered = tuple(sorted(suites, key=lambda s: s.order_index))
        indices = [s.order_index for s in ordered]
        if len(set(indices)) != len(indices):
            raise ValueError("order_index values must be unique")
        self._suites = ordered
        self._by_alias = {s.alias: s for s in ordered}
        self._by_id = {s.suite_id: s for s in ordered}

    def __iter__(self):
        return iter(self._suites)

    def __len__(self):
        return len(self._suites)

    @property
    def suites(self) -> tuple[SuiteSpec, ...]:
        return self._suites

    def by_alias(self, alias: str) -> SuiteSpec:
        return self._by_alias[alias]

    def by_id(self, suite_id: int) -> SuiteSpec:
        return self._by_id[suite_id]


_K256 = Secp256k1Group()
_X25519 = Curve25519Group()


def _pk_suite(suite_id, alias, order, group, aead, positions):
    return SuiteSpec(
        suite_id=suite_id,
        alias=alias,
        name=f"purb-{aead}-sha256-{group.name}",
        order_index=order,
        kind=PUBLIC_KEY,
        encoded_key_len=group.encoded_len,
        ep_aead_id=aead,
        ep_tag_len=EP_AEADS[aead][2],
        allowed_positions=positions,
        group=group,
    )


_DEFAULT = Registry(
    [
        _pk_suite(0, "A", 0, _K256, "aes128gcm", (0,)),
        _pk_suite(1, "B", 1, _X25519, "aes128gcm", (0, 64)),
        _pk_suite(2, "C", 2, _K256, "aes256gcm", (0, 96)),
        _pk_suite(3, "D", 3, _X25519, "aes256gcm", (0, 32, 64, 160)),
        _pk_suite(4, "E", 4, _K256, "chacha20poly1305", (0, 64, 128, 192)),
        _pk_suite(5, "F", 5, _X25519, "chacha20poly1305", (0, 32, 64, 96, 128, 256)),
        SuiteSpec(
            suite_id=6,
            alias="pw",
            name="purb-chacha20poly1305-sha256-scrypt",
            order_index=6,
            kind=PASSWORD,
            encoded_key_len=32,
            ep_aead_id="chacha20poly1305",
            ep_tag_len=16,
            # 288 is beyond every other suite's position ranges, so a salt
            # can always be placed no matter which suites share the blob.
            allowed_positions=(0, 32, 288),
            kdf_params=KdfParams(),
        ),
    ]
)


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
    """One shared secret per recipient public key, against eph.

    eph is the suite's ephemeral key pair from keygen, and eph.pk_encoded
    is the hidden key that goes in the blob.  Encoding runs in two
    phases: a draw phase takes every random value (keygen here, salts for
    passphrases) on the calling thread in suite order; a secret phase
    then calls encap, which draws nothing, while a helper thread runs
    password_secret for any passphrase recipients.
    """
    if suite.kind != PUBLIC_KEY:
        raise ValueError("encap needs a public-key suite")
    if not recipients:
        raise ValueError("no recipients")
    return [suite.kem_hash(suite.group.dh(eph.native_key, pk)) for pk in recipients]


def decap(suite: SuiteSpec, sk: object, tau: bytes) -> bytes:
    """Recover the shared secret from a hidden ephemeral key.

    sk is the group's native key for the private scalar (private_key).
    Total: any string of the right length decodes to some group element,
    so a wrong or random tau surfaces only as trial-decryption failure.
    """
    if len(tau) != suite.encoded_key_len:
        raise ValueError("encoded key has wrong length")
    element = suite.group.unhide(tau)
    return suite.kem_hash(suite.group.dh(sk, element))


def password_secret(suite: SuiteSpec, salt: bytes, passphrase: bytes) -> bytes:
    """Memory-hard derivation of an entry-point secret from a passphrase."""
    if suite.kind != PASSWORD:
        raise ValueError("password_secret needs a password suite")
    if len(salt) != suite.encoded_key_len:
        raise ValueError("salt has wrong length")
    params = suite.kdf_params
    return hashlib.scrypt(
        passphrase, salt=salt, n=params.n, r=params.r, p=params.p, dklen=32
    )


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


def read_public_key(path: str) -> bytes:
    with open(path, "r", encoding="ascii") as f:
        return bytes.fromhex(f.read().strip())
