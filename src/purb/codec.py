"""Blob encoding and decoding.

An encoded blob carries, with no cleartext structure: one hidden
ephemeral key (or salt) per suite at XOR-masked standard positions, one
AEAD-sealed entry point per recipient in expanding hash tables, the
stream-encrypted payload, random padding to a permitted length, and a
trailing MAC over everything before it.

Encoding takes the KEM in two phases.  The draw phase takes all of its
randomness on the calling thread, in canonical suite order: one
ephemeral key pair per public-key suite (keygen), then one salt per
password suite.  The secret phase draws nothing.  When the blob has
passphrase recipients, one helper thread, started and joined inside the
call, runs their scrypt, which releases the GIL, while the calling
thread unhides the recipient keys and runs the exchanges (encap).  A
seeded encode therefore gives the same bytes however the threads are
scheduled, and it may use a second core.

Decoding is trial-based and reports its operation counts; every failure
mode collapses into the single opaque DecodeError.
"""

from __future__ import annotations

import hmac as hmac_mod
import hashlib
import threading
from dataclasses import dataclass, field
from functools import cached_property

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from . import layout as layout_mod
from . import suites as suites_mod
from .padding import PadSpec
from .rng import RandomSource, system_rng
from .suites import (
    ENTRY_PLAIN_LEN,
    META_LEN,
    PASSWORD,
    PUBLIC_KEY,
    SESSION_KEY_LEN,
    Registry,
    SuiteSpec,
    default_registry,
)

MAX_OFFSET = 1 << 48  # payload offsets are 48-bit fields

_ZERO_NONCE = b"\x00" * 12  # entry-point keys are single-use per blob


def _keystream_xor(cipher: Cipher, data, out):
    enc = cipher.encryptor()
    if out is None:
        return enc.update(data)
    enc.update_into(data, out)
    return out


def _chacha20_stream(key: bytes, data, out=None):
    cipher = Cipher(algorithms.ChaCha20(key, b"\x00" * 16), mode=None)
    return _keystream_xor(cipher, data, out)


def _aes256_ctr(key: bytes, data, out=None):
    cipher = Cipher(algorithms.AES(key), modes.CTR(b"\x00" * 16))
    return _keystream_xor(cipher, data, out)


# Payload schemes are keystream XOR, so ciphertext length equals plaintext
# length and the same call decrypts; integrity comes from the global MAC.
# Each takes any bytes-like input and returns bytes, or, given an `out`
# buffer of exactly len(data) bytes, writes into it and returns it.
PAYLOAD_SCHEMES = {
    0x01: _chacha20_stream,
    0x02: _aes256_ctr,
}

CHACHA20_SCHEME = 0x01
AES256_CTR_SCHEME = 0x02


def _hmac_sha256(key: bytes, data: bytes) -> bytes:
    return hmac_mod.new(key, data, hashlib.sha256).digest()


MACS = {0x01: (_hmac_sha256, 32)}
HMAC_SHA256 = 0x01

HASH_PRIMES = {0x01: hashlib.sha256, 0x02: hashlib.sha3_256}
SHA256_PRIME = 0x01
SHA3_256_PRIME = 0x02


@dataclass(frozen=True)
class Meta:
    """Per-blob metadata carried inside every entry point; 16 bytes."""

    payload_scheme_id: int
    mac_id: int
    hash_prime_id: int
    payload_start: int
    payload_end: int

    def pack(self) -> bytes:
        if not 0 <= self.payload_start <= self.payload_end < MAX_OFFSET:
            raise ValueError("payload offsets out of range")
        return (
            bytes([self.payload_scheme_id, self.mac_id, self.hash_prime_id, 0])
            + self.payload_start.to_bytes(6, "big")
            + self.payload_end.to_bytes(6, "big")
        )

    @classmethod
    def unpack(cls, data: bytes) -> "Meta":
        if len(data) != META_LEN:
            raise ValueError("meta must be 16 bytes")
        meta = cls(
            payload_scheme_id=data[0],
            mac_id=data[1],
            hash_prime_id=data[2],
            payload_start=int.from_bytes(data[4:10], "big"),
            payload_end=int.from_bytes(data[10:16], "big"),
        )
        if meta.payload_start > meta.payload_end:
            raise ValueError("payload offsets out of order")
        return meta


@dataclass(frozen=True)
class Recipient:
    """Either a public key or a passphrase, under one suite."""

    suite: SuiteSpec
    pubkey: bytes | None = None
    passphrase: bytes | None = None

    @classmethod
    def public_key(cls, suite: SuiteSpec, encoded: bytes) -> "Recipient":
        if suite.kind != PUBLIC_KEY:
            raise ValueError("suite is not a public-key suite")
        if len(encoded) != suite.encoded_key_len:
            raise ValueError("encoded public key has wrong length")
        return cls(suite, pubkey=encoded)

    @classmethod
    def password(cls, suite: SuiteSpec, passphrase: bytes) -> "Recipient":
        if suite.kind != PASSWORD:
            raise ValueError("suite is not a password suite")
        return cls(suite, passphrase=passphrase)


@dataclass(frozen=True)
class Identity:
    """Decoding credential: a private scalar or a passphrase."""

    suite: SuiteSpec
    secret_key: bytes | None = None
    passphrase: bytes | None = None

    @cached_property
    def native_key(self) -> object:
        """The group's key object for secret_key, built on first use.

        A bad scalar raises on every access; nothing is cached then.
        """
        return self.suite.group.private_key(self.secret_key)


@dataclass
class DecodeStats:
    exp_count: int = 0
    trial_count: int = 0
    tables_scanned: int = 0


@dataclass
class EncodeReport:
    purb_len: int = 0
    header_len: int = 0
    payload_start: int = 0
    payload_end: int = 0
    mac_pos: int = 0
    compactness: float = 1.0
    entry_count: int = 0
    suites: list[dict] = field(default_factory=list)


class DecodeError(Exception):
    """Uniform decoding failure; carries no diagnostic detail.

    The stats attribute exists for instrumentation and benchmarks only.
    """

    def __init__(self, stats: DecodeStats | None = None):
        super().__init__("decode failed")
        self.stats = stats or DecodeStats()


def derive_entry_keys(k: bytes, suite: SuiteSpec) -> tuple[bytes, int]:
    """Split one shared secret into an encryption key and a position key."""
    _, key_len, _ = suite.ep_aead()
    z = suite.derive_hash(b"key" + k)[:key_len]
    p = int.from_bytes(suite.derive_hash(b"pos" + k), "big")
    return z, p


def derive_payload_keys(session_key: bytes, hash_prime_id: int) -> tuple[bytes, bytes]:
    """Independent payload-encryption and MAC keys from the session key."""
    if hash_prime_id not in HASH_PRIMES:
        raise ValueError(f"unknown hash id {hash_prime_id}")
    h = HASH_PRIMES[hash_prime_id]
    return h(b"enc" + session_key).digest(), h(b"mac" + session_key).digest()


def seal_entry_point(suite: SuiteSpec, z: bytes, plain: bytes) -> bytes:
    if len(plain) != ENTRY_PLAIN_LEN:
        raise ValueError("entry-point plaintext must be 48 bytes")
    aead_cls, _, _ = suite.ep_aead()
    return aead_cls(z).encrypt(_ZERO_NONCE, plain, None)


def open_entry_point(suite: SuiteSpec, z: bytes, data: bytes) -> bytes | None:
    aead_cls, _, _ = suite.ep_aead()
    try:
        return aead_cls(z).decrypt(_ZERO_NONCE, data, None)
    except InvalidTag:
        return None


def _group_recipients(
    recipients: list[Recipient], registry: Registry
) -> list[tuple[SuiteSpec, list[Recipient]]]:
    groups: dict[int, list[Recipient]] = {}
    for r in recipients:
        try:
            registered = registry.by_id(r.suite.suite_id)
        except KeyError:
            registered = None
        if registered is not r.suite:
            raise ValueError(f"suite {r.suite.alias} not in registry")
        groups.setdefault(r.suite.suite_id, []).append(r)
    ordered = sorted(groups, key=lambda sid: registry.by_id(sid).order_index)
    return [(registry.by_id(sid), groups[sid]) for sid in ordered]


def _beside(background, foreground):
    """Run background() on a helper thread while this thread runs
    foreground(); return both results, background's first.

    The helper is joined before anything leaves this call: an exception
    on this thread propagates after the join, and one on the helper is
    raised here.
    """
    outcome: list = []

    def run():
        try:
            outcome.append((True, background()))
        except BaseException as exc:  # raised again on the calling thread
            outcome.append((False, exc))

    helper = threading.Thread(target=run, name="purb-scrypt")
    helper.start()
    try:
        front = foreground()
    finally:
        helper.join()
    ok, back = outcome[0]
    if not ok:
        raise back
    return back, front


def encode(*args, **kwargs) -> bytes:
    """encode_detailed without the report: same arguments, returns the blob."""
    return encode_detailed(*args, **kwargs)[0]


def encode_detailed(
    recipients: list[Recipient],
    payload: bytes,
    pad: PadSpec | None = None,
    rng: RandomSource | None = None,
    *,
    payload_scheme_id: int = CHACHA20_SCHEME,
    mac_id: int = HMAC_SHA256,
    hash_prime_id: int = SHA256_PRIME,
) -> tuple[bytes, EncodeReport]:
    """Encode a payload for a set of recipients; see module docstring.

    Suites are processed in their canonical registry order regardless of
    the order recipients are given in, so the same recipient multiset
    always produces the same geometry.
    """
    if not recipients:
        raise ValueError("recipient list is empty")
    if len(payload) >= MAX_OFFSET:
        raise ValueError("payload too large for 48-bit offsets")
    if payload_scheme_id not in PAYLOAD_SCHEMES:
        raise ValueError(f"unknown payload scheme {payload_scheme_id}")
    if mac_id not in MACS:
        raise ValueError(f"unknown mac id {mac_id}")
    pad = pad or PadSpec.padme()
    rng = rng or system_rng()
    registry = default_registry()

    groups = _group_recipients(recipients, registry)

    # Draw phase, on this thread and in suite order: all of the KEM's
    # randomness, one ephemeral key pair per public-key suite and one
    # fresh salt per password suite.
    taus: list[tuple[SuiteSpec, bytes]] = []
    ephs: dict[int, suites_mod.KeyPair] = {}
    salts: dict[int, bytes] = {}
    for suite, _ in groups:
        if suite.kind == PUBLIC_KEY:
            eph = ephs[suite.suite_id] = suites_mod.keygen(suite, rng)
            taus.append((suite, eph.pk_encoded))
        else:
            salt = salts[suite.suite_id] = rng.randbytes(suite.encoded_key_len)
            taus.append((suite, salt))

    # Secret phase: one shared secret per recipient, no randomness.
    def public_key_secrets() -> dict[int, list[bytes]]:
        return {
            suite.suite_id: suites_mod.encap(
                suite,
                ephs[suite.suite_id],
                [suite.group.unhide(m.pubkey) for m in members],
            )
            for suite, members in groups
            if suite.kind == PUBLIC_KEY
        }

    def password_secrets() -> dict[int, list[bytes]]:
        return {
            suite.suite_id: [
                suites_mod.password_secret(suite, salts[suite.suite_id], m.passphrase)
                for m in members
            ]
            for suite, members in groups
            if suite.kind == PASSWORD
        }

    if salts:
        # scrypt releases the GIL and the point work holds it, so the
        # passphrase secrets overlap with the unhides and exchanges.
        shared, pk_shared = _beside(password_secrets, public_key_secrets)
        shared.update(pk_shared)
    else:
        shared = public_key_secrets()
    entry_keys = [
        (suite, [derive_entry_keys(k, suite) for k in shared[suite.suite_id]])
        for suite, _ in groups
    ]

    session_key = rng.randbytes(SESSION_KEY_LEN)

    hdr = layout_mod.HeaderLayout(registry)
    hdr.reserve_pubkeys([suite for suite, _ in groups])
    slots_per_suite = [
        hdr.place_entry_points(suite, [p for _, p in zps], rng)
        for suite, zps in entry_keys
    ]
    hdr.fill_random(rng)
    mac_fn, mac_len = MACS[mac_id]
    plan = hdr.finalize_lengths(len(payload), mac_len, pad)

    key_enc, key_mac = derive_payload_keys(session_key, hash_prime_id)

    meta = Meta(
        payload_scheme_id=payload_scheme_id,
        mac_id=mac_id,
        hash_prime_id=hash_prime_id,
        payload_start=plan.payload_start,
        payload_end=plan.payload_end,
    )
    plain = session_key + meta.pack()
    for (suite, zps), slots in zip(entry_keys, slots_per_suite):
        for (z, _), slot in zip(zps, slots):
            hdr.write_entry(slot, seal_entry_point(suite, z, plain))

    blob = hdr.build_blob(rng)
    with memoryview(blob) as view:
        # The ciphertext goes in before the XOR step: a suite's key
        # positions may fall inside the payload region.
        PAYLOAD_SCHEMES[payload_scheme_id](
            key_enc, payload, out=view[plan.payload_start : plan.payload_end]
        )
        for suite, tau in taus:
            layout_mod.xor_encode(blob, suite, tau, plan.pubkey_pos[suite.suite_id])
        blob[plan.mac_pos :] = mac_fn(key_mac, view[: plan.mac_pos])

    report = EncodeReport(
        purb_len=plan.purb_len,
        header_len=plan.header_len,
        payload_start=plan.payload_start,
        payload_end=plan.payload_end,
        mac_pos=plan.mac_pos,
        compactness=plan.compactness(),
        entry_count=sum(len(s) for s in slots_per_suite),
        suites=[
            {
                "alias": suite.alias,
                "tau": tau,
                "primary": plan.pubkey_pos[suite.suite_id],
                "slots": slots,
            }
            for (suite, tau), slots in zip(taus, slots_per_suite)
        ],
    )
    return bytes(blob), report


def decode(
    blob,
    identity: Identity,
    *,
    hardened: bool = False,
) -> tuple[bytes, DecodeStats]:
    """Trial-decrypt a blob under one identity.

    The blob may be any bytes-like object (bytes, bytearray, memoryview,
    mmap.mmap); it is read through one memoryview and never copied.  The
    suite carries everything a decoder needs; no registry, version
    field, or other cleartext marker is consulted.  Returns the payload
    as bytes and operation counts, or raises DecodeError; all failure
    modes are indistinguishable from the caller's point of view.  In
    hardened mode every candidate slot is tried and a dummy tag check
    runs even on misses, as a best-effort timing leveler.
    """
    stats = DecodeStats()
    try:
        with memoryview(blob) as view:
            return _decode(view, identity, stats, hardened), stats
    except Exception:
        pass
    # Uniform error: malformed input must look like any other failure.
    # Raised outside the handler so no internal exception rides along as
    # __context__.
    raise DecodeError(stats)


def _decode(
    blob: memoryview,
    identity: Identity,
    stats: DecodeStats,
    hardened: bool,
) -> bytes:
    suite = identity.suite
    tau = layout_mod.xor_extract(blob, suite)
    if tau is None:
        raise DecodeError(stats)

    if suite.kind == PUBLIC_KEY:
        k = suites_mod.decap(suite, identity.native_key, tau)
        stats.exp_count += 1
    else:
        k = suites_mod.password_secret(suite, tau, identity.passphrase)
    z, pkey = derive_entry_keys(k, suite)

    ep_len = suite.entry_len
    plain = None
    ht_len, ht_pos = 1, 0
    while True:
        start = suite.ht_base + ht_pos + (pkey % ht_len) * ep_len
        end = start + ep_len
        if end > len(blob):
            break
        stats.tables_scanned += 1
        stats.trial_count += 1
        candidate = open_entry_point(suite, z, blob[start:end])
        if candidate is not None and plain is None:
            plain = candidate
            if not hardened:
                break
        ht_pos += ht_len * ep_len
        ht_len *= 2

    if plain is None:
        if hardened:
            _hmac_sha256(b"\x00" * 32, blob)  # dummy pass over the blob
        raise DecodeError(stats)

    session_key = plain[:SESSION_KEY_LEN]
    meta = Meta.unpack(plain[SESSION_KEY_LEN:])
    if meta.payload_scheme_id not in PAYLOAD_SCHEMES or meta.mac_id not in MACS:
        raise DecodeError(stats)
    mac_fn, mac_len = MACS[meta.mac_id]
    if mac_len >= len(blob):
        raise DecodeError(stats)
    key_enc, key_mac = derive_payload_keys(session_key, meta.hash_prime_id)
    mac_pos = len(blob) - mac_len
    tag = mac_fn(key_mac, blob[:mac_pos])
    if not hmac_mod.compare_digest(tag, bytes(blob[mac_pos:])):
        raise DecodeError(stats)
    if meta.payload_end > mac_pos:
        raise DecodeError(stats)
    payload_ct = blob[meta.payload_start : meta.payload_end]
    return PAYLOAD_SCHEMES[meta.payload_scheme_id](key_enc, payload_ct)
