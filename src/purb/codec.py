"""Blob encoding and decoding.

An encoded blob carries, with no cleartext structure: one hidden
ephemeral key (or salt) per suite at XOR-masked standard positions, one
AEAD-sealed entry point per recipient in expanding hash tables, the
stream-encrypted payload, random padding to a Padmé length, and a
trailing MAC over everything before it.  There is one configuration:
the payload is ChaCha20, the MAC HMAC-SHA256 and the payload-key hash
SHA-256.  Each entry point's meta names them with the ids 01 01 01, and
a meta with any other ids fails decode.

Encoding keeps one list per suite, in canonical suite order, from the
draw to the XOR step.  The draw phase takes all of the KEM's randomness
on the calling thread: one ephemeral key pair per public-key suite
(keygen), then one salt per password suite.  The secret phase draws
nothing: one call per suite gives its secrets in recipient order.  A
public-key suite unhides its keys in one `unhide` call, so that they
share their inversions, then runs its exchanges (encap).  When the blob
has passphrase and public-key recipients, one helper thread runs the
scrypt, which releases the GIL, while the calling thread runs the
public-key suites.
A secp256k1 exchange releases it too and is long enough to pay for a
thread, so a suite whose group has parallel_dh and SPLIT_MIN_RECIPIENTS
recipients or more runs the back half of its exchanges on a second
helper thread; X25519 suites, and a k256 suite with one recipient,
start no thread.  Every helper is started and joined inside the call,
so a seeded encode gives the same bytes however the threads are
scheduled, and it may use a second core.

Each output is one BytesIO over a calloc'd bytes object, written in
place through a view: the blob on encode, the plaintext on decode.  A
large one's pages come zeroed from the allocator and fault in where they
are written.  In CPython the view and getvalue() share that bytes object,
so getvalue() returns it, not a copy.  Only speed depends on that; the
result is the same bytes either way.

Decoding is trial-based and reports its operation counts; every failure
mode collapses into the single opaque DecodeError.  For a payload of
OVERLAP_MIN_PAYLOAD bytes or more, one helper thread, started and
joined inside the call, computes the tag, which releases the GIL, while
the calling thread decrypts the payload, which holds it; the plaintext
leaves only after the tag verifies.  Smaller payloads, where starting a
thread costs more than it saves, decode on the calling thread alone.
"""

from __future__ import annotations

import hmac as hmac_mod
import hashlib
import threading
from dataclasses import dataclass
from functools import cached_property, partial

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from . import layout as layout_mod
from . import suites as suites_mod
from .layout import EncodeReport
from .rng import RandomSource, system_rng
from .suites import (
    ENTRY_PLAIN_LEN,
    META_LEN,
    PASSWORD,
    PUBLIC_KEY,
    SESSION_KEY_LEN,
    SUITES,
    TAG_LEN,
    SuiteSpec,
)

MAX_OFFSET = 1 << 48  # payload offsets are 48-bit fields

# Decode overlaps tag and decryption from this payload length up.  Below
# it, starting and joining the helper costs more than the overlap saves.
# With the plaintext decrypted in place, suite-B decodes (medians, 2 vCPU)
# took, serial against overlapped: 886 against 1026 us at 256 KiB, 1072
# against 1024 at 384 KiB and 1290 against 1106 at 512 KiB when glibc
# mmaps every buffer of 128 KiB or more; under its default, adaptive
# threshold, 591 against 714 us at 256 KiB, 955 against 1008 at 512 KiB
# and 1109 against 1077 at 640 KiB.  The break-even sits near 384 KiB
# pinned and 512-640 KiB by default; it sat near 128 and 256 KiB while
# decryption allocated its output twice.
OVERLAP_MIN_PAYLOAD = 512 << 10

# Encode splits a parallel_dh suite's exchanges across two threads from
# this many recipients up.  A thread start and join costs about 25 us,
# and two k256 exchanges took 445 us on one thread against 277 us split
# (medians, 2 vCPU), so splitting pays from two; one recipient, such as
# a single key on a small blob, starts no thread.
SPLIT_MIN_RECIPIENTS = 2

_ZERO_NONCE = b"\x00" * 12  # entry-point keys are single-use per blob


# The one configuration, named by the ids 01 01 01 in every meta: a
# ChaCha20 payload, an HMAC-SHA256 tag and SHA-256 payload keys.
CHACHA20_SCHEME = 0x01
HMAC_SHA256 = 0x01
SHA256_PRIME = 0x01
_META_PREFIX = bytes([CHACHA20_SCHEME, HMAC_SHA256, SHA256_PRIME, 0])


def _chacha20_stream(key: bytes, data, out) -> None:
    # Keystream XOR, so ciphertext length equals plaintext length and the
    # same call decrypts; integrity comes from the global MAC.  Reads any
    # bytes-like input and writes into `out`, a writable buffer of exactly
    # len(data) bytes.
    enc = Cipher(algorithms.ChaCha20(key, b"\x00" * 16), mode=None).encryptor()
    enc.update_into(data, out)


def _hmac_sha256(key: bytes, data: bytes) -> bytes:
    return hmac_mod.new(key, data, hashlib.sha256).digest()


# Looked up at call time: benchmark tracing and tests wrap these entries.
PAYLOAD_SCHEMES = {CHACHA20_SCHEME: _chacha20_stream}
MACS = {HMAC_SHA256: _hmac_sha256}


@dataclass(frozen=True)
class Meta:
    """Per-blob metadata carried inside every entry point; 16 bytes.

    The first three bytes name the payload scheme, MAC and hash; they are
    always 01 01 01, and unpack rejects any other ids.
    """

    payload_start: int
    payload_end: int

    def pack(self) -> bytes:
        if not 0 <= self.payload_start <= self.payload_end < MAX_OFFSET:
            raise ValueError("payload offsets out of range")
        return (
            _META_PREFIX
            + self.payload_start.to_bytes(6, "big")
            + self.payload_end.to_bytes(6, "big")
        )

    @classmethod
    def unpack(cls, data: bytes) -> "Meta":
        if len(data) != META_LEN:
            raise ValueError("meta must be 16 bytes")
        if data[:3] != _META_PREFIX[:3]:
            raise ValueError("unknown scheme ids")
        meta = cls(
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


class DecodeError(Exception):
    """Uniform decoding failure; carries no diagnostic detail.

    The stats attribute exists for instrumentation and benchmarks only.
    """

    def __init__(self, stats: DecodeStats):
        super().__init__("decode failed")
        self.stats = stats


def derive_entry_keys(k: bytes, suite: SuiteSpec) -> tuple[bytes, int]:
    """Split one shared secret into an encryption key and a position key."""
    z = suites_mod.derive_hash(b"key" + k)[: suite.ep_key_len]
    p = int.from_bytes(suites_mod.derive_hash(b"pos" + k), "big")
    return z, p


def derive_payload_keys(session_key: bytes) -> tuple[bytes, bytes]:
    """Independent payload-encryption and MAC keys from the session key."""
    h = hashlib.sha256
    return h(b"enc" + session_key).digest(), h(b"mac" + session_key).digest()


def seal_entry_point(suite: SuiteSpec, z: bytes, plain: bytes) -> bytes:
    if len(plain) != ENTRY_PLAIN_LEN:
        raise ValueError("entry-point plaintext must be 48 bytes")
    return suite.ep_aead(z).encrypt(_ZERO_NONCE, plain, None)


def open_entry_point(suite: SuiteSpec, z: bytes, data: bytes) -> bytes | None:
    try:
        return suite.ep_aead(z).decrypt(_ZERO_NONCE, data, None)
    except InvalidTag:
        return None


def _group_recipients(
    recipients: list[Recipient],
) -> list[tuple[SuiteSpec, list[Recipient]]]:
    """Recipients grouped by suite, the groups in canonical order.

    A recipient's suite must be the SUITES row itself, not an equal copy.
    """
    members: list[list[Recipient]] = [[] for _ in SUITES]
    for r in recipients:
        sid = r.suite.suite_id
        if sid not in range(len(SUITES)) or SUITES[sid] is not r.suite:
            raise ValueError(f"suite {r.suite.alias} not in registry")
        members[sid].append(r)
    return [(suite, group) for suite, group in zip(SUITES, members) if group]


def _beside(background, foreground):
    """Run background() on a helper thread while this thread runs
    foreground(); return both results, background's first.

    Three callers: encode runs passphrase scrypt this way beside the
    public-key work, and the back half of a secp256k1 suite's exchanges
    beside the front half; decode runs a large blob's tag beside its
    decryption.  In each pair the background step releases the GIL for
    nearly all of its run; a helper that needs the GIL back often, beside
    Python-heavy work such as X25519 unhides, would wait out the switch
    interval after each native call instead.  The helper is joined
    before anything leaves this call: an exception on this thread
    propagates after the join, and one on the helper is raised here.
    """
    outcome: list = []

    def run():
        try:
            outcome.append((True, background()))
        except BaseException as exc:  # raised again on the calling thread
            outcome.append((False, exc))

    helper = threading.Thread(target=run, name="purb-helper")
    helper.start()
    try:
        front = foreground()
    finally:
        helper.join()
        # Popped, so a helper exception's traceback cannot reach itself
        # through the list and keep the caller's buffers exported.
        ok, back = outcome.pop()
    if not ok:
        try:
            raise back
        finally:
            del back  # nor through this frame
    return back, front


def _suite_secrets(suite: SuiteSpec, members: list[Recipient], draw) -> list[bytes]:
    """One shared secret per member, in member order, under the suite's
    draw: its ephemeral KeyPair, or its salt.  Draws nothing."""
    if suite.kind == PASSWORD:
        return [suites_mod.password_secret(suite, draw, m.passphrase) for m in members]
    points = suite.group.unhide([m.pubkey for m in members])
    if suite.group.parallel_dh and len(points) >= SPLIT_MIN_RECIPIENTS:
        # Both threads only exchange here, so neither holds the GIL for
        # long while the other waits for it.
        h = (len(points) + 1) // 2
        back, front = _beside(
            partial(suites_mod.encap, suite, draw, points[h:]),
            partial(suites_mod.encap, suite, draw, points[:h]),
        )
        return front + back
    return suites_mod.encap(suite, draw, points)


def encode_detailed(
    recipients: list[Recipient],
    payload: bytes,
    rng: RandomSource | None = None,
) -> tuple[bytes, EncodeReport]:
    """Encode a payload for a set of recipients; see module docstring.

    Suites are processed in their canonical order, by suite_id, whatever
    the order recipients are given in, so the same recipient multiset
    always produces the same geometry.
    """
    if not recipients:
        raise ValueError("recipient list is empty")
    if len(payload) >= MAX_OFFSET:
        raise ValueError("payload too large for 48-bit offsets")
    rng = rng or system_rng()

    groups = _group_recipients(recipients)

    # Draw phase, on this thread and in suite order: all of the KEM's
    # randomness, one ephemeral key pair per public-key suite and one
    # fresh salt per password suite.  Each list below has one item per
    # suite, in the order of groups and of report.suites.
    draws = [
        suites_mod.keygen(suite, rng) if suite.kind == PUBLIC_KEY
        else rng.randbytes(suite.encoded_key_len)
        for suite, _ in groups
    ]

    # Secret phase: one shared secret per recipient, no randomness.
    shared: list = [None] * len(groups)

    def fill_secrets(kind: str) -> None:
        for i, (suite, members) in enumerate(groups):
            if suite.kind == kind:
                shared[i] = _suite_secrets(suite, members, draws[i])

    kinds = {suite.kind for suite, _ in groups}
    if kinds == {PASSWORD, PUBLIC_KEY}:
        # scrypt releases the GIL and the point work holds it, so the
        # passphrase secrets overlap with the unhides and exchanges.
        _beside(partial(fill_secrets, PASSWORD), partial(fill_secrets, PUBLIC_KEY))
    else:
        fill_secrets(kinds.pop())
    entry_keys = [
        [derive_entry_keys(k, suite) for k in ks]
        for (suite, _), ks in zip(groups, shared)
    ]

    session_key = rng.randbytes(SESSION_KEY_LEN)

    hdr = layout_mod.HeaderLayout()
    hdr.reserve_pubkeys([suite for suite, _ in groups])
    for (suite, _), zps in zip(groups, entry_keys):
        hdr.place_entry_points(suite, [p for _, p in zps], rng)
    report = hdr.finalize_lengths(len(payload))

    key_enc, key_mac = derive_payload_keys(session_key)
    meta = Meta(payload_start=report.payload_start, payload_end=report.payload_end)
    plain = session_key + meta.pack()

    blob = hdr.build_blob(rng)
    with blob.getbuffer() as view:
        # The entries and the ciphertext go in before the XOR step: a
        # suite's other key positions may overlap entries or the payload.
        for (suite, _), zps, entry in zip(groups, entry_keys, report.suites):
            for (z, _), (start, end) in zip(zps, entry["slots"]):
                view[start:end] = seal_entry_point(suite, z, plain)
        PAYLOAD_SCHEMES[CHACHA20_SCHEME](
            key_enc, payload, view[report.payload_start : report.payload_end]
        )
        for (suite, _), draw, entry in zip(groups, draws, report.suites):
            tau = entry["tau"] = draw.pk_encoded if suite.kind == PUBLIC_KEY else draw
            layout_mod.xor_encode(view, suite, tau, entry["primary"])
        view[report.mac_pos :] = MACS[HMAC_SHA256](key_mac, view[: report.mac_pos])

    # The view is released, so this is the buffer itself, not a copy.
    return blob.getvalue(), report


def decode(blob, identity: Identity) -> tuple[bytes, DecodeStats]:
    """Trial-decrypt a blob under one identity.

    The blob may be any bytes-like object (bytes, bytearray, memoryview,
    mmap.mmap); it is read through one memoryview and never copied.  The
    suite carries everything a decoder needs; no registry, version
    field, or other cleartext marker is consulted.  Returns the payload
    as bytes and operation counts, or raises DecodeError; all failure
    modes, a meta naming scheme ids other than 01 01 01 among them, are
    indistinguishable from the caller's point of view.  The
    scan stops at the first entry point that opens, so decode time
    depends on membership and on blob length.  A payload of
    OVERLAP_MIN_PAYLOAD bytes or more is decrypted on the calling thread
    while a helper thread, joined before the call returns, computes the
    tag; the plaintext is returned only if the tag verifies.
    """
    stats = DecodeStats()
    try:
        with memoryview(blob) as view:
            return _decode(view, identity, stats), stats
    except Exception:
        pass
    # Uniform error: malformed input must look like any other failure.
    # Raised outside the handler so no internal exception rides along as
    # __context__.
    raise DecodeError(stats)


def _decode(blob: memoryview, identity: Identity, stats: DecodeStats) -> bytes:
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

    for start, end in layout_mod.table_slots(suite, pkey, len(blob)):
        stats.trial_count += 1
        plain = open_entry_point(suite, z, blob[start:end])
        if plain is not None:
            break
    else:
        raise DecodeError(stats)

    session_key = plain[:SESSION_KEY_LEN]
    meta = Meta.unpack(plain[SESSION_KEY_LEN:])
    if TAG_LEN >= len(blob):
        raise DecodeError(stats)
    mac_pos = len(blob) - TAG_LEN
    if meta.payload_end > mac_pos:
        raise DecodeError(stats)
    key_enc, key_mac = derive_payload_keys(session_key)

    def tag() -> bytes:
        return MACS[HMAC_SHA256](key_mac, blob[:mac_pos])

    def payload() -> bytes:
        # Decrypted in place into the buffer that becomes the result.
        out = layout_mod.zeroed_buffer(meta.payload_end - meta.payload_start)
        with out.getbuffer() as view:
            ct = blob[meta.payload_start : meta.payload_end]
            PAYLOAD_SCHEMES[CHACHA20_SCHEME](key_enc, ct, view)
        return out.getvalue()

    if meta.payload_end - meta.payload_start >= OVERLAP_MIN_PAYLOAD:
        computed, out = _beside(tag, payload)
    else:
        computed, out = tag(), payload()
    if not hmac_mod.compare_digest(computed, bytes(blob[mac_pos:])):
        raise DecodeError(stats)
    return out
