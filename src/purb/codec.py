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
nothing and gives each suite's secrets in recipient order (_secrets).
The calling thread unhides each public-key suite's keys in one `unhide`
call, so that they share their inversions.  The rest is one list of
jobs, run in order by the calling thread and at most one helper: one
scrypt per passphrase, then one exchange call (encap) per X25519 suite
and per half of a secp256k1 suite.  The helper starts only at two or
more slow jobs (scrypts or secp256k1 exchanges, which release the GIL)
or at a passphrase beside public keys, and takes no exchange before the
last unhide is done.

Both directions run the payload cipher and the MAC in one pass
(_mac_beside): a generator does the calling thread's cipher work and
yields the blob up to its tag range by range, each once it is final.
Encode encrypts the payload in one call, or OVERLAP_MIN_PAYLOAD bytes at
a time from ENCODE_OVERLAP_MIN_PAYLOAD up, and runs the XOR step right
after the first chunk, which reaches past every key position.  Decode
yields its one range at once, then decrypts.  From those thresholds up,
one helper hashes each range, which releases the GIL, while the calling
thread runs the cipher, which holds it, and waits until the helper has
taken each range.  Smaller payloads, every fanout and mailbox blob among
them, stay on the calling thread.  Every helper is joined inside the
call, so thread scheduling cannot change a seeded encode's bytes.

Each output is one BytesIO over a calloc'd bytes object, written in
place through a view: the blob on encode, the plaintext on decode.  A
large one's pages come zeroed from the allocator and fault in where they
are written.  In CPython the view and getvalue() share that bytes object,
so getvalue() returns it, not a copy.  Only speed depends on that; the
result is the same bytes either way.

Decoding is trial-based and reports its operation counts; every failure
mode collapses into the single opaque DecodeError, and the plaintext
leaves only after the tag verifies.
"""

from __future__ import annotations

import hmac as hmac_mod
import hashlib
import itertools
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

# Decode hashes its range on a helper while it decrypts (_mac_beside) from
# this payload length up; below it, starting and joining the helper costs
# more than the overlap saves.  Encode's larger payloads use chunks of it.
# With the plaintext decrypted in place, suite-B decodes (medians, 2 vCPU)
# took, serial against overlapped: 886 against 1026 us at 256 KiB, 1072
# against 1024 at 384 KiB and 1290 against 1106 at 512 KiB when glibc
# mmaps every buffer of 128 KiB or more; under its default, adaptive
# threshold, 591 against 714 us at 256 KiB, 955 against 1008 at 512 KiB
# and 1109 against 1077 at 640 KiB.  The break-even sits near 384 KiB
# pinned and 512-640 KiB by default; it sat near 128 and 256 KiB while
# decryption allocated its output twice.
OVERLAP_MIN_PAYLOAD = 512 << 10

# Encode hashes on a helper from this payload length up: the calling
# thread encrypts OVERLAP_MIN_PAYLOAD bytes at a time, and the helper
# hashes each finished range while the next one is encrypted.  The
# pipeline hides the cipher's time on all chunks but the first and costs
# a thread start and join, which took 250-380 us on a 2-vCPU host whose
# second vCPU had idled for 2 ms.  One suite-B key, serial against
# pipelined (medians, 2 vCPU): 1.51 against 2.02 ms at 0.6 MiB, 2.58
# against 2.82 at 1.21 MiB, 4.33 against 4.55 at 2 MiB, 5.20 against
# 5.12 at 2.5 MiB, 5.92 against 5.60 at 3 MiB, 9.58 against 8.45 at 5.66
# MiB and 38.4 against 31.8 at 26.4 MiB.  1 MiB chunks read the same at
# 26.4 MiB and were slower from 1.1 to 5.66 MiB (8.85 ms at 5.66 MiB).
# Every chunk starts on a 64-byte keystream block, and the first one
# ends past byte 320, where the last key position ends, so the XOR step
# runs before anything is hashed.
ENCODE_OVERLAP_MIN_PAYLOAD = 5 * OVERLAP_MIN_PAYLOAD

_ZERO_NONCE = b"\x00" * 12  # entry-point keys are single-use per blob


# The one configuration, named by the ids 01 01 01 in every meta: a
# ChaCha20 payload, an HMAC-SHA256 tag and SHA-256 payload keys.
CHACHA20_SCHEME = 0x01
HMAC_SHA256 = 0x01
SHA256_PRIME = 0x01
_META_PREFIX = bytes([CHACHA20_SCHEME, HMAC_SHA256, SHA256_PRIME, 0])


def _chacha20_stream(key: bytes, data, out, block: int) -> None:
    # Keystream XOR, so ciphertext length equals plaintext length and the
    # same call decrypts; integrity comes from the global MAC.  Reads any
    # bytes-like input and writes into `out`, a writable buffer of exactly
    # len(data) bytes.  data[0] meets the keystream at 64-byte block
    # `block`, so chunks cut at multiples of 64 bytes and encrypted
    # separately give the same bytes as one call from block 0.  The
    # 16-byte IV is the block counter, little-endian, over a zero nonce.
    iv = block.to_bytes(16, "little")
    enc = Cipher(algorithms.ChaCha20(key, iv), mode=None).encryptor()
    enc.update_into(data, out)


def _hmac_sha256(key: bytes, data) -> bytes:
    # data is one bytes-like object, or a _Handover whose ranges arrive
    # one at a time; len(data) counts its bytes either way.
    mac = hmac_mod.new(key, digestmod=hashlib.sha256)
    for chunk in data if isinstance(data, _Handover) else [data]:
        mac.update(chunk)  # releases the GIL while it hashes
    return mac.digest()


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

    Two callers: encode's secret jobs (_secrets), and either direction's
    MAC beside its payload cipher (_mac_beside).  The helper's work
    releases the GIL for nearly all of its run; a helper that needs the
    GIL back often, beside Python-heavy work such as unhides, would wait
    out the switch interval after each native call instead.  So the
    secret helper takes no exchange until the unhides are done, and the
    calling thread blocks until the MAC helper has taken each range it
    gives (_Handover.give).  The helper is joined before anything leaves
    this call: an exception on this thread propagates after the join,
    and one on the helper is raised here.
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


class _Handover:
    """The MAC input of a blob, handed from the thread that makes it
    final to the hashing thread one range at a time.

    The giving thread calls give(r) with each range in order; the hashing
    thread iterates this object and gets each range once it is given.
    len() counts the bytes of all of them, as for a buffer.  Whichever
    side stops first, normally or on an exception, calls close(), so the
    other never waits for it; the giver's close() ends the iteration.
    """

    def __init__(self, size: int):
        self._size, self._range = size, None
        self._given, self._taken = threading.Semaphore(0), threading.Semaphore(0)
        self._closed = False

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        while self._given.acquire() and not self._closed:
            r, self._range = self._range, None
            self._taken.release()
            yield r

    def give(self, r) -> None:
        """Hand over range r and wait until it is taken.  The wait releases
        the GIL, so the hashing thread takes it at once, not after a switch
        interval, and hands it back inside its hash update."""
        self._range = r
        self._given.release()
        if not self._closed:
            self._taken.acquire()

    def close(self) -> None:
        self._closed = True
        self._given.release()
        self._taken.release()


def _mac_beside(key_mac: bytes, whole, ranges, beside: bool) -> bytes:
    """Return the MAC of whole, the blob up to its tag.  ranges is a
    generator that does this thread's payload work and yields whole one
    range at a time, each once it is final.  With beside, a helper thread
    hashes each range as it is given; without, this thread runs ranges to
    its end, then hashes whole.  ranges is closed before this returns."""
    mac = partial(MACS[HMAC_SHA256], key_mac)
    try:
        if not beside:
            for _ in ranges:
                pass
            return mac(whole)
        handover = _Handover(len(whole))

        def give_all() -> None:
            try:
                for r in ranges:
                    handover.give(r)
            finally:
                handover.close()

        def hash_all() -> bytes:
            try:
                return mac(handover)
            finally:
                handover.close()

        return _beside(hash_all, give_all)[0]
    finally:
        ranges.close()


def _encrypt_ranges(view, payload, start: int, key_enc: bytes, mask_keys, chunk: int):
    """Encrypt payload into view[start:] chunk bytes at a time, run
    mask_keys() after the first chunk, and yield view up to its tag one
    range at a time: through each chunk, the last through the padding."""
    mac_pos, done = len(view) - TAG_LEN, 0
    with memoryview(payload) as src:
        for c in range(0, len(src) or 1, chunk):
            part = src[c : c + chunk]
            out = view[start + c : start + c + len(part)]
            PAYLOAD_SCHEMES[CHACHA20_SCHEME](key_enc, part, out, c // 64)
            if c == 0:
                mask_keys()
            end = start + c + chunk if c + chunk < len(src) else mac_pos
            yield view[done:end]
            done = end


def _secrets(groups, draws) -> list[list[bytes]]:
    """Each suite's shared secrets, in member order, under its draw: its
    ephemeral KeyPair, or its salt.  Draws nothing.

    This thread and at most one helper take job indices from one counter
    until the list runs out or a job or an unhide raises; each result
    keeps its job's place, so the scheduling cannot change the secrets.
    The exchange jobs join the list only once this thread has run every
    unhide, which holds the GIL.
    """
    jobs, spans = [], [None] * len(groups)  # spans: each suite's job indices
    for g, ((suite, members), salt) in enumerate(zip(groups, draws)):
        if suite.kind == PASSWORD:
            spans[g] = range(len(jobs), len(jobs) + len(members))
            scrypt = partial(suites_mod.password_secret, suite, salt)
            jobs += [partial(scrypt, m.passphrase) for m in members]
    ready, counter, done, failed = threading.Lock(), itertools.count(), {}, []
    ready.acquire()  # released once the exchange jobs are listed

    def work() -> None:
        for i in counter:
            if i >= len(jobs):
                with ready:  # waits until they are
                    pass
            if i >= len(jobs) or failed:
                return
            try:
                done[i] = jobs[i]()
            except BaseException:
                failed.append(i)  # neither thread starts another job
                raise

    def unhide_then_work() -> None:
        try:
            exchanges = []
            for g, ((suite, members), eph) in enumerate(zip(groups, draws)):
                if suite.kind == PUBLIC_KEY:
                    points = suite.group.unhide([m.pubkey for m in members])
                    n = len(points)
                    h = (n + 1) // 2 if suite.group.parallel_dh else n
                    halves = [p for p in (points[:h], points[h:]) if p]
                    start = len(jobs) + len(exchanges)
                    spans[g] = range(start, start + len(halves))
                    exchanges += [partial(suites_mod.encap, suite, eph, p) for p in halves]
            jobs.extend(exchanges)
        except BaseException:
            failed.append(None)  # neither thread starts another job
            raise
        finally:
            ready.release()
        work()

    # A thread start and join took 159-203 us back to back and 367-383 us
    # after a 2 ms idle (2 vCPU).  A scrypt (about 11 ms) and a k256
    # exchange (about 210 us) release the GIL, so two of them pay for a
    # helper: two k256 keys split took 0.2 ms less, and two scrypts 14.7
    # ms on two threads against 22.2 ms in a row.  So does a scrypt beside
    # the unhides.  X25519 exchanges gain nothing from a second thread.
    slow = len(jobs) + sum(
        len(members) for suite, members in groups
        if suite.kind == PUBLIC_KEY and suite.group.parallel_dh
    )
    if slow >= 2 or (jobs and any(s.kind == PUBLIC_KEY for s, _ in groups)):
        _beside(work, unhide_then_work)
    else:
        unhide_then_work()
    return [
        [done[j] for j in span] if suite.kind == PASSWORD
        else [k for j in span for k in done[j]]
        for (suite, _), span in zip(groups, spans)
    ]


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
    shared = _secrets(groups, draws)
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

        def mask_keys() -> None:
            for (suite, _), draw, entry in zip(groups, draws, report.suites):
                tau = entry["tau"] = draw.pk_encoded if suite.kind == PUBLIC_KEY else draw
                layout_mod.xor_encode(view, suite, tau, entry["primary"])

        # The entries and the ciphertext's first chunk go in before the
        # XOR step: a suite's other key positions may overlap entries or
        # the payload.
        for (suite, _), zps, entry in zip(groups, entry_keys, report.suites):
            for (z, _), (start, end) in zip(zps, entry["slots"]):
                view[start:end] = seal_entry_point(suite, z, plain)
        beside = len(payload) >= ENCODE_OVERLAP_MIN_PAYLOAD
        chunk = OVERLAP_MIN_PAYLOAD if beside else MAX_OFFSET  # or all in one
        ranges = _encrypt_ranges(view, payload, report.payload_start, key_enc, mask_keys, chunk)
        view[report.mac_pos :] = _mac_beside(key_mac, view[: report.mac_pos], ranges, beside)

    # The view is released, so this is the buffer itself, not a copy.
    return blob.getvalue(), report


def decode(blob, identity: Identity) -> tuple[bytes, DecodeStats]:
    """Trial-decrypt a blob under one identity.

    The blob may be any bytes-like object (bytes, bytearray, memoryview,
    mmap.mmap).  A bytes blob is read in place; any other is copied once
    first, since another thread or process may write it while it is read,
    and the tag must verify the very bytes that are decrypted.  The
    suite carries everything a decoder needs; no registry, version
    field, or other cleartext marker is consulted.  Returns the payload
    as bytes and operation counts, or raises DecodeError; all failure
    modes, a meta naming scheme ids other than 01 01 01 among them, are
    indistinguishable from the caller's point of view.  The
    scan stops at the first entry point that opens, so decode time
    depends on membership and on blob length.  The plaintext is returned
    only if the tag verifies.
    """
    stats = DecodeStats()
    try:
        if not isinstance(blob, bytes):
            blob = memoryview(blob).tobytes()
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

    out = layout_mod.zeroed_buffer(meta.payload_end - meta.payload_start)

    def ranges():
        yield blob[:mac_pos]
        # Decrypted in place into the buffer that becomes the result.
        with out.getbuffer() as view:
            ct = blob[meta.payload_start : meta.payload_end]
            PAYLOAD_SCHEMES[CHACHA20_SCHEME](key_enc, ct, view, 0)

    beside = meta.payload_end - meta.payload_start >= OVERLAP_MIN_PAYLOAD
    computed = _mac_beside(key_mac, blob[:mac_pos], ranges(), beside)
    if not hmac_mod.compare_digest(computed, bytes(blob[mac_pos:])):
        raise DecodeError(stats)
    return out.getvalue()
