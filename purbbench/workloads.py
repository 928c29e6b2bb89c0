"""The three benchmark workloads: bulk, fanout and mailbox.

Every input (keys, recipient sets, payload sizes and bytes, which blobs
are addressed to the user) is drawn from the workload seed.  Recipient
counts and payload sizes are stratified: each is the geometric midpoint
of one of several equal strata of its range on a log scale, and the seed
draws the pairing and everything else.  A run measures whole
passes over the items, so every run sees the same mix of sizes and its
median and tail stay in the same stratum from seed to seed.  Bulk and
fanout items run in stratum order, whatever the seed.

Timed encodes get ``rng=None``, so they use the library's default system
RNG as real callers do; only set-up uses seeded randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter_ns

import purb

from .hostspeed import BIGINT, BUFFER

KIB = 1 << 10
MIB = 1 << 20

# Workload definitions; the payload ranges are (smallest, largest) bytes.
FANOUT_MIN_RECIPIENTS = 2
FANOUT_PAYLOAD = (256, 64 * KIB)
FANOUT_A_SHARE = 0.25
MAILBOX_ADDRESSED_EVERY = 8
MAILBOX_MAX_RECIPIENTS = 8
MAILBOX_PAYLOAD = (256, 64 * KIB)


@dataclass
class Outcome:
    """What one workload op did, timed; checked afterwards by Results."""

    payload: bytes
    blob: bytes | None = None
    report: purb.EncodeReport | None = None
    encode_ns: int | None = None  # None: the op does no encode
    encode_error: Exception | None = None
    decode_ns: int | None = None  # None: the op does no decode
    # (expected to open, returned payload or raised exception) per identity
    opened: list[tuple[bool, object]] = field(default_factory=list)


def log_grid(lo: float, hi: float, strata: int) -> list[int]:
    """Geometric midpoints of `strata` equal slices of [lo, hi] on a log scale."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / strata)) for i in range(strata)]


def timed_encode(out: Outcome, recipients, payload: bytes, rng) -> None:
    t0 = perf_counter_ns()
    try:
        out.blob, out.report = purb.encode_detailed(recipients, payload, rng=rng)
    except Exception as exc:  # counted as a failed op, never aborts the run
        out.encode_error = exc
    out.encode_ns = perf_counter_ns() - t0


def timed_open(out: Outcome, blob: bytes, openers) -> None:
    """One decode op: try the blob under every (identity, expect_hit) pair."""
    results = []
    t0 = perf_counter_ns()
    for identity, _ in openers:
        try:
            results.append(purb.decode(blob, identity)[0])
        except Exception as exc:  # misses raise; the check judges them
            results.append(exc)
    out.decode_ns = perf_counter_ns() - t0
    out.opened = [(hit, r) for (_, hit), r in zip(openers, results)]


def encode_then_open(recipients, payload: bytes, openers, rng) -> Outcome:
    out = Outcome(payload)
    timed_encode(out, recipients, payload, rng)
    if out.blob is not None:
        timed_open(out, out.blob, openers)
    return out


def _suite(alias: str):
    return purb.default_registry().by_alias(alias)


def _keys(suite, count: int, rnd: random.Random) -> list[purb.KeyPair]:
    krng = purb.seeded_rng(rnd.randbytes(32))
    return [purb.keygen(suite, krng) for _ in range(count)]


def _pk(kp: purb.KeyPair) -> purb.Recipient:
    return purb.Recipient.public_key(kp.suite, kp.pk_encoded)


def _identity(kp: purb.KeyPair) -> purb.Identity:
    return purb.Identity(kp.suite, secret_key=kp.sk)


class Workload:
    """Set up in __init__ from the seed; `items` are the ops of one pass.

    `reference` is the host-speed reference (hostspeed.py) whose work is
    most like the workload's own.
    """

    items: list
    reference = BIGINT

    def start_pass(self, res) -> None:
        """Called before every timed pass."""


@dataclass(frozen=True)
class BulkSpec:
    strata: int = 9
    min_payload: int = 1 * MIB
    max_payload: int = 32 * MIB


class Bulk(Workload):
    """One suite-B recipient, large payloads: cipher, MAC, copies, padding fill.

    Payloads are cut from one random buffer outside the timed section.
    """

    name = "bulk"
    reference = BUFFER

    def __init__(self, seed: int, res, spec: BulkSpec | None = None):
        spec = spec or BulkSpec()
        rnd = random.Random(seed)
        (kp,) = _keys(_suite("B"), 1, rnd)
        self.recipients = [_pk(kp)]
        self.openers = [(_identity(kp), True)]
        self.buffer = rnd.randbytes(spec.max_payload)
        sizes = log_grid(spec.min_payload, spec.max_payload, spec.strata)
        self.items = [(n, rnd.randrange(len(self.buffer) - n + 1)) for n in sizes]

    def run(self, item, rng) -> Outcome:
        size, offset = item
        payload = self.buffer[offset : offset + size]
        return encode_then_open(self.recipients, payload, self.openers, rng)


@dataclass(frozen=True)
class FanoutSpec:
    # Seven, not nine like bulk: a pass costs less than 2 s, so a run does
    # about 15 passes and the tail sits well inside the top stratum.
    strata: int = 7
    max_recipients: int = 1024


class Fanout(Workload):
    """Many recipients per blob over suites A, B and pw.

    Every blob has at least one suite-A and one suite-B recipient and
    exactly one passphrase; of the rest, FANOUT_A_SHARE are suite A,
    rounded, so the A count is the same for every seed.  Keys come from
    a seeded pool large enough for the biggest blob.  The decode op opens
    the blob once under each suite present.
    """

    name = "fanout"

    def __init__(self, seed: int, res, spec: FanoutSpec | None = None):
        spec = spec or FanoutSpec()
        rnd = random.Random(seed)
        a, b, pw = _suite("A"), _suite("B"), _suite("pw")
        counts = [
            max(3, r)
            for r in log_grid(FANOUT_MIN_RECIPIENTS, spec.max_recipients, spec.strata)
        ]
        sizes = log_grid(*FANOUT_PAYLOAD, spec.strata)
        rnd.shuffle(sizes)
        plan = []
        for r, size in zip(counts, sizes):
            n_a = 1 + int(FANOUT_A_SHARE * (r - 3) + 0.5)
            plan.append((n_a, r - 1 - n_a, size))
        pool_a = _keys(a, max(p[0] for p in plan), rnd)
        pool_b = _keys(b, max(p[1] for p in plan), rnd)
        self.items = []
        for n_a, n_b, size in plan:
            keys_a, keys_b = rnd.sample(pool_a, n_a), rnd.sample(pool_b, n_b)
            passphrase = rnd.randbytes(16)
            recipients = [_pk(k) for k in keys_a + keys_b]
            recipients.append(purb.Recipient.password(pw, passphrase))
            rnd.shuffle(recipients)
            openers = [
                (_identity(rnd.choice(keys_a)), True),
                (_identity(rnd.choice(keys_b)), True),
                (purb.Identity(pw, passphrase=passphrase), True),
            ]
            self.items.append((recipients, rnd.randbytes(size), openers))

    def run(self, item, rng) -> Outcome:
        recipients, payload, openers = item
        return encode_then_open(recipients, payload, openers, rng)


@dataclass(frozen=True)
class MailboxSpec:
    blobs: int = 128
    pool_per_suite: int = 8


class Mailbox(Workload):
    """A user with one suite-A and one suite-B key scans distinct small blobs.

    Exactly 1/MAILBOX_ADDRESSED_EVERY of the blobs are addressed to the user,
    alternately to the A and the B key.  Other recipients come from
    X25519 suites B, D and F, which keeps set-up cheap.  Set-up encodes
    the blob stream, and the stream is encoded afresh before every later
    pass, outside the ops, so every scan sees distinct blobs.  Those
    encodes are timed and checked like any other and give the workload's
    encode metrics over the whole run, not only over set-up.  The decode
    op tries one blob under every key the user holds.
    """

    name = "mailbox"

    def __init__(self, seed: int, res, spec: MailboxSpec | None = None):
        spec = spec or MailboxSpec()
        rnd = random.Random(seed)
        (user_a,) = _keys(_suite("A"), 1, rnd)
        (user_b,) = _keys(_suite("B"), 1, rnd)
        pool = [
            k
            for alias in ("B", "D", "F")
            for k in _keys(_suite(alias), spec.pool_per_suite, rnd)
        ]
        n_hits = spec.blobs // MAILBOX_ADDRESSED_EVERY
        targets = [(user_a, user_b)[i % 2] for i in range(n_hits)]
        targets += [None] * (spec.blobs - n_hits)
        sizes = log_grid(*MAILBOX_PAYLOAD, n_hits)
        sizes += log_grid(*MAILBOX_PAYLOAD, spec.blobs - n_hits)
        counts = [1 + i % MAILBOX_MAX_RECIPIENTS for i in range(spec.blobs)]
        rnd.shuffle(counts)
        plan = list(zip(targets, sizes, counts))
        rnd.shuffle(plan)
        self.stream = []
        for target, size, count in plan:
            keys = rnd.sample(pool, count - (target is not None))
            if target is not None:
                keys.insert(rnd.randrange(count), target)
            openers = [(_identity(k), k is target) for k in (user_a, user_b)]
            self.stream.append(([_pk(k) for k in keys], rnd.randbytes(size), openers))
        self._encode_stream(res)
        self._fresh = True

    def _encode_stream(self, res) -> None:
        self.items = []
        for recipients, payload, openers in self.stream:
            out = Outcome(payload)
            timed_encode(out, recipients, payload, None)
            res.record(out)
            if out.blob is not None:
                self.items.append((out.blob, payload, openers))

    def start_pass(self, res) -> None:
        """Scan the set-up stream first, then a freshly encoded one each pass."""
        if self._fresh:
            self._fresh = False
        else:
            self._encode_stream(res)

    def run(self, item, rng) -> Outcome:
        blob, payload, openers = item
        out = Outcome(payload)
        timed_open(out, blob, openers)
        return out


WORKLOADS = {w.name: w for w in (Bulk, Fanout, Mailbox)}
