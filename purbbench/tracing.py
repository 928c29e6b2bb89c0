"""Per-layer tracing by wrapping the public functions of each purb module.

Wrappers go on module attributes, class attributes and dict entries from
outside, and `uninstall` puts the originals back; nothing under src/
changes.  Each wrapped call inside a traced op records a span (name,
start, end, parent span, op id, counted value).  Spans stay in memory
until the run ends.  A target that no longer exists, or that exists but
is never called on a workload that reaches it by design (say, a
PAYLOAD_SCHEMES entry that the library stopped calling), is reported as
missing, and the metrics built on it are left out.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter_ns
from typing import NamedTuple

from purb.rng import RandomSource


class CountingSource(RandomSource):
    """System randomness, passed to traced encodes so `randbytes` can be wrapped."""


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int  # index into the span list, -1 for a root
    op: int
    value: int  # bytes, attempts or hits, per target


def _arg1(args, result):
    return args[1]


def _len_arg1(args, result):
    return len(args[1])


def _attempts(args, result):
    return result.attempts


def _hit(args, result):
    return result is not None


# (span name, "module:qualname" of the owner, attribute or dict key ("*"
# for every entry), what to count).  The root spans codec.encode and
# codec.decode wrap the names the benchmark calls.
TARGETS = [
    ("codec.encode", "purb", "encode_detailed", None),
    ("codec.decode", "purb", "decode", None),
    ("curve25519.hide", "purb.curve25519", "hide", None),
    ("curve25519.unhide", "purb.curve25519", "unhide", None),
    ("secp256k1.hide", "purb.secp256k1", "hide", None),
    ("secp256k1.unhide", "purb.secp256k1", "unhide", None),
    ("suites.keygen", "purb.suites", "keygen", _attempts),
    ("suites.encap", "purb.suites", "encap", None),
    ("suites.decap", "purb.suites", "decap", None),
    ("suites.dh.x25519", "purb.suites:Curve25519Group", "dh", None),
    ("suites.dh.k256", "purb.suites:Secp256k1Group", "dh", None),
    ("suites.password_secret", "purb.suites", "password_secret", None),
    ("layout.reserve_pubkeys", "purb.layout:HeaderLayout", "reserve_pubkeys", None),
    ("layout.place_entry_points", "purb.layout:HeaderLayout", "place_entry_points", None),
    ("layout.fill_random", "purb.layout:HeaderLayout", "fill_random", None),
    ("layout.finalize_lengths", "purb.layout:HeaderLayout", "finalize_lengths", None),
    ("layout.build_blob", "purb.layout:HeaderLayout", "build_blob", None),
    ("layout.xor_encode", "purb.layout", "xor_encode", None),
    ("layout.xor_extract", "purb.layout", "xor_extract", None),
    ("codec.seal_entry_point", "purb.codec", "seal_entry_point", None),
    ("codec.open_entry_point", "purb.codec", "open_entry_point", _hit),
    ("codec.derive_entry_keys", "purb.codec", "derive_entry_keys", None),
    ("codec.payload_cipher", "purb.codec:PAYLOAD_SCHEMES", "*", _len_arg1),
    ("codec.mac", "purb.codec:MACS", "*", _len_arg1),
    ("padding.pad_len", "purb.padding:PadSpec", "pad_len", None),
    ("rng.randbytes", "purbbench.tracing:CountingSource", "randbytes", _arg1),
]

# Spans each workload never reaches, by design: bulk has only suite B and
# no passphrase; mailbox ops only decode.  They read 0 there; any other
# span that no traced op called is reported missing.
NOT_REACHED = {
    "bulk": {"secp256k1.hide", "secp256k1.unhide", "suites.dh.k256",
             "suites.password_secret"},
    "fanout": set(),
    "mailbox": {"codec.encode", "codec.seal_entry_point", "curve25519.hide",
                "secp256k1.hide", "suites.keygen", "suites.encap",
                "suites.password_secret", "layout.reserve_pubkeys",
                "layout.place_entry_points", "layout.fill_random",
                "layout.finalize_lengths", "layout.build_blob",
                "layout.xor_encode", "padding.pad_len", "rng.randbytes"},
}

MIB = 1 << 20

# Per-layer metrics: name -> (span, statistic, unit).  Statistics, per
# traced workload op: calls; ms (inclusive); self_ms (minus time child
# spans cover); per_call (counted value / calls); mib_s (counted bytes /
# inclusive time); value (counted value per op).  A per_call or mib_s
# ratio whose base is 0, on a span NOT_REACHED by design, reads 0: a
# traced run prints every per-layer metric of a target that exists.
SPAN_METRICS = {
    "curve25519.hide.calls": ("curve25519.hide", "calls", "1/op"),
    "curve25519.hide.ms": ("curve25519.hide", "ms", "ms"),
    "curve25519.unhide.calls": ("curve25519.unhide", "calls", "1/op"),
    "curve25519.unhide.ms": ("curve25519.unhide", "ms", "ms"),
    "secp256k1.hide.calls": ("secp256k1.hide", "calls", "1/op"),
    "secp256k1.hide.ms": ("secp256k1.hide", "ms", "ms"),
    "secp256k1.unhide.calls": ("secp256k1.unhide", "calls", "1/op"),
    "secp256k1.unhide.ms": ("secp256k1.unhide", "ms", "ms"),
    "suites.keygen.calls": ("suites.keygen", "calls", "1/op"),
    "suites.keygen.attempts_per_call": ("suites.keygen", "per_call", "ratio"),
    "suites.encap.ms": ("suites.encap", "ms", "ms"),
    "suites.decap.calls": ("suites.decap", "calls", "1/op"),
    "suites.decap.ms": ("suites.decap", "ms", "ms"),
    "suites.dh.x25519.calls": ("suites.dh.x25519", "calls", "1/op"),
    "suites.dh.x25519.ms": ("suites.dh.x25519", "ms", "ms"),
    "suites.dh.k256.calls": ("suites.dh.k256", "calls", "1/op"),
    "suites.dh.k256.ms": ("suites.dh.k256", "ms", "ms"),
    "suites.password_secret.calls": ("suites.password_secret", "calls", "1/op"),
    "suites.password_secret.ms": ("suites.password_secret", "ms", "ms"),
    "layout.reserve_pubkeys.ms": ("layout.reserve_pubkeys", "ms", "ms"),
    "layout.place_entry_points.ms": ("layout.place_entry_points", "ms", "ms"),
    "layout.fill_random.ms": ("layout.fill_random", "ms", "ms"),
    "layout.finalize_lengths.ms": ("layout.finalize_lengths", "ms", "ms"),
    "layout.build_blob.ms": ("layout.build_blob", "ms", "ms"),
    "layout.xor_encode.ms": ("layout.xor_encode", "ms", "ms"),
    "layout.xor_extract.ms": ("layout.xor_extract", "ms", "ms"),
    "codec.seal_entry_point.calls": ("codec.seal_entry_point", "calls", "1/op"),
    "codec.seal_entry_point.ms": ("codec.seal_entry_point", "ms", "ms"),
    "codec.open_entry_point.calls": ("codec.open_entry_point", "calls", "1/op"),
    "codec.open_entry_point.ms": ("codec.open_entry_point", "ms", "ms"),
    "codec.open_entry_point.hit_ratio": ("codec.open_entry_point", "per_call", "ratio"),
    "codec.derive_entry_keys.ms": ("codec.derive_entry_keys", "ms", "ms"),
    "codec.payload_cipher.ms": ("codec.payload_cipher", "ms", "ms"),
    "codec.payload_cipher.mib_s": ("codec.payload_cipher", "mib_s", "MiB/s"),
    "codec.mac.ms": ("codec.mac", "ms", "ms"),
    "codec.mac.mib_s": ("codec.mac", "mib_s", "MiB/s"),
    "codec.encode.self_ms": ("codec.encode", "self_ms", "ms"),
    "codec.decode.self_ms": ("codec.decode", "self_ms", "ms"),
    "padding.pad_len.calls": ("padding.pad_len", "calls", "1/op"),
    "rng.randbytes.bytes": ("rng.randbytes", "value", "B"),
    "rng.randbytes.ms": ("rng.randbytes", "ms", "ms"),
}


def _resolve(path: str):
    module, _, qualname = path.partition(":")
    obj = importlib.import_module(module)
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Installs span-recording wrappers; records only between begin_op/end_op."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.missing: set[str] = set()
        self.rng = CountingSource()
        self.ops = 0
        self._op: int | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def begin_op(self) -> None:
        self._op = self.ops

    def end_op(self) -> None:
        self._op = None
        self.ops += 1

    def install(self) -> None:
        for name, path, key, count in TARGETS:
            try:
                owner = _resolve(path)
                if isinstance(owner, dict):
                    keys = list(owner) if key == "*" else [key]
                    if not keys:
                        raise KeyError(key)
                    for k in keys:
                        self._patch_item(owner, k, name, count)
                else:
                    self._patch_attr(owner, key, name, count)
            except (ImportError, AttributeError, KeyError, TypeError):
                self.missing.add(name)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_attr(self, owner, attr: str, name: str, count) -> None:
        fn = getattr(owner, attr)
        if not callable(fn):
            raise TypeError(attr)
        own = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, self._wrap(fn, name, count))
        if own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:  # inherited: drop the override to expose the base again
            self._undo.append(lambda: delattr(owner, attr))

    def _patch_item(self, owner: dict, key, name: str, count) -> None:
        value = owner[key]
        if callable(value):
            owner[key] = self._wrap(value, name, count)
        elif isinstance(value, tuple) and value and callable(value[0]):
            owner[key] = (self._wrap(value[0], name, count),) + value[1:]
        else:
            raise TypeError(name)
        self._undo.append(lambda: owner.__setitem__(key, value))

    def _wrap(self, fn, name: str, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                value = count(args, result) if ok and count is not None else 0
                spans[index] = Span(name, t0, t1, parent, op, int(value))

        return wrapper


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, run_start, run_end = 0, None, None
        for a, b in sorted(children[i]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.end - s.start - covered)
    return out


def aggregate(spans: list[Span]) -> dict[str, list[int]]:
    """Span name -> [calls, inclusive ns, self ns, counted value]."""
    totals = defaultdict(lambda: [0, 0, 0, 0])
    for s, self_ns in zip(spans, self_times(spans)):
        t = totals[s.name]
        t[0] += 1
        t[1] += s.end - s.start
        t[2] += self_ns
        t[3] += s.value
    return totals


def uncalled(totals: dict, missing: set[str], workload: str) -> set[str]:
    """Installed targets no traced op called, though the workload should reach them."""
    names = {name for name, *_ in TARGETS}
    return names - missing - set(totals) - NOT_REACHED[workload]


def layer_metrics(totals: dict, ops: int, missing: set[str]) -> dict:
    """SPAN_METRICS as name -> (value, unit); metrics on a missing span are left out."""
    ops = max(ops, 1)
    out = {}
    for metric, (span, stat, unit) in SPAN_METRICS.items():
        if span in missing:
            continue
        calls, incl, excl, value = totals.get(span, (0, 0, 0, 0))
        if stat == "calls":
            v = calls / ops
        elif stat == "ms":
            v = incl / 1e6 / ops
        elif stat == "self_ms":
            v = excl / 1e6 / ops
        elif stat == "per_call":
            v = value / calls if calls else 0.0
        elif stat == "mib_s":
            v = value / MIB / (incl / 1e9) if incl else 0.0
        else:
            v = value / ops
        out[metric] = (v, unit)
    return out


def per_call_ms(totals: dict) -> dict[str, float]:
    """Mean inclusive ms of one call, by span name, for the run record."""
    return {name: t[1] / 1e6 / t[0] for name, t in sorted(totals.items())}
