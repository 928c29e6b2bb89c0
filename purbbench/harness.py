"""Timed loop, output checks and end-to-end metrics.

One process, one caller, no threads: a closed loop in which the next op
starts when the previous one has returned.  A run sets up several times
(the median is `setup_s`; the last set-up is the one measured), then
runs whole passes over the workload's items until at least `seconds`
have passed and at least MIN_PASSES passes are done.  The end-to-end
times are scaled to the nominal speed of the workload's host-speed
reference (hostspeed.py): each set-up by the references timed just
before it, and the samples of each pass by the references timed before
each of its ops.
"""

from __future__ import annotations

import os
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import purb

from . import hostspeed, tracing
from .workloads import WORKLOADS, Outcome

SETUP_REPEATS = 3
SETUP_REFERENCES = 16  # references timed before each set-up
# References timed in a pass, at least; spread evenly before its ops.  A
# pass's scale is their median, and a fanout or bulk pass has only 7 or 9
# ops: one reference each left the scale noisy enough to widen the tails.
PASS_REFERENCES = 32
# With k passes the top stratum holds k samples; at least 11 keeps the
# tail (ten samples beyond it) of a window inside that stratum.
MIN_PASSES = 11
# The tail is taken in windows of whole passes holding at least this many
# samples, and the median over the windows is reported.  A shared host
# now and then stalls a few ops a second for 5-20 ms.  Over a whole
# mailbox run (about 3000 samples) ten such stalls set the tail; within
# one 128-op pass they are rare, and the median ignores the windows hit.
TAIL_WINDOW = 100
MIB = 1 << 20


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With ten or fewer samples there is no such percentile; the maximum is
    returned as the 100th.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def windowed_tail(samples: list[float], per_pass: int) -> tuple[float, float, int]:
    """(median of the windows' tails, percentile in a full window, windows).

    Windows are consecutive runs of whole passes, each of at least
    TAIL_WINDOW samples; the remainder joins the last window.
    """
    size = per_pass * -(-TAIL_WINDOW // per_pass)
    count = max(len(samples) // size, 1)
    bounds = [i * size for i in range(count)] + [len(samples)]
    tails = [tail(samples[a:b]) for a, b in zip(bounds, bounds[1:])]
    return statistics.median(v for v, _ in tails), tails[0][1], count


def blob_ok(blob: bytes, report) -> bool:
    n = len(blob)
    return n == report.purb_len and purb.PadSpec.padme().pad_len(n) == n


def open_ok(expect_hit: bool, result, payload: bytes) -> bool:
    if expect_hit:
        return isinstance(result, bytes) and result == payload
    return isinstance(result, purb.DecodeError) and str(result) == "decode failed"


def table_index(suite, slot: tuple[int, int]) -> int:
    """Hash table holding a slot: table j starts 2^j - 1 slots past ht_base."""
    offset = (slot[0] - suite.ht_base) // suite.entry_len
    return (offset + 1).bit_length() - 1


@dataclass
class Results:
    """Timings, byte counts and check outcomes of the ops recorded."""

    encode_ns: list[int] = field(default_factory=list)
    decode_ns: list[int] = field(default_factory=list)
    op_ns: list[int] = field(default_factory=list)  # timed-loop ops only
    reference_ns: list[int] = field(default_factory=list)  # host-speed reference
    # per pass: encode and decode samples recorded when it ended, its scale
    pass_scales: list[tuple[int, int, float]] = field(default_factory=list)
    encoded_bytes: int = 0
    blob_lens: list[int] = field(default_factory=list)
    payload_lens: list[int] = field(default_factory=list)
    delivered_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    # layout geometry, summed over EncodeReports
    reports: int = 0
    compactness: float = 0.0
    header_bytes: int = 0
    slots: int = 0
    slot_depth: int = 0

    def record(self, out: Outcome) -> None:
        """Count the op's timings and run every output check on it."""
        if out.encode_ns is not None:
            self.attempted += 1
            if out.encode_error is not None or not blob_ok(out.blob, out.report):
                self.failed += 1
            else:
                self._record_encode(out)
        if out.decode_ns is not None:
            self.attempted += 1
            self.decode_ns.append(out.decode_ns)
            if not all(open_ok(hit, r, out.payload) for hit, r in out.opened):
                self.failed += 1
            elif any(hit for hit, _ in out.opened):
                self.delivered_bytes += len(out.payload)

    def _record_encode(self, out: Outcome) -> None:
        self.encode_ns.append(out.encode_ns)
        self.encoded_bytes += len(out.payload)
        self.blob_lens.append(len(out.blob))
        self.payload_lens.append(len(out.payload))
        report = out.report
        self.reports += 1
        self.compactness += report.compactness
        self.header_bytes += report.header_len
        registry = purb.default_registry()
        for entry in report.suites:
            suite = registry.by_alias(entry["alias"])
            for slot in entry["slots"]:
                self.slots += 1
                self.slot_depth += table_index(suite, slot)


def time_reference(reference: hostspeed.Reference) -> int:
    t0 = perf_counter_ns()
    reference.run()
    return perf_counter_ns() - t0


def setup(name: str, seed: int, res: Results, spec=None):
    """Set up SETUP_REPEATS times.

    Returns the last workload, the set-up seconds each, and each one's
    host-speed scale from the references timed just before it.
    """
    cls = WORKLOADS[name]
    times, scales = [], []
    for _ in range(SETUP_REPEATS):
        workload = None  # one workload alive at a time
        refs = [time_reference(cls.reference) for _ in range(SETUP_REFERENCES)]
        scales.append(hostspeed.scale(cls.reference, refs))
        t0 = perf_counter()
        workload = cls(seed, res, spec)
        times.append(perf_counter() - t0)
    return workload, times, scales


def measure(workload, seconds: float, res: Results, min_passes: int = MIN_PASSES,
            tracer=None, reference: hostspeed.Reference | None = None) -> None:
    """Closed loop over whole passes of workload.items.

    With a `reference`, it is timed before every op, outside it, as
    often as makes PASS_REFERENCES a pass, and each pass appends its
    scale to res.pass_scales.
    """
    per_op = -(-PASS_REFERENCES // len(workload.items))
    rng = tracer.rng if tracer is not None else None
    start = perf_counter()
    passes = 0
    while passes < min_passes or perf_counter() - start < seconds:
        workload.start_pass(res)
        refs = []
        for item in workload.items:
            if reference is not None:
                refs += [time_reference(reference) for _ in range(per_op)]
            if tracer is not None:
                tracer.begin_op()
            out = workload.run(item, rng)
            if tracer is not None:
                tracer.end_op()
            res.op_ns.append((out.encode_ns or 0) + (out.decode_ns or 0))
            res.record(out)
        if refs:
            res.reference_ns += refs
            scale = hostspeed.scale(reference, refs)
            res.pass_scales.append((len(res.encode_ns), len(res.decode_ns), scale))
        passes += 1
    res.passes += passes


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def current_rss_mib() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * resource.getpagesize() / MIB


def pass_rss_growth_mib(workload) -> float:
    """Peak RSS over one untraced pass minus the RSS before it, in MiB.

    The pass runs in a forked child and the parent waits for it.  A new
    process's peak RSS starts at its RSS at fork, so the figure is the
    growth of the pass alone; set-up's own transient peak does not count.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            before = current_rss_mib()
            measure(workload, 0, Results(), min_passes=1)
            os.write(write_fd, repr(peak_rss_mib() - before).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as f:
        reply = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"RSS pass failed with wait status {status}")
    return float(reply)


def scaled_samples(res: Results) -> tuple[list[float], list[float]]:
    """Encode and decode ns, each multiplied by its pass's scale.

    Samples recorded before the first pass ended (mailbox's set-up
    encodes) take the first pass's scale.
    """
    encode, decode = [], []
    e0 = d0 = 0
    for e1, d1, scale in res.pass_scales:
        encode += [x * scale for x in res.encode_ns[e0:e1]]
        decode += [x * scale for x in res.decode_ns[d0:d1]]
        e0, d0 = e1, d1
    return encode, decode


def wire_overhead_pct(res: Results, per_pass: int) -> float:
    """Overhead of each item's median blob, summed over the items.

    Encode k is of item k mod per_pass.  The layout is random, so one
    item's blob size varies from encode to encode; in a blob of hundreds
    of recipients an unlucky slot doubles the header, and the median keeps
    such encodes from setting the figure.
    """
    items = range(min(per_pass, len(res.blob_lens)))
    blobs = sum(statistics.median(res.blob_lens[i::per_pass]) for i in items)
    payloads = sum(res.payload_lens[i] for i in items)
    return 100.0 * (blobs - payloads) / payloads


def _timing(prefix: str, ns: list[float], per_pass: int, record: dict) -> dict:
    ms = [x / 1e6 for x in ns]
    value, pct, windows = windowed_tail(ms, per_pass)
    record[prefix] = {"samples": len(ms), "tail_percentile": round(pct, 2),
                      "tail_windows": windows}
    return {
        f"{prefix}_p50": (statistics.median(ms), "ms"),
        f"{prefix}_tail": (value, "ms"),
    }


def _mib_s(nbytes: int, ns: list[float]) -> float:
    return nbytes / MIB / (sum(ns) / 1e9)


def end_to_end(res: Results, setup_s: float, encode_ns: list[float],
               decode_ns: list[float], per_pass: int, record: dict) -> dict:
    """name -> (value, unit); `record` receives sample counts and percentiles.

    The times are given, scaled or not; `res` gives the byte counts.
    """
    metrics = {"setup_s": (setup_s, "s")}
    if encode_ns:
        metrics.update(_timing("encode_ms", encode_ns, per_pass, record))
    if decode_ns:
        metrics.update(_timing("decode_ms", decode_ns, per_pass, record))
    if encode_ns:
        metrics["encode_mib_s"] = (_mib_s(res.encoded_bytes, encode_ns), "MiB/s")
    if decode_ns:
        metrics["decode_mib_s"] = (_mib_s(res.delivered_bytes, decode_ns), "MiB/s")
    metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    if res.blob_lens:
        metrics["wire_overhead_pct"] = (wire_overhead_pct(res, per_pass), "%")
    return metrics


def layout_metrics(res: Results) -> dict:
    n = max(res.reports, 1)
    return {
        "layout.compactness": (res.compactness / n, "ratio"),
        "layout.header_bytes": (res.header_bytes / n, "B"),
        "layout.table_depth": (res.slot_depth / max(res.slots, 1), "index"),
    }


@dataclass
class Run:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    record: dict
    spans: list | None = None


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec=None) -> Run:
    """Set up, measure and check one workload.

    Untraced, the run reports the end-to-end metrics, scaled to the
    nominal speed of the workload's reference; the record keeps them
    unscaled too.  Traced, it alternates untraced and traced passes for
    `seconds` and reports the per-layer metrics, the tracing overhead
    (traced against untraced op p50) and the RSS growth of one untraced
    pass (pass_rss_growth_mib).
    """
    res = Results()
    workload, setup_times, setup_scales = setup(name, seed, res, spec)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "setup_s_each": setup_times, "timings": {}}
    spans = None
    if not trace:
        reference = workload.reference
        measure(workload, seconds, res, reference=reference)
        per_pass = len(workload.items)
        setup_s = statistics.median(t * k for t, k in zip(setup_times, setup_scales))
        metrics = end_to_end(res, setup_s, *scaled_samples(res), per_pass,
                             record["timings"])
        unscaled = end_to_end(res, statistics.median(setup_times), res.encode_ns,
                              res.decode_ns, per_pass, {})
        record["unscaled_metrics"] = {k: {"value": v, "unit": u}
                                      for k, (v, u) in unscaled.items()}
        pass_scales = [k for _, _, k in res.pass_scales]
        record["host_speed"] = {
            "reference": reference.name,
            "samples": len(res.reference_ns),
            "median_ms": statistics.median(res.reference_ns) / 1e6,
            "nominal_ms": reference.nominal_ns / 1e6,
            "setup_scales": setup_scales,
            "pass_scale_min_median_max": [min(pass_scales), statistics.median(pass_scales),
                                          max(pass_scales)],
        }
        record["passes"] = res.passes
        checked = [res]
    else:
        rss_growth = pass_rss_growth_mib(workload)
        traced = Results()
        tracer = tracing.Tracer()
        start = perf_counter()
        measure(workload, 0, res, min_passes=1)
        while True:  # alternate traced and untraced passes, so drift hits both
            tracer.install()
            try:
                measure(workload, 0, traced, min_passes=1, tracer=tracer)
            finally:
                tracer.uninstall()
            if perf_counter() - start >= seconds:
                break
            measure(workload, 0, res, min_passes=1)
        spans = tracer.spans
        totals = tracing.aggregate(spans)
        tracer.missing |= tracing.uncalled(totals, tracer.missing, name)
        metrics = tracing.layer_metrics(totals, tracer.ops, tracer.missing)
        metrics.update(layout_metrics(res))
        untraced_p50 = statistics.median(res.op_ns) / 1e6
        traced_p50 = statistics.median(traced.op_ns) / 1e6
        metrics["trace.untraced_op_ms_p50"] = (untraced_p50, "ms")
        metrics["trace.traced_op_ms_p50"] = (traced_p50, "ms")
        metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio")
        metrics["process.rss_growth_mib"] = (rss_growth, "MiB")
        record["passes"] = {"untraced": res.passes, "traced": traced.passes}
        record["traced_ops"] = tracer.ops
        record["missing_targets"] = sorted(tracer.missing)
        record["ms_per_call"] = tracing.per_call_ms(totals)
        checked = [res, traced]
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    record["failed_ratio"] = failed / max(attempted, 1)
    return Run(failed == 0 and attempted > 0, attempted, failed, metrics, record, spans)
