"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q purbbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import purb  # noqa: E402
from purbbench import harness, hostspeed, tracing, workloads  # noqa: E402
from purbbench.tracing import Span  # noqa: E402

TINY = {
    "bulk": workloads.BulkSpec(strata=3, min_payload=1024, max_payload=64 * 1024),
    "fanout": workloads.FanoutSpec(strata=3, max_recipients=16),
    "mailbox": workloads.MailboxSpec(blobs=16, pool_per_suite=3),
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_has_no_failures_and_every_end_to_end_metric(name):
    run = harness.run_workload(name, 7, 0.0, trace=False, spec=TINY[name])
    assert run.record["failed_ratio"] == 0 and run.correct
    assert run.attempted > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u) in run.metrics.items()} == expected
    assert all(v > 0 for v, _ in run.metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_has_every_per_layer_metric(name):
    run = harness.run_workload(name, 7, 0.0, trace=True, spec=TINY[name])
    assert run.record["failed_ratio"] == 0 and run.correct
    assert run.record["missing_targets"] == []
    assert not {s.name for s in run.spans} & tracing.NOT_REACHED[name]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in run.metrics.items()} == expected
    assert all(s.op < run.record["traced_ops"] for s in run.spans)
    # every wrapper was removed again
    assert purb.encode_detailed is purb.codec.encode_detailed
    assert "randbytes" not in vars(tracing.CountingSource)


def _fanout_inputs(seed):
    w = workloads.Fanout(seed, harness.Results(), TINY["fanout"])
    return [
        (
            sorted((r.suite.alias, r.pubkey, r.passphrase) for r in recipients),
            payload,
            [(ident.suite.alias, ident.secret_key, ident.passphrase) for ident, _ in openers],
        )
        for recipients, payload, openers in w.items
    ]


def _mailbox_inputs(seed):
    w = workloads.Mailbox(seed, harness.Results(), TINY["mailbox"])
    return [(payload, [hit for _, hit in openers]) for _, payload, openers in w.items]


def test_same_seed_same_inputs():
    bulk = [workloads.Bulk(3, None, TINY["bulk"]) for _ in range(2)]
    assert bulk[0].items == bulk[1].items and bulk[0].buffer == bulk[1].buffer
    assert bulk[0].recipients == bulk[1].recipients
    assert _fanout_inputs(3) == _fanout_inputs(3) != _fanout_inputs(4)
    assert _mailbox_inputs(3) == _mailbox_inputs(3) != _mailbox_inputs(4)


def test_mailbox_addresses_one_blob_in_eight():
    hits = [sum(flags) for _, flags in _mailbox_inputs(5)]
    assert hits.count(1) == 16 // 8 and set(hits) <= {0, 1}


def test_fanout_blob_has_a_b_and_one_passphrase():
    for recipients, _, _ in _fanout_inputs(5):
        aliases = [alias for alias, _, _ in recipients]
        assert aliases.count("pw") == 1 and "A" in aliases and "B" in aliases


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span("root", 0, 100, -1, 0, 0),
        Span("a", 10, 30, 0, 0, 0),
        Span("a.child", 12, 20, 1, 0, 0),
        Span("b", 25, 50, 0, 0, 0),  # overlaps a: the union is 10..50
        Span("c", 90, 120, 0, 0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [100 - 40 - 10, 20 - 8, 8, 25, 30]


def test_layer_metrics_per_op_and_ratios():
    spans = [
        Span("codec.open_entry_point", 0, 2_000_000, -1, 0, 1),
        Span("codec.open_entry_point", 0, 2_000_000, -1, 1, 0),
        Span("codec.open_entry_point", 0, 2_000_000, -1, 1, 0),
        Span("codec.open_entry_point", 0, 2_000_000, -1, 1, 0),
    ]
    m = tracing.layer_metrics(tracing.aggregate(spans), ops=2, missing={"codec.mac"})
    assert m["codec.open_entry_point.calls"] == (2.0, "1/op")
    assert m["codec.open_entry_point.ms"] == (4.0, "ms")
    assert m["codec.open_entry_point.hit_ratio"] == (0.25, "ratio")
    assert m["suites.keygen.attempts_per_call"] == (0.0, "ratio")  # base 0
    assert "codec.mac.ms" not in m and "codec.mac.mib_s" not in m


def test_missing_wrap_target_is_reported_not_raised(monkeypatch):
    targets = tracing.TARGETS + [("codec.gone", "purb.codec", "no_such_function", None)]
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"codec.gone"}


def test_target_never_called_is_reported_missing(monkeypatch):
    # A target that still exists but that the library no longer calls,
    # as when a PAYLOAD_SCHEMES entry is bypassed.
    monkeypatch.setattr(purb.codec, "bypassed", lambda key, data: data, raising=False)
    targets = [t for t in tracing.TARGETS if t[0] != "codec.payload_cipher"]
    targets.append(("codec.payload_cipher", "purb.codec", "bypassed", None))
    monkeypatch.setattr(tracing, "TARGETS", targets)
    run = harness.run_workload("bulk", 7, 0.0, trace=True, spec=TINY["bulk"])
    assert run.record["missing_targets"] == ["codec.payload_cipher"]
    assert "codec.payload_cipher.ms" not in run.metrics
    assert "codec.payload_cipher.mib_s" not in run.metrics
    assert run.correct


class _Allocating(workloads.Workload):
    """One op that fills a buffer of `size` bytes."""

    def __init__(self, size):
        self.items = [size]

    def run(self, item, rng):
        buf = bytearray(item)  # zero-filled, so every page is touched
        del buf
        return workloads.Outcome(b"")


def test_rss_growth_counts_the_pass_not_earlier_peaks():
    transient = bytearray(64 * workloads.MIB)  # raises this process's peak
    del transient
    assert harness.pass_rss_growth_mib(_Allocating(0)) < 8
    assert harness.pass_rss_growth_mib(_Allocating(32 * workloads.MIB)) >= 30


def test_each_pass_is_scaled_by_its_own_references():
    res = harness.Results()
    workload = workloads.Bulk(2, res, TINY["bulk"])
    harness.measure(workload, 0, res, min_passes=2, reference=workload.reference)
    per_pass = len(workload.items)
    assert len(res.reference_ns) == 2 * per_pass * -(-harness.PASS_REFERENCES // per_pass)
    assert [(e, d) for e, d, _ in res.pass_scales] == [(per_pass,) * 2, (2 * per_pass,) * 2]
    res.pass_scales = [(per_pass, per_pass, 2.0), (2 * per_pass, 2 * per_pass, 0.5)]
    encode, decode = harness.scaled_samples(res)
    assert encode == [x * 2.0 for x in res.encode_ns[:per_pass]] + [
        x * 0.5 for x in res.encode_ns[per_pass:]]
    assert len(decode) == len(res.decode_ns)
    nominal = workload.reference.nominal_ns
    assert hostspeed.scale(workload.reference, [nominal, 2 * nominal, 4 * nominal]) == 0.5


def test_wire_overhead_takes_each_items_median_blob():
    res = harness.Results()
    # two items of 100 payload bytes; item 0's second encode has a doubled header
    res.blob_lens = [200, 300, 200, 500, 200, 300]
    res.payload_lens = [100] * 6
    assert harness.wire_overhead_pct(res, per_pass=2) == 100.0 * (200 + 300 - 200) / 200


def test_tail_has_ten_samples_beyond_it():
    value, pct = harness.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert harness.tail([3, 1, 2]) == (3, 100.0)


def test_windowed_tail_ignores_stalls_spread_over_windows():
    per_pass = 50  # windows of two passes, 100 samples
    samples = [float(i % 100) for i in range(1000)]
    for i in range(5, 1000, 100):  # one stalled op per window, twelve in all
        samples[i] = 1000.0
    samples[15] = samples[25] = 1000.0
    assert harness.tail(samples)[0] == 1000.0
    value, pct, windows = harness.windowed_tail(samples, per_pass)
    assert (value, pct, windows) == (90.0, 90.0, 10)  # 89 moves up one
    # the remainder joins the last window; too few samples make one window
    assert harness.windowed_tail(samples[:1049], per_pass)[2] == 10
    assert harness.windowed_tail(samples[:60], per_pass)[2] == 1


def test_corrupted_blob_counts_as_failure():
    res = harness.Results()
    mailbox = workloads.Mailbox(11, res, TINY["mailbox"])
    addressed = next(i for i, (_, _, openers) in enumerate(mailbox.items)
                     if any(hit for _, hit in openers))
    blob, payload, openers = mailbox.items[addressed]
    mailbox.items[addressed] = (blob[:-1] + bytes([blob[-1] ^ 1]), payload, openers)
    harness.measure(mailbox, 0, res, min_passes=1)
    assert res.failed == 1 and res.failed / res.attempted > 0


def test_wrong_blob_length_counts_as_failure():
    out = workloads.encode_then_open(
        workloads.Bulk(1, None, TINY["bulk"]).recipients, b"x" * 100, [], None
    )
    out.blob += b"\x00"
    res = harness.Results()
    res.record(out)
    assert (res.attempted, res.failed) == (2, 1)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "purbbench", tmp_path / "purbbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
