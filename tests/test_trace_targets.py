"""Every target the benchmark tracer wraps still exists in the library,
and a fanout-shaped op still reaches each of them.

A target that is gone is only reported as missing, and the per-layer
metrics built on it silently drop out of benchmark runs.  A target that
exists but that the library no longer calls (say, padding computed
without PadSpec.pad_len) drops out the same way, with nothing missing.
"""

import purb
from purb.codec import ENCODE_OVERLAP_MIN_PAYLOAD, OVERLAP_MIN_PAYLOAD
from purb.rng import seeded_rng
from purbbench import tracing
from purbbench.tracing import Tracer


def test_every_trace_target_resolves():
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


def test_fanout_op_reaches_every_target(keypairs):
    # Two A keys and the passphrase start one helper, which shares the
    # secret jobs; B and the passphrase bring in X25519 and scrypt.  Keys come from the seeded
    # pool; the encode draws from the tracer's counting source.
    registry = purb.default_registry()
    pw = registry.by_alias("pw")
    members = keypairs["A"][:2] + keypairs["B"][:1]
    recipients = [purb.Recipient.public_key(kp.suite, kp.pk_encoded) for kp in members]
    recipients.append(purb.Recipient.password(pw, b"traced"))
    identities = [purb.Identity(kp.suite, secret_key=kp.sk) for kp in members]
    identities.append(purb.Identity(pw, passphrase=b"traced"))
    payload = seeded_rng(b"traced").randbytes(1000)
    tracer = Tracer()
    try:
        tracer.install()
        tracer.begin_op()
        # Through the package attributes, which the root spans wrap.
        blob, _ = purb.encode_detailed(recipients, payload, rng=tracer.rng)
        opened = [purb.decode(blob, ident)[0] for ident in identities]
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert opened == [payload] * len(identities)
    assert tracer.missing == set()
    totals = tracing.aggregate(tracer.spans)
    assert tracing.uncalled(totals, tracer.missing, "fanout") == set()


def test_pipelined_encode_reaches_cipher_and_mac(keypairs):
    # One key and a payload of several chunks: the calling thread
    # encrypts chunk by chunk and a helper thread computes the MAC, both
    # through the wrapped entries, which count the payload's bytes and
    # every byte before the tag.
    kp = keypairs["B"][0]
    recipients = [purb.Recipient.public_key(kp.suite, kp.pk_encoded)]
    payload = seeded_rng(b"traced chunks").randbytes(ENCODE_OVERLAP_MIN_PAYLOAD + 1000)
    tracer = Tracer()
    try:
        tracer.install()
        tracer.begin_op()
        blob, report = purb.encode_detailed(recipients, payload, rng=tracer.rng)
        tracer.end_op()
    finally:
        tracer.uninstall()
    totals = tracing.aggregate(tracer.spans)
    calls, _, _, counted = totals["codec.payload_cipher"]
    assert (calls, counted) == (-(-len(payload) // OVERLAP_MIN_PAYLOAD), len(payload))
    calls, _, _, counted = totals["codec.mac"]
    assert (calls, counted) == (1, report.mac_pos)
    identity = purb.Identity(kp.suite, secret_key=kp.sk)
    assert purb.decode(blob, identity)[0] == payload
