"""Command-line tool: keygen, encode, decode, pad, analyze."""

from __future__ import annotations

import argparse
import json
import sys

from . import analyzer
from .codec import (
    DecodeError,
    Identity,
    Recipient,
    decode,
    encode_detailed,
)
from .layout import table_index
from .padding import PadSpec, overhead
from .rng import system_rng
from .suites import (
    PASSWORD,
    PUBLIC_KEY,
    SUITES,
    default_registry,
    keygen,
    read_secret_key,
    write_key_files,
)


def _length(text: str) -> int:
    length = int(text)
    if length < 0:
        raise argparse.ArgumentTypeError("length must be >= 0")
    return length


def cmd_keygen(args) -> int:
    registry = default_registry()
    suite = registry.by_alias(args.suite)
    kp = keygen(suite, system_rng())
    sk_path, pk_path = write_key_files(args.out, kp)
    print(f"{suite.alias} ({suite.name}): wrote {sk_path} and {pk_path}")
    return 0


def _string_field(entry: dict, name: str) -> str:
    value = entry.get(name)
    if not isinstance(value, str):
        raise ValueError(f"{name!r} must be a string")
    return value


def _recipient(entry) -> Recipient:
    """One recipient-file entry; a ValueError says what is wrong with it."""
    if not isinstance(entry, dict):
        raise ValueError("not a JSON object")
    alias = _string_field(entry, "suite")
    try:
        suite = default_registry().by_alias(alias)
    except KeyError:
        raise ValueError(f"unknown suite {alias!r}") from None
    if suite.kind == PASSWORD:
        return Recipient.password(suite, _string_field(entry, "passphrase").encode())
    return Recipient.public_key(suite, bytes.fromhex(_string_field(entry, "pubkey")))


def _load_recipients(path: str) -> list[Recipient]:
    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    if not isinstance(entries, list) or not entries:
        raise ValueError("recipient file must be a non-empty JSON array")
    recipients = []
    for i, entry in enumerate(entries):
        try:
            recipients.append(_recipient(entry))
        except ValueError as e:
            raise ValueError(f"recipient {i}: {e}") from None
    return recipients


def _dummy_recipient(suite, rng) -> Recipient:
    if suite.kind == PASSWORD:
        return Recipient.password(suite, rng.randbytes(32).hex().encode())
    # Hidden keys are uniform strings and unhide is total, so random
    # bytes make a dummy key with no keygen (about 1 ms on secp256k1).
    return Recipient.public_key(suite, rng.randbytes(suite.encoded_key_len))


def _blob_map(report) -> dict:
    """Byte ranges of an encoded blob, [start, end); no key material."""
    suites = []
    for entry in report.suites:
        suite = entry["suite"]
        primary = entry["primary"]
        suites.append({
            "alias": suite.alias,
            "primary": [primary, primary + suite.encoded_key_len],
            "entries": [
                {"range": [start, end], "table": table_index(suite, start)}
                for start, end in entry["slots"]
            ],
        })
    return {
        "purb_len": report.purb_len,
        "header_len": report.header_len,
        "suites": suites,
        "payload": [report.payload_start, report.payload_end],
        "padding": [report.payload_end, report.mac_pos],
        "tag": [report.mac_pos, report.purb_len],
    }


def cmd_encode(args) -> int:
    rng = system_rng()
    recipients = _load_recipients(args.to)
    # Throwaway extra recipients mask the real recipient count.
    for _ in range(args.dummy):
        recipients.append(_dummy_recipient(recipients[0].suite, rng))
    with open(args.infile, "rb") as f:
        payload = f.read()
    blob, report = encode_detailed(recipients, payload, rng)
    with open(args.out, "wb") as f:
        f.write(blob)
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as f:
            json.dump(_blob_map(report), f, indent=2)
    print(
        f"wrote {args.out}: {report.purb_len} bytes total, "
        f"{report.header_len} header, "
        f"compactness {report.compactness * 100:.1f}%"
    )
    return 0


def cmd_decode(args) -> int:
    if args.passphrase is not None and args.suite is not None:
        raise ValueError("--suite applies to --key only")
    secret = read_secret_key(args.key) if args.key is not None else args.passphrase.encode()
    with open(args.infile, "rb") as f:
        blob = f.read()

    # A blob does not say which suite it uses: with no --suite, try
    # every suite of the credential's kind.
    if args.passphrase is not None:
        identities = [Identity(s, passphrase=secret) for s in SUITES if s.kind == PASSWORD]
    else:
        # A key the suite cannot use is a usage error; build it here, since
        # inside decode it would pass for a failed decode.
        identities = []
        for suite in SUITES:
            if suite.kind == PUBLIC_KEY and args.suite in (None, suite.alias):
                ident = Identity(suite, secret_key=secret)
                try:
                    ident.native_key
                    identities.append(ident)
                except ValueError as e:
                    rejected = f"key unusable for suite {suite.alias}: {e}"
        if not identities:
            raise ValueError(rejected)

    exp = trials = 0
    for ident in identities:
        try:
            payload, stats = decode(blob, ident)
        except DecodeError as e:
            exp += e.stats.exp_count
            trials += e.stats.trial_count
            continue
        with open(args.out, "wb") as f:
            f.write(payload)
        if args.stats:
            print(
                f"exp_count={exp + stats.exp_count} "
                f"trial_count={trials + stats.trial_count}"
            )
        return 0
    print("decode failed")
    return 1


def cmd_pad(args) -> int:
    padded = args.spec.pad_len(args.length)
    # Every scheme pads length 0 to 0.
    add, mult = overhead(args.spec, args.length) if args.length else (0, 0)
    print(f"{padded} (+{add} bytes, +{float(mult) * 100:.2f}%)")
    return 0


def cmd_analyze(args) -> int:
    ds = analyzer.load_sizes(args.sizes, column=args.column)
    reports = [analyzer.profile(ds, spec) for spec in args.specs]
    print(f"{ds.name}: {len(ds.sizes)} objects")
    print(analyzer.render_table(reports))
    if args.csv:
        analyzer.write_csv(reports, args.csv)
        print(f"wrote {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purb",
        description="Encode and decode padded uniform random blobs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pk_aliases = [s.alias for s in SUITES if s.kind == PUBLIC_KEY]

    p = sub.add_parser("keygen", help="generate a key pair for a suite")
    p.add_argument("--suite", required=True, choices=pk_aliases)
    p.add_argument("--out", required=True, help="output file prefix")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encode", help="encrypt a file for recipients, Padmé-padded")
    p.add_argument("--to", required=True, help="recipient list (JSON)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--dummy",
        type=_length,
        default=0,
        metavar="N",
        help="add N throwaway recipients of the first listed suite",
    )
    p.add_argument(
        "--report-json",
        metavar="PATH",
        help="write the blob's byte map (key, entry, payload, padding and "
        "tag ranges) as JSON",
    )
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decrypt a blob")
    credential = p.add_mutually_exclusive_group(required=True)
    credential.add_argument("--key", help="private key file")
    credential.add_argument("--passphrase", help="decode with a passphrase instead of a key")
    p.add_argument(
        "--suite", choices=pk_aliases,
        help="the key's suite; without it, every suite that can use the key",
    )
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", action="store_true", help="print operation counts")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("pad", help="compute a padded length")
    p.add_argument("--len", dest="length", type=_length, required=True)
    p.add_argument("--spec", type=PadSpec.from_string, default=PadSpec.padme())
    p.set_defaults(func=cmd_pad)

    p = sub.add_parser("analyze", help="size-anonymity report for a dataset")
    p.add_argument("--sizes", required=True, help="sizes file")
    p.add_argument("--column", help="read sizes from this CSV column")
    p.add_argument(
        "--specs",
        type=PadSpec.from_string,
        nargs="+",
        default=[PadSpec.fixed_block(512), PadSpec.next_p2(), PadSpec.padme()],
    )
    p.add_argument("--csv", help="also write the report as CSV")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Every command's usage and I/O errors end here, as exit 2
    # (JSONDecodeError and UnicodeDecodeError are ValueErrors).  A failed
    # decode is a DecodeError, which cmd_decode reports as exit 1.
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
