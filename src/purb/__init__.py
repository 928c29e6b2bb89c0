"""Padded uniform random blobs.

Multi-suite, multi-recipient encrypted blobs indistinguishable from
random bits, padded to limit length leakage, plus tooling to measure the
size-anonymity a padding scheme buys on a dataset.
"""

from .codec import (
    DecodeError,
    DecodeStats,
    EncodeReport,
    Identity,
    Meta,
    Recipient,
    decode,
    encode_detailed,
)
from .padding import PadSpec, leakage_bits, overhead, padme_len
from .rng import seeded_rng, system_rng
from .suites import (
    KeyPair,
    Registry,
    SuiteSpec,
    decap,
    default_registry,
    encap,
    keygen,
    password_secret,
)

__all__ = [
    "DecodeError",
    "DecodeStats",
    "EncodeReport",
    "Identity",
    "KeyPair",
    "Meta",
    "PadSpec",
    "Recipient",
    "Registry",
    "SuiteSpec",
    "decap",
    "decode",
    "default_registry",
    "encap",
    "encode_detailed",
    "keygen",
    "leakage_bits",
    "overhead",
    "padme_len",
    "password_secret",
    "seeded_rng",
    "system_rng",
]

__version__ = "0.1.0"
