"""Padded uniform random blobs.

Multi-suite, multi-recipient encrypted blobs indistinguishable from
random bits, padded to limit length leakage, plus tooling to measure the
size-anonymity a padding scheme buys on a dataset.
"""

from .codec import (
    DecodeError,
    EncodeReport,
    Identity,
    Recipient,
    decode,
    encode_detailed,
)
from .padding import PadSpec
from .rng import seeded_rng, system_rng
from .suites import KeyPair, default_registry, keygen

__all__ = [
    "DecodeError",
    "EncodeReport",
    "Identity",
    "KeyPair",
    "PadSpec",
    "Recipient",
    "decode",
    "default_registry",
    "encode_detailed",
    "keygen",
    "seeded_rng",
    "system_rng",
]

__version__ = "0.1.0"
