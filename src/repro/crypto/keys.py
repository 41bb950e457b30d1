"""Key pairs and key identity.

Following the paper (§3.3): "Public keys are identified by their hash
value." A :class:`KeyId` is the SHA-256 hash of the 32-byte public key, and
it is what appears in certificates, rendezvous channels, and endpoint trust
stores.
"""

from __future__ import annotations

import hashlib
import os
from random import Random
from typing import Optional

from repro.crypto import ed25519
from repro.util.memo import BoundedMemo

KEY_ID_SIZE = 32


def key_id(public_key: bytes) -> bytes:
    """The identity of a public key: SHA-256 of its encoding."""
    if len(public_key) != ed25519.PUBLIC_KEY_SIZE:
        raise ValueError(f"public key must be {ed25519.PUBLIC_KEY_SIZE} bytes")
    return hashlib.sha256(public_key).digest()


def object_hash(data: bytes) -> bytes:
    """The hash used to identify signed objects (descriptors, keys)."""
    return hashlib.sha256(data).digest()


class KeyPair:
    """An Ed25519 key pair with its derived identity."""

    def __init__(self, seed: bytes) -> None:
        if len(seed) != ed25519.SEED_SIZE:
            raise ValueError(f"seed must be {ed25519.SEED_SIZE} bytes")
        self._seed = seed
        self.public_key = ed25519.public_key_from_seed(seed)
        self.key_id = key_id(self.public_key)

    @classmethod
    def generate(cls, rng: Optional[Random] = None) -> "KeyPair":
        """Mint a fresh key pair.

        Production keygen draws real OS entropy (keys must be
        unpredictable; this module is simlint's crypto whitelist for
        exactly that reason). Tests and benchmarks pass a seeded
        ``random.Random`` instead so same-seed fleets mint identical
        key ids.
        """
        if rng is not None:
            return cls(rng.randbytes(ed25519.SEED_SIZE))
        return cls(os.urandom(ed25519.SEED_SIZE))

    @classmethod
    def from_name(cls, name: str) -> "KeyPair":
        """Deterministic key pair derived from a label (tests, examples).

        Not for real-world use — convenient for reproducible scenarios.
        """
        return cls(hashlib.sha256(b"packetlab-repro-key:" + name.encode()).digest())

    def sign(self, message: bytes) -> bytes:
        return ed25519.sign(self._seed, message)

    def __repr__(self) -> str:
        return f"<KeyPair {self.key_id.hex()[:12]}>"


# Verification outcomes memoized by digest of (key, message, signature).
# Pure-Python ed25519 verification costs milliseconds, and fleet campaigns
# verify the *same* experimenter certificate chain once per endpoint —
# 10k endpoints would otherwise redo identical big-integer math 10k times.
# Keyed by hash (not the raw triple) to keep entries small; bounded so
# adversarial fuzz inputs cannot grow it without limit.
_VERIFY_CACHE: BoundedMemo = BoundedMemo(4096)


def verify_signature(public_key: bytes, message: bytes, signature: bytes) -> bool:
    digest = hashlib.sha256(
        b"%d:%d:" % (len(public_key), len(message))
        + public_key + message + signature
    ).digest()
    cached = _VERIFY_CACHE.get(digest)
    if cached is not None:
        return cached
    return _VERIFY_CACHE.put(digest, ed25519.verify(public_key, message, signature))
