"""Tests for the keyed RNG streams and the sequence fingerprint."""

import hashlib

import numpy as np

from hybridlm.seeding import sequence_fingerprint


def per_token_fingerprint(tokens):
    """The fingerprint as one blake2b update per 4-byte little-endian token."""
    h = hashlib.blake2b(digest_size=8)
    for t in tokens:
        h.update(int(t).to_bytes(4, "little", signed=False))
    return int.from_bytes(h.digest(), "little")


class TestSequenceFingerprint:
    def test_matches_per_token_updates(self):
        rng = np.random.default_rng(8)
        for n in range(301):
            tokens = [int(t) for t in rng.integers(0, 65_536, size=n)]
            assert sequence_fingerprint(tokens) == per_token_fingerprint(tokens), n

    def test_extreme_tokens(self):
        for tokens in ([], [0], [65_535], [0, 65_535] * 150):
            assert sequence_fingerprint(tokens) == per_token_fingerprint(tokens)

    def test_order_matters(self):
        assert sequence_fingerprint([1, 2]) != sequence_fingerprint([2, 1])
