"""Keyed RNG streams for reproducible simulation.

Every random decision draws from a generator keyed by (run seed, round
index, stream id), so outcomes are independent of evaluation order: sweeps
can parallelize across runs, and consuming one stream never perturbs
another. Stream ids name the decision they feed.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

DRAFT = 0
UNCERTAINTY = 1
SKIP = 2
CHANNEL = 3
VERIFY = 4
COUNTERFACTUAL = 5

# Calibration rounds draw from streams of their own: a simulation sequence is
# keyed by the run seed + its index, and the calibration seed defaults to the
# run seed + 1, so shared ids would make sequence 1 redraw calibration rounds.
CALIBRATION_DRAFT = 6
CALIBRATION_UNCERTAINTY = 7
CALIBRATION_VERIFY = 8

# Oracle substreams are keyed by context fingerprint instead of round index.
ORACLE_PERM = 10
ORACLE_NOISE_SLM = 11
ORACLE_NOISE_LLM = 12


def round_rng(seed: int, round_idx: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, round_idx, stream)))


def context_rng(seed: int, fingerprint: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, fingerprint, stream)))


def sequence_fingerprint(tokens: list[int]) -> int:
    """Stable 64-bit hash of a token sequence, identical across processes.

    The tokens are hashed as one buffer of little-endian uint32s, which
    gives the same digest as hashing them one 4-byte update at a time.
    """
    packed = struct.pack(f"<{len(tokens)}I", *tokens)
    return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little")
