"""Uplink modeling: payload bits, block-fading SNR, Shannon latency, round latency.

Only the vocabulary-distribution uplink is priced; token-index exchanges and
the downlink are treated as free. Probabilities cross the wire as fixed-point
integers of ``b_prob`` bits.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .compression import CompressedVocab

# Deep fades keep rounds finite rather than stalling the simulation.
SNR_FLOOR = 1e-9

FADING_KINDS = ("fixed", "rayleigh", "rician")


@dataclass(frozen=True)
class ChannelSpec:
    fading: str = "rayleigh"
    mean_snr_db: float = 10.0
    bandwidth_hz: float = 10e6
    rician_k_db: float = 10.0

    def __post_init__(self) -> None:
        if self.fading not in FADING_KINDS:
            raise ValueError(f"fading must be one of {FADING_KINDS}, got {self.fading!r}")
        if not self.bandwidth_hz > 0.0:
            raise ValueError("bandwidth must be positive")

    @property
    def mean_snr_linear(self) -> float:
        return 10.0 ** (self.mean_snr_db / 10.0)


@dataclass(frozen=True)
class LatencySpec:
    tau_slm_s: float = 25.6e-3
    tau_llm_s: float = 104.6e-3

    def __post_init__(self) -> None:
        if not (self.tau_slm_s > 0.0 and self.tau_llm_s > 0.0):
            raise ValueError("compute latencies must be positive")


def payload_bits(n_entries: int, b_prob: int, vocab_size: int) -> int:
    """Uplink payload for n transmitted records of a b_prob-bit probability
    and a ceil(log2 V)-bit token index."""
    if n_entries < 0:
        raise ValueError("entry count must be non-negative")
    return n_entries * (b_prob + math.ceil(math.log2(vocab_size)))


def sample_snr(spec: ChannelSpec, rng: np.random.Generator) -> float:
    """One block-fading SNR draw, floored to keep latency finite."""
    mean = spec.mean_snr_linear
    if spec.fading == "fixed":
        snr = mean
    elif spec.fading == "rayleigh":
        snr = mean * rng.exponential(1.0)
    else:
        k = 10.0 ** (spec.rician_k_db / 10.0)
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        re = los + rng.normal(0.0, sigma)
        im = rng.normal(0.0, sigma)
        snr = mean * (re * re + im * im)
    return float(max(snr, SNR_FLOOR))


def uplink_latency(bits: int, bandwidth_hz: float, snr_linear: float) -> float:
    """Shannon-capacity transmission time; zero bits cost zero seconds."""
    if bits == 0:
        return 0.0
    if not snr_linear > 0.0:
        raise ValueError("SNR must be positive")
    return bits / (bandwidth_hz * math.log2(1.0 + snr_linear))


def round_latency(lat: LatencySpec, tau_comm_s: float) -> float:
    """Seconds of one transmitted round: draft, uplink, then verification."""
    return lat.tau_slm_s + tau_comm_s + lat.tau_llm_s


def quantize_prob(p, b_prob: int):
    """Linear fixed-point code round(p * (2^b - 1)), elementwise."""
    return np.round(np.multiply(p, (1 << b_prob) - 1)).astype(np.int64)


def dequantize_prob(code, b_prob: int):
    """The probability a code stands for, elementwise."""
    return np.divide(code, (1 << b_prob) - 1)


def _draft_prob(code, b_prob: int) -> float:
    """The draft's wire value, floored at one code step: the acceptance test divides by it."""
    return float(dequantize_prob(max(code, 1), b_prob))


def quantize_vocab(c: CompressedVocab, b_prob: int) -> CompressedVocab:
    """Wire-quantized payload with dequantized values and a floored draft entry."""
    return replace(
        c,
        entry_probs=dequantize_prob(quantize_prob(c.entry_probs, b_prob), b_prob),
        draft_prob=_draft_prob(quantize_prob(c.draft_prob, b_prob), b_prob),
    )


# Byte-exact transcript format: little-endian header
# {round: u32, draft_index: u16, k: u16, n_entries: u16} followed by
# n_entries records of {index: u16, prob_q: u8}: the top-k entries, then the
# draft's entry when it sits outside the top-k. Payload *accounting* always
# uses the bit formula above, never this byte-aligned size.
_HEADER = struct.Struct("<IHHH")
_RECORD = np.dtype([("index", "<u2"), ("prob_q", "u1")])


def check_transcript_payload(b_prob: int, vocab_size: int) -> None:
    """Reject payloads the transcript records cannot hold."""
    if b_prob > 8:
        raise ValueError("transcript records store probabilities in one byte")
    if vocab_size > 0xFFFF:
        raise ValueError("transcript indexes are 16-bit")


def encode_round(round_idx: int, c: CompressedVocab, b_prob: int) -> bytes:
    """One round's transcript bytes, every value coded with ``quantize_prob``.

    An out-of-top-k draft of an unquantized payload is written without the
    one-step floor, so its code can be 0; ``decode_round`` applies the floor.
    """
    check_transcript_payload(b_prob, c.vocab_size)
    rec = np.empty(c.n_transmitted, dtype=_RECORD)
    rec["index"][: c.k] = c.entry_ids
    rec["prob_q"][: c.k] = quantize_prob(c.entry_probs, b_prob)
    if not c.draft_in_topk:
        rec[-1] = (c.draft_id, quantize_prob(c.draft_prob, b_prob))
    return _HEADER.pack(round_idx, c.draft_id, c.k, rec.size) + rec.tobytes()


def decode_round(blob: bytes, b_prob: int, vocab_size: int) -> tuple[int, CompressedVocab]:
    """Inverse of ``encode_round``, with the draft floored as in ``quantize_vocab``."""
    round_idx, draft_id, k, n_entries = _HEADER.unpack_from(blob, 0)
    rec = np.frombuffer(blob, dtype=_RECORD, count=n_entries, offset=_HEADER.size)
    ids, codes = rec["index"].astype(int), rec["prob_q"]
    # The draft's code is its top-k entry's, or else the last record's.
    draft_code = np.append(codes[:k][ids[:k] == draft_id], codes[-1])[0]
    c = CompressedVocab(
        k=k,
        entry_ids=ids[:k],
        entry_probs=dequantize_prob(codes[:k], b_prob),
        draft_id=draft_id,
        draft_prob=_draft_prob(draft_code, b_prob),
        vocab_size=vocab_size,
    )
    return round_idx, c
