"""Tests for payload accounting, fading, latency, and wire quantization."""

import math

import numpy as np
import pytest

from hybridlm.channel import (
    SNR_CEIL,
    ChannelSpec,
    LatencySpec,
    check_transcript_payload,
    decode_round,
    dequantize_prob,
    encode_round,
    payload_bits,
    quantize_prob,
    quantize_vocab,
    round_latency,
    sample_snr,
    uplink_latency,
)
from hybridlm.compression import compress, reconstruct
from hybridlm.config import PolicySpec, RunConfig
from hybridlm.dist import ProbVec, softmax, sort_desc
from hybridlm.oracle import OracleSpec
from hybridlm.pipeline import run_many
from hybridlm.seeding import CHANNEL, round_rng


class TestPayload:
    def test_full_vocabulary_reference_size(self):
        assert payload_bits(1, 8, 32_000) == 8 + 15
        bits = payload_bits(32_000, 8, 32_000)
        assert bits == 736_000
        assert bits / 8 == 92_000  # 92 kB

    def test_zero_entries(self):
        assert payload_bits(0, 8, 32_000) == 0

    def test_thirty_entries(self):
        assert payload_bits(30, 8, 32_000) == 690

    def test_linear_in_entries(self):
        slope = 8 + 10
        for n in (1, 7, 100):
            assert payload_bits(n, 8, 1024) == n * slope

    def test_index_width(self):
        assert payload_bits(1, 8, 1024) == 8 + 10
        assert payload_bits(1, 8, 1025) == 8 + 11

    @pytest.mark.parametrize("b_prob", [8, 12, 16])
    @pytest.mark.parametrize("vocab", [2, 1024, 1025, 32_000])
    def test_other_widths(self, b_prob, vocab):
        for n in (0, 1, 30, vocab):
            assert payload_bits(n, b_prob, vocab) == n * (b_prob + math.ceil(math.log2(vocab)))


class TestSampleSnr:
    def test_fixed(self):
        spec = ChannelSpec(fading="fixed", mean_snr_db=10.0)
        assert sample_snr(spec, np.random.default_rng(0)) == pytest.approx(10.0)

    def test_rayleigh_mean(self):
        spec = ChannelSpec(fading="rayleigh", mean_snr_db=10.0)
        rng = np.random.default_rng(1)
        draws = np.array([sample_snr(spec, rng) for _ in range(1_000_000)])
        assert abs(draws.mean() - 10.0) / 10.0 < 0.01

    def test_rician_mean(self):
        spec = ChannelSpec(fading="rician", mean_snr_db=10.0, rician_k_db=10.0)
        rng = np.random.default_rng(2)
        draws = np.array([sample_snr(spec, rng) for _ in range(200_000)])
        assert abs(draws.mean() - 10.0) / 10.0 < 0.01

    def test_rician_high_k_deterministic_limit(self):
        spec = ChannelSpec(fading="rician", mean_snr_db=10.0, rician_k_db=60.0)
        rng = np.random.default_rng(3)
        draws = np.array([sample_snr(spec, rng) for _ in range(10_000)])
        assert np.all(np.abs(draws - 10.0) / 10.0 < 0.01)

    def test_floor(self):
        spec = ChannelSpec(fading="rayleigh", mean_snr_db=-200.0)
        rng = np.random.default_rng(4)
        assert all(sample_snr(spec, rng) >= 1e-9 for _ in range(100))

    @pytest.mark.parametrize("fading", ["rayleigh", "rician"])
    def test_ceiling(self, fading):
        # A mean of 1e308 (3080 dB) is accepted; a draw above about 1.8 times
        # it would overflow to inf, and the record would hold Infinity.
        spec = ChannelSpec(fading=fading, mean_snr_db=3080.0, rician_k_db=0.0)
        rng = np.random.default_rng(5)
        draws = [sample_snr(spec, rng) for _ in range(500)]
        assert all(math.isfinite(s) for s in draws) and max(draws) == SNR_CEIL

    def test_bad_fading_kind(self):
        with pytest.raises(ValueError):
            ChannelSpec(fading="awgn")

    @pytest.mark.parametrize("key", ["mean_snr_db", "rician_k_db"])
    def test_db_value_must_have_a_finite_linear_value(self, key):
        with pytest.raises(ValueError, match=rf"^{key} must have a finite linear value, got 4000"):
            ChannelSpec(**{key: 4000.0})
        assert getattr(ChannelSpec(**{key: 3080.0}), key) == 3080.0


class TestUplinkLatency:
    def test_reference_value(self):
        tau = uplink_latency(736_000, 10e6, 10.0)
        assert tau == pytest.approx(736_000 / (1e7 * math.log2(11.0)))
        assert tau == pytest.approx(0.021275, abs=1e-5)

    def test_zero_bits(self):
        assert uplink_latency(0, 10e6, 10.0) == 0.0

    def test_unit_case(self):
        assert uplink_latency(1, 1.0, 1.0) == pytest.approx(1.0)

    def test_invalid_snr(self):
        with pytest.raises(ValueError):
            uplink_latency(100, 1e6, 0.0)


class TestRayleighUplinkQuantiles:
    """With X ~ Exp(1), P(tau <= t) = exp(-(2^(bits/(B t)) - 1)/SNR) wherever
    the SNR floor does not bind, so the law of the uplink time has a closed form.

    Its quantiles are compared, not its mean: E[1/log2(1 + SNR X)] diverges
    without the 1e-9 floor, so the sample mean wanders from seed to seed
    while the quantiles hold still.
    """

    BITS, BANDWIDTH, ROUNDS = 736_000, 10e6, 20_000

    @pytest.mark.parametrize("mean_snr_db", [10.0, -10.0])
    def test_quantiles_match_closed_form(self, mean_snr_db):
        spec = ChannelSpec(fading="rayleigh", mean_snr_db=mean_snr_db)
        tau = np.array([
            uplink_latency(
                self.BITS, self.BANDWIDTH, sample_snr(spec, round_rng(3, t, CHANNEL))
            )
            for t in range(self.ROUNDS)
        ])
        snr = spec.mean_snr_linear
        for p in (0.05, 0.25, 0.5, 0.75, 0.95):
            # The closed form solved for the time at which it reaches p.
            t_p = self.BITS / (self.BANDWIDTH * math.log2(1.0 - snr * math.log(p)))
            share = np.count_nonzero(tau <= t_p) / self.ROUNDS
            assert abs(share - p) <= 4.5 * math.sqrt(p * (1.0 - p) / self.ROUNDS)


class TestTokenThroughput:
    """Tokens per second of a round: 1 / round_latency when transmitted."""

    LAT = LatencySpec(tau_slm_s=25.6e-3, tau_llm_s=104.6e-3)

    def test_reference_full_payload(self):
        tau = uplink_latency(736_000, 10e6, 10.0)
        tp = 1.0 / round_latency(self.LAT, tau)
        assert tp == pytest.approx(6.60, abs=0.01)

    def test_skipped(self):
        # The simulator prices a skipped round at tau_slm and a transmitted
        # one at round_latency, bit for bit.
        cfg = RunConfig(
            oracle=OracleSpec(vocab_size=64, seed=3),
            policy=PolicySpec(variant="rand_hlm", skip_prob=0.5),
            latency=self.LAT,
            r_max=20,
        )
        recs = run_many(cfg)[1]
        skipped = [r for r in recs if r.verdict == "skipped"]
        sent = [r for r in recs if r.verdict != "skipped"]
        assert skipped and sent
        for r in skipped:
            assert 1.0 / r.latency_s == pytest.approx(39.0625)
        for r in sent:
            assert r.latency_s == round_latency(self.LAT, r.tau_comm_s)

    def test_vanishes_with_slow_link(self):
        assert 1.0 / round_latency(self.LAT, 1e9) < 1e-8

    def test_strictly_decreasing_in_each_latency(self):
        base = 1.0 / round_latency(self.LAT, 0.01)
        assert 1.0 / round_latency(self.LAT, 0.02) < base
        slower = LatencySpec(tau_slm_s=30e-3, tau_llm_s=104.6e-3)
        assert 1.0 / round_latency(slower, 0.01) < base
        slower = LatencySpec(tau_slm_s=25.6e-3, tau_llm_s=120e-3)
        assert 1.0 / round_latency(slower, 0.01) < base

    def test_rayleigh_mean_below_fixed_snr_value(self):
        # Latency is convex in SNR, so fading averages strictly under the
        # fixed-SNR throughput at the same mean.
        spec = ChannelSpec(fading="rayleigh", mean_snr_db=10.0)
        rng = np.random.default_rng(5)
        bits = 736_000
        fixed_tp = 1.0 / round_latency(self.LAT, uplink_latency(bits, 10e6, 10.0))
        tps = [
            1.0 / round_latency(self.LAT, uplink_latency(bits, 10e6, sample_snr(spec, rng)))
            for _ in range(100_000)
        ]
        assert np.mean(tps) < fixed_tp


class TestQuantization:
    def test_code_round_trip_exact(self):
        for code in (0, 1, 127, 255):
            assert quantize_prob(dequantize_prob(code, 8), 8) == code

    def test_quantize_vocab_preserves_positive_draft(self):
        p = ProbVec(np.array([0.9995, 0.0003, 0.0002]))
        c = compress(sort_desc(p), 1, d=2)
        qc = quantize_vocab(c, 8)
        assert qc.draft_prob == pytest.approx(1 / 255)

    def test_quantize_error_bounded(self):
        rng = np.random.default_rng(6)
        p = ProbVec(rng.dirichlet(np.ones(64)))
        c = compress(sort_desc(p), 16, d=int(np.argmax(p.probs)))
        qc = quantize_vocab(c, 8)
        assert np.max(np.abs(qc.entry_probs - c.entry_probs)) <= 0.5 / 255 + 1e-12

    def test_reconstruct_after_quantization_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = ProbVec(rng.dirichlet(np.full(128, 0.2)) + 1e-12)
            c = compress(sort_desc(p), int(rng.integers(1, 129)), d=int(np.argmax(p.probs)))
            r = reconstruct(quantize_vocab(c, 8))
            assert abs(r.probs.sum() - 1.0) < 1e-9


class TestWireTranscript:
    def test_round_trip(self):
        p = ProbVec(np.array([0.5, 0.25, 0.15, 0.1]))
        c = quantize_vocab(compress(sort_desc(p), 2, d=3), 8)
        blob = encode_round(17, c, 8)
        # header 10 bytes + 3 records (draft outside top-2) of 3 bytes
        assert len(blob) == 10 + 3 * 3
        round_idx, back = decode_round(blob, 8, 4)
        assert round_idx == 17
        assert back.k == c.k
        np.testing.assert_array_equal(back.entry_ids, c.entry_ids)
        np.testing.assert_allclose(back.entry_probs, c.entry_probs, atol=1e-12)
        assert back.draft_id == c.draft_id
        assert back.draft_prob == pytest.approx(c.draft_prob)

    def test_draft_in_topk_no_extra_record(self):
        p = ProbVec(np.array([0.5, 0.25, 0.15, 0.1]))
        c = quantize_vocab(compress(sort_desc(p), 2, d=0), 8)
        blob = encode_round(0, c, 8)
        assert len(blob) == 10 + 2 * 3

    def test_unquantized_draft_code_zero_decodes_floored(self):
        # encode_round writes an unquantized out-of-top-k draft without the
        # one-step floor; decode_round applies it.
        p = ProbVec(np.array([0.9995, 0.0003, 0.0002]))
        blob = encode_round(0, compress(sort_desc(p), 1, d=2), 8)
        assert blob[-3:] == bytes([2, 0, 0])  # index 2 as u16 LE, code 0
        _, back = decode_round(blob, 8, 3)
        assert back.draft_prob == 1 / 255

    def test_accounting_uses_bit_formula(self):
        p = ProbVec(np.array([0.5, 0.25, 0.15, 0.1]))
        c = compress(sort_desc(p), 2, d=3)
        bits = payload_bits(c.n_transmitted, 8, 4)
        assert bits == 3 * (8 + 2)
        blob = encode_round(0, quantize_vocab(c, 8), 8)
        assert bits != len(blob) * 8  # byte-aligned transcript differs


class TestWireCodec:
    """decode_round(encode_round(c)) is quantize_vocab(c), field by field."""

    V = 32_000

    @staticmethod
    def _assert_same(a, b):
        assert (a.k, a.draft_id, a.vocab_size) == (b.k, b.draft_id, b.vocab_size)
        np.testing.assert_array_equal(a.entry_ids, b.entry_ids)
        np.testing.assert_array_equal(a.entry_probs, b.entry_probs)
        assert a.draft_prob == b.draft_prob

    def _payload(self, k, draft_rank):
        rng = np.random.default_rng(k + draft_rank)
        logits = -1.2 * np.log(np.arange(1, self.V + 1)) + rng.normal(0.0, 0.5, self.V)
        s = sort_desc(softmax(rng.permutation(logits)))
        c = compress(s, k, d=int(s.perm[draft_rank]))
        assert c.draft_in_topk == (draft_rank < k)
        return c

    @pytest.mark.parametrize(
        "k, draft_rank",
        [(1, 0), (1, 5_000), (12, 3), (12, 20_000), (V, 0), (V, V - 1)],
        ids=["k1_inside", "k1_outside", "k12_inside", "k12_outside", "kV_top", "kV_last"],
    )
    def test_decode_of_encode_is_quantize_vocab(self, k, draft_rank):
        c = self._payload(k, draft_rank)
        q = quantize_vocab(c, 8)
        for payload in (c, q):
            round_idx, back = decode_round(encode_round(9, payload, 8), 8, self.V)
            assert round_idx == 9
            self._assert_same(back, q)

    @pytest.mark.parametrize("b_prob", [1, 4, 8])
    @pytest.mark.parametrize(
        "k, draft_rank", [(1, 5_000), (12, 3), (12, 20_000)], ids=["k1", "k12_in", "k12_out"]
    )
    def test_round_trip_at_width(self, b_prob, k, draft_rank):
        c = self._payload(k, draft_rank)
        q = quantize_vocab(c, b_prob)
        if not c.draft_in_topk:
            # The draft's code is 0 at these ranks; the floor lifts it one step.
            assert quantize_prob(c.draft_prob, b_prob) == 0
            assert q.draft_prob == 1 / ((1 << b_prob) - 1)
        round_idx, back = decode_round(encode_round(4, q, b_prob), b_prob, self.V)
        assert round_idx == 4
        self._assert_same(back, q)

    def test_wider_than_a_byte_rejected(self):
        c = quantize_vocab(self._payload(12, 3), 12)
        with pytest.raises(ValueError, match="transcript records store probabilities in one byte"):
            encode_round(0, c, 12)
        with pytest.raises(ValueError, match="transcript indexes are 16-bit"):
            check_transcript_payload(8, 0x10000)

    def test_codes_elementwise(self):
        p = np.random.default_rng(3).random(200)
        codes = quantize_prob(p, 8)
        assert codes.tolist() == [int(round(v * 255)) for v in p]
        assert dequantize_prob(codes, 8).tolist() == [c / 255 for c in codes.tolist()]
        assert quantize_prob(float(p[0]), 8) == codes[0]
