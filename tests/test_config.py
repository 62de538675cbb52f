"""Tests for the run configuration document."""

import pytest

from hybridlm.channel import ChannelSpec, LatencySpec
from hybridlm.config import CalibrationConfig, PolicySpec, RunConfig
from hybridlm.oracle import OracleSpec
from hybridlm.pipeline import run_many


class TestDefaults:
    def test_standard_constants(self):
        cfg = RunConfig()
        assert cfg.channel.bandwidth_hz == 10e6
        assert cfg.b_prob == 8
        assert cfg.r_max == 512
        assert cfg.uncertainty.m == 20
        assert cfg.uncertainty.theta_max == 2.0
        assert cfg.latency.tau_slm_s == pytest.approx(25.6e-3)
        assert cfg.latency.tau_llm_s == pytest.approx(104.6e-3)
        assert cfg.oracle.vocab_size == 32_000
        assert cfg.policy.u_th == 0.8
        assert cfg.policy.theta == 0.1
        assert cfg.policy.eta == 10.0

    def test_payload_derived_from_oracle(self):
        # Each full-vocabulary record carries b_prob bits and a 10-bit index at V=1024.
        cfg = RunConfig(
            oracle=OracleSpec(kind="synthetic", vocab_size=1024),
            policy=PolicySpec(variant="hlm"),
            r_max=3,
        )
        assert {r.payload_bits for r in run_many(cfg)[1]} == {1024 * (8 + 10)}


class TestValidation:
    def test_policy_variant(self):
        with pytest.raises(ValueError):
            PolicySpec(variant="magic")

    def test_policy_ranges(self):
        with pytest.raises(ValueError):
            PolicySpec(u_th=1.5)
        with pytest.raises(ValueError):
            PolicySpec(skip_prob=-0.1)
        with pytest.raises(ValueError):
            PolicySpec(k_star=0)

    def test_k_star_at_most_vocab_size(self):
        oracle = OracleSpec(vocab_size=2048)
        assert RunConfig(oracle=oracle, policy=PolicySpec(k_star=2048)).policy.k_star == 2048
        with pytest.raises(ValueError, match=r"^k_star must be <= vocab_size \(2048\), got 2049$"):
            RunConfig(oracle=oracle, policy=PolicySpec(k_star=2049))

    def test_wire_and_softplus_ranges(self):
        with pytest.raises(ValueError, match="^vocabulary size must be >= 2$"):
            OracleSpec(vocab_size=1)
        with pytest.raises(ValueError, match="^b_prob must be >= 1$"):
            RunConfig(b_prob=0)
        for eta in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="^eta must be positive$"):
                PolicySpec(eta=eta)

    @pytest.mark.parametrize("vocab_size", [2**32 + 1, 2**62])
    def test_vocab_size_at_most_2_to_32(self, vocab_size):
        # Token ids are fingerprinted as uint32. Only the document is decoded
        # here: one round at such a vocabulary would need tens of GB.
        with pytest.raises(ValueError, match=r"^vocabulary size must be <= 2\*\*32$"):
            RunConfig.from_dict({"oracle": {"vocab_size": vocab_size}})
        assert RunConfig.from_dict({"oracle": {"vocab_size": 2**32}}).oracle.vocab_size == 2**32

    @pytest.mark.parametrize("b_prob", [54, 64, 200])
    def test_b_prob_at_most_53(self, b_prob):
        # Beyond 53 bits 2^b - 1 is not exact in float64; from 64 the int64 codes wrap.
        with pytest.raises(ValueError, match=r"^b_prob must be <= 53$"):
            RunConfig.from_dict({"b_prob": b_prob})
        assert RunConfig.from_dict({"b_prob": 53}).b_prob == 53

    def test_theta_positive(self):
        for theta in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="theta must be positive"):
                PolicySpec(theta=theta)

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["NaN", "Infinity", "-Infinity", "1e400", "int_400_digits"],
    )
    def test_non_finite_float_names_its_key(self, literal):
        # json reads the first four as floats, which an int-typed field rejects
        # too; the 400-digit integer is neither an int64 nor a finite float.
        for doc, key in (
            ('{"channel": {"mean_snr_db": %s}}', "channel.mean_snr_db"),
            ('{"calibration": {"delta_u_gate": %s}}', "calibration.delta_u_gate"),
            ('{"r_max": %s}', "r_max"),
        ):
            with pytest.raises(ValueError, match=rf"^{key}: expected "):
                RunConfig.from_json(doc % literal)

    def test_worst_round_time_must_be_finite(self):
        # tau_slm_s + tau_llm_s + payload_bits(V, 8, V) / (bandwidth_hz * log2(1 + SNR_FLOOR))
        for kw in (
            {"latency": LatencySpec(tau_slm_s=1e308, tau_llm_s=1e308)},
            {"channel": ChannelSpec(bandwidth_hz=1e-300)},
            {"channel": ChannelSpec(bandwidth_hz=5e-324)},  # the rate underflows to 0
        ):
            with pytest.raises(ValueError, match="^a round's worst-case time overflows"):
                RunConfig(**kw)
        RunConfig(latency=LatencySpec(tau_slm_s=1e307, tau_llm_s=1e307))
        RunConfig(channel=ChannelSpec(bandwidth_hz=1e-290))

    def test_run_ranges(self):
        with pytest.raises(ValueError):
            RunConfig(r_max=0)
        with pytest.raises(ValueError):
            RunConfig(n_sequences=0)


class TestRoundTrip:
    def test_json_round_trip_defaults(self):
        cfg = RunConfig()
        assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_json_round_trip_custom(self):
        cfg = RunConfig(
            oracle=OracleSpec(kind="synthetic", vocab_size=64, zipf_s=2.0, seed=3),
            policy=PolicySpec(variant="cu_hlm_offline", u_th=0.5, k_star=12),
            calibration=CalibrationConfig(n_rounds=500, seed=77),
            r_max=32,
            seed=9,
            quantize_wire=False,
        )
        back = RunConfig.from_json(cfg.to_json())
        assert back == cfg
        assert back.policy.k_star == 12

    def test_partial_document_gets_defaults(self):
        cfg = RunConfig.from_json('{"seed": 4, "policy": {"variant": "hlm"}}')
        assert cfg.seed == 4
        assert cfg.policy.variant == "hlm"
        assert cfg.r_max == 512
