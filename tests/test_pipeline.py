"""Tests for round orchestration, policies, and aggregate metrics."""

import copy
import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from hybridlm import oracle as oracle_module
from hybridlm import pipeline, seeding
from hybridlm.channel import ChannelSpec
from hybridlm.config import CalibrationConfig, PolicySpec, RunConfig
from hybridlm.compression import compress, reconstruct
from hybridlm.dist import softmax, sort_desc
from hybridlm.oracle import OracleSpec, calibrate, make_oracle, observe
from hybridlm.parallel import fork_map
from hybridlm.pipeline import RoundRecord, metrics, run_many, run_round, run_sequence
from hybridlm.specdec import distorted_resample_dist
from hybridlm.uncertainty import UncertaintyConfig

from helpers import no_children_left, write_trace

FIXED_CH = ChannelSpec(fading="fixed", mean_snr_db=10.0)


def make_cfg(variant="hlm", vocab=128, zipf=4.0, div=1.0, r_max=24, seed=7, **kw):
    policy_kw = {
        k: kw.pop(k) for k in ("u_th", "skip_prob", "k_star", "theta", "eta") if k in kw
    }
    return RunConfig(
        oracle=OracleSpec(
            kind="synthetic", vocab_size=vocab, zipf_s=zipf, divergence=div, seed=11
        ),
        policy=PolicySpec(variant=variant, **policy_kw),
        channel=kw.pop("channel", FIXED_CH),
        uncertainty=kw.pop("uncertainty", UncertaintyConfig(m=10)),
        r_max=r_max,
        seed=seed,
        **kw,
    )


class TestBaselinePolicies:
    def test_hlm_transmits_everything_unbiased(self):
        cfg = make_cfg("hlm", quantize_wire=False)
        rep, recs = run_many(cfg)
        assert rep.tr == 1.0
        assert all(r.delta == 1 for r in recs)
        assert all(r.k_used == 128 for r in recs)
        assert all(r.bias < 1e-10 for r in recs)

    def test_hlm_quantized_bias_small_but_nonzero(self):
        cfg = make_cfg("hlm", quantize_wire=True)
        rep, _ = run_many(cfg)
        assert 0.0 < rep.mean_bias < 0.05

    def test_llm_only_convention(self):
        cfg = make_cfg("llm_only")
        rep, recs = run_many(cfg)
        assert rep.tr == 0.0
        assert rep.tsr is None
        assert all(r.u is None and r.payload_bits == 0 for r in recs)
        assert all(r.latency_s == cfg.latency.tau_llm_s for r in recs)

    def test_slm_only_all_skipped_with_counterfactual(self):
        cfg = make_cfg("slm_only")
        rep, recs = run_many(cfg)
        assert rep.tr == 0.0
        assert all(r.verdict == "skipped" for r in recs)
        assert all(r.counterfactual_accept is not None for r in recs)
        assert all(r.latency_s == cfg.latency.tau_slm_s for r in recs)
        assert rep.tsr is not None

    def test_rand_hlm_extremes(self):
        rep1, _ = run_many(make_cfg("rand_hlm", skip_prob=1.0))
        assert rep1.tr == 0.0
        rep0, _ = run_many(make_cfg("rand_hlm", skip_prob=0.0))
        assert rep0.tr == 1.0

    def test_rand_hlm_intermediate_rate(self):
        cfg = make_cfg("rand_hlm", skip_prob=0.5, r_max=400, vocab=32)
        rep, _ = run_many(cfg)
        assert 0.35 < rep.tr < 0.65


class TestUncertaintyGatedPolicies:
    def test_zero_uncertainty_oracle_skips_everything(self):
        # A near-one-hot base makes every perturbed redraw agree with the
        # draft, so u = 0 and the threshold-0 policy never transmits.
        cfg = make_cfg("u_hlm", zipf=2000.0, u_th=0.0, r_max=30)
        rep, recs = run_many(cfg)
        assert all(r.u == 0.0 for r in recs)
        assert rep.tr == 0.0
        slm = run_many(make_cfg("slm_only", zipf=2000.0, r_max=30))[1]
        assert [r.token for r in recs] == [r.token for r in slm]

    def test_saturated_uncertainty_equals_hlm(self):
        # A near-uniform base at a large vocabulary keeps every redraw
        # disagreement at u = 1, so nothing ever skips and the gated policies
        # reduce to full transmission round for round.
        common = dict(zipf=0.001, div=0.5, vocab=16_384, r_max=24, seed=3)
        hlm = run_many(make_cfg("hlm", **common))[1]
        uhlm = run_many(make_cfg("u_hlm", u_th=0.8, **common))[1]
        offline = run_many(
            make_cfg("cu_hlm_offline", u_th=0.8, k_star=16_384, **common)
        )[1]
        assert all(r.u == 1.0 for r in uhlm)
        for other in (uhlm, offline):
            assert [r.token for r in other] == [r.token for r in hlm]
            assert [r.verdict for r in other] == [r.verdict for r in hlm]

    def test_skip_rule_consistency(self):
        cfg = make_cfg("u_hlm", u_th=0.4, r_max=60)
        _, recs = run_many(cfg)
        for r in recs:
            assert (r.delta == 0) == (r.u <= 0.4)
            if r.delta == 0:
                assert r.payload_bits == 0 and r.verdict == "skipped"

    def test_online_policy_bound_chain(self):
        cal = calibrate(
            OracleSpec(kind="synthetic", vocab_size=128, zipf_s=4.0, divergence=1.0, seed=11),
            400,
            UncertaintyConfig(m=10),
            seed=900,
        )
        cfg = make_cfg("cu_hlm_online", u_th=0.6, theta=0.1, r_max=80)
        _, recs = run_many(cfg, calib=cal)
        tx = [r for r in recs if r.delta == 1]
        assert tx, "expected at least one transmitted round"
        for r in tx:
            assert r.bound_at_selection <= 0.1 + 1e-12
            if not r.fallback_used and r.tvd_pq is not None:
                assert r.tvd_pq <= r.bound_at_selection + 1e-12

    def test_offline_k_star_resolved_from_calibration(self):
        spec = OracleSpec(
            kind="synthetic", vocab_size=128, zipf_s=4.0, divergence=1.0, seed=11
        )
        cal = calibrate(spec, 300, UncertaintyConfig(m=10), seed=901)
        cfg = make_cfg("cu_hlm_offline", u_th=0.3, theta=0.1, r_max=40)
        _, recs = run_many(cfg, calib=cal)
        ks = {r.k_used for r in recs if r.delta == 1}
        assert len(ks) == 1
        assert 1 <= ks.pop() <= 128

    def test_online_autocalibrates_when_needed(self):
        cfg = make_cfg(
            "cu_hlm_online",
            u_th=0.6,
            r_max=20,
            calibration=CalibrationConfig(n_rounds=120),
        )
        rep, recs = run_many(cfg)
        assert rep.n_rounds == 20


class TestCalibrationStreams:
    def test_calibration_and_simulation_draw_disjoint_keys(self, monkeypatch):
        # The calibration seed defaults to the run seed + 1, sequence 1's seed.
        cfg = make_cfg(
            "cu_hlm_online", u_th=0.3, r_max=20, n_sequences=4,
            calibration=CalibrationConfig(n_rounds=40),
        )
        keys = []
        real = seeding.round_rng
        monkeypatch.setattr(seeding, "round_rng", lambda *key: keys.append(key) or real(*key))
        cal = pipeline.calibrate_from_config(cfg)
        calibration_keys = set(keys)
        keys.clear()
        _, recs = run_many(cfg, calib=cal)
        assert len(calibration_keys) >= 40 * 2 and {r.seq for r in recs} == set(range(4))
        assert not calibration_keys & set(keys)

    def test_on_the_fly_calibration_equal_for_any_worker_count(self):
        cfg = make_cfg(
            "cu_hlm_online", u_th=0.3, r_max=10, n_sequences=2,
            calibration=CalibrationConfig(n_rounds=60),
        )
        runs = [run_many(cfg, workers=w)[1] for w in (1, 3)]
        assert [json.dumps(r.to_dict()) for r in runs[0]] == [
            json.dumps(r.to_dict()) for r in runs[1]
        ]


class TestArgsortFreeRounds:
    """Rounds read sorted values only; the sorted id order is never built."""

    @pytest.fixture
    def no_full_argsort(self, monkeypatch):
        real = np.argsort

        def refuse(a, *args, **kwargs):
            if np.size(a) >= 2048:
                raise AssertionError("a full-vocabulary argsort on the round path")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", refuse)

    def test_calibrate_and_transmitting_simulate_without_perm(self, no_full_argsort):
        cal = calibrate(OracleSpec(vocab_size=2048, seed=11), 60, UncertaintyConfig(m=10), seed=5)
        assert len(cal.rows) == 60
        cfg = make_cfg("cu_hlm_online", vocab=2048, u_th=0.0, r_max=40)
        rep, recs = run_many(cfg, calib=cal)
        assert rep.n_rounds == 40 and rep.tr > 0.5
        assert all(r.k_used is not None for r in recs if r.delta == 1)

    def test_skipped_rounds_do_not_sort(self, monkeypatch):
        sorts = []
        real = pipeline.sort_desc
        monkeypatch.setattr(pipeline, "sort_desc", lambda x: sorts.append(x) or real(x))
        _, recs = run_many(make_cfg("u_hlm", u_th=0.4, r_max=60))
        n_tx = sum(r.delta for r in recs)
        assert 0 < n_tx < len(recs)
        assert len(sorts) == n_tx


class TestObserve:
    """``oracle.observe`` is the one step that draws a round's x, d, u and y."""

    def test_reproduces_the_calibration_rows(self):
        # 24 rounds in 8 shards: shard i starts at global round 3i from the
        # empty context, keyed by that global index.
        spec, ucfg = OracleSpec(vocab_size=128, seed=3), UncertaintyConfig(m=10)
        cal = calibrate(spec, 24, ucfg, seed=5)
        streams = (seeding.CALIBRATION_DRAFT, seeding.CALIBRATION_UNCERTAINTY)
        oracle_inst = make_oracle(spec)
        for t in range(0, 24, 3):
            _, x, d, u, y = observe(oracle_inst, [], t, 5, streams, ucfg)
            assert cal.rows[["u", "x_d", "y_d"]][t].tolist() == (u, x.probs[d], y.probs[d])

    def test_skipped_round_is_its_observation(self):
        # No u exceeds u_th = 1, so every round keeps its draft.
        cfg = make_cfg("u_hlm", u_th=1.0)
        oracle_inst = make_oracle(cfg.oracle)
        sequence = [3, 1, 4]
        rec = run_round(5, sequence, oracle_inst, cfg, None, seq_index=2)
        streams = (seeding.DRAFT, seeding.UNCERTAINTY)
        _, _, d, u, _ = observe(oracle_inst, sequence, 5, cfg.seed + 2, streams, cfg.uncertainty)
        assert rec.delta == 0
        assert (rec.u, rec.token) == (u, d)

    def test_every_oracle_round_is_drawn_inside_observe(self, monkeypatch):
        # An online run's 10 rounds and its calibration's 16, each drawn once.
        real_observe = oracle_module.observe
        real_next_round = oracle_module.SyntheticOracle.next_round
        inside, calls = [], []

        def counted_observe(*args):
            inside.append(True)
            try:
                return real_observe(*args)
            finally:
                inside.pop()

        def next_round(self, sequence, t):
            calls.append(bool(inside))
            return real_next_round(self, sequence, t)

        monkeypatch.setattr(oracle_module, "observe", counted_observe)
        monkeypatch.setattr(pipeline, "observe", counted_observe)
        monkeypatch.setattr(oracle_module.SyntheticOracle, "next_round", next_round)
        cfg = make_cfg("cu_hlm_online", u_th=0.5, r_max=10, calibration=CalibrationConfig(16))
        run_many(cfg)
        assert len(calls) == 26 and all(calls)


class TestRoundMemory:
    """Traced peak of one round, in V=32000 float64 vectors (256 KB each)."""

    VOCAB = 32_000

    def traced_peak(self, call) -> tuple:
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak / (self.VOCAB * 8)

    def test_transmitted_round_holds_at_most_four_and_a_half_vectors(self):
        # y is made after estimate_u; the logits, the sorted vector with its
        # prefix sums and the reconstruction are freed before the record
        # diagnostics allocate, x and y are freed before tvd(r, q), and
        # round_bias is a product of the two TVDs. No ProbVec copies an
        # array the round built.
        cfg = make_cfg("cu_hlm_online", vocab=self.VOCAB, u_th=0.0, r_max=12)
        cal = calibrate(cfg.oracle, 10, cfg.uncertainty, seed=3)
        oracle_inst = make_oracle(cfg.oracle)
        sequence, peaks = [], []
        for t in range(cfg.r_max):
            rec, peak = self.traced_peak(
                lambda: run_round(t, sequence, oracle_inst, cfg, cal)
            )
            sequence.append(rec.token)
            if rec.delta == 1:
                peaks.append(peak)
        assert len(peaks) >= 6
        assert max(peaks) <= 4.5

    def test_builders_allocate_their_output_and_no_copy(self):
        # Each builds its output in one new array and adopts it as a ProbVec.
        ri = make_oracle(OracleSpec(vocab_size=self.VOCAB, seed=11)).next_round([], 0)
        x, peak = self.traced_peak(lambda: softmax(ri.slm_logits))
        assert peak < 1.25
        y = softmax(ri.llm_logits)
        d = int(np.argmax(x.probs))
        c = compress(sort_desc(x), 64, d)
        x_hat, peak = self.traced_peak(lambda: reconstruct(c))
        assert peak < 1.25
        (q, fallback), peak = self.traced_peak(lambda: distorted_resample_dist(x_hat, y))
        assert not fallback and peak < 1.25
        for v in (x, x_hat, q):
            assert v.probs.base is None and not v.probs.flags.writeable

    def test_calibrate_round_holds_at_most_four_and_a_half_vectors(self, monkeypatch):
        # No round's vectors outlive it into the next round's oracle draws,
        # and the logits are freed once y is made, after estimate_u. The
        # library's calibrate runs its shards in this process.
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("calibrate forked"))
        spec = OracleSpec(vocab_size=self.VOCAB, seed=11)
        cal, peak = self.traced_peak(lambda: calibrate(spec, 8, UncertaintyConfig(m=10), seed=3))
        assert len(cal.rows) == 8
        assert peak <= 4.5

    def test_next_round_holds_at_most_three_vectors(self):
        # The oracle is made inside the trace: it holds no vector of its own,
        # and the permutation and rank-ordered base are freed before the
        # two noise vectors are drawn.
        spec = OracleSpec(vocab_size=self.VOCAB, seed=11)
        _, peak = self.traced_peak(lambda: make_oracle(spec).next_round([1, 2], 2))
        assert peak <= 3.25


class TestRecordDict:
    RECORDS = [
        RoundRecord(seq=0, round=0, token=3, latency_s=0.1, eos=False),
        RoundRecord(
            seq=2, round=7, u=0.35, delta=1, k_used=40, payload_bits=960,
            snr_linear=9.5, tau_comm_s=1e-4, verdict="rejected", fallback_used=True,
            bias=0.0125, tvd_pq=0.02, bound_at_selection=0.1, token=11, latency_s=0.03,
            eos=True,
        ),
        RoundRecord(seq=1, round=4, u=0.0, token=0, latency_s=0.01,
                    counterfactual_accept=False, eos=False),
    ]

    def test_equals_asdict(self):
        for rec in self.RECORDS:
            got = rec.to_dict()
            assert got == dataclasses.asdict(rec)
            assert list(got) == pipeline.RECORD_FIELDS
            assert [type(v) for v in got.values()] == [
                type(v) for v in dataclasses.asdict(rec).values()
            ]

    def test_copies_nothing(self, monkeypatch):
        # Every field is an immutable scalar, so to_dict needs no copy of any.
        copies = []
        real = copy.deepcopy
        monkeypatch.setattr(copy, "deepcopy", lambda *a, **k: copies.append(a) or real(*a, **k))
        for rec in self.RECORDS:
            rec.to_dict()
        assert copies == []


class TestSequenceMechanics:
    def test_r_max_one(self):
        recs = run_many(make_cfg("hlm", r_max=1))[1]
        assert len(recs) == 1

    def test_eos_stops_sequence(self):
        cfg = RunConfig(
            oracle=OracleSpec(
                kind="synthetic", vocab_size=64, zipf_s=1.0, divergence=0.5,
                eos_prob=0.5, seed=2,
            ),
            policy=PolicySpec(variant="slm_only"),
            channel=FIXED_CH,
            r_max=200,
            seed=5,
        )
        recs = run_many(cfg)[1]
        assert len(recs) < 200
        assert recs[-1].token == 0 and recs[-1].eos

    def test_trace_oracle_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [
            {
                "slm_logits": rng.normal(size=8).tolist(),
                "llm_logits": rng.normal(size=8).tolist(),
            }
            for _ in range(5)
        ]
        path = tmp_path / "t.jsonl"
        write_trace(path, records)
        cfg = RunConfig(
            oracle=OracleSpec(kind="trace", trace_path=str(path), vocab_size=8),
            policy=PolicySpec(variant="hlm"),
            channel=FIXED_CH,
            r_max=100,
            seed=1,
        )
        recs = run_many(cfg)[1]
        assert len(recs) == 5  # exhaustion stops the loop

    def test_run_inputs_resolved_once_per_run(self, monkeypatch):
        # The oracle, the calibration and the offline k* are resolved by
        # run_many, not once per sequence.
        calls = []
        for name in ("make_oracle", "ensure_calibration", "resolve_k_star"):
            real = getattr(pipeline, name)
            monkeypatch.setattr(
                pipeline, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k)
            )
        cfg = make_cfg(
            "cu_hlm_offline", r_max=4, n_sequences=3, calibration=CalibrationConfig(n_rounds=40)
        )
        _, recs = run_many(cfg, workers=1)
        assert {r.seq for r in recs} == {0, 1, 2}
        assert sorted(calls) == ["ensure_calibration", "make_oracle", "resolve_k_star"]

    def test_on_the_fly_calibration_said_on_stderr(self, capsys):
        cfg = make_cfg(
            "cu_hlm_online", u_th=0.5, r_max=4, calibration=CalibrationConfig(n_rounds=40)
        )
        run_many(cfg)
        assert capsys.readouterr().err == (
            "calibrating 40 rounds on the fly; "
            "pass --calib with a `hybridlm calibrate` output to reuse one\n"
        )
        run_many(cfg, calib=pipeline.calibrate_from_config(cfg))
        assert capsys.readouterr().err == ""

    def test_transcript_width_checked_before_calibration(self, monkeypatch):
        monkeypatch.setattr(pipeline, "calibrate", lambda *a, **k: pytest.fail("calibrated"))
        cfg = make_cfg("cu_hlm_online", vocab=65536, u_th=0.0)
        with pytest.raises(ValueError, match="transcript indexes are 16-bit"):
            run_many(cfg, transcript=[])

    def test_trace_parsed_once_per_run(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(1)
        records = [
            {
                "slm_logits": rng.normal(size=8).tolist(),
                "llm_logits": rng.normal(size=8).tolist(),
            }
            for _ in range(6)
        ]
        path = tmp_path / "t.jsonl"
        write_trace(path, records)
        cfg = RunConfig(
            oracle=OracleSpec(kind="trace", trace_path=str(path), vocab_size=8),
            policy=PolicySpec(variant="u_hlm", u_th=0.3),
            channel=FIXED_CH,
            uncertainty=UncertaintyConfig(m=10),
            r_max=100,
            n_sequences=2,
            seed=1,
        )
        # Each sequence replays from the trace's first round, as a sequence
        # run on its own does.
        alone = [
            r.to_dict()
            for i in range(2)
            for r in run_sequence(cfg, make_oracle(cfg.oracle), None, None, seq_index=i)
        ]
        parses = []
        real = oracle_module.read_trace
        monkeypatch.setattr(oracle_module, "read_trace", lambda p: parses.append(p) or real(p))
        _, recs = run_many(cfg)
        assert parses == [str(path)]
        assert len(recs) == 12 and [r.to_dict() for r in recs] == alone

    def test_trace_parsed_once_when_calibrating_on_the_fly(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        records = [
            {
                "slm_logits": rng.normal(scale=2.0, size=64).tolist(),
                "llm_logits": rng.normal(scale=2.0, size=64).tolist(),
            }
            for _ in range(40)
        ]
        path = tmp_path / "t.jsonl"
        write_trace(path, records)
        cfg = RunConfig(
            oracle=OracleSpec(kind="trace", trace_path=str(path), vocab_size=64),
            policy=PolicySpec(variant="cu_hlm_online", u_th=0.3),
            channel=FIXED_CH,
            uncertainty=UncertaintyConfig(m=10),
            calibration=CalibrationConfig(n_rounds=40),
            r_max=100,
            n_sequences=2,
            seed=1,
        )
        # The calibration replays the trace from its first round, as one
        # made with an oracle of its own does; so do both sequences.
        cal = pipeline.calibrate_from_config(cfg)
        expected = [r.to_dict() for r in run_many(cfg, calib=cal)[1]]
        parses = []
        real = oracle_module.read_trace
        monkeypatch.setattr(oracle_module, "read_trace", lambda p: parses.append(p) or real(p))
        _, recs = run_many(cfg)
        assert parses == [str(path)]
        assert len(recs) == 80 and [r.to_dict() for r in recs] == expected

    def test_deterministic_repeats(self):
        cfg = make_cfg("cu_hlm_online", u_th=0.5, r_max=30,
                       calibration=CalibrationConfig(n_rounds=120))
        a = run_many(cfg)[1]
        b = run_many(cfg)[1]
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_records_json_serializable(self):
        _, recs = run_many(make_cfg("cu_hlm_online", u_th=0.5, r_max=10,
                                    calibration=CalibrationConfig(n_rounds=120)))
        for r in recs:
            parsed = json.loads(json.dumps(r.to_dict()))
            assert parsed["round"] == r.round

    def test_multi_sequence_seq_index(self):
        # Flat enough that different sampling seeds actually diverge.
        cfg = make_cfg("slm_only", zipf=1.0, r_max=5, n_sequences=3)
        rep, recs = run_many(cfg)
        assert rep.n_rounds == 15
        assert sorted({r.seq for r in recs}) == [0, 1, 2]
        # Different sequences use different derived seeds.
        toks0 = [r.token for r in recs if r.seq == 0]
        toks1 = [r.token for r in recs if r.seq == 1]
        assert toks0 != toks1


class TestForkMap:
    @pytest.mark.parametrize("kind", ["synthetic", "trace"])
    def test_outputs_equal_for_any_worker_count(self, tmp_path, kind):
        if kind == "trace":
            rng = np.random.default_rng(8)
            path = tmp_path / "t.jsonl"
            write_trace(path, [
                {
                    "slm_logits": rng.normal(scale=2.0, size=32).tolist(),
                    "llm_logits": rng.normal(scale=2.0, size=32).tolist(),
                }
                for _ in range(9)
            ])
            spec = OracleSpec(kind="trace", trace_path=str(path), vocab_size=32)
        else:
            spec = OracleSpec(vocab_size=128, zipf_s=1.0, eos_prob=0.05, seed=3)
        cfg = RunConfig(
            oracle=spec,
            policy=PolicySpec(variant="u_hlm", u_th=0.3),
            channel=ChannelSpec(fading="rayleigh"),
            uncertainty=UncertaintyConfig(m=10),
            r_max=12,
            n_sequences=5,
            seed=2,
        )
        outputs = []
        for workers in (1, 2, 3):
            transcript = []
            report, records = run_many(cfg, transcript=transcript, workers=workers)
            outputs.append((
                "".join(json.dumps(r.to_dict()) + "\n" for r in records),
                json.dumps(report.to_dict()),
                b"".join(transcript),
            ))
        assert outputs[0][2] and {r.seq for r in records} == set(range(5))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        no_children_left()

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_in_item_order(self, workers):
        assert fork_map(lambda i: i * i, range(7), workers) == [i * i for i in range(7)]
        assert fork_map(lambda i: i, [], workers) == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("bad", [{4}, {2, 4}, {1, 3}], ids=["child", "two_children", "parent"])
    def test_exception_of_the_lowest_failing_item_is_raised(self, workers, bad):
        # With 3 workers, this process takes items 0 and 3, child 1 takes 1 and
        # 4, child 2 takes 2 and 5; the list comprehension raises at min(bad).
        def fn(i):
            if i in bad:
                raise KeyError(f"item {i}")
            return i

        with pytest.raises(KeyError, match=f"item {min(bad)}"):
            fork_map(fn, range(6), workers)
        no_children_left()

    def test_child_that_dies_without_a_result(self):
        def fn(i):
            if i == 1:
                os._exit(7)
            return i

        with pytest.raises(ChildProcessError, match="ended with status 7"):
            fork_map(fn, range(4), 2)
        no_children_left()

    @pytest.mark.parametrize("workers, items", [(1, 5), (3, 5), (8, 3), (4, 1)])
    def test_min_of_workers_and_items_processes(self, monkeypatch, workers, items):
        forks = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(real()) or forks[-1])
        pids = fork_map(lambda i: os.getpid(), range(items), workers)
        assert len(set(pids)) == min(workers, items) == len(forks) + 1
        no_children_left()


class TestMetrics:
    def test_all_transmitted(self):
        _, recs = run_many(make_cfg("hlm", r_max=10))
        rep = metrics(recs)
        assert rep.tr == 1.0
        assert rep.acceptance_rate_given_tx is not None

    def test_throughput_definition(self):
        _, recs = run_many(make_cfg("slm_only", r_max=10))
        rep = metrics(recs)
        expected = len(recs) / sum(r.latency_s for r in recs)
        assert rep.mean_throughput_tokens_per_s == pytest.approx(expected)
        assert rep.mean_throughput_tokens_per_s == pytest.approx(1 / 25.6e-3)

    def test_tsr_all_accepted(self):
        cfg = make_cfg("slm_only", div=0.0, r_max=20)
        _, recs = run_many(cfg)
        rep = metrics(recs)
        assert rep.tsr == 1.0  # identical models always accept

    def test_empty_error(self):
        with pytest.raises(ValueError):
            metrics([])

    def test_payload_accounting_identity(self):
        # Mean payload of the online policy relative to full transmission is
        # capped by the transmitted-entry ratio.
        common = dict(vocab=128, r_max=60, seed=9)
        hlm_rep, _ = run_many(make_cfg("hlm", **common))
        cal = calibrate(
            OracleSpec(kind="synthetic", vocab_size=128, zipf_s=4.0, divergence=1.0, seed=11),
            300,
            UncertaintyConfig(m=10),
            seed=902,
        )
        cu_rep, _ = run_many(make_cfg("cu_hlm_online", u_th=0.0, theta=0.1, **common), calib=cal)
        assert cu_rep.mean_payload_bits <= hlm_rep.mean_payload_bits * (
            cu_rep.mean_k + 1
        ) / 128 + 1e-9

    def test_report_fields_ranges(self):
        rep, _ = run_many(make_cfg("u_hlm", u_th=0.4, r_max=40))
        assert 0.0 <= rep.tr <= 1.0
        if rep.tsr is not None:
            assert 0.0 <= rep.tsr <= 1.0
        d = rep.to_dict()
        assert set(d) == {
            "n_rounds", "tr", "tsr", "mean_bias", "mean_throughput_tokens_per_s",
            "mean_k", "mean_payload_bits", "acceptance_rate_given_tx", "bound_violations",
        }

    def test_bound_violations_counted_from_records(self):
        cfg = make_cfg(
            "cu_hlm_online", u_th=0.0, r_max=60, calibration=CalibrationConfig(n_rounds=150)
        )
        rep, recs = run_many(cfg)
        checked = [r for r in recs if r.tvd_pq is not None and r.bound_at_selection is not None]
        assert checked
        assert rep.bound_violations == sum(r.tvd_pq > r.bound_at_selection for r in checked)

    def test_bound_violations_rule(self):
        # Strictly above the bound counts; a round without tvd_pq does not.
        _, recs = run_many(make_cfg("hlm", r_max=4))
        recs = [
            dataclasses.replace(recs[0], tvd_pq=0.2, bound_at_selection=0.1),
            dataclasses.replace(recs[1], tvd_pq=0.1, bound_at_selection=0.1),
            dataclasses.replace(recs[2], tvd_pq=None, bound_at_selection=0.1),
            recs[3],
        ]
        assert metrics(recs).bound_violations == 1
        assert metrics(recs[3:]).bound_violations is None


class TestTelemetryReplay:
    def test_recorded_quantities_rederivable(self):
        # Replay the oracle and keyed streams against the recorded token
        # sequence and re-derive every telemetry field of transmitted rounds,
        # including the full bound chain with the exact-denominator middle
        # term (unquantized wire keeps the chain's scope exact).
        from hybridlm import seeding
        from hybridlm.compression import compress, reconstruct, utv_bound
        from hybridlm.dist import sample, softmax, sort_desc, tvd
        from hybridlm.oracle import make_oracle
        from hybridlm.specdec import distorted_resample_dist, resample_dist, verify_draft
        from hybridlm.verification import hybrid_law_reference

        cfg = make_cfg(
            "cu_hlm_online",
            u_th=0.5,
            theta=0.1,
            vocab=256,
            r_max=60,
            seed=31,
            quantize_wire=False,
            calibration=CalibrationConfig(n_rounds=200),
        )
        _, recs = run_many(cfg)
        oracle_inst = make_oracle(cfg.oracle)
        tokens = [r.token for r in recs]
        checked = 0
        for t, rec in enumerate(recs):
            inputs = oracle_inst.next_round(tokens[:t], t)
            x = softmax(inputs.slm_logits)
            y = softmax(inputs.llm_logits)
            d = sample(x, seeding.round_rng(cfg.seed, t, seeding.DRAFT))
            if rec.delta == 0:
                assert rec.token == d  # skipped rounds keep the draft
                # The counterfactual verdict is the server's own acceptance test.
                cf_rng = seeding.round_rng(cfg.seed, t, seeding.COUNTERFACTUAL)
                verdict = verify_draft(d, float(x.probs[d]), float(y.probs[d]), y, cf_rng)
                assert rec.counterfactual_accept == verdict.accepted
                continue
            s = sort_desc(x)
            x_hat = reconstruct(compress(s, rec.k_used, d))
            q, fallback = distorted_resample_dist(x_hat, y)
            assert fallback == rec.fallback_used
            law = hybrid_law_reference(x, y, q)
            assert rec.bias == pytest.approx(float(np.abs(law - y.probs).sum()), abs=1e-12)
            if tvd(x, y) > 0:
                p = resample_dist(x, y)
                assert rec.tvd_pq == pytest.approx(tvd(p, q), abs=1e-12)
                middle = utv_bound(s, s.rank_of(d), rec.k_used, tvd(x, y))
                assert rec.tvd_pq <= middle + 1e-12
                assert middle <= rec.bound_at_selection + 1e-12
                checked += 1
        assert checked > 0, "expected transmitted rounds to replay"


class TestQuantizationEdges:
    def test_tiny_draft_probability_floored_on_wire(self):
        # Near-uniform vocabulary: every draft quantizes to zero at 8 bits,
        # so the wire floor is what keeps the acceptance ratio defined.
        cfg = make_cfg("hlm", zipf=0.001, div=0.5, vocab=2048, r_max=12, seed=13)
        rep, recs = run_many(cfg)
        assert rep.tr == 1.0
        assert all(r.verdict in ("accepted", "rejected") for r in recs)
        assert all(r.bias is not None and np.isfinite(r.bias) for r in recs)
