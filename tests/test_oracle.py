"""Tests for the synthetic/trace oracles and calibration."""

import os
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from hybridlm import oracle, seeding
from hybridlm.dist import softmax, sort_desc, tvd
from hybridlm.oracle import (
    EOS_TOKEN,
    PAIRS,
    OracleSpec,
    SyntheticOracle,
    TraceExhausted,
    TraceOracle,
    calibrate,
    load_calibration,
    make_oracle,
    read_trace,
    save_calibration,
)
from hybridlm.uncertainty import UncertaintyConfig

from helpers import write_trace


def synth(vocab=256, zipf=4.0, div=1.0, seed=0, eos=0.0):
    return OracleSpec(
        kind="synthetic",
        vocab_size=vocab,
        zipf_s=zipf,
        divergence=div,
        eos_prob=eos,
        seed=seed,
    )


class TestOracleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleSpec(kind="neural")
        with pytest.raises(ValueError):
            OracleSpec(kind="synthetic", zipf_s=0.0)
        with pytest.raises(ValueError):
            OracleSpec(kind="synthetic", divergence=-1.0)
        with pytest.raises(ValueError):
            OracleSpec(kind="synthetic", eos_prob=1.0)
        with pytest.raises(ValueError):
            OracleSpec(kind="trace", trace_path=None)


class TestSyntheticOracle:
    def test_zero_divergence_identical_models(self):
        o = SyntheticOracle(synth(div=0.0))
        ri = o.next_round([1, 2, 3], 3)
        np.testing.assert_array_equal(ri.slm_logits, ri.llm_logits)
        x = softmax(ri.slm_logits)
        y = softmax(ri.llm_logits)
        assert tvd(x, y) == 0.0

    def test_deterministic_given_seed_and_sequence_whatever_the_round(self):
        a = SyntheticOracle(synth(seed=5)).next_round([4, 9], 2)
        b = SyntheticOracle(synth(seed=5)).next_round([4, 9], 700)
        np.testing.assert_array_equal(a.slm_logits, b.slm_logits)
        np.testing.assert_array_equal(a.llm_logits, b.llm_logits)

    def test_different_sequences_differ(self):
        o = SyntheticOracle(synth(seed=5))
        a = o.next_round([1], 1)
        b = o.next_round([2], 1)
        assert not np.array_equal(a.slm_logits, b.slm_logits)

    def test_divergence_monotone_in_mean_tvd(self):
        tvds = {}
        for div in (0.5, 2.0):
            o = SyntheticOracle(synth(vocab=512, zipf=1.0, div=div, seed=7))
            seq = []
            vals = []
            for t in range(300):
                ri = o.next_round(seq, t)
                vals.append(tvd(softmax(ri.slm_logits), softmax(ri.llm_logits)))
                seq.append(t % 512)
            tvds[div] = np.mean(vals)
        assert tvds[2.0] > tvds[0.5]

    def test_long_tail_concentration(self):
        # Residual mass decreases in k, and for steep exponents the top-10
        # ranks dominate. (At zipf_s near 1 the pure power-law top-10 mass
        # is provably below one half, so the concentration claim is checked
        # from 1.5 up.)
        for zipf in (1.5, 2.0, 4.0):
            o = SyntheticOracle(synth(vocab=1024, zipf=zipf, div=1.0, seed=3))
            seq = []
            for t in range(20):
                ri = o.next_round(seq, t)
                s = sort_desc(softmax(ri.slm_logits))
                masses = s.prefix[1:]
                assert np.all(np.diff(masses) >= 0)
                assert s.prefix[10] > 0.5
                seq.append(t % 1024)

    def test_eos_mass_injected(self):
        o = SyntheticOracle(synth(vocab=64, eos=0.25, seed=1))
        ri = o.next_round([], 0)
        x = softmax(ri.slm_logits)
        assert x.probs[EOS_TOKEN] >= 0.25 - 1e-9

    def test_eos_mixture_underflow_stays_finite(self):
        # At zipf_s 100 the mixture underflows to 0 below the first few
        # ranks; log 0 used to give -inf logits and a divide warning.
        o = SyntheticOracle(synth(vocab=2048, zipf=100.0, eos=0.05, seed=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ri = o.next_round([], 0)
        for z in (ri.slm_logits, ri.llm_logits):
            assert np.all(np.isfinite(z))
            assert softmax(z).probs[EOS_TOKEN] >= 0.05 - 1e-9

    def test_eos_underflowed_entries_take_log_space_value(self):
        o = SyntheticOracle(synth(vocab=4, eos=0.25))
        z = np.array([-3.0, 0.0, -800.0, -2.0])
        w = z - z.max()
        x = np.exp(w) / np.exp(w).sum() * 0.75
        x[EOS_TOKEN] += 0.25
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = o._inject_eos(z)
        kept = [0, 1, 3]
        np.testing.assert_array_equal(out[kept], np.log(x[kept]))
        assert out[2] == pytest.approx(np.log(0.75) - 800.0 - np.log(np.exp(w).sum()))

    @pytest.mark.parametrize("eos", [0.0, 0.05])
    @pytest.mark.parametrize("div", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("zipf", [1.5, 4.0])
    @pytest.mark.parametrize("vocab", [2, 4097, 32_000])
    def test_base_built_per_round_matches_cached_base(self, vocab, zipf, div, eos):
        # The reference caches the rank-ordered base -s·log(r) once and
        # scatters it through the round's permutation before adding noise.
        spec = synth(vocab=vocab, zipf=zipf, div=div, eos=eos, seed=9)
        base_sorted = -zipf * np.log(np.arange(1, vocab + 1, dtype=np.float64))
        o = SyntheticOracle(spec)
        for sequence in ([], [3, 1]):
            fp = seeding.sequence_fingerprint(sequence)
            base = np.empty(vocab)
            perm = seeding.context_rng(spec.seed, fp, seeding.ORACLE_PERM).permutation(vocab)
            base[perm] = base_sorted
            ri = o.next_round(sequence, len(sequence))
            for key, got in (
                (seeding.ORACLE_NOISE_SLM, ri.slm_logits),
                (seeding.ORACLE_NOISE_LLM, ri.llm_logits),
            ):
                noise = seeding.context_rng(spec.seed, fp, key).standard_normal(vocab)
                want = noise * div + base
                if eos > 0.0:
                    want = o._inject_eos(want)
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_holds_only_its_spec(self):
        # No vocabulary-sized array lives between rounds or travels in a pickle.
        spec = synth(vocab=32_000)
        o = make_oracle(spec)
        assert vars(o) == {"spec": spec}
        assert len(pickle.dumps(o)) < 1024


class TestTraceOracle:
    def _write(self, tmp_path, n=3, vocab=4):
        rng = np.random.default_rng(0)
        records = [
            {
                "slm_logits": rng.normal(size=vocab).tolist(),
                "llm_logits": rng.normal(size=vocab).tolist(),
            }
            for _ in range(n)
        ]
        records[-1]["eos"] = True
        path = tmp_path / "trace.jsonl"
        write_trace(path, records)
        return path, records

    def test_replay_order_and_eos(self, tmp_path):
        path, records = self._write(tmp_path)
        o = TraceOracle(OracleSpec(kind="trace", trace_path=str(path), vocab_size=4))
        for i, rec in enumerate(records):
            ri = o.next_round(list(range(i)), i)
            np.testing.assert_allclose(ri.slm_logits, rec["slm_logits"])
            assert ri.eos == bool(rec.get("eos", False))

    def test_exhaustion_signal(self, tmp_path):
        path, _ = self._write(tmp_path, n=2)
        o = TraceOracle(OracleSpec(kind="trace", trace_path=str(path), vocab_size=4))
        o.next_round([], 0)
        o.next_round([0], 1)
        with pytest.raises(TraceExhausted):
            o.next_round([0, 1], 2)

    def test_round_t_is_line_t_whatever_was_asked_before(self, tmp_path):
        path, records = self._write(tmp_path, n=4)
        o = TraceOracle(OracleSpec(kind="trace", trace_path=str(path), vocab_size=4))
        for t in (3, 0, 3):
            ri = o.next_round([], t)
            np.testing.assert_array_equal(ri.slm_logits, records[t]["slm_logits"])
            np.testing.assert_array_equal(ri.llm_logits, records[t]["llm_logits"])
            assert ri.eos == (t == 3)

    def test_make_oracle_dispatch(self, tmp_path):
        path, _ = self._write(tmp_path)
        assert isinstance(make_oracle(synth()), SyntheticOracle)
        spec = OracleSpec(kind="trace", trace_path=str(path), vocab_size=4)
        assert isinstance(make_oracle(spec), TraceOracle)

    def test_vocab_mismatch_rejected(self, tmp_path):
        path, _ = self._write(tmp_path, vocab=4)
        with pytest.raises(ValueError, match="vocabulary size"):
            TraceOracle(OracleSpec(kind="trace", trace_path=str(path), vocab_size=8))

    @pytest.mark.parametrize("key", ["slm_logits", "llm_logits"])
    def test_nonfinite_logits_rejected_at_load(self, tmp_path, key):
        path, records = self._write(tmp_path, n=40)
        records[30][key][2] = float("nan")
        write_trace(path, records)
        spec = OracleSpec(kind="trace", trace_path=str(path), vocab_size=4)
        with pytest.raises(ValueError, match=f"line 31: {key}: .*non-finite"):
            make_oracle(spec)

    def test_read_trace_holds_float64_arrays(self, tmp_path):
        # JSON lists of Python floats take about 4x the vectors' float64 bytes.
        vocab, n = 2048, 200
        path, _ = self._write(tmp_path, n=n, vocab=vocab)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = read_trace(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1.5 * (2 * vocab * n * 8)
        assert all(r.slm_logits.dtype == r.llm_logits.dtype == np.float64 for r in records)

    @pytest.mark.parametrize("line", ["[1, 2]", '{"slm_logits": [0.0, 1.0, 2.0, 3.0]}'])
    def test_record_without_both_logit_vectors_rejected(self, tmp_path, line):
        path, _ = self._write(tmp_path)
        path.write_text(path.read_text() + line + "\n")
        spec = OracleSpec(kind="trace", trace_path=str(path), vocab_size=4)
        with pytest.raises(ValueError, match="line 4: expected an object"):
            make_oracle(spec)


class TestCalibrate:
    def test_zero_divergence_degenerate(self):
        cal = calibrate(synth(vocab=128, div=0.0, seed=2), 100, UncertaintyConfig(m=10), seed=2)
        assert cal.delta_hat == 0.0
        betas = cal.rows["beta"]
        assert max(betas) == 0.0
        assert abs(cal.model.a) < 1e-9 and abs(cal.model.b) < 1e-9
        # All rounds have x = y, so no bound averages exist.
        assert np.all(np.isnan(cal.utv_values))

    def test_positive_slope_and_correlation(self):
        cal = calibrate(synth(vocab=512, div=1.0, seed=4), 600, UncertaintyConfig(), seed=4)
        assert cal.model.a > 0.0
        u, b = cal.rows["u"], cal.rows["beta"]
        assert np.corrcoef(u, b)[0, 1] > 0.3
        assert 0.0 < cal.delta_hat < 1.0

    def test_correlation_across_divergences(self):
        for div, floor in ((0.5, 0.3), (1.0, 0.3), (2.0, 0.0)):
            cal = calibrate(synth(vocab=512, div=div, seed=8), 600, UncertaintyConfig(), seed=8)
            u, b = cal.rows["u"], cal.rows["beta"]
            assert np.corrcoef(u, b)[0, 1] > floor

    def test_utv_table_zero_at_full_vocab(self):
        cal = calibrate(synth(vocab=128, seed=5), 80, UncertaintyConfig(m=5), seed=5)
        assert cal.utv_k_grid[-1] == 128
        assert cal.utv_values[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(cal.utv_values >= 0.0)

    def test_deterministic(self):
        a = calibrate(synth(vocab=64, seed=6), 50, UncertaintyConfig(m=5), seed=9)
        b = calibrate(synth(vocab=64, seed=6), 50, UncertaintyConfig(m=5), seed=9)
        np.testing.assert_array_equal(a.rows[["u", "beta"]], b.rows[["u", "beta"]])
        assert a.delta_hat == b.delta_hat
        np.testing.assert_array_equal(a.utv_values, b.utv_values)

    def test_delta_gate(self):
        spec = synth(vocab=128, seed=7)
        full = calibrate(spec, 200, UncertaintyConfig(m=10), seed=7)
        gated = calibrate(spec, 200, UncertaintyConfig(m=10), seed=7, delta_u_gate=0.5)
        assert 0.0 <= gated.delta_hat <= 1.0
        # The gate affects only delta.
        np.testing.assert_array_equal(gated.rows[["u", "beta"]], full.rows[["u", "beta"]])

    def test_too_few_rounds(self):
        with pytest.raises(ValueError):
            calibrate(synth(), 1, UncertaintyConfig(), seed=0)


def calibration_files(cal, out):
    save_calibration(out, cal)
    names = ("calibration_pairs.csv", "utv_table.csv", "model.json")
    return [(out / name).read_bytes() for name in names]


def trace_spec(tmp_path, rounds=12, vocab=16):
    rng = np.random.default_rng(4)
    path = tmp_path / "trace.jsonl"
    write_trace(path, [
        {key: rng.normal(size=vocab).tolist() for key in ("slm_logits", "llm_logits")}
        for _ in range(rounds)
    ])
    return OracleSpec(kind="trace", trace_path=str(path), vocab_size=vocab)


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestCalibrationShards:
    @pytest.mark.parametrize("kind", ["synthetic", "trace"])
    def test_files_equal_for_any_worker_count(self, tmp_path, kind):
        if kind == "synthetic":
            spec = synth(vocab=128, eos=0.05, seed=3)
        else:
            spec = trace_spec(tmp_path, 40)
        files = [
            calibration_files(
                calibrate(spec, 37, UncertaintyConfig(m=10), seed=2, workers=w),
                tmp_path / f"w{w}",
            )
            for w in (1, 2, 3)
        ]
        assert files[1] == files[0] and files[2] == files[0]
        no_children_left()

    @pytest.mark.parametrize("n_rounds", [12, 50])
    def test_trace_files_equal_for_any_shard_count(self, monkeypatch, tmp_path, n_rounds):
        # A trace round ignores the sequence, so where the shards reset it
        # changes nothing; at 50 rounds the trace ends inside shard 1 of 3.
        spec = trace_spec(tmp_path, 12)

        def files(s):
            monkeypatch.setattr(oracle, "CALIBRATION_SEQUENCES", s)
            cal = calibrate(spec, n_rounds, UncertaintyConfig(m=10), seed=2, workers=2)
            assert len(cal.rows) == 12
            return calibration_files(cal, tmp_path / f"s{s}")

        one = files(1)
        assert files(3) == one and files(8) == one

    @pytest.mark.parametrize("n_rounds", [2, 3, 7, 8, 13])
    def test_one_row_per_round_when_shards_outnumber_rounds(self, n_rounds):
        cal = calibrate(synth(vocab=64, div=2.0, seed=1), n_rounds, UncertaintyConfig(m=10), seed=4)
        assert len(cal.rows) == n_rounds

    def test_first_shard_is_a_one_sequence_calibration(self, monkeypatch):
        # Shard 0 of 2 runs rounds 0..19 from the empty context, as a
        # one-sequence calibration of 20 rounds does.
        spec, ucfg = synth(vocab=64, eos=0.1, seed=6), UncertaintyConfig(m=5)
        monkeypatch.setattr(oracle, "CALIBRATION_SEQUENCES", 2)
        halves = calibrate(spec, 40, ucfg, seed=9)
        monkeypatch.setattr(oracle, "CALIBRATION_SEQUENCES", 1)
        first = calibrate(spec, 20, ucfg, seed=9)
        whole = calibrate(spec, 40, ucfg, seed=9)
        assert halves.rows[:20].tobytes() == first.rows.tobytes() == whole.rows[:20].tobytes()
        assert halves.rows[20:].tobytes() != whole.rows[20:].tobytes()

    @pytest.mark.parametrize("workers, n_sequences, n_rounds, forked", [
        (1, 8, 40, 0), (2, 8, 40, 1), (3, 8, 40, 2), (8, 3, 40, 2), (8, 8, 2, 1),
    ])
    def test_at_most_min_of_workers_and_shards_processes(
        self, monkeypatch, workers, n_sequences, n_rounds, forked
    ):
        forks = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(real()) or forks[-1])
        monkeypatch.setattr(oracle, "CALIBRATION_SEQUENCES", n_sequences)
        calibrate(synth(vocab=64, div=2.0, seed=1), n_rounds, UncertaintyConfig(m=10), seed=4,
                  workers=workers)
        assert len(forks) == forked
        no_children_left()


class TestCalibrationDirectory:
    def test_save_load_round_trip(self, tmp_path):
        cal = calibrate(synth(vocab=128, seed=5), 60, UncertaintyConfig(m=5), seed=5)
        save_calibration(tmp_path, cal)
        back = load_calibration(tmp_path)
        # CSV cells keep 9 significant digits; model.json is exact.
        assert len(back.rows) == len(cal.rows) == 60
        assert back.rows.dtype == cal.rows.dtype == PAIRS
        for name in PAIRS.names:
            np.testing.assert_allclose(back.rows[name], cal.rows[name], rtol=1e-8)
        np.testing.assert_array_equal(back.utv_k_grid, cal.utv_k_grid)
        assert back.utv_k_grid.dtype.kind == "i"
        np.testing.assert_allclose(back.utv_values, cal.utv_values, rtol=1e-8)
        assert back.model == cal.model
        assert back.delta_hat == cal.delta_hat
