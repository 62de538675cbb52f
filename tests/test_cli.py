"""End-to-end tests of the command-line interface."""

import json
import os
import platform
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hybridlm import cli, oracle, pipeline
from hybridlm.cli import _read_records, load_calibration, main
from hybridlm.config import RunConfig, from_dict
from hybridlm.pipeline import RoundRecord

from helpers import write_trace

BASE_CFG = {
    "oracle": {
        "kind": "synthetic",
        "vocab_size": 128,
        "zipf_s": 4.0,
        "divergence": 1.0,
        "seed": 42,
    },
    "policy": {"variant": "cu_hlm_online", "u_th": 0.6, "theta": 0.1},
    "channel": {"fading": "fixed", "mean_snr_db": 10.0},
    "uncertainty": {"m": 10},
    "calibration": {"n_rounds": 150},
    "r_max": 25,
    "seed": 5,
}

GOOD_RECORD = RoundRecord(seq=0, round=0, token=3, latency_s=0.1, eos=False)


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE_CFG))
    return str(path)


def write_cfg(tmp_path, name="cfg2.json", **overrides):
    doc = json.loads(json.dumps(BASE_CFG))
    for key, val in overrides.items():
        if isinstance(val, dict):
            doc.setdefault(key, {}).update(val)
        else:
            doc[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCalibrate:
    def test_outputs_parse_and_fit_positive(self, cfg_path, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg_path, "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        assert set(model) == {"a", "b", "mse", "r2", "delta_hat"}
        assert model["a"] > 0
        cal = load_calibration(out)
        assert cal.utv_k_grid[-1] == 128
        assert len(cal.rows) == 150

    def test_repeat_byte_identical(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        main(["calibrate", "--config", cfg_path, "--out", str(out1)])
        main(["calibrate", "--config", cfg_path, "--out", str(out2)])
        for name in ("calibration_pairs.csv", "utv_table.csv", "model.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_reports_the_rounds_a_trace_ran(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        trace = tmp_path / "trace.jsonl"
        write_trace(trace, [
            {"slm_logits": rng.normal(size=16).tolist(), "llm_logits": rng.normal(size=16).tolist()}
            for _ in range(12)
        ])
        cfg = write_cfg(
            tmp_path, oracle={"kind": "trace", "trace_path": str(trace), "vocab_size": 16}
        )
        out = tmp_path / "cal"
        argv = ["calibrate", "--config", cfg, "--out", str(out), "--rounds"]
        assert main([*argv, "50"]) == 0
        said = capsys.readouterr().out
        assert said.startswith("calibrated 12 rounds (the trace ended before the 50 asked): a=")
        assert len(load_calibration(out).rows) == 12
        assert main([*argv, "12"]) == 0
        assert capsys.readouterr().out.startswith("calibrated 12 rounds: a=")

    def test_two_rounds_give_two_rows(self, cfg_path, tmp_path):
        # Eight shards over two rounds: six are empty and are skipped.
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg_path, "--rounds", "2", "--out", str(out)]) == 0
        assert len(load_calibration(out).rows) == 2

    def test_zero_divergence_near_zero_model(self, tmp_path):
        cfg = write_cfg(tmp_path, oracle={"divergence": 0.0})
        out = tmp_path / "cal0"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        model = json.loads((out / "model.json").read_text())
        assert abs(model["a"]) < 1e-9 and model["delta_hat"] == 0.0
        # No round has x != y, so every bound average is a NaN, which loads.
        assert np.all(np.isnan(load_calibration(out).utv_values))


class TestSimulate:
    def test_hlm_report_tr_one(self, tmp_path):
        cfg = write_cfg(tmp_path, policy={"variant": "hlm"})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["report"]["tr"] == 1.0

    def test_seed_repeat_identical_records(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", "--config", cfg_path, "--out", str(out1)])
        main(["simulate", "--config", cfg_path, "--out", str(out2)])
        assert (out1 / "records.jsonl").read_bytes() == (out2 / "records.jsonl").read_bytes()
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["report"] == r2["report"]
        # The stream reads back as the records run_many made, floats exact.
        _, made = pipeline.run_many(from_dict(RunConfig, BASE_CFG))
        read = _read_records(out1 / "records.jsonl")
        assert len(read) == BASE_CFG["r_max"]
        assert {r.verdict for r in read} >= {"skipped", "accepted"}
        for rm, rr in zip(made, read, strict=True):
            for f in fields(RoundRecord):
                vm, vr = getattr(rm, f.name), getattr(rr, f.name)
                assert vr == vm and type(vr) is type(vm), f.name

    def test_bound_violations_agree_with_records_and_report(self, tmp_path):
        cfg = write_cfg(tmp_path, policy={"u_th": 0.0}, r_max=60)
        out, rep_out = tmp_path / "sim", tmp_path / "rep"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["report", "--records", str(out / "records.jsonl"), "--out", str(rep_out)]) == 0
        lines = (out / "records.jsonl").read_text().splitlines()
        checked = [
            r for r in map(json.loads, lines)
            if r["tvd_pq"] is not None and r["bound_at_selection"] is not None
        ]
        assert checked
        direct = sum(r["tvd_pq"] > r["bound_at_selection"] for r in checked)
        simulated = json.loads((out / "report.json").read_text())["report"]
        reported = json.loads((rep_out / "report.json").read_text())["report"]
        assert simulated["bound_violations"] == reported["bound_violations"] == direct
        assert reported == simulated

    def test_online_payload_below_hlm(self, cfg_path, tmp_path):
        out_cu = tmp_path / "cu"
        main(["simulate", "--config", cfg_path, "--out", str(out_cu)])
        cfg_hlm = write_cfg(tmp_path, policy={"variant": "hlm"})
        out_hlm = tmp_path / "hlm"
        main(["simulate", "--config", cfg_hlm, "--out", str(out_hlm)])
        cu = json.loads((out_cu / "report.json").read_text())["report"]
        hlm = json.loads((out_hlm / "report.json").read_text())["report"]
        assert cu["mean_payload_bits"] < hlm["mean_payload_bits"]

    @pytest.mark.parametrize(
        "command", [["simulate"], ["sweep", "--axis", "u_th", "--values", "0.5"]]
    )
    def test_on_the_fly_calibration_said_on_stderr(self, cfg_path, tmp_path, capsys, command):
        assert main([*command, "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
        err = capsys.readouterr().err
        assert err.startswith("calibrating 150 rounds on the fly; pass --calib ")
        assert err.count("\n") == 1
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg_path, "--out", str(cal)]) == 0
        hlm = write_cfg(tmp_path, policy={"variant": "hlm"})
        capsys.readouterr()
        for argv in (["--config", cfg_path, "--calib", str(cal)], ["--config", hlm]):
            assert main([*command, *argv, "--out", str(tmp_path / "b")]) == 0
            assert capsys.readouterr().err == ""

    def test_transcript_written(self, cfg_path, tmp_path):
        out = tmp_path / "tr"
        main(["simulate", "--config", cfg_path, "--out", str(out), "--transcript"])
        blob = (out / "transcript.bin").read_bytes()
        # Transmitted rounds exist for this config; header alone is 10 bytes.
        records = [
            json.loads(line)
            for line in (out / "records.jsonl").read_text().splitlines()
        ]
        if any(r["delta"] == 1 for r in records):
            assert len(blob) >= 10


class TestParallelRuns:
    @staticmethod
    def _cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @pytest.mark.parametrize("cpus, n_sequences", [(1, 5), (2, 5), (3, 5), (8, 3), (3, 1)])
    def test_simulate_forks_one_less_than_cpus_or_sequences(
        self, tmp_path, monkeypatch, cpus, n_sequences
    ):
        self._cpus(monkeypatch, cpus)
        forks = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(real()) or forks[-1])
        cfg = write_cfg(tmp_path, policy={"variant": "hlm"}, r_max=3, n_sequences=n_sequences)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--transcript"]) == 0
        assert len(forks) == min(cpus, n_sequences) - 1
        # A single process writes the same bytes.
        monkeypatch.setattr(os, "fork", real)
        self._cpus(monkeypatch, 1)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "one"), "--transcript"])
        for name in ("records.jsonl", "transcript.bin"):
            assert (out / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_failing_sequence_gives_the_same_error_for_any_cpu_count(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        # Sequence 1 runs in a forked child whenever there is more than one CPU.
        real = pipeline.run_sequence

        def run_sequence(cfg, oracle_inst, calib, k_star, seq_index=0, *args, **kwargs):
            if seq_index == 1:
                raise ValueError("sequence 1 failed")
            return real(cfg, oracle_inst, calib, k_star, seq_index, *args, **kwargs)

        monkeypatch.setattr(pipeline, "run_sequence", run_sequence)
        self._cpus(monkeypatch, cpus)
        cfg = write_cfg(tmp_path, policy={"variant": "hlm"}, r_max=3, n_sequences=3)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 1
        assert capsys.readouterr().err == "config error: sequence 1 failed\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _forks(monkeypatch) -> list:
        """The pids ``os.fork`` returns in the parent from here on."""
        forks = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(real()) or forks[-1])
        return forks

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8, 12])
    def test_calibrate_forks_one_less_than_cpus_or_shards(self, tmp_path, monkeypatch, cpus):
        self._cpus(monkeypatch, cpus)
        forks = self._forks(monkeypatch)
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", write_cfg(tmp_path), "--out", str(out)]) == 0
        assert len(forks) == min(cpus, 8) - 1
        self._cpus(monkeypatch, 1)
        main(["calibrate", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "one")])
        for name in ("calibration_pairs.csv", "utv_table.csv", "model.json"):
            assert (out / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_on_the_fly_calibration_forks_with_the_run(
        self, tmp_path, monkeypatch, command
    ):
        # Both calibrate on the usable CPUs, then share their one sequence
        # or their two points among them.
        self._cpus(monkeypatch, 3)
        forks = self._forks(monkeypatch)
        cfg = write_cfg(tmp_path, calibration={"n_rounds": 40}, r_max=3)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--axis", "snr_db", "--values", "0,10"]
        assert main(argv) == 0
        # 3 processes calibrate; one runs the sequence, or 2 share the points.
        assert len(forks) == (min(3, 8) - 1) + (min(3, 1 if command == "simulate" else 2) - 1)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_failing_shard_gives_the_same_error_for_any_cpu_count(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        # Of 150 rounds in 8 shards, round 20 is in shard 1 and round 100 in
        # shard 5; both run in a forked child whenever there is more than one CPU.
        real = oracle._calibration_round

        def calibration_round(oracle_inst, sequence, ucfg, k_grid, seed, t):
            if t in (20, 100):
                raise ValueError(f"round {t} failed")
            return real(oracle_inst, sequence, ucfg, k_grid, seed, t)

        monkeypatch.setattr(oracle, "_calibration_round", calibration_round)
        self._cpus(monkeypatch, cpus)
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", write_cfg(tmp_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: round 20 failed\n"
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestSweep:
    def test_snr_axis_throughput_increases_fixed_fading(self, cfg_path, tmp_path):
        out = tmp_path / "sw"
        rc = main([
            "sweep", "--config", cfg_path, "--axis", "snr_db",
            "--values=-10,0,10", "--fading", "fixed", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# generated_at")
        header = lines[1].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[2:]]
        tps = [float(r["mean_throughput_tokens_per_s"]) for r in rows]
        assert tps == sorted(tps)

    def test_u_th_axis_tr_non_increasing_coupled(self, tmp_path):
        # Zero divergence plus unquantized wire keeps the trajectory identical
        # across thresholds, so the monotone-column check is exact.
        cfg = write_cfg(
            tmp_path,
            policy={"variant": "u_hlm"},
            oracle={"divergence": 0.0},
            quantize_wire=False,
            r_max=60,
        )
        out = tmp_path / "swu"
        rc = main([
            "sweep", "--config", cfg, "--axis", "u_th",
            "--values", "0.0,0.2,0.4,0.6,0.8,1.0", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[1].split(",")
        trs = [float(dict(zip(header, l.split(",")))["tr"]) for l in lines[2:]]
        assert all(b <= a + 1e-12 for a, b in zip(trs, trs[1:]))

    def test_single_point_matches_simulate(self, cfg_path, tmp_path):
        out_sw = tmp_path / "sw1"
        main([
            "sweep", "--config", cfg_path, "--axis", "snr_db", "--values", "10.0",
            "--fading", "fixed", "--out", str(out_sw),
        ])
        out_sim = tmp_path / "sim1"
        main(["simulate", "--config", cfg_path, "--out", str(out_sim)])
        rep = json.loads((out_sim / "report.json").read_text())["report"]
        lines = (out_sw / "sweep.csv").read_text().splitlines()
        header = lines[1].split(",")
        row = dict(zip(header, lines[2].split(",")))
        assert float(row["tr"]) == pytest.approx(rep["tr"])
        assert float(row["mean_throughput_tokens_per_s"]) == pytest.approx(
            rep["mean_throughput_tokens_per_s"], rel=1e-8
        )

    @pytest.mark.parametrize(
        "extra",
        [
            ["--axis", "theta", "--values", "abc"],
            ["--axis", "k", "--values", "0"],
            ["--axis", "k", "--values", "4,1.5"],
            ["--axis", "snr_db", "--values", "0", "--fading", "fixed,foo"],
            ["--axis", "theta", "--values", "0.1,0"],
            ["--axis", "snr_db", "--values", "1e400"],
            ["--axis", "snr_db", "--values", "NaN"],
        ],
        ids=[
            "not_a_float", "k_below_one", "k_not_an_int", "unknown_fading", "theta_zero",
            "snr_overflow", "snr_nan",
        ],
    )
    def test_bad_grid_point_fails_before_calibration(
        self, cfg_path, tmp_path, capsys, monkeypatch, extra
    ):
        monkeypatch.setattr(pipeline, "calibrate", lambda *a, **k: pytest.fail("calibrated"))
        monkeypatch.setattr(cli, "run_many", lambda *a, **k: pytest.fail("the run started"))
        out = tmp_path / "sw"
        assert main(["sweep", "--config", cfg_path, "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_oversized_k_fails_before_calibration(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "make_oracle", lambda *a, **k: pytest.fail("calibrated"))
        monkeypatch.setattr(cli, "make_oracle", lambda *a, **k: pytest.fail("calibrated"))
        cfg = write_cfg(tmp_path, policy={"variant": "cu_hlm_offline"})
        out = tmp_path / "sw"
        argv = ["sweep", "--config", cfg, "--out", str(out), "--axis", "k", "--values", "4,5000"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "config error: k_star must be <= vocab_size (128), got 5000\n"
        assert not out.exists()

    def test_values_take_the_field_type(self):
        cfg = RunConfig()
        assert cli._sweep_config(cfg, "fixed", "u_th", ".5").policy.u_th == 0.5
        assert cli._sweep_config(cfg, "fixed", "snr_db", "-5").channel.mean_snr_db == -5.0
        k_star = cli._sweep_config(cfg, "rayleigh", "k", "4").policy.k_star
        assert k_star == 4 and type(k_star) is int

    def test_parallel_same_output(self, cfg_path, tmp_path, monkeypatch):
        argv = [
            "sweep", "--config", cfg_path, "--axis", "snr_db",
            "--values=-5,5", "--fading", "fixed,rayleigh",
        ]
        bodies = []
        for cpus in (1, 2, 3):
            TestParallelRuns._cpus(monkeypatch, cpus)
            out = tmp_path / f"sw{cpus}"
            assert main(argv + ["--out", str(out)]) == 0
            bodies.append((out / "sweep.csv").read_bytes().split(b"\n", 1)[1])
        assert len(bodies[0].splitlines()) == 5 and bodies[1] == bodies[0] == bodies[2]


class TestVerify:
    def test_passes_by_default(self):
        assert main(["verify", "--cases", "50"]) == 0

    def test_tampered_bound_detected(self):
        assert main(["verify", "--cases", "50", "--debug-scale-bound", "0.4"]) == 2

    def test_zero_cases_is_config_error(self):
        assert main(["verify", "--cases", "0"]) == 1

    def test_negative_seed_fails_before_any_suite(self, capsys, monkeypatch):
        from hybridlm import verification

        monkeypatch.setattr(verification, "check_unbiasedness", lambda *a: pytest.fail("ran"))
        assert main(["verify", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "config error: verify --seed must be >= 0, got -1\n"


class TestExitCodes:
    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1

    def test_unparsable_config_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"r_max": 3,\n "seed": }')
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {bad}: Expecting value: line 2 column 10 (char 22)\n"

    def test_bad_config_values(self, tmp_path):
        cfg = write_cfg(tmp_path, policy={"variant": "nonsense"})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"foo": 1},
            {"channel": {"mean_snr_db": "abc"}},
            {"oracle": {"vocab_size": 70_000}},
            {"b_prob": 9},
        ],
        ids=["unknown_key", "mistyped_value", "transcript_vocab", "transcript_b_prob"],
    )
    def test_config_error_before_any_work(self, tmp_path, capsys, monkeypatch, overrides):
        monkeypatch.setattr(cli, "run_many", lambda *a, **k: pytest.fail("the run started"))
        cfg = write_cfg(tmp_path, **overrides)
        out = tmp_path / "x"
        argv = ["simulate", "--config", cfg, "--out", str(out), "--transcript"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not list(out.glob("records.*"))

    def test_oversized_k_star_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        for module in (oracle, pipeline):
            monkeypatch.setattr(module, "make_oracle", lambda *a, **k: pytest.fail("ran"))
        cfg = tmp_path / "k.json"
        cfg.write_text(json.dumps({
            "oracle": {"vocab_size": 2048},
            "policy": {"variant": "cu_hlm_offline", "k_star": 5000},
        }))
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: k_star must be <= vocab_size (2048), got 5000\n"
        assert not out.exists()

    @pytest.fixture(scope="class")
    def calib_512(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("calib_512")
        cfg = write_cfg(tmp, oracle={"vocab_size": 512})
        cal = str(tmp / "cal")
        assert main(["calibrate", "--config", cfg, "--rounds", "60", "--out", cal]) == 0
        return cal

    @pytest.mark.parametrize("vocab", [256, 4096])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_calibration_vocab_mismatch_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, calib_512, vocab, command
    ):
        self._vocab_mismatch_fails(
            tmp_path, capsys, monkeypatch, calib_512, vocab, command, "cu_hlm_offline"
        )

    @pytest.mark.parametrize("vocab", [256, 4096])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_online_calibration_vocab_mismatch_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, calib_512, vocab, command
    ):
        # The online policy reads the fitted line, not the table, yet the
        # calibration it was given still has to match the vocabulary.
        self._vocab_mismatch_fails(
            tmp_path, capsys, monkeypatch, calib_512, vocab, command, "cu_hlm_online"
        )

    @staticmethod
    def _vocab_mismatch_fails(tmp_path, capsys, monkeypatch, calib_512, vocab, command, variant):
        capsys.readouterr()
        monkeypatch.setattr(pipeline, "make_oracle", lambda *a, **k: pytest.fail("ran"))
        cfg = write_cfg(
            tmp_path,
            oracle={"vocab_size": vocab},
            policy={"variant": variant, "theta": 1e-7, "u_th": 0.0},
        )
        out = tmp_path / "x"
        argv = [command, "--config", cfg, "--calib", calib_512, "--out", str(out)]
        if command == "sweep":
            argv += ["--axis", "theta", "--values", "1e-7,0.1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            "config error: calibration table was made at vocab_size 512, "
            f"the config has vocab_size {vocab}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"policy": {"eta": 0.0}},
            {"b_prob": 0},
            {"oracle": {"vocab_size": 1}},
            {"policy": {"variant": "slm_only"}, "latency": {"tau_slm_s": 0.0}},
            {"policy": {"variant": "llm_only"}, "latency": {"tau_llm_s": 0.0}},
            {"policy": {"theta": 0.0}},
            {"policy": {"theta": float("nan")}},
            {"channel": {"mean_snr_db": float("nan")}},
            {"channel": {"fading": "rician", "rician_k_db": float("nan")}},
            {"calibration": {"delta_u_gate": float("nan")}},
        ],
        ids=[
            "eta", "b_prob", "vocab_size", "slm_only_zero_latency", "llm_only_zero_latency",
            "theta_zero", "theta_nan", "mean_snr_db_nan", "rician_k_db_nan", "delta_u_gate_nan",
        ],
    )
    def test_error_before_calibration(self, tmp_path, capsys, monkeypatch, overrides):
        # Without --transcript, nothing else reads these values before a round runs.
        monkeypatch.setattr(pipeline, "calibrate", lambda *a, **k: pytest.fail("calibrated"))
        cfg = write_cfg(tmp_path, **overrides)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"channel": {"mean_snr_db": 4000}}, "mean_snr_db must have a finite linear value"),
            (
                {"channel": {"fading": "rician", "rician_k_db": 4000}},
                "rician_k_db must have a finite linear value",
            ),
            ({"latency": {"tau_slm_s": 1e308, "tau_llm_s": 1e308}}, "a round's worst-case time"),
            ({"channel": {"bandwidth_hz": 1e-300}}, "a round's worst-case time"),
            ({"channel": {"bandwidth_hz": 1e-320}}, "a round's worst-case time"),
        ],
        ids=["mean_snr_db", "rician_k_db", "latency", "bandwidth", "bandwidth_subnormal"],
    )
    def test_overflowing_value_fails_before_any_round(
        self, tmp_path, capsys, monkeypatch, overrides, message
    ):
        # Each once ended in an OverflowError at the first transmitted round,
        # or wrote "latency_s": Infinity, which `report` then rejected.
        monkeypatch.setattr(pipeline, "run_round", lambda *a, **k: pytest.fail("a round ran"))
        cfg = write_cfg(tmp_path, policy={"variant": "hlm"}, **overrides)
        out = tmp_path / "x"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, flags, key",
        [
            ({"seed": -1}, [], "seed"),
            ({"oracle": {"seed": -1}}, [], "oracle.seed"),
            ({"calibration": {"seed": -1}}, [], "calibration.seed"),
            ({}, ["--seed", "-1"], "seed"),
        ],
        ids=["seed", "oracle_seed", "calibration_seed", "seed_flag"],
    )
    def test_negative_seed_fails_before_calibration(
        self, tmp_path, capsys, monkeypatch, overrides, flags, key
    ):
        # A seed keys every random stream, and a stream's key must be >= 0.
        monkeypatch.setattr(pipeline, "calibrate", lambda *a, **k: pytest.fail("calibrated"))
        cfg = write_cfg(tmp_path, **overrides)
        out = tmp_path / "x"
        assert main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"config error: {key} must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "calibration, message",
        [
            ({"delta_u_gate": 7.0}, "calibration.delta_u_gate must be null or in [0, 1)"),
            ({"delta_u_gate": 1.0}, "calibration.delta_u_gate must be null or in [0, 1)"),
            ({"delta_u_gate": -0.5}, "calibration.delta_u_gate must be null or in [0, 1)"),
            ({"n_rounds": 1}, "calibration.n_rounds must be >= 2"),
        ],
        ids=["gate_seven", "gate_one", "gate_negative", "one_round"],
    )
    def test_calibration_section_checked_at_load(
        self, tmp_path, capsys, monkeypatch, calibration, message
    ):
        # No u exceeds a gate of 1 or more, so delta_hat would read 0.0.
        monkeypatch.setattr(oracle, "make_oracle", lambda *a, **k: pytest.fail("calibrated"))
        cfg = write_cfg(tmp_path, calibration=calibration)
        out = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, bad_row, message",
        [
            ("utv_table.csv", "5", "every row needs 2 values"),
            ("calibration_pairs.csv", "0.5", "every row needs 4 values"),
            ("calibration_pairs.csv", "", "every row needs 4 values"),
            (
                "utv_table.csv",
                "99999999999999999999,0.5",
                "k: Python int too large to convert to C long",
            ),
            ("utv_table.csv", "64,abc", "mean_utv: could not convert string to float: 'abc'"),
            (
                "calibration_pairs.csv",
                "0.5,abc,0.1,0.2",
                "beta: could not convert string to float: 'abc'",
            ),
        ],
        ids=[
            "table_one_cell", "pairs_one_cell", "pairs_blank_row", "table_k_overflow",
            "table_utv_not_a_number", "pairs_beta_not_a_number",
        ],
    )
    def test_malformed_calibration_row(
        self, cfg_path, tmp_path, capsys, monkeypatch, name, bad_row, message
    ):
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg_path, "--out", str(cal)]) == 0
        lines = (cal / name).read_text().splitlines()
        lines.insert(2, bad_row)
        (cal / name).write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(cli, "run_many", lambda *a, **k: pytest.fail("the run started"))
        capsys.readouterr()
        argv = ["simulate", "--config", cfg_path, "--calib", str(cal), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {name}: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_calibration_without_pairs_table(self, cfg_path, tmp_path, capsys, monkeypatch):
        # calibrate always writes the pairs table, so a directory without it is incomplete.
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg_path, "--out", str(cal)]) == 0
        (cal / "calibration_pairs.csv").unlink()
        monkeypatch.setattr(cli, "run_many", lambda *a, **k: pytest.fail("the run started"))
        capsys.readouterr()
        out = tmp_path / "x"
        assert main(["simulate", "--config", cfg_path, "--calib", str(cal), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and err.count("\n") == 1
        assert "calibration_pairs.csv" in err
        assert not out.exists()

    def test_empty_calibration_table(self, cfg_path, tmp_path, capsys, monkeypatch):
        # The table's last k is the vocabulary the calibration was made at.
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg_path, "--out", str(cal)]) == 0
        (cal / "utv_table.csv").write_text("k,mean_utv\n")
        monkeypatch.setattr(cli, "run_many", lambda *a, **k: pytest.fail("the run started"))
        capsys.readouterr()
        argv = ["simulate", "--config", cfg_path, "--calib", str(cal), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: utv_table.csv: no rows\n"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: [["0", "0"], *rows[1:]],
            lambda rows: [rows[1], rows[0], *rows[2:]],
        ],
        ids=["first_k_zero", "rows_swapped"],
    )
    def test_calibration_table_k_not_increasing(self, cfg_path, tmp_path, capsys, edit):
        # The offline selector reads k as a sorted grid; with u_th=0 it would
        # select the k=0 row, whose bound is within theta.
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg_path, "--out", str(cal)]) == 0
        table = cal / "utv_table.csv"
        header, *rows = [line.split(",") for line in table.read_text().split()]
        table.write_text("".join(",".join(r) + "\n" for r in [header, *edit(rows)]))
        cfg = write_cfg(tmp_path, policy={"variant": "cu_hlm_offline", "u_th": 0.0})
        out = tmp_path / "x"
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--calib", str(cal), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: utv_table.csv: k must be strictly increasing integers >= 1\n"
        assert not (out / "records.jsonl").exists()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("a", "abc"),
            ("a", None),
            ("b", float("nan")),
            ("mse", float("inf")),
            ("r2", [0.5]),
            ("delta_hat", float("nan")),
            ("delta_hat", True),
        ],
        ids=[
            "a_string", "a_null", "b_nan", "mse_inf", "r2_list", "delta_hat_nan", "delta_hat_bool",
        ],
    )
    def test_malformed_calibration_model(
        self, cfg_path, tmp_path, capsys, monkeypatch, name, value
    ):
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg_path, "--out", str(cal)]) == 0
        model = json.loads((cal / "model.json").read_text())
        (cal / "model.json").write_text(json.dumps({**model, name: value}))
        monkeypatch.setattr(cli, "run_many", lambda *a, **k: pytest.fail("the run started"))
        capsys.readouterr()
        argv = ["simulate", "--config", cfg_path, "--calib", str(cal), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"config error: model.json: {name} must be a finite number, got {value!r}\n"

    def test_unparsable_calibration_model(self, cfg_path, tmp_path, capsys, monkeypatch):
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg_path, "--out", str(cal)]) == 0
        (cal / "model.json").write_text('{"a": 1,\n')
        monkeypatch.setattr(cli, "run_many", lambda *a, **k: pytest.fail("the run started"))
        capsys.readouterr()
        argv = ["simulate", "--config", cfg_path, "--calib", str(cal), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: model.json: ") and "line 2 column 1" in err
        assert err.count("\n") == 1

    def test_calibration_model_not_an_object(self, cfg_path, tmp_path, capsys, monkeypatch):
        cal = tmp_path / "cal"
        assert main(["calibrate", "--config", cfg_path, "--out", str(cal)]) == 0
        (cal / "model.json").write_text("[1, 2]\n")
        monkeypatch.setattr(cli, "run_many", lambda *a, **k: pytest.fail("the run started"))
        capsys.readouterr()
        argv = ["simulate", "--config", cfg_path, "--calib", str(cal), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: model.json: expected a JSON object\n"

    @pytest.mark.parametrize(
        "line",
        [
            "{}",
            json.dumps({**GOOD_RECORD.to_dict(), "bogus": 1}),
            json.dumps({**GOOD_RECORD.to_dict(), "latency_s": "x"}),
            "[1, 2]",
            "{not json",
            json.dumps({**GOOD_RECORD.to_dict(), "delta": 5}),
            json.dumps({**GOOD_RECORD.to_dict(), "verdict": "bogus"}),
            json.dumps({**GOOD_RECORD.to_dict(), "seq": -1}),
            json.dumps({**GOOD_RECORD.to_dict(), "round": -2}),
            json.dumps({**GOOD_RECORD.to_dict(), "token": -3}),
            json.dumps({**GOOD_RECORD.to_dict(), "latency_s": float("nan")}),
            json.dumps({**GOOD_RECORD.to_dict(), "eos": None}),
            json.dumps({**GOOD_RECORD.to_dict(), "payload_bits": 10**400}),
            json.dumps({**GOOD_RECORD.to_dict(), "latency_s": 10**400}),
            json.dumps({**GOOD_RECORD.to_dict(), "latency_s": 0}),
            json.dumps({**GOOD_RECORD.to_dict(), "latency_s": -1.0}),
            json.dumps({**GOOD_RECORD.to_dict(), "tau_comm_s": -1e-3}),
            json.dumps({**GOOD_RECORD.to_dict(), "payload_bits": -8}),
            json.dumps({**GOOD_RECORD.to_dict(), "k_used": 0}),
        ],
        ids=[
            "missing_fields", "extra_key", "mistyped_value", "not_an_object", "not_json",
            "delta_out_of_range", "unknown_verdict", "negative_seq", "negative_round",
            "negative_token", "latency_nan", "eos_null", "payload_bits_400_digits",
            "latency_400_digits", "latency_zero", "latency_negative", "tau_comm_negative",
            "payload_bits_negative", "k_used_zero",
        ],
    )
    def test_malformed_jsonl_record(self, tmp_path, capsys, monkeypatch, line):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(GOOD_RECORD.to_dict()) + "\n" + line + "\n")
        monkeypatch.setattr(cli, "metrics", lambda *a, **k: pytest.fail("aggregated"))
        assert main(["report", "--records", str(path), "--out", str(tmp_path / "rep")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path} line 2: ") and err.count("\n") == 1

    def test_csv_records_are_gone(self, cfg_path, tmp_path, capsys, monkeypatch):
        # JSONL is the one record stream: --format is no flag, and a CSV
        # stream fails on its header line.
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg_path, "--format", "csv", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: hybridlm ") and "unrecognized arguments: --format csv" in err
        assert not out.exists()
        path = tmp_path / "x.csv"
        path.write_text("seq,round,token\n0,0,3\n")
        monkeypatch.setattr(cli, "metrics", lambda *a, **k: pytest.fail("aggregated"))
        assert main(["report", "--records", str(path), "--out", str(tmp_path / "rep")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path} line 1: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["calibrate", "--rounds", "0"], "calibration.n_rounds must be >= 2"),
        ],
        ids=["calibrate_zero_rounds"],
    )
    def test_nonpositive_count_flag(self, cfg_path, tmp_path, capsys, monkeypatch, argv, message):
        # calibrate checks its round count before it builds the oracle.
        monkeypatch.setattr(oracle, "make_oracle", lambda *a, **k: pytest.fail("calibrated"))
        out = tmp_path / "x"
        assert main([*argv, "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, flags",
        [({"seed": 10**30}, []), ({}, ["--seed", str(10**30)])],
        ids=["seed_key", "seed_flag"],
    )
    def test_seed_flag_is_decoded_as_the_seed_key(
        self, tmp_path, capsys, monkeypatch, overrides, flags
    ):
        # --seed is the config's seed key: a value beyond int64 fails the same
        # way from either place, before any round runs.
        monkeypatch.setattr(pipeline, "run_round", lambda *a, **k: pytest.fail("a round ran"))
        cfg = write_cfg(tmp_path, policy={"variant": "hlm"}, **overrides)
        out = tmp_path / "x"
        assert main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"config error: seed: expected int64, got {10**30}\n"
        assert not (out / "report.json").exists()

    def test_oversized_vocabulary_fails_at_load(self, tmp_path, capsys, monkeypatch):
        # No oracle is made: a round at this vocabulary would need tens of GB.
        for module in (cli, oracle, pipeline):
            monkeypatch.setattr(module, "make_oracle", lambda *a, **k: pytest.fail("ran"))
        for vocab_size in (2**32 + 1, 2**62):
            cfg = write_cfg(tmp_path, oracle={"vocab_size": vocab_size})
            out = tmp_path / "x"
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
            assert capsys.readouterr().err == "config error: vocabulary size must be <= 2**32\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--records", "r.jsonl", "--config", "/no/such.json"],
            ["report", "--records", "r.jsonl", "--seed", "99999"],
            ["verify", "--config", "/no/such.json"],
            ["verify", "--out", "rep"],
        ],
        ids=["report_config", "report_seed", "verify_config", "verify_out"],
    )
    def test_flags_a_command_would_not_read_are_usage_errors(self, capsys, argv):
        assert main(argv) == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}\n" in capsys.readouterr().err

    def test_missing_records_file_is_io_error(self, tmp_path):
        rc = main(["report", "--records", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)])
        assert rc == 3

    def test_usage_error(self, capsys):
        assert main(["sweep", "--axis", "snr_db"]) == 1  # missing --values


class TestTraceWorkflow:
    def test_simulate_from_trace(self, tmp_path):
        rng = np.random.default_rng(3)
        trace = tmp_path / "trace.jsonl"
        with open(trace, "w") as fh:
            for _ in range(6):
                rec = {
                    "slm_logits": rng.normal(size=16).tolist(),
                    "llm_logits": rng.normal(size=16).tolist(),
                }
                fh.write(json.dumps(rec) + "\n")
        cfg = tmp_path / "trace_cfg.json"
        cfg.write_text(json.dumps({
            "oracle": {"kind": "trace", "trace_path": str(trace), "vocab_size": 16},
            "policy": {"variant": "hlm"},
            "channel": {"fading": "fixed", "mean_snr_db": 10.0},
            "r_max": 50,
            "seed": 2,
        }))
        out = tmp_path / "trace_sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["report"]["n_rounds"] == 6  # trace exhaustion bounds the run

    def test_on_the_fly_calibration_parses_the_trace_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        trace = tmp_path / "trace.jsonl"
        write_trace(trace, [
            {"slm_logits": rng.normal(size=16).tolist(), "llm_logits": rng.normal(size=16).tolist()}
            for _ in range(12)
        ])
        cfg = write_cfg(
            tmp_path,
            oracle={"kind": "trace", "trace_path": str(trace), "vocab_size": 16},
            calibration={"n_rounds": 12},
        )
        parses = []
        real = oracle.read_trace
        monkeypatch.setattr(oracle, "read_trace", lambda p: parses.append(p) or real(p))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
        assert parses == [str(trace)]

    @pytest.mark.parametrize("eos", ["false", 0, 1, None], ids=["string", "zero", "one", "null"])
    def test_non_boolean_eos_fails_before_any_round(self, tmp_path, capsys, monkeypatch, eos):
        rng = np.random.default_rng(7)
        records = [
            {"slm_logits": rng.normal(size=16).tolist(), "llm_logits": rng.normal(size=16).tolist()}
            for _ in range(6)
        ]
        records[1]["eos"] = False
        records[2]["eos"] = eos
        trace = tmp_path / "trace.jsonl"
        write_trace(trace, records)
        cfg = write_cfg(
            tmp_path,
            oracle={"kind": "trace", "trace_path": str(trace), "vocab_size": 16},
            policy={"variant": "hlm"},
        )
        monkeypatch.setattr(pipeline, "run_round", lambda *a, **k: pytest.fail("a round ran"))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: trace {trace} line 3: eos: expected true or false\n"
        assert not out.exists()

    def test_unparsable_trace_line_fails_before_any_round(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(7)
        trace = tmp_path / "trace.jsonl"
        write_trace(trace, [
            {"slm_logits": rng.normal(size=16).tolist(), "llm_logits": rng.normal(size=16).tolist()}
            for _ in range(6)
        ])
        lines = trace.read_text().splitlines()
        lines[3] = "{not json"
        trace.write_text("\n".join(lines) + "\n")
        cfg = write_cfg(
            tmp_path,
            oracle={"kind": "trace", "trace_path": str(trace), "vocab_size": 16},
            policy={"variant": "hlm"},
        )
        monkeypatch.setattr(pipeline, "run_round", lambda *a, **k: pytest.fail("a round ran"))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: trace {trace} line 4: ") and err.count("\n") == 1

    def test_sweep_parses_the_trace_once(self, tmp_path, monkeypatch):
        # The calibration and all four points share one oracle. The workers
        # of a run on more than one CPU are forked and inherit it, so it is
        # never pickled, under any multiprocessing start method.
        rng = np.random.default_rng(6)
        trace = tmp_path / "trace.jsonl"
        write_trace(trace, [
            {"slm_logits": rng.normal(size=16).tolist(), "llm_logits": rng.normal(size=16).tolist()}
            for _ in range(12)
        ])
        cfg = write_cfg(
            tmp_path,
            oracle={"kind": "trace", "trace_path": str(trace), "vocab_size": 16},
            calibration={"n_rounds": 12},
        )
        argv = ["sweep", "--config", cfg, "--axis", "u_th", "--values", "0.0,0.3,0.6,0.9"]
        parses, pickles = [], []
        real = oracle.read_trace
        monkeypatch.setattr(oracle, "read_trace", lambda p: parses.append(p) or real(p))
        monkeypatch.setattr(
            oracle.TraceOracle,
            "__reduce_ex__",
            lambda self, protocol: pickles.append(self) or object.__reduce_ex__(self, protocol),
        )
        bodies = []
        for cpus in (1, 2, 3):
            TestParallelRuns._cpus(monkeypatch, cpus)
            out = tmp_path / f"sw{cpus}"
            assert main([*argv, "--out", str(out)]) == 0
            assert parses == [str(trace)] * cpus
            bodies.append((out / "sweep.csv").read_bytes().split(b"\n", 1)[1])
        assert pickles == []
        assert len(bodies[0].splitlines()) == 5 and bodies[1] == bodies[0] == bodies[2]


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self):
        import subprocess
        import sys

        import hybridlm

        src = str(Path(hybridlm.__file__).resolve().parents[1])
        code = "import sys, hybridlm.cli; print('scipy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


    def test_cli_import_leaves_process_pool_unloaded(self, tmp_path):
        # Parallel simulate and sweep runs fork through fork_map; a
        # process pool would load multiprocessing, socket, subprocess and logging.
        cfg = write_cfg(tmp_path, policy={"variant": "hlm"}, r_max=4, n_sequences=2)
        sim, sweep = str(tmp_path / "sim"), str(tmp_path / "sweep")
        code = (
            "import sys, hybridlm.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules))); "
            f"hybridlm.cli.main(['simulate', '--config', {cfg!r}, '--out', {sim!r}]); "
            f"hybridlm.cli.main(['sweep', '--config', {cfg!r}, '--out', {sweep!r}, "
            "'--axis', 'snr_db', '--values', '0,10']); "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env()
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 4 and lines[0] == lines[-1] == "[]", lines

    def test_calibrate_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique imports numpy.ma (about 1.25 MB); default_k_grid avoids it.
        cfg = write_cfg(tmp_path, oracle={"vocab_size": 512})
        code = (
            "import sys; from hybridlm.cli import main; "
            f"rc = main(['calibrate', '--config', {cfg!r}, '--rounds', '20', "
            f"'--out', {str(tmp_path / 'cal')!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_calibrate_and_simulate_leave_verification_unloaded(self, tmp_path):
        cfg = write_cfg(tmp_path, oracle={"vocab_size": 512})
        cal, sim = str(tmp_path / "cal"), str(tmp_path / "sim")
        code = (
            "import sys; from hybridlm.cli import main; "
            f"main(['calibrate', '--config', {cfg!r}, '--rounds', '20', '--out', {cal!r}]); "
            f"main(['simulate', '--config', {cfg!r}, '--calib', {cal!r}, '--out', {sim!r}]); "
            "print('hybridlm.verification' in sys.modules); "
            "sys.exit(main(['verify', '--cases', '20']))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env()
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[2] == "False"
        assert len(lines) == 7 and all(line.startswith("PASS ") for line in lines[3:]), lines

    def test_verify_runs_without_scipy(self):
        # A None entry in sys.modules makes any import of scipy fail.
        code = (
            "import sys; sys.modules['scipy'] = None; from hybridlm import cli; "
            "sys.exit(cli.main(['verify', '--cases', '20']))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env()
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 4 and all(line.startswith("PASS ") for line in lines), lines


class TestCrossProcessDeterminism:
    def test_records_identical_across_process_restarts(self, cfg_path, tmp_path):
        import subprocess
        import sys

        outs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "hybridlm.cli", "simulate",
                 "--config", cfg_path, "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "records.jsonl").read_bytes())
        assert outs[0] == outs[1]


def _src_env():
    import hybridlm

    return {**os.environ, "PYTHONPATH": str(Path(hybridlm.__file__).resolve().parents[1])}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc settings")
class TestHeapRetention:
    def test_mallopt_calls_succeed(self):
        # In a child process: the settings would outlive the call in this one.
        code = "from hybridlm.heap import retain_heap; print(retain_heap())"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "(1, 1)"

    def test_transmitted_rounds_reuse_freed_vectors(self, tmp_path):
        # hlm transmits every round. Under glibc's dynamic trim threshold
        # each V=32000 round faulted its freed 256 KB vectors in again,
        # about 880 minor faults per round; one vector is 63 pages.
        def minor_faults(r_max):
            cfg = tmp_path / f"hlm{r_max}.json"
            cfg.write_text(json.dumps({"policy": {"variant": "hlm"}, "r_max": r_max}))
            argv = [sys.executable, "-m", "hybridlm.cli", "simulate", "--config", str(cfg),
                    "--out", str(tmp_path / f"out{r_max}")]
            with open(tmp_path / f"err{r_max}", "w+") as err:
                proc = subprocess.Popen(
                    argv, stdout=subprocess.DEVNULL, stderr=err, env=_src_env()
                )
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                err.seek(0)
                assert proc.returncode == 0, err.read()
            return usage.ru_minflt

        extra = minor_faults(48) - minor_faults(8)
        assert extra / 40 < 64

    def test_library_rounds_reuse_freed_vectors(self):
        # run_many called directly, as a library user or the benchmark calls
        # it: the round loop itself keeps the heap, not only cli.main.
        proc = subprocess.run(
            [sys.executable, "-c", LIBRARY_FAULTS], capture_output=True, text=True, env=_src_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) / 40 < 64

    def test_import_sets_nothing(self):
        code = (
            "import hybridlm, hybridlm.cli; from hybridlm.heap import retain_heap; "
            "print(retain_heap.cache_info().currsize)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


# Minor faults of 40 extra hlm rounds at V=32000 (every round transmits),
# counted in process around run_many after a warm-up run.
LIBRARY_FAULTS = """
import resource
from hybridlm.config import RunConfig, from_dict
from hybridlm.pipeline import run_many

def minor_faults(r_max):
    cfg = from_dict(RunConfig, {"policy": {"variant": "hlm"}, "r_max": r_max})
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_many(cfg)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

minor_faults(8)
print(minor_faults(48) - minor_faults(8))
"""


def test_eos_mixture_underflow_runs(tmp_path):
    cfg = tmp_path / "eos.json"
    cfg.write_text(json.dumps({
        "oracle": {"vocab_size": 2048, "zipf_s": 100, "eos_prob": 0.05},
        "policy": {"variant": "hlm"},
        "r_max": 4,
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
