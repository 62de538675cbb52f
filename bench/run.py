"""Benchmark of the hybridlm command line: calibrate and simulate-tx.

Usage (from the repository root):

    python3 bench/run.py --workload calibrate --seed 1 --seconds 50 --trace 0

Each workload is a closed loop driven from this process with one compute
thread at a time: it alternates, until ``--seconds`` are spent, between

* the real command, ``python -m hybridlm.cli ...``, timed from spawn to exit
  (``wall_s``, ``peak_rss_mb``), whose outputs are checked and digested; and
* a measuring child (``child.py``) that repeats the command's set-up
  (``setup_s``, spawn to ready) and times the command's work call after an
  untimed warm-up (``items_per_s``).

With ``--trace 1`` one child instead runs the command in process, alternating
untraced and traced runs, and reports the per-layer metrics. The last stdout
line is the result object; the line before it carries provenance, digests
and the raw samples. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("calibrate", "simulate-tx")

# Input sizes. --tiny is the harness self-test's size.
FULL = {"vocab": 32_000, "rounds": 200, "r_max": 120, "n_sequences": 2, "fixture": 200}
TINY = {"vocab": 2048, "rounds": 30, "r_max": 6, "n_sequences": 2, "fixture": 40}

MIN_CYCLES = 3

E2E_UNITS = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Transcript layout (see hybridlm.channel): a 10-byte round header, then
# 3 bytes per transmitted entry.
HEADER_BYTES = 10
ENTRY_BYTES = 3


class CheckFailed(Exception):
    """An output check failed; the run's operations count as failed."""


class HarnessError(Exception):
    """The benchmark itself could not measure; no result is printed."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_records(out_dir: Path) -> list[dict]:
    return [json.loads(line) for line in (out_dir / "records.jsonl").read_text().splitlines()]


class Bench:
    """One invocation: a workload's inputs, its processes and its checks."""

    def __init__(self, workload: str, seed: int, sizes: dict, work: Path):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.config = work / "config.json"
        self.config_doc = self._config_doc()
        self.config.write_text(json.dumps(self.config_doc, indent=2, sort_keys=True))
        self.calib = work / "fixture" if workload == "simulate-tx" else None
        self.digests: dict | None = None
        self.failures: list[str] = []
        self.info: dict = {}

    def _config_doc(self) -> dict:
        s = self.sizes
        doc = {"oracle": {"vocab_size": s["vocab"], "seed": self.seed}, "seed": self.seed}
        if self.workload == "simulate-tx":
            doc["policy"] = {"variant": "cu_hlm_online", "u_th": 0.0}
            doc["r_max"] = s["r_max"]
            doc["n_sequences"] = s["n_sequences"]
        return doc

    def command(self) -> list[str]:
        """The command's arguments after ``hybridlm``, without --out."""
        base = ["--config", str(self.config), "--seed", str(self.seed)]
        if self.workload == "calibrate":
            return ["calibrate", *base, "--rounds", str(self.sizes["rounds"])]
        return ["simulate", *base, "--calib", str(self.calib), "--transcript"]

    def config_hash(self) -> str:
        doc = {"config": self.config_doc, "command": self.command()[0], "sizes": self.sizes}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()

    # -- processes ----------------------------------------------------------

    def spawn(self, argv: list[str], tag: str):
        """Run argv to completion.

        Returns (spawn time, wall s, max RSS MB, exit code, stdout, stderr).
        """
        out_path = self.work / f"{tag}.out"
        err_path = self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr = out_path.read_text(), err_path.read_text()
        return t0, wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr

    def hybridlm(self, args: list[str], tag: str):
        return self.spawn([sys.executable, "-m", "hybridlm.cli", *args], tag)

    def must(self, result, what: str):
        *_, code, stdout, stderr = result
        if code != 0:
            raise HarnessError(f"{what} exited {code}: {stderr.strip()[-600:]}")
        return stdout

    def child(self, spec: dict, tag: str) -> tuple[float, dict]:
        spec = dict(spec, workload=self.workload, seed=self.seed, work=str(self.work))
        result = self.spawn([sys.executable, str(BENCH / "child.py"), json.dumps(spec)], tag)
        stdout = self.must(result, "measuring child")
        return result[0], json.loads(stdout.strip().splitlines()[-1])

    def build_fixture(self) -> None:
        """Calibration fixture for simulate-tx, built before any timing."""
        args = ["calibrate", "--config", str(self.config), "--seed", str(self.seed),
                "--rounds", str(self.sizes["fixture"]), "--out", str(self.calib)]
        self.must(self.hybridlm(args, "fixture"), "fixture calibration")
        model = json.loads((self.calib / "model.json").read_text())
        self.info["fixture"] = {k: model[k] for k in ("a", "b", "r2")}

    # -- output checks ------------------------------------------------------

    def expected_ops(self) -> int:
        s = self.sizes
        if self.workload == "calibrate":
            return s["rounds"]
        return s["r_max"] * s["n_sequences"]

    def checked_ops(self, code: int, out_dir: Path, stderr: str) -> int:
        """Operations of one command run; records a failure instead of raising."""
        try:
            if code != 0:
                raise CheckFailed(f"exit {code}: {stderr.strip()[-600:]}")
            ops = self.check(out_dir)
            if self.workload == "simulate-tx" and "output" not in self.info:
                self.check_report(out_dir)
                self.info["output"] = {k: v[0] for k, v in self.output_metrics(out_dir).items()}
            return ops
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as e:
            self.failures.append(f"{type(e).__name__}: {e}")
            return self.expected_ops()

    def check(self, out_dir: Path) -> int:
        """Check one run's outputs and digest; returns its operation count."""
        if self.workload == "calibrate":
            n, digests = self._check_calibrate(out_dir)
        else:
            n, digests = self._check_simulate(out_dir)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            raise CheckFailed(f"outputs differ between runs with seed {self.seed}: {digests}")
        return n

    def _check_calibrate(self, out_dir: Path):
        m = 20  # UncertaintyConfig.m at the default config
        lines = (out_dir / "calibration_pairs.csv").read_text().splitlines()
        if lines[0] != "u,beta,x_d,y_d":
            raise CheckFailed(f"calibration header {lines[0]!r}")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if len(rows) != self.sizes["rounds"]:
            raise CheckFailed(f"{len(rows)} calibration rows, expected {self.sizes['rounds']}")
        for u, beta, _, _ in rows:
            if abs(u * m - round(u * m)) > 1e-6 or not 0.0 <= beta <= 1.0:
                raise CheckFailed(f"calibration row u={u} beta={beta}")
        model = json.loads((out_dir / "model.json").read_text())
        if not all(math.isfinite(v) for v in model.values()):
            raise CheckFailed(f"model.json not finite: {model}")
        return len(rows), {"calibration_pairs.csv": sha256(out_dir / "calibration_pairs.csv")}

    def _check_simulate(self, out_dir: Path):
        records = read_records(out_dir)
        expected = self.sizes["r_max"] * self.sizes["n_sequences"]
        if len(records) != expected:
            raise CheckFailed(f"{len(records)} records, expected {expected}")
        entry_bits = 8 + math.ceil(math.log2(self.sizes["vocab"]))
        tx = [r for r in records if r["delta"] == 1]
        size = sum(HEADER_BYTES + ENTRY_BYTES * (r["payload_bits"] // entry_bits) for r in tx)
        transcript = out_dir / "transcript.bin"
        if transcript.stat().st_size != size:
            raise CheckFailed(f"transcript is {transcript.stat().st_size} bytes, expected {size}")
        return len(records), {
            "records.jsonl": sha256(out_dir / "records.jsonl"),
            "transcript.bin": sha256(transcript),
        }

    def check_report(self, out_dir: Path) -> None:
        """``hybridlm report`` on records.jsonl reproduces report.json exactly."""
        again = self.work / "report-check"
        args = ["report", "--records", str(out_dir / "records.jsonl"), "--out", str(again)]
        *_, code, _, stderr = self.hybridlm(args, "report")
        if code != 0:
            raise CheckFailed(f"report exited {code}: {stderr.strip()[-600:]}")
        first = json.loads((out_dir / "report.json").read_text())["report"]
        second = json.loads((again / "report.json").read_text())["report"]
        if first != second:
            raise CheckFailed(f"report differs: {first} vs {second}")

    def output_metrics(self, out_dir: Path) -> dict:
        """Per-layer metrics read from a simulate-tx record stream; 0 on calibrate."""
        simulate = self.workload == "simulate-tx"
        records = read_records(out_dir) if simulate else []
        tx = [r for r in records if r["delta"] == 1]
        checked = [
            r for r in records
            if r["tvd_pq"] is not None and r["bound_at_selection"] is not None
        ]
        mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
        transcript = (out_dir / "transcript.bin").stat().st_size if simulate else 0
        return {
            "compression.mean_k": (mean([r["k_used"] for r in tx]), "entries"),
            "channel.payload_bits_mean": (mean([r["payload_bits"] for r in tx]), "bits"),
            "channel.transcript_bytes": (float(transcript), "bytes"),
            "specdec.acceptance_rate": (
                mean([r["verdict"] == "accepted" for r in tx]), "ratio"
            ),
            "specdec.fallback_share": (mean([r["fallback_used"] for r in tx]), "ratio"),
            "pipeline.transmit_rate": (mean([r["delta"] for r in records]), "ratio"),
            "compression.bound_violations": (
                sum(r["tvd_pq"] > r["bound_at_selection"] for r in checked), "count"
            ),
            "compression.bound_checked": (len(checked), "count"),
        }

    # -- runs -----------------------------------------------------------------

    def timed_run(self, seconds: float) -> tuple[dict, int]:
        samples = {"wall_s": [], "peak_rss_mb": [], "setup_s": [], "items": [], "item_s": []}
        spec = {"mode": "timed", "config": str(self.config), "rounds": self.sizes["rounds"],
                "calib": str(self.calib) if self.calib else None}
        attempted = 0
        t_start = time.perf_counter()
        cycle = 0
        while True:
            out_dir = self.work / f"out-{cycle}"
            _, wall, rss, code, _, stderr = self.hybridlm(
                self.command() + ["--out", str(out_dir)], f"cli-{cycle}"
            )
            attempted += self.checked_ops(code, out_dir, stderr)
            shutil.rmtree(out_dir, ignore_errors=True)
            t_spawn, res = self.child(spec, f"child-{cycle}")
            attempted += res["items"]
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
            samples["setup_s"].append(res["t_ready"] - t_spawn)
            samples["items"].append(res["items"])
            samples["item_s"].append(res["seconds"])
            self.info["provenance"] = res["provenance"]
            cycle += 1
            elapsed = time.perf_counter() - t_start
            if cycle >= MIN_CYCLES and elapsed + elapsed / cycle / 2 >= seconds:
                break
        self.info["samples"] = samples
        metrics = {
            "wall_s": statistics.fmean(samples["wall_s"]),
            "items_per_s": sum(samples["items"]) / sum(samples["item_s"]),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, attempted

    def traced_run(self, seconds: float) -> tuple[dict, int]:
        spec = {"mode": "traced", "argv": self.command(), "seconds": seconds}
        _, res = self.child(spec, "traced")
        attempted = 0
        for run in res["outputs"]:
            attempted += self.checked_ops(run["exit"], Path(run["out"]), run["stderr"])
        metrics = {k: tuple(v) for k, v in res["metrics"].items()}
        metrics.update(self.output_metrics(Path(res["outputs"][-1]["out"])))
        self.info["provenance"] = res["provenance"]
        return metrics, attempted


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test size (V=2048)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hybridlm" / "cli.py").is_file():
        print(f"error: no hybridlm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sizes = TINY if args.tiny else FULL
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, sizes, work)
    try:
        if bench.calib is not None:
            bench.build_fixture()
        if args.trace:
            metrics, attempted = bench.traced_run(args.seconds)
        else:
            metrics, attempted = bench.timed_run(args.seconds)
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    else:
        for failure in bench.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        correct = not bench.failures
        info = dict(
            bench.info,
            workload=args.workload,
            seed=args.seed,
            trace=args.trace,
            sizes=sizes,
            config_sha256=bench.config_hash(),
            digests=bench.digests,
            failures=bench.failures,
        )
        print(json.dumps({"info": info}))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": 0 if correct else attempted,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
