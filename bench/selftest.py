"""Harness self-test: every workload at tiny size, untraced and traced.

Usage (from the repository root): python3 bench/selftest.py

Runs ``run.py --tiny`` (V=2048, a few rounds) for each workload with
``--trace 0`` and ``--trace 1`` and asserts that

* the result line has exactly the keys correct, attempted, failed and
  metrics, is correct and has no failed operations;
* the metrics printed are exactly the ones BENCHMARK.json names for that
  mode, each with the unit BENCHMARK.json gives it;
* the traced spans cover at least 90% of the timed phase.

Takes about a minute; exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_COVERAGE = 0.9


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = run(workload, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True and res["failed"] == 0, res
            assert res["attempted"] >= 1, res
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            missing = expected[trace].keys() - got.keys()
            extra = got.keys() - expected[trace].keys()
            assert not missing and not extra, (workload, trace, missing, extra)
            assert got == expected[trace], (workload, trace, got)
            for name, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), (name, v)
            if trace:
                coverage = res["metrics"]["trace.coverage"]["value"]
                assert coverage >= MIN_COVERAGE, (workload, coverage)
            print(f"ok {workload} trace={trace}: {len(got)} metrics")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
