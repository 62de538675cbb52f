"""Write one point of the benchmark trajectory, BENCH_<pr>.json.

Usage (from the repository root):

    python3 tools/bench_record.py --pr 8 --seed 1 --seconds 50
    python3 tools/bench_record.py --pr 7 --seed 1 --seconds 50 --root ../parent

For each workload that the checkout's BENCHMARK.json lists, one after the
other, this runs the checkout's

    bench/run.py --workload W --seed S --seconds N --trace 0

with this interpreter, and writes BENCH_<pr>.json (into --out, by default
this repository's root). The file holds the machine (cores, Python and
numpy versions), the sha256 of the checkout's default config
(``RunConfig().to_json()``), each workload's result line and, under
``digests``, the sha256 of each workload's outputs from its provenance line,
so two files alone show whether the outputs are equal. A perf change cites
the two files it compares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent

CONFIG_JSON = "from hybridlm.config import RunConfig; print(RunConfig().to_json(), end='')"


def default_config_sha256(root: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", CONFIG_JSON], env=env, check=True, capture_output=True
    ).stdout
    return hashlib.sha256(out).hexdigest()


def parse_run_output(stdout: str) -> tuple[dict, dict]:
    """The result line of ``bench/run.py``'s stdout and the output digests of
    its provenance line, the line before it."""
    *_, provenance, result = stdout.strip().splitlines()
    return json.loads(result), json.loads(provenance)["info"]["digests"]


def run_workload(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result line and output digests of one ``--trace 0`` run of the checkout's benchmark."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: bench/run.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-600:]}")
    return parse_run_output(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="number in the file name")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--root", type=Path, default=REPO, help="checkout to benchmark")
    p.add_argument("--out", type=Path, default=REPO, help="directory of the file")
    args = p.parse_args(argv)
    root = args.root.resolve()

    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    doc = {
        "pr": args.pr,
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "default_config_sha256": default_config_sha256(root),
        "command": f"bench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "workloads": {},
        "digests": {},
    }
    for w in workloads:
        print(f"running {w} ...", file=sys.stderr)
        doc["workloads"][w], doc["digests"][w] = run_workload(root, w, args.seed, args.seconds)
    out = args.out / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
