"""Tests for tools/bench_record.py's reading of a bench/run.py stdout."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_result_and_digests_from_the_last_two_lines(bench_record):
    digests = {"records.jsonl": "ab" * 32, "transcript.bin": "cd" * 32}
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
    stdout = "\n".join([
        "a stray line",
        json.dumps({"info": {"workload": "simulate-tx", "digests": digests, "failures": []}}),
        json.dumps(result),
    ]) + "\n"
    assert bench_record.parse_run_output(stdout) == (result, digests)


def test_missing_provenance_line_is_an_error(bench_record):
    with pytest.raises(ValueError):
        bench_record.parse_run_output(json.dumps({"correct": True}) + "\n")
