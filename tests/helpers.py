"""Shared test helpers."""

import json


def write_trace(path, records: list[dict]) -> None:
    """A trace file: one JSON object per line, as ``oracle.read_trace`` reads it."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
