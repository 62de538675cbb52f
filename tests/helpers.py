"""Shared test helpers."""

import json
import os

import pytest


def write_trace(path, records: list[dict]) -> None:
    """A trace file: one JSON object per line, as ``oracle.read_trace`` reads it."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def no_children_left() -> None:
    """Every process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
