"""Byte identity of the V=2048 output streams against tools/digests.expected."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "digests.sh"
EXPECTED = ROOT / "tools" / "digests.expected"
REGENERATE = "tools/digests.sh . /tmp/digests > tools/digests.expected"


def listing(text):
    """The header line and a {path: sha256} map of a digests.sh listing."""
    header, *lines = text.splitlines()
    return header, {path: digest for digest, path in (line.split() for line in lines)}


def test_v2048_outputs_match_the_checked_in_listing(tmp_path):
    proc = subprocess.run(
        ["bash", str(SCRIPT), str(ROOT), str(tmp_path), "--v2048"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHON": sys.executable},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, got = listing(proc.stdout)
    want_header, want = listing(EXPECTED.read_text())
    if header != want_header:
        pytest.skip(
            f"digests.expected was made on '{want_header}', this is '{header}'; "
            f"regenerate it with: {REGENERATE}"
        )
    assert len(got) == 24
    changed = sorted(path for path, digest in got.items() if want.get(path) != digest)
    assert not changed, f"output streams changed: {changed}"
