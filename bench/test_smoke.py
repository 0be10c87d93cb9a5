"""Smoke test of the benchmark itself (not part of tier-1).

    python -m pytest bench -q
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def test_check_passes():
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--check"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "check passed" in done.stdout
