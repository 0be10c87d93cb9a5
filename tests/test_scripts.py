"""Tests for the repository tooling scripts."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args, timeout=180):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )


def test_api_index_is_current():
    """docs/API.md must match the live docstrings (regen if this fails)."""
    proc = run_script("gen_api_index.py", "--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_run_experiments_rejects_unknown():
    proc = run_script("run_experiments.py", "e99")
    assert proc.returncode == 2
    assert "unknown experiments" in proc.stdout


def test_run_experiments_single_experiment():
    """Run the fastest experiment end to end through the script."""
    proc = run_script("run_experiments.py", "e1", timeout=400)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "E1" in proc.stdout
    assert "PASS" in proc.stdout
