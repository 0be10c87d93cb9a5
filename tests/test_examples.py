"""Smoke tests: every example script runs to a clean exit.

Examples are documentation that executes; these tests keep them from
rotting as the library evolves.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def run_example(name, *args, timeout=300):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )


def test_quickstart():
    proc = run_example("quickstart.py")
    assert proc.returncode == 0, proc.stderr[-2000:]
    for protocol in ("p2p", "rbp", "cbp", "abp"):
        assert protocol in proc.stdout


@pytest.mark.parametrize("protocol", ["rbp", "abp"])
def test_banking(protocol):
    proc = run_example("banking.py", protocol)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "money conserved" in proc.stdout
    assert "1SR OK" in proc.stdout


def test_inventory():
    proc = run_example("inventory.py", timeout=420)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Inventory" in proc.stdout
    assert "abp" in proc.stdout


def test_failover():
    proc = run_example("failover.py")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "refused by quorum check" in proc.stdout
    assert "replicas converged: True" in proc.stdout


def test_broadcast_playground():
    proc = run_example("broadcast_playground.py")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "all ordering guarantees held" in proc.stdout


def test_trace_anatomy():
    proc = run_example("trace_anatomy.py")  # no arguments: all four protocols
    assert proc.returncode == 0, proc.stderr[-2000:]
    for kind in ("p2p.prepare", "rbp.vote", "cbp.commit_request", "abp.commit_request"):
        assert kind in proc.stdout
    assert proc.stdout.count("transaction timeline") == 4
