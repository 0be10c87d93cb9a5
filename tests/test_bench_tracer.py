"""The benchmark tracer's view of the engine stays complete.

``bench/tracer.py`` charges a protocol callback to the layer that owns it
only when the callback reaches the engine through a scheduling method it
wraps (``ENGINE_CALLBACK_INDEX``); a callback scheduled any other way runs
inside the engine's span and its time reads as ``sim.engine``.  These
tests read the tracer without editing it, so a new scheduling entry point
on :class:`SimulationEngine` fails here instead of silently moving protocol
time in the benchmark's layer split.
"""

import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys

from repro.sim.engine import SimulationEngine

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"

#: Callables the run loop evaluates in place: they fire no event.
POLLED = {("run", "stop_when")}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer_view", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_engine_method_taking_a_callback_is_traced():
    tracer = _tracer_module()
    (engine_methods,) = [
        methods for module, name, methods in tracer.TARGETS if name == "SimulationEngine"
    ]
    for name, fn in vars(SimulationEngine).items():
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        parameters = list(inspect.signature(fn).parameters.values())[1:]
        for position, parameter in enumerate(parameters):
            if "Callable" not in str(parameter.annotation) or (name, parameter.name) in POLLED:
                continue
            assert tracer.ENGINE_CALLBACK_INDEX.get(name) == position, (
                f"SimulationEngine.{name} takes callback {parameter.name!r} at position "
                f"{position}; bench/tracer.py's ENGINE_CALLBACK_INDEX does not route it"
            )
            assert name in engine_methods


#: The tiny clusters the tracer watches: every protocol on passthrough
#: links, and ABP over ARQ (framing, acks and the retransmit timer).
TINY_CELLS = (
    ("rbp", 0.0),
    ("cbp", 0.0),
    ("abp", 0.0),
    ("p2p", 0.0),
    ("abp", 0.05),
)

_TINY_RUN = """
import json, sys
sys.path.insert(0, {bench!r})
from tracer import Tracer
tracer = Tracer()
tracer.install()
from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec
reports = []
for protocol, loss_rate in {cells!r}:
    cluster = Cluster(ClusterConfig(
        protocol=protocol, num_sites=3, num_objects=8, seed=1, loss_rate=loss_rate
    ))
    for i in range(6):
        cluster.submit(TransactionSpec.make(f"t{{i}}", i % 3, writes={{f"x{{i}}": i}}), at=float(i))
    tracer.begin()
    before = cluster.engine.events_processed
    result = cluster.run(max_time=10_000)
    summary = tracer.end()
    reports.append({{
        "cell": [protocol, loss_rate],
        "hooks_missing": summary["hooks_missing"],
        "traced_events": tracer.event,
        "engine_events": cluster.engine.events_processed - before,
        "retransmissions": cluster.network.stats.retransmissions,
        "ok": result.ok,
    }})
print(json.dumps(reports))
"""


def test_tracer_installs_every_hook_and_sees_every_event():
    """On a tiny cluster of each protocol, and of ABP over lossy ARQ links,
    every target resolves and every engine event fires through the
    tracer's trampoline: a delivery scheduled past the tracer would run
    inside the engine's span and move protocol time into ``sim.engine``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            _TINY_RUN.format(bench=str(ROOT / "bench"), cells=list(TINY_CELLS)),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    reports = json.loads(done.stdout.strip().splitlines()[-1])
    assert [tuple(report["cell"]) for report in reports] == list(TINY_CELLS)
    for report in reports:
        assert report["hooks_missing"] == [], report
        assert report["ok"], report
        assert report["engine_events"] > 0, report
        assert report["traced_events"] == report["engine_events"], report
    assert reports[-1]["retransmissions"] > 0  # the ARQ cell repaired a loss
