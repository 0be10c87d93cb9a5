"""repro: "Using Broadcast Primitives in Replicated Databases", reproduced.

A from-scratch Python implementation of the three replication protocols of
Stanoi, Agrawal and El Abbadi (ICDCS 1998) — reliable-broadcast with
decentralized 2PC, causal-broadcast with implicit acknowledgments, and
atomic-broadcast with acknowledgment-free certification — together with
every substrate they need: a deterministic discrete-event simulator, a
group-communication stack (reliable/FIFO/causal/total-order broadcast,
failure detection, majority-quorum views), a strict-2PL replicated database
engine, a point-to-point 2PC baseline, workload generators and an
executable one-copy-serializability checker.

Quick start::

    from repro import Cluster, ClusterConfig, TransactionSpec

    cluster = Cluster(ClusterConfig(protocol="cbp", num_sites=4, seed=1))
    cluster.submit(TransactionSpec.make(
        "transfer", home=0, read_keys=["x0", "x1"],
        writes={"x0": 90, "x1": 110},
    ))
    result = cluster.run()
    assert result.ok  # one-copy serializable and replicas converged
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module defining it.  The facade imports a module on
#: the first use of one of its names (PEP 562), so ``import repro`` loads
#: no protocol stack and a run loads only what it executes.
_EXPORTS = {
    "AbortReason": "repro.core.transaction",
    "ClosedLoopRunner": "repro.workload.runner",
    "Cluster": "repro.core.cluster",
    "ClusterConfig": "repro.core.cluster",
    "ClusterResult": "repro.core.cluster",
    "FixedLatency": "repro.net.latency",
    "HistoryRecorder": "repro.db.serialization",
    "LognormalLatency": "repro.net.latency",
    "MetricsCollector": "repro.analysis.metrics",
    "OpenLoopRunner": "repro.workload.runner",
    "Outcome": "repro.core.api",
    "ReplicatedDatabase": "repro.core.api",
    "SerializationResult": "repro.db.serialization",
    "Table": "repro.analysis.report",
    "Transaction": "repro.core.transaction",
    "TransactionSpec": "repro.core.transaction",
    "TxPhase": "repro.core.transaction",
    "UniformLatency": "repro.net.latency",
    "WorkloadConfig": "repro.workload.generator",
    "WorkloadGenerator": "repro.workload.generator",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
