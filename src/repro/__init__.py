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

from repro.analysis.metrics import MetricsCollector
from repro.analysis.report import Table
from repro.core.api import Outcome, ReplicatedDatabase
from repro.core.cluster import Cluster, ClusterConfig, ClusterResult
from repro.core.transaction import AbortReason, Transaction, TransactionSpec, TxPhase
from repro.db.serialization import HistoryRecorder, SerializationResult
from repro.net.latency import (
    FixedLatency,
    LognormalLatency,
    UniformLatency,
)
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.runner import ClosedLoopRunner, OpenLoopRunner

__version__ = "1.0.0"

__all__ = [
    "AbortReason",
    "ClosedLoopRunner",
    "Cluster",
    "ClusterConfig",
    "ClusterResult",
    "FixedLatency",
    "HistoryRecorder",
    "LognormalLatency",
    "MetricsCollector",
    "OpenLoopRunner",
    "Outcome",
    "ReplicatedDatabase",
    "SerializationResult",
    "Table",
    "Transaction",
    "TransactionSpec",
    "TxPhase",
    "UniformLatency",
    "WorkloadConfig",
    "WorkloadGenerator",
    "__version__",
]
