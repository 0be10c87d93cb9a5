"""The paper's contribution: three broadcast-based replication protocols.

- :class:`repro.core.reliable_protocol.ReliableBroadcastReplica` -- RBP,
  paper section 3: reliable broadcast, explicit per-write acknowledgments,
  decentralized two-phase commit; deadlock-free by construction.
- :class:`repro.core.causal_protocol.CausalBroadcastReplica` -- CBP, paper
  section 4: causal broadcast with *implicit* positive acknowledgments and
  explicit causally-broadcast negative acknowledgments.
- :class:`repro.core.atomic_protocol.AtomicBroadcastReplica` -- ABP, paper
  section 5: atomic broadcast orders commit requests; deterministic
  certification removes acknowledgments entirely (two dissemination
  variants: bundled write sets, and causally pre-shipped write sets).

:class:`repro.core.cluster.Cluster` wires replicas, broadcast stacks, the
workload driver and the invariant checkers into one harness.
"""
