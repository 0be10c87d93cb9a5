"""Adversarial workload patterns targeting each protocol's weak spot.

Where :mod:`repro.workload.generator` produces statistically shaped load,
this module produces *structured* schedules that aim a specific stressor
at a specific protocol mechanism:

- :func:`symmetric_race` — pairs of concurrent writers on the same key
  from different homes (CBP's mutual-NACK case; RBP's negative-ack case);
- :func:`write_skew_web` — rings of read-x-write-y transactions whose
  naive interleavings form 1SR cycles (ABP certification's reason to
  exist);
- :func:`opposed_lock_orders` — writers taking the same keys in opposite
  orders (the baseline's distributed-deadlock generator);
- :func:`reader_gauntlet` — long read-only transactions threaded between
  bursts of writers (the read-only never-abort guarantee under pressure);
- :func:`per_op_cross_causality` — interleaved multi-key writers timed to
  produce cross-causal lock queues (CBP per-op mode's cycle backstop).

Each returns ``[(spec, submit_time), ...]`` ready for
:meth:`repro.core.cluster.Cluster.submit`, and the test-suite uses them to
demonstrate that the invariants hold even under targeted attack.
"""

from __future__ import annotations


from repro.core.transaction import TransactionSpec

Schedule = list[tuple[TransactionSpec, float]]


def symmetric_race(
    pairs: int = 6,
    sites: int = 3,
    spacing: float = 120.0,
    jitter: float = 0.1,
) -> Schedule:
    """Two writers per round hit one key from different homes, near-simultaneously."""
    schedule: Schedule = []
    for n in range(pairs):
        key = f"x{n}"
        base = n * spacing
        left_home = n % sites
        right_home = (n + 1) % sites
        schedule.append(
            (TransactionSpec.make(f"raceL{n}", left_home, writes={key: f"L{n}"}), base)
        )
        schedule.append(
            (
                TransactionSpec.make(f"raceR{n}", right_home, writes={key: f"R{n}"}),
                base + jitter,
            )
        )
    return schedule


def write_skew_web(
    rings: int = 4,
    ring_size: int = 3,
    sites: int = 3,
    spacing: float = 150.0,
) -> Schedule:
    """Rings of transactions each reading the next one's write target.

    Within a ring of size k, transaction i reads key i and writes key
    (i+1) mod k, all submitted together: any two adjacent members form an
    rw/rw pair, and committing all of them naively is a 1SR cycle.
    """
    schedule: Schedule = []
    for ring in range(rings):
        base = ring * spacing
        keys = [f"x{ring * ring_size + i}" for i in range(ring_size)]
        for i in range(ring_size):
            read_key = keys[i]
            write_key = keys[(i + 1) % ring_size]
            schedule.append(
                (
                    TransactionSpec.make(
                        f"skew{ring}_{i}",
                        i % sites,
                        read_keys=[read_key],
                        writes={write_key: f"r{ring}i{i}"},
                    ),
                    base + i * 0.05,
                )
            )
    return schedule


def opposed_lock_orders(
    rounds: int = 5,
    sites: int = 3,
    spacing: float = 200.0,
) -> Schedule:
    """Pairs of two-key writers whose sorted write sets coincide but whose
    homes race: a distributed-deadlock factory for WAIT locking."""
    schedule: Schedule = []
    for n in range(rounds):
        a, b = f"x{2 * n}", f"x{2 * n + 1}"
        base = n * spacing
        schedule.append(
            (
                TransactionSpec.make(f"fwd{n}", n % sites, writes={a: 1, b: 1}),
                base,
            )
        )
        schedule.append(
            (
                TransactionSpec.make(f"rev{n}", (n + 1) % sites, writes={b: 2, a: 2}),
                base + 0.1,
            )
        )
    return schedule


def reader_gauntlet(
    readers: int = 4,
    writer_bursts: int = 6,
    keys: int = 8,
    sites: int = 3,
    burst_spacing: float = 80.0,
) -> Schedule:
    """Wide read-only transactions interleaved with writer bursts on the
    same keys: read-only transactions must all commit untouched."""
    schedule: Schedule = []
    key_names = [f"x{i}" for i in range(keys)]
    for burst in range(writer_bursts):
        base = burst * burst_spacing
        key = key_names[burst % keys]
        schedule.append(
            (
                TransactionSpec.make(
                    f"burst{burst}", burst % sites, writes={key: f"b{burst}"}
                ),
                base,
            )
        )
    for reader in range(readers):
        schedule.append(
            (
                TransactionSpec.make(
                    f"gauntlet{reader}",
                    reader % sites,
                    read_keys=key_names,
                ),
                25.0 + reader * (writer_bursts * burst_spacing / max(readers, 1)),
            )
        )
    return schedule


def per_op_cross_causality(
    rounds: int = 4,
    sites: int = 3,
    spacing: float = 180.0,
) -> Schedule:
    """Two-key writers from different homes with mirrored key orders,
    timed so per-operation causal dissemination can interleave the two
    keys' queues (the cross-causality pattern CBP's cycle backstop
    exists for)."""
    schedule: Schedule = []
    for n in range(rounds):
        a, b = f"x{2 * n}", f"x{2 * n + 1}"
        base = n * spacing
        schedule.append(
            (
                TransactionSpec.make(f"crossA{n}", n % sites, writes={a: "A", b: "A"}),
                base,
            )
        )
        schedule.append(
            (
                TransactionSpec.make(
                    f"crossB{n}", (n + 1) % sites, writes={a: "B", b: "B"}
                ),
                base + 0.6,
            )
        )
        schedule.append(
            (
                TransactionSpec.make(
                    f"crossC{n}", (n + 2) % sites, writes={b: "C"}
                ),
                base + 1.1,
            )
        )
    return schedule


def required_objects(schedule: Schedule) -> int:
    """Database size the schedule needs (max key index + 1)."""
    highest = 0
    for spec, _ in schedule:
        for key in list(spec.read_keys) + list(spec.write_keys):
            highest = max(highest, int(key[1:]))
    return highest + 1


def submit_all(cluster, schedule: Schedule) -> dict:
    """Submit a schedule into a cluster; returns each spec's status by name."""
    return {spec.name: cluster.submit(spec, at=at) for spec, at in schedule}
