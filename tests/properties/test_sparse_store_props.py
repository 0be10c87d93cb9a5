"""The sparse store against a dense reference.

A cluster's stores share one initial mapping and one table of the latest
versions installed, and each holds of its own only the keys it wrote
(``repro.db.storage``).  Here several such stores run the same operations
as as many dense stores -- a plain dict holding every key, nothing shared
-- and must answer every question the same way after every step.
"""

from hypothesis import given, settings, strategies as st

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec
from repro.db.serialization import replicas_converged
from repro.db.storage import StorageError, VersionedStore, VersionedValue

KEYS = ("a", "b", "c", "d")
#: Read, never written nor initialized: every store must call it unknown.
UNKNOWN = "zz"
SITES = 3
#: The initial value: an int CPython does not cache, so a snapshot can hold
#: an equal value that is not the initial mapping's object.
INITIAL = int("1000")
NAN = float("nan")
#: Small, so equal and unequal stores are both common; NaN exercises the
#: identity-before-equality rule of tuple comparison.
VALUES = st.sampled_from((0, 1, 2, NAN))


class DenseStore:
    """The reference: every key in one dict of its own, nothing shared, a
    fresh ``VersionedValue`` per install."""

    def __init__(self, keys, value):
        self.objects = {key: VersionedValue(0, value, None) for key in keys}

    def read(self, key):
        if key not in self.objects:
            raise StorageError(key)
        return self.objects[key]

    def install(self, key, value, writer):
        version = self.read(key).version + 1
        self.objects[key] = VersionedValue(version, value, writer)
        return version

    def digest(self):
        return tuple(
            (key, latest.version, latest.value) for key, latest in sorted(self.objects.items())
        )

    def load_snapshot(self, snapshot, writer="state-transfer"):
        self.objects = {
            key: VersionedValue(version, value, writer if version > 0 else None)
            for key, version, value in snapshot
        }


#: ``("install", site, key, value)``: one site installs on its own;
#: ``("commit", key, value)``: every site installs the same write, as a
#: commit does; ``("transfer", donor, site)``: ``site`` loads ``donor``'s
#: snapshot, as a rejoiner does; ``("foreign", site, value)``: ``site``
#: loads a snapshot whose unwritten keys hold ``INITIAL + value`` built anew
#: (equal to the initial value or not, never its object), so it takes a
#: mapping of its own; ``("drop", site, key)``: ``site`` loads its own
#: snapshot less ``key``, which it then no longer knows.
site = st.integers(0, SITES - 1)
store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), site, st.sampled_from(KEYS), VALUES),
        st.tuples(st.just("commit"), st.sampled_from(KEYS), VALUES),
        st.tuples(st.just("transfer"), site, site),
        st.tuples(st.just("foreign"), site, st.integers(0, 1)),
        st.tuples(st.just("drop"), site, st.sampled_from(KEYS)),
    ),
    max_size=40,
)


def install(store, reference, key, value, writer):
    if key in reference.objects:
        assert store.install(key, value, writer) == reference.install(key, value, writer)
        return
    try:
        store.install(key, value, writer)
    except StorageError:
        return
    raise AssertionError(f"installed {key!r}, which the store no longer holds")


def apply(op, index, sparse, dense):
    kind = op[0]
    if kind == "install":
        _, at, key, value = op
        install(sparse[at], dense[at], key, value, f"T{index}")
    elif kind == "commit":
        _, key, value = op
        writer = f"T{index}"
        for store, reference in zip(sparse, dense):
            install(store, reference, key, value, writer)
    elif kind == "transfer":
        _, donor, at = op
        sparse[at].load_snapshot(sparse[donor].export_snapshot())
        dense[at].load_snapshot(dense[donor].digest())
    elif kind == "drop":
        _, at, key = op
        snapshot = tuple(row for row in dense[at].digest() if row[0] != key)
        sparse[at].load_snapshot(snapshot)
        dense[at].load_snapshot(snapshot)
    else:
        _, at, value = op
        snapshot = tuple(
            (key, version, int(str(INITIAL + value)) if version == 0 else held)
            for key, version, held in dense[at].digest()
        )
        sparse[at].load_snapshot(snapshot)
        dense[at].load_snapshot(snapshot)


def check(sparse, dense):
    probe = (*KEYS, UNKNOWN)
    for store, reference in zip(sparse, dense):
        assert store.digest() == reference.digest()
        assert store.export_snapshot() == reference.digest()
        assert store.keys() == sorted(reference.objects)
        assert len(store) == len(reference.objects)
        assert [store.contains(key) for key in probe] == [key in reference.objects for key in probe]
        assert store._latest_versions(probe) == [
            reference.objects[key].version if key in reference.objects else 0 for key in probe
        ]
        for key in reference.objects:
            assert store.read(key) == reference.read(key)
            assert store.version(key) == reference.read(key).version
        # The store's own map holds a key iff its version is above 0.
        assert set(store._objects) == {
            key for key, latest in reference.objects.items() if latest.version > 0
        }
    digests = [reference.digest() for reference in dense]
    for store, digest in zip(sparse, digests):
        for other, theirs in zip(sparse, digests):
            assert store.same_state(other) == (digest == theirs)
    assert replicas_converged(sparse) == all(d == digests[0] for d in digests)


@settings(max_examples=300, deadline=None)
@given(store_ops)
def test_sparse_stores_answer_as_dense_ones(ops):
    initial: dict = {}
    versions: dict = {}
    sparse = [VersionedStore(initial, versions) for _ in range(SITES)]
    for store in sparse:
        store.initialize(KEYS, value=INITIAL)
    dense = [DenseStore(KEYS, INITIAL) for _ in range(SITES)]
    check(sparse, dense)
    for index, op in enumerate(ops):
        apply(op, index, sparse, dense)
        check(sparse, dense)
        for store in sparse:
            try:
                store.read(UNKNOWN)
            except StorageError:
                continue
            raise AssertionError(f"{UNKNOWN!r} read as known")


def test_a_key_no_store_writes_is_held_once_for_the_whole_cluster():
    initial: dict = {}
    stores = [VersionedStore(initial) for _ in range(4)]
    for store in stores:
        store.initialize([f"x{n}" for n in range(100)])
    stores[0].install("x1", 5, "T1")
    assert len(initial) == 100
    assert [len(store._objects) for store in stores] == [1, 0, 0, 0]
    assert [len(store) for store in stores] == [100] * 4
    assert stores[1].read("x1") is stores[2].read("x1") is initial["x1"]


def test_every_replica_installing_one_commit_holds_the_same_version_object():
    for protocol in ("rbp", "cbp", "abp", "p2p"):
        cluster = Cluster(ClusterConfig(protocol=protocol, num_sites=4, num_objects=8, seed=3))
        status = cluster.submit(TransactionSpec.make("T1", 1, writes={"x0": 7, "x5": 9}), at=0.0)
        result = cluster.run(max_time=10_000.0, stop_when=cluster.await_specs(1))
        assert status.committed and result.converged, protocol
        for key in ("x0", "x5"):
            held = {id(replica.store.read(key)) for replica in cluster.replicas}
            assert len(held) == 1, (protocol, key)
            assert cluster.replicas[0].store.read(key).version == 1
        assert all(len(replica.store._objects) == 2 for replica in cluster.replicas)
