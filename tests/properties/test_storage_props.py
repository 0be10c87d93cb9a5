"""Property-based tests for the multiversioned store."""

from hypothesis import given, settings, strategies as st

from repro.db.storage import StorageError, VersionedStore, VersionedValue

KEYS = ("a", "b", "c")

operations = st.lists(
    st.tuples(st.sampled_from(KEYS), st.integers(-1000, 1000)),
    min_size=0,
    max_size=30,
)


def build(ops, history_limit=16):
    store = VersionedStore(history_limit=history_limit)
    store.initialize(KEYS, value=0)
    for index, (key, value) in enumerate(ops):
        store.install(key, value, f"T{index}")
    return store


@settings(max_examples=200, deadline=None)
@given(operations)
def test_versions_dense_and_latest_wins(ops):
    store = build(ops)
    per_key_writes = {key: [v for k, v in ops if k == key] for key in KEYS}
    for key in KEYS:
        latest = store.read(key)
        assert latest.version == len(per_key_writes[key])
        expected = per_key_writes[key][-1] if per_key_writes[key] else 0
        assert latest.value == expected


@settings(max_examples=200, deadline=None)
@given(operations)
def test_retained_versions_readable_in_order(ops):
    store = build(ops, history_limit=8)
    for key in KEYS:
        latest = store.read(key).version
        lowest_retained = max(0, latest - 7)
        values = [
            store.read_version(key, v).version
            for v in range(lowest_retained, latest + 1)
        ]
        assert values == list(range(lowest_retained, latest + 1))


@settings(max_examples=100, deadline=None)
@given(operations)
def test_snapshot_roundtrip_preserves_digest(ops):
    store = build(ops)
    copy = VersionedStore()
    copy.load_snapshot(store.export_snapshot())
    assert copy.digest() == store.digest()


#: Small domains so equal and unequal stores are both common; key sets vary
#: (each store initializes only its own keys), and NaN exercises tuple comparison's
#: identity-before-equality rule, which the shared-payload simulator hits.
NAN = float("nan")
store_specs = st.lists(
    st.dictionaries(
        st.sampled_from(("a", "b", "c", "d")),
        st.tuples(st.integers(1, 3), st.sampled_from((0, 1, NAN))),
        max_size=4,
    ),
    min_size=0,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(store_specs)
def test_replicas_converged_agrees_with_digest_comparison(specs):
    from repro.db.serialization import replicas_converged

    stores = []
    for spec in specs:
        store = VersionedStore()
        store.initialize(spec)
        for key, (version, value) in spec.items():
            # Distinct writers: the digest (and convergence) ignore them.
            for _ in range(version - 1):
                store.install(key, 0, f"w{len(stores)}")
            store.install(key, value, f"w{len(stores)}")
        stores.append(store)
    digests = [store.digest() for store in stores]
    assert replicas_converged(stores) == all(d == digests[0] for d in digests[1:])
    assert replicas_converged(iter(stores)) == replicas_converged(stores)


class ListStore(VersionedStore):
    """The reference representation: a fresh one-version list per key on
    initialize and on snapshot load, as the store kept before keys shared
    one initial history."""

    def initialize(self, keys, value=0):
        for key in keys:
            if key not in self._objects:
                self._objects[key] = [VersionedValue(0, value, None)]

    def load_snapshot(self, snapshot, writer="state-transfer"):
        self._objects = {
            key: [VersionedValue(version, value, writer if version > 0 else None)]
            for key, version, value in snapshot
        }


#: ``("install", key, value)`` or ``("transfer",)``: round-trip the state
#: through ``export_snapshot`` / ``load_snapshot``, as a rejoiner does.
store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.sampled_from(KEYS), st.integers(-5, 5)),
        st.just(("transfer",)),
    ),
    max_size=40,
)


def read_or_missing(store, key, version):
    try:
        return store.read_version(key, version)
    except StorageError:
        return "not retained"


@settings(max_examples=300, deadline=None)
@given(store_ops, st.integers(1, 4))
def test_shared_initial_histories_read_as_per_key_lists(ops, history_limit):
    stores = [VersionedStore(history_limit), ListStore(history_limit)]
    for store in stores:
        store.initialize(KEYS, value=7)
    for index, op in enumerate(ops):
        for store in stores:
            if op[0] == "install":
                store.install(op[1], op[2], f"T{index}")
            else:
                store.load_snapshot(store.export_snapshot())
        shared, reference = stores
        assert shared.digest() == reference.digest()
        assert shared.same_state(reference) and reference.same_state(shared)
        assert shared.export_snapshot() == reference.export_snapshot()
        for key in KEYS:
            assert shared.read(key) == reference.read(key)
            for version in range(shared.version(key) + 2):
                assert read_or_missing(shared, key, version) == read_or_missing(
                    reference, key, version
                )


def test_initialize_allocates_one_initial_version():
    store = VersionedStore()
    keys = [f"x{n}" for n in range(1000)]
    store.initialize(keys)
    assert len({id(store.read(key)) for key in keys}) == 1
    store.install("x1", 5, "T1")
    assert store.read("x1").value == 5
    assert store.read("x0").value == 0 and store.read("x2").value == 0
