"""Property-based tests for the multiversioned store."""

from hypothesis import given, settings, strategies as st

from repro.db.storage import VersionedStore, VersionedValue

KEYS = ("a", "b", "c")

operations = st.lists(
    st.tuples(st.sampled_from(KEYS), st.integers(-1000, 1000)),
    min_size=0,
    max_size=30,
)


def build(ops):
    store = VersionedStore()
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
def test_latest_version_names_its_last_writer(ops):
    store = build(ops)
    for key in KEYS:
        writers = [f"T{index}" for index, (k, _) in enumerate(ops) if k == key]
        assert store.read(key).writer == (writers[-1] if writers else None)


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
    initialize and on snapshot load, appended to on every install, whose
    last entry is the latest version."""

    def initialize(self, keys, value=0):
        for key in keys:
            if key not in self._objects:
                self._objects[key] = [VersionedValue(0, value, None)]

    def read(self, key):
        return self._objects[key][-1]

    def install(self, key, value, writer):
        history = self._objects[key]
        history.append(VersionedValue(history[-1].version + 1, value, writer))
        return history[-1].version

    def digest(self):
        return tuple((key, h[-1].version, h[-1].value) for key, h in sorted(self._objects.items()))

    def same_state(self, other):
        return self.digest() == other.digest()

    export_snapshot = digest

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


@settings(max_examples=300, deadline=None)
@given(store_ops)
def test_shared_initial_histories_read_as_per_key_lists(ops):
    """The store that keeps one version per key, its unwritten keys sharing
    one initial version, answers every read as the last entry of a full
    per-key history does: latest version wins."""
    stores = [VersionedStore(), ListStore()]
    for store in stores:
        store.initialize(KEYS, value=7)
    for index, op in enumerate(ops):
        for store in stores:
            if op[0] == "install":
                store.install(op[1], op[2], f"T{index}")
            else:
                store.load_snapshot(store.export_snapshot())
        latest, reference = stores
        assert latest.digest() == reference.digest()
        assert reference.same_state(latest)
        assert latest.export_snapshot() == reference.export_snapshot()
        for key in KEYS:
            assert latest.read(key) == reference.read(key)
            assert latest.version(key) == reference.version(key)


def test_initialize_allocates_one_initial_version():
    store = VersionedStore()
    keys = [f"x{n}" for n in range(1000)]
    store.initialize(keys)
    assert len({id(store.read(key)) for key in keys}) == 1
    store.install("x1", 5, "T1")
    assert store.read("x1").value == 5
    assert store.read("x0").value == 0 and store.read("x2").value == 0
