"""Unit tests for the multiversioned store."""

import pytest

from repro.db.storage import StorageError, VersionedStore, VersionedValue


@pytest.fixture
def store():
    s = VersionedStore()
    s.initialize(["x", "y"], value=0)
    return s


def test_initial_version_zero(store):
    versioned = store.read("x")
    assert versioned.version == 0
    assert versioned.value == 0
    assert versioned.writer is None


def test_install_bumps_version(store):
    assert store.install("x", 10, "T1") == 1
    assert store.install("x", 20, "T2") == 2
    latest = store.read("x")
    assert (latest.version, latest.value, latest.writer) == (2, 20, "T2")


def test_initialize_is_idempotent(store):
    store.install("x", 5, "T1")
    store.initialize(["x"])  # must not reset
    assert store.read("x").value == 5
    assert len(store) == 2
    assert store.keys() == ["x", "y"]


def test_read_unknown_key_raises(store):
    with pytest.raises(StorageError):
        store.read("nope")


def test_install_unknown_key_raises(store):
    with pytest.raises(StorageError):
        store.install("nope", 1, "T1")


def test_install_replaces_the_latest_version(store):
    store.install("x", 10, "T1")
    store.install("x", 20, "T2")
    assert store.read("x") == VersionedValue(2, 20, "T2")
    assert store.version("x") == 2
    assert store.read("y") == VersionedValue(0, 0, None)


def test_a_store_keeps_one_version_per_key():
    store = VersionedStore()
    store.initialize(["x"])
    for n in range(10):
        store.install("x", n, f"T{n}")
    assert store.read("x") == VersionedValue(10, 9, "T9")
    assert store._objects == {"x": VersionedValue(10, 9, "T9")}


def test_digest_equality_tracks_content():
    a = VersionedStore()
    b = VersionedStore()
    for s in (a, b):
        s.initialize(["x", "y"])
    assert a.digest() == b.digest()
    a.install("x", 1, "T1")
    assert a.digest() != b.digest()
    b.install("x", 1, "T1")
    assert a.digest() == b.digest()


def test_install_count(store):
    store.install("x", 1, "T1")
    store.install("y", 2, "T1")
    assert store.install_count == 2
