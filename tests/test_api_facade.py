"""Tests for the high-level ReplicatedDatabase facade."""

import pytest

from repro.core.api import ReplicatedDatabase


@pytest.mark.parametrize("protocol", ["rbp", "cbp", "abp", "p2p"])
def test_write_then_read_everywhere(protocol):
    db = ReplicatedDatabase(protocol=protocol, sites=3, seed=4)
    outcome = db.write({"alice": 100})
    assert outcome.committed
    for site in range(3):
        assert db.read("alice", site=site) == 100
    report = db.close()
    assert report["converged"]
    assert "1SR OK" in report["serialization"]


def test_transfer_helper_moves_money():
    db = ReplicatedDatabase(protocol="cbp", sites=3, seed=5)
    db.write({"alice": 100, "bob": 50})
    outcome = db.transfer("alice", "bob", 30)
    assert outcome.committed
    assert db.read("alice") == 70
    assert db.read("bob") == 80
    db.close()


def test_execute_returns_read_values():
    db = ReplicatedDatabase(protocol="abp", sites=3, seed=6)
    db.write({"k": "v1"})
    outcome = db.execute(reads=["k"], writes={"k": "v2"})
    assert outcome.committed
    assert outcome.values.get("k") == "v1"  # the value *read* (pre-write)
    db.close()


def test_outcome_truthiness_and_latency():
    db = ReplicatedDatabase(protocol="rbp", sites=3, seed=7)
    outcome = db.write({"x": 1})
    assert outcome
    assert outcome.latency > 0
    assert outcome.attempts == 1
    db.close()


def test_dynamic_keys_created_on_demand():
    db = ReplicatedDatabase(protocol="rbp", sites=2, seed=8)
    assert db.read("never_seen_before") == 0
    db.write({"another_new_key": 9})
    assert db.read("another_new_key", site=1) == 9
    db.close()


def test_explicit_schema_rejects_unknown_keys():
    db = ReplicatedDatabase(protocol="rbp", sites=2, objects=["a", "b"], seed=9)
    db.write({"a": 1})
    with pytest.raises(KeyError):
        db.write({"zzz": 1})
    db.close()


def test_submissions_from_different_sites():
    db = ReplicatedDatabase(protocol="cbp", sites=4, seed=10)
    for site in range(4):
        assert db.write({f"s{site}": site}, site=site).committed
    for site in range(4):
        for probe in range(4):
            assert db.read(f"s{site}", site=probe) == site
    db.close()


def test_close_is_terminal():
    db = ReplicatedDatabase(protocol="rbp", sites=2, seed=11)
    db.write({"x": 1})
    db.close()
    with pytest.raises(RuntimeError):
        db.write({"x": 2})
    with pytest.raises(RuntimeError):
        db.close()


def test_sequential_transfers_conserve_money():
    db = ReplicatedDatabase(protocol="abp", sites=3, seed=12)
    accounts = {f"acct{i}": 100 for i in range(5)}
    db.write(accounts)
    rng_moves = [(0, 1, 10), (1, 2, 35), (2, 3, 5), (3, 4, 60), (4, 0, 25)]
    for src, dst, amount in rng_moves:
        assert db.transfer(f"acct{src}", f"acct{dst}", amount).committed
    total = sum(db.read(f"acct{i}") for i in range(5))
    assert total == 500
    db.close()


def test_execute_rejects_a_name_already_used():
    db = ReplicatedDatabase(protocol="rbp", sites=2, seed=13)
    assert db.execute(writes={"x": 1}, name="x").committed
    with pytest.raises(ValueError, match="already submitted"):
        db.execute(writes={"x": 2}, name="x")
    assert db.read("x") == 1
    db.close()


def test_unknown_site_rejected_with_friendly_error():
    db = ReplicatedDatabase(protocol="rbp", sites=2, seed=13)
    with pytest.raises(ValueError, match="unknown site"):
        db.write({"x": 1}, site=9)
    with pytest.raises(ValueError, match="unknown site"):
        db.read("x", site=-1)
    db.close()
