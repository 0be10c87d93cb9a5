"""Unit tests for the partition manager."""

import pytest

from repro.net.partition import PartitionManager


def test_fully_connected_by_default():
    pm = PartitionManager(4)
    assert pm.is_fully_connected()
    assert all(pm.connected(a, b) for a in range(4) for b in range(4))


def test_split_separates_groups():
    pm = PartitionManager(5)
    pm.split([[0, 1, 2], [3, 4]])
    assert pm.connected(0, 2)
    assert pm.connected(3, 4)
    assert not pm.connected(0, 3)
    assert not pm.is_fully_connected()


def test_unmentioned_sites_form_leftover_group():
    pm = PartitionManager(5)
    pm.split([[0, 1]])
    assert pm.connected(2, 3) and pm.connected(3, 4)
    assert not pm.connected(0, 2)


def test_isolate_cuts_single_site():
    pm = PartitionManager(4)
    pm.isolate(2)
    assert not pm.connected(2, 0)
    assert pm.connected(0, 1) and pm.connected(0, 3)
    assert pm.connected(2, 2)


def test_heal_restores_everything():
    pm = PartitionManager(4)
    pm.split([[0], [1], [2], [3]])
    pm.heal()
    assert pm.is_fully_connected()


def test_groups_listing():
    pm = PartitionManager(4)
    pm.split([[1, 3], [0, 2]])
    assert sorted(map(tuple, pm.groups())) == [(0, 2), (1, 3)]


def test_duplicate_site_rejected():
    pm = PartitionManager(4)
    with pytest.raises(ValueError):
        pm.split([[0, 1], [1, 2]])


def test_unknown_site_rejected():
    pm = PartitionManager(3)
    with pytest.raises(ValueError):
        pm.split([[0, 7]])
    with pytest.raises(ValueError):
        pm.isolate(5)
