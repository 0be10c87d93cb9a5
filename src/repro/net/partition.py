"""Network partition injection.

A :class:`PartitionManager` tracks which sites can currently exchange
messages.  The default state is fully connected; experiments carve the sites
into disjoint groups and later heal them.  E9 (fault tolerance) uses this to
demonstrate majority-view liveness.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class PartitionManager:
    """Tracks communication groups among site ids ``0..n-1``."""

    def __init__(self, num_sites: int):
        if num_sites <= 0:
            raise ValueError("num_sites must be positive")
        self.num_sites = num_sites
        # group id per site; all zero means fully connected.  Network reads
        # this list directly on its per-datagram path and re-fetches it on
        # every use, because heal() rebinds it.
        self._group: list[int] = [0] * num_sites

    def connected(self, a: int, b: int) -> bool:
        """True when sites ``a`` and ``b`` can currently communicate."""
        return self._group[a] == self._group[b]

    def split(self, groups: Sequence[Iterable[int]]) -> None:
        """Partition the network into the given disjoint site groups.

        Sites not mentioned keep communicating only among themselves (they
        are placed together in one implicit leftover group).
        """
        assignment: dict[int, int] = {}
        for gid, members in enumerate(groups, start=1):
            for site in members:
                if site in assignment:
                    raise ValueError(f"site {site} appears in two groups")
                if not 0 <= site < self.num_sites:
                    raise ValueError(f"unknown site {site}")
                assignment[site] = gid
        leftover_gid = len(groups) + 1
        for site in range(self.num_sites):
            self._group[site] = assignment.get(site, leftover_gid)

    def isolate(self, site: int) -> None:
        """Cut one site off from everyone else."""
        if not 0 <= site < self.num_sites:
            raise ValueError(f"unknown site {site}")
        self._group[site] = max(self._group) + 1

    def heal(self) -> None:
        """Restore full connectivity."""
        self._group = [0] * self.num_sites

    def group_of(self, site: int) -> int:
        return self._group[site]

    def groups(self) -> list[list[int]]:
        """Current groups as sorted lists of site ids."""
        by_gid: dict[int, list[int]] = {}
        for site, gid in enumerate(self._group):
            by_gid.setdefault(gid, []).append(site)
        return [sorted(members) for _, members in sorted(by_gid.items())]

    def is_fully_connected(self) -> bool:
        return len(set(self._group)) == 1

    def majority_group(self) -> Optional[list[int]]:
        """The group holding a strict majority of sites, if any."""
        for members in self.groups():
            if len(members) * 2 > self.num_sites:
                return members
        return None
