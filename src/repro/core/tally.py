"""The one "heard from every member of the electorate" predicate.

The protocols differ only in *what* a site waits to hear, and from whom:
RBP explicit write acks and then 2PC votes, from its record's electorate;
CBP implicit acks and the point-to-point baseline write acks and then
coordinator-collected votes, from the view.  :class:`Tally` is that wait:
site -> answer, judged against a frozenset the replica already holds, so
no check rebuilds a member set.
"""

from __future__ import annotations


class Tally(dict):
    """``site -> answer`` (``True`` for an ack, an echo or a yes vote),
    judged against a view.  A plain dict underneath, so recording an answer
    (``tally[site] = yes``) and ``site in tally`` stay at C speed on the
    per-message paths."""

    __slots__ = ()

    def complete(self, view: frozenset[int]) -> bool:
        """True once every member of ``view`` has answered.

        Length first: every arriving answer re-checks its tally, so all but
        the deciding one must cost O(1).  The superset test stays
        authoritative: answers from sites that left the view linger and can
        inflate the count.
        """
        return len(self) >= len(view) and self.keys() >= view

    def unanimous(self, view: frozenset[int]) -> bool:
        """True when no member of ``view`` answered no (answers from sites
        outside ``view`` are not read)."""
        return all(yes or site not in view for site, yes in self.items())

    def missing(self, view: frozenset[int]) -> list[int]:
        """The members of ``view`` not yet heard from, sorted."""
        return sorted(view - self.keys())
