"""Broadcast primitives: reliable, causal, and atomic (total order).

This package implements, from scratch, the group-communication layer the
paper builds on.  The primitives form a hierarchy [HT93]:

- **Reliable broadcast**: validity, agreement, integrity — no ordering.
- **Causal broadcast**: reliable + causal order (vector clocks, exposed to
  the application layer as the paper requires for the CBP protocol).
- **Atomic broadcast**: reliable + a single total order consistent with
  causal order (fixed-sequencer and token-ring implementations).

Plus the membership layer: heartbeat failure detection and majority-quorum
views [Bv94, SS94].
"""
