"""Property-based tests for causal broadcast's holdback.

:class:`repro.broadcast.causal.CausalBroadcast` delivers most arrivals at
once, indexes the rest under the clock entries blocking them, and releases
them through an arrival-ordered ready heap.  The reference here is the
loop its module docstring describes: hold every arrival in a list, and
after each one deliver the earliest-arrived deliverable message, rescanning
from the front, until none is.  On any causal history, arriving in any
order, with messages that never arrive and a state transfer mid-stream, the
two must deliver the same sequence and hold back the same number.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.broadcast.causal import CausalBroadcast, CausalEnvelope
from repro.broadcast.message import BroadcastMessage, MessageId
from repro.broadcast.vector_clock import VectorClock

SENDERS = 3
#: The receiving site: it never broadcasts.
SITE = SENDERS
NUM_SITES = SENDERS + 1


class _StubReliable:
    site = SITE
    num_sites = NUM_SITES

    def set_deliver(self, fn):
        pass

    def adopt_state(self, state):
        pass


class _ScanAndRestart:
    """The reference holdback queue."""

    def __init__(self):
        self.clock = [0] * NUM_SITES
        self.held = []
        self.delivered = []

    def arrive(self, sender, stamp):
        # A covered stamp (delivered already, or cut by a state transfer) is
        # dropped, but every arrival runs the scan.
        if stamp[sender] > self.clock[sender]:
            self.held.append((sender, stamp))
        while True:
            for index, (held_sender, held_stamp) in enumerate(self.held):
                if self._deliverable(held_sender, held_stamp):
                    del self.held[index]
                    self.clock[held_sender] += 1
                    self.delivered.append((held_sender, held_stamp[held_sender]))
                    break
            else:
                return

    def _deliverable(self, sender, stamp):
        return stamp[sender] == self.clock[sender] + 1 and all(
            seen <= self.clock[site] for site, seen in enumerate(stamp) if site != sender
        )

    def adopt(self, cut):
        self.clock = list(cut)
        self.held = [(s, stamp) for s, stamp in self.held if stamp[s] > self.clock[s]]


@st.composite
def causal_histories(draw):
    """Broadcasts of three senders that deliver each other's messages in
    causal order as they go, then the order the receiver sees them in: each
    sender's stream in order with a few neighbours swapped (relayed copies),
    a few messages never arriving, and optionally a state transfer whose
    clock is a cut some sender once had."""
    delivered = [[0] * NUM_SITES for _ in range(SENDERS)]
    sent = []
    cuts = []
    for _ in range(draw(st.integers(1, 30))):
        site = draw(st.integers(0, SENDERS - 1))
        clock = delivered[site]
        ready = [
            (sender, stamp)
            for sender, stamp in sent
            if stamp[sender] == clock[sender] + 1
            and all(seen <= clock[other] for other, seen in enumerate(stamp) if other != sender)
        ]
        if ready and draw(st.booleans()):
            sender, _ = ready[draw(st.integers(0, len(ready) - 1))]
            clock[sender] += 1
        else:
            clock[site] += 1
            sent.append((site, tuple(clock)))
        cuts.append(tuple(clock))
    streams = [[m for m in sent if m[0] == sender] for sender in range(SENDERS)]
    slots = [sender for sender, stream in enumerate(streams) for _ in stream]
    cursors = [0] * SENDERS
    arrivals = []
    for sender in draw(st.permutations(slots)):
        arrivals.append(streams[sender][cursors[sender]])
        cursors[sender] += 1
    for index in draw(st.lists(st.integers(0, len(arrivals) - 1), max_size=6)):
        if index + 1 < len(arrivals):
            arrivals[index], arrivals[index + 1] = arrivals[index + 1], arrivals[index]
    for index in sorted(set(draw(st.lists(st.integers(0, len(arrivals) - 1), max_size=3))))[::-1]:
        del arrivals[index]
    transfer = None
    if draw(st.booleans()):
        transfer = (draw(st.integers(0, len(arrivals))), draw(st.sampled_from(cuts)))
    return arrivals, transfer


@settings(max_examples=400, deadline=None)
@given(causal_histories())
def test_delivers_what_the_scan_and_restart_loop_delivers(history):
    arrivals, transfer = history
    causal = CausalBroadcast(_StubReliable())
    delivered = []
    causal.set_deliver(lambda message, envelope: delivered.append(tuple(message.id)))
    reference = _ScanAndRestart()
    for position, (sender, stamp) in enumerate(arrivals):
        if transfer is not None and transfer[0] == position:
            # A peer's delivered clock, past ours: what a snapshot covers.
            cut = [max(a, b) for a, b in zip(reference.clock, transfer[1])]
            causal.adopt_state(SimpleNamespace(causal_clock=cut))
            reference.adopt(cut)
            assert causal.pending_count() == len(reference.held)
        envelope = CausalEnvelope(VectorClock(stamp), None, "test")
        causal._on_reliable_deliver(
            BroadcastMessage(MessageId(sender, stamp[sender]), envelope)
        )
        reference.arrive(sender, stamp)
        assert delivered == reference.delivered
        assert causal.pending_count() == len(reference.held)
        assert list(causal.clock) == reference.clock
