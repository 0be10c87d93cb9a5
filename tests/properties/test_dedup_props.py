"""Property-based tests for reliable broadcast's dedup state.

:class:`repro.broadcast.reliable.SeenIds` keeps, per sender, a watermark
and the holes below it instead of a set of every id admitted.  The
reference here is that set: on any arrival sequence -- duplicates, copies a
relay delivers out of order, a run of ids a rejoiner never receives -- the
two must admit exactly the same arrivals and answer every membership query
alike.
"""

from hypothesis import given, settings, strategies as st

from repro.broadcast.message import MessageId
from repro.broadcast.reliable import SeenIds

SENDERS = 4


@st.composite
def sender_stream(draw):
    """One sender's ids as one site receives them."""
    seqs = list(range(draw(st.integers(0, 40))))
    if seqs and draw(st.booleans()):  # a post-rejoin gap: never received
        start = draw(st.integers(0, len(seqs) - 1))
        del seqs[start:start + draw(st.integers(1, 15))]
    for index in draw(st.lists(st.integers(0, max(len(seqs) - 2, 0)), max_size=10)):
        if index + 1 < len(seqs):  # a relayed copy overtakes its predecessor
            seqs[index], seqs[index + 1] = seqs[index + 1], seqs[index]
    for index, later in draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=10)):
        if index < len(seqs):  # a duplicate copy, arriving after the first
            seqs.insert(min(index + 1 + later, len(seqs)), seqs[index])
    return seqs


@st.composite
def arrivals(draw):
    """Every sender's stream, interleaved in a random order that keeps each
    stream's own order."""
    streams = [draw(sender_stream()) for _ in range(SENDERS)]
    slots = [sender for sender, stream in enumerate(streams) for _ in stream]
    order = draw(st.permutations(slots))
    cursors = [0] * SENDERS
    merged = []
    for sender in order:
        merged.append(MessageId(sender, streams[sender][cursors[sender]]))
        cursors[sender] += 1
    return merged


@settings(max_examples=300, deadline=None)
@given(arrivals())
def test_admits_exactly_what_a_set_of_every_id_admits(stream):
    seen, reference = SeenIds(SENDERS), set()
    for msg_id in stream:
        assert seen.admit(msg_id) == (msg_id not in reference)
        reference.add(msg_id)
    for sender in range(SENDERS):
        for seq in range(60):
            msg_id = MessageId(sender, seq)
            assert (msg_id in seen) == (msg_id in reference)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, SENDERS - 1), max_size=200), st.integers(0, 3))
def test_an_in_order_stream_leaves_one_watermark_per_sender(senders, echo):
    """In-order arrivals, each possibly followed by stale duplicates of an
    earlier id, never open a hole however long the stream."""
    seen = SeenIds(SENDERS)
    next_seq = [0] * SENDERS
    for sender in senders:
        assert seen.admit(MessageId(sender, next_seq[sender]))
        for back in range(min(echo, next_seq[sender] + 1)):
            assert not seen.admit(MessageId(sender, next_seq[sender] - back))
        next_seq[sender] += 1
    assert seen.footprint() == SENDERS
