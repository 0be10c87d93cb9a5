"""Unit tests for reliable broadcast: validity, agreement, integrity."""

from dataclasses import dataclass


@dataclass
class Word:
    text: str
    kind: str = "word"


def test_validity_all_sites_deliver(harness_factory):
    h = harness_factory(num_sites=4, stack="reliable")
    h.layers[0].broadcast(Word("hello"))
    h.run()
    for site in range(4):
        assert [p.text for p in h.payloads(site)] == ["hello"]


def test_sender_delivers_its_own_message(harness_factory):
    h = harness_factory(num_sites=3, stack="reliable")
    h.layers[2].broadcast(Word("self"))
    h.run()
    assert [p.text for p in h.payloads(2)] == ["self"]


def test_integrity_no_duplicates_with_relay(harness_factory):
    h = harness_factory(num_sites=5, stack="reliable", relay=True)
    h.layers[0].broadcast(Word("once"))
    h.run()
    for site in range(5):
        assert len(h.payloads(site)) == 1


def test_relay_costs_more_messages(harness_factory):
    direct = harness_factory(num_sites=5, stack="reliable", relay=False)
    direct.layers[0].broadcast(Word("m"))
    direct.run()
    relayed = harness_factory(num_sites=5, stack="reliable", relay=True)
    relayed.layers[0].broadcast(Word("m"))
    relayed.run()
    assert relayed.network.stats.sent > direct.network.stats.sent
    assert direct.network.stats.sent == 4  # n-1 unicasts


def test_relay_by_multicast_equals_the_per_destination_send_loop(harness_factory, monkeypatch):
    """Relaying with one ``router.multicast`` must be the run the historical
    ``router.send`` loop produced: same loss and latency draws in the same
    order, so the same delivery times and the same network accounting.  The
    reference deduplicates with a plain set of every id it received, so the
    comparison also checks the per-sender watermarks against that set."""
    import dataclasses

    from repro.broadcast import reliable

    seen_by_layer = {}

    def relay_by_send_loop(self, src, message):
        seen = seen_by_layer.setdefault(self, set())
        if message.id in seen:
            return
        seen.add(message.id)
        for dst in self.group:
            if dst not in (self.site, src, message.sender):
                self.router.send(dst, reliable.CHANNEL, message, message.kind)
        self._handoff(message)

    def run(arq):
        h = harness_factory(num_sites=5, stack="reliable", relay=True, seed=9,
                            loss_rate=0.3 if arq else 0.0)
        h.network.loss_rate = 0.3  # passthrough: lossy after the transports bound
        times = []
        for site, layer in enumerate(h.layers):
            layer.set_deliver(lambda m, site=site: times.append((h.engine.now, site, m.payload.text)))
        for n in range(6):
            h.layers[n % 5].broadcast(Word(f"w{n}"))
        h.run(until=100000.0)
        return times, dataclasses.asdict(h.network.stats)

    for arq in (False, True):
        by_multicast = run(arq)
        with monkeypatch.context() as patch:
            patch.setattr(reliable.ReliableBroadcast, "_on_receive", relay_by_send_loop)
            by_send_loop = run(arq)
        assert by_multicast == by_send_loop
        assert by_multicast[1]["dropped_loss"] > 0 and len(by_multicast[0]) > 5


def test_agreement_with_relay_despite_sender_crash_midway(harness_factory):
    """Relay mode: if any correct site received m, all correct sites get it
    even though the sender dies immediately after reaching one site."""
    h = harness_factory(num_sites=4, stack="reliable", relay=True)
    # Partition the sender away from sites 2,3 so only site 1 hears it.
    h.network.partitions.split([[0, 1], [2, 3]])
    h.layers[0].broadcast(Word("urgent"))
    h.run(until=10.0)
    assert [p.text for p in h.payloads(1)] == ["urgent"]
    assert h.payloads(2) == []
    # Sender crashes; partition heals; site 1's relay reaches the rest...
    h.network.set_site_up(0, False)
    h.network.partitions.heal()
    # ...once site 1 gets a reason to relay: in eager flooding the relay
    # happened at first receipt, which the partition swallowed.  Re-send
    # from site 1's buffer is modelled by a fresh broadcast in real
    # systems' stability protocols; here we assert the direct behaviour:
    h.layers[1].broadcast(Word("urgent-relay"))
    h.run(until=30.0)
    assert "urgent-relay" in [p.text for p in h.payloads(2)]


def test_group_restriction(harness_factory):
    h = harness_factory(num_sites=4, stack="reliable")
    h.layers[0].set_group([0, 1, 2])
    h.layers[0].broadcast(Word("members-only"))
    h.run()
    assert h.payloads(1) and h.payloads(2)
    assert h.payloads(3) == []


def test_group_must_include_self(harness_factory):
    import pytest

    h = harness_factory(num_sites=3, stack="reliable")
    with pytest.raises(ValueError):
        h.layers[0].set_group([1, 2])


def test_many_senders_all_messages_delivered_everywhere(harness_factory):
    h = harness_factory(num_sites=3, stack="reliable")
    for site in range(3):
        for n in range(10):
            h.layers[site].broadcast(Word(f"s{site}m{n}"))
    h.run()
    expected = {f"s{s}m{n}" for s in range(3) for n in range(10)}
    for site in range(3):
        assert {p.text for p in h.payloads(site)} == expected


def test_reliable_broadcast_over_lossy_links(harness_factory):
    """The ARQ transport restores the reliable-links assumption."""
    h = harness_factory(num_sites=3, stack="reliable", loss_rate=0.3, seed=21)
    for n in range(20):
        h.layers[0].broadcast(Word(f"m{n}"))
    h.run(until=100000.0)
    for site in range(3):
        assert len(h.payloads(site)) == 20


def lossy_relay_chatter(h, broadcasts=600, every=50):
    """``broadcasts`` round-robin broadcasts over a lossy passthrough
    network, which relay mode repairs by flooding, each ``every`` of them
    left ``every`` ms to settle.  Returns the largest dedup footprint any
    site held while the settling was still under way."""
    h.network.loss_rate = 0.1  # after the transports bound: passthrough loses
    widest = 0
    for n in range(broadcasts):
        h.layers[n % h.num_sites].broadcast(Word(f"m{n}"))
        if n % every == every - 1:
            for _ in range(4):
                h.run(until=h.engine.now + 0.5)
                widest = max(widest, *(layer.seen.footprint() for layer in h.layers))
            h.run(until=h.engine.now + every)
    h.run(until=h.engine.now + 200.0)
    return widest


def test_dedup_state_is_bounded_in_relay_mode(harness_factory):
    """A lost copy overtaken by a relayed successor opens holes below the
    sender's watermark; later copies fill them, so a long chatter leaves one
    watermark per sender plus, at most, one hole per message never received
    -- not one entry per message delivered."""
    h = harness_factory(num_sites=5, stack="reliable", relay=True, seed=3)
    widest = lossy_relay_chatter(h)
    assert widest > h.num_sites  # holes did open mid-flight
    for site, layer in enumerate(h.layers):
        missed = 600 - len(h.delivered[site])
        assert layer.seen.footprint() <= h.num_sites + missed


def test_dedup_keeps_integrity_in_relay_mode(harness_factory):
    """Every message is delivered at most once in relay mode, where
    duplicates abound, and an id reads as seen exactly when it was
    delivered."""
    h = harness_factory(num_sites=5, stack="reliable", relay=True, seed=3)
    lossy_relay_chatter(h)
    for site, layer in enumerate(h.layers):
        numbers = [int(p.text[1:]) for p in h.payloads(site)]
        assert len(numbers) == len(set(numbers)) > 500
        delivered = {(n % 5, n // 5) for n in numbers}
        assert {(s, q) for s in range(5) for q in range(600 // 5 + 1) if (s, q) in layer.seen} == delivered
