"""RBP in-doubt termination against a fake host: no cluster, no engine.

The module's whole contact with its host is the callables it is built
with, so every rule of the decision-query protocol is driven here by
handing over a transaction and feeding answers.
"""

from types import SimpleNamespace

from repro.analysis.metrics import MetricsCollector
from repro.core.rbp_events import RbpDecisionAnswer, RbpDecisionQuery
from repro.core.rbp_termination import InDoubtTermination

TX = "T#1"


def fake_host(num_sites=5, view=(0, 1, 2, 3, 4), has_quorum=True, log_capacity=1024):
    """Site 0 of ``num_sites``; everything the module does lands in lists."""
    host = SimpleNamespace(
        view=frozenset(view),
        has_quorum=has_quorum,
        known={},
        multicasts=[],
        sent=[],
        timers=[],
        resolved=[],
        events=[],
    )
    host.termination = InDoubtTermination(
        0,
        num_sites,
        multicast=host.multicasts.append,
        send=lambda site, payload: host.sent.append((site, payload)),
        view=lambda: (host.view, host.has_quorum),
        schedule=lambda delay, fn, *args: host.timers.append((delay, fn, args)),
        knows=lambda tx_id: host.known.get(tx_id),
        resolved=lambda tx_id, outcome: host.resolved.append((tx_id, outcome)),
        emit=lambda event, **fields: host.events.append((event, fields)),
        metrics=MetricsCollector(),
        query_timeout=60.0,
        query_attempts=8,
        log_capacity=log_capacity,
    )
    return host


def parked(host):
    return [fields.get("reason", "") for event, fields in host.events if event == "rbp.query_parked"]


#: (what it shows, host shape, answers in arrival order as (site, outcome,
#: voted_yes), then what came back: a resolution, "parked[:reason]", or
#: "waiting").  The querier is site 0 and seeds its own ("unknown", True).
RESOLUTION_TABLE = [
    (
        "first authoritative answer wins, before the others arrive",
        {},
        [(1, "unknown", True), (2, "abort", False)],
        "abort",
    ),
    (
        "commit is preferred over an abort answered alongside it",
        {},
        [(1, "pending", True), (2, "commit", False)],
        "commit",
    ),
    (
        "an answer from outside the view is not read",
        {"view": (0, 1, 2)},
        [(4, "commit", False)],
        "waiting",
    ),
    (
        "a pending member can still decide: keep waiting",
        {},
        [(1, "pending", True), (2, "unknown", False), (3, "unknown", False), (4, "unknown", False)],
        "waiting",
    ),
    (
        "rule (a): three never-voters of five block every majority",
        {"view": (0, 1, 2, 3)},
        [(1, "unknown", False), (2, "presumed", True), (3, "unknown", False)],
        "presumed",
    ),
    (
        "not rule (a): two never-voters of five leave a commit quorum possible",
        {"view": (0, 1, 2, 3)},
        [(1, "unknown", False), (2, "unknown", True), (3, "unknown", False)],
        "parked:in_doubt_quorum",
    ),
    (
        "rule (b): every site answered, nobody holds a decision",
        {},
        [(1, "unknown", True), (2, "unknown", True), (3, "unknown", True), (4, "unknown", True)],
        "presumed",
    ),
    (
        "an all-in-doubt quorum parks instead of guessing",
        {"view": (0, 1, 2)},
        [(1, "unknown", True), (2, "unknown", True)],
        "parked:in_doubt_quorum",
    ),
    (
        "a quorumless view never presumes, whatever the promises",
        {"view": (0, 1), "has_quorum": False},
        [(1, "unknown", False)],
        "parked:",
    ),
]


def test_termination_against_a_fake_host():
    for shows, shape, answers, expected in RESOLUTION_TABLE:
        host = fake_host(**shape)
        host.termination.hand_over(TX)
        assert host.multicasts == [RbpDecisionQuery(TX, 0, 1)], shows
        for site, outcome, voted_yes in answers:
            host.termination.on_answer(RbpDecisionAnswer(TX, site, outcome, voted_yes))
        if expected in ("commit", "abort", "presumed"):
            assert host.resolved == [(TX, expected)], shows
            assert host.termination.in_flight()["open decision queries"] == [], shows
            # Only an adopted abort is logged here; the host logs a commit
            # once the writes are in, and a presumption is never logged.
            assert host.termination.decisions == ({TX: False} if expected == "abort" else {}), shows
        else:
            assert host.resolved == [], shows
            assert host.termination.in_flight()["open decision queries"] == [TX], shows
            assert parked(host) == ([expected.split(":")[1]] if ":" in expected else []), shows

    # A timer from a superseded (epoch, attempt) is ignored; the current one
    # retries, and after the last attempt the query parks.
    host = fake_host()
    host.termination.hand_over(TX)
    host.termination.restart(TX)  # a view change: epoch 1, attempt 1 again
    (_, fire, stale), (_, _, current) = host.timers
    assert stale == (TX, 0, 1) and current == (TX, 1, 1)
    fire(*stale)
    assert len(host.multicasts) == 2
    fire(*current)
    assert host.multicasts[-1] == RbpDecisionQuery(TX, 0, 2)
    assert [delay for delay, _, _ in host.timers] == [60.0, 60.0, 120.0]
    while not parked(host):
        delay, fire, args = host.timers[-1]
        fire(*args)
    assert host.multicasts[-1].attempt == 8 and delay == 240.0
    # A view change restarts a parked query.
    host.termination.restart(TX)
    assert host.multicasts[-1].attempt == 1

    # Answerer side: the log answers first; an evicted outcome is "unknown"
    # (and, with nothing known, a binding never-voted promise), a surviving
    # prepare record is never denied, and a "pending" answer is a promise
    # the eventual outcome keeps.
    host = fake_host(log_capacity=2)
    for tx_id, committed in (("A", True), ("B", False), ("C", True)):
        host.termination.record(tx_id, committed)
    assert host.termination.decisions == {"B": False, "C": True}
    host.termination.prepare("P")
    host.known["L"] = ("pending", True)
    for tx_id in ("C", "B", "A", "P", "L"):
        host.termination.on_query(RbpDecisionQuery(tx_id, 3, 1))
    assert [(p.tx, p.outcome, p.voted_yes) for site, p in host.sent if site == 3] == [
        ("C", "commit", False),
        ("B", "abort", False),
        ("A", "unknown", False),
        ("P", "unknown", True),
        ("L", "pending", True),
    ]
    assert host.resolved == [("A", "presumed")]
    host.termination.record("L", True)
    assert (host.sent[-1][0], host.sent[-1][1].outcome) == (3, "commit")
    assert not any(host.termination.in_flight().values())
