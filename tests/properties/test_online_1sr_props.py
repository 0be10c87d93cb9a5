"""The online 1SR check against the offline one it replaced.

Every history here is fed, call for call, to the online
:class:`~repro.db.serialization.HistoryRecorder` and to the offline oracle
(:mod:`tests.offline_1sr`).  Two shapes:

- arbitrary histories, with no retirement: records in any order, cohorts'
  provisional records upgraded by the full one (with the same writes, or
  with none, as an initiator that adopted the outcome sends), stale reads
  that close cycles, duplicate and skipped versions;
- histories a small replicated store produces, with retirement on a short
  cadence: replicas apply one commit order at their own pace, a home
  records when it applies its own transaction and a cohort records a
  provisional writer, homes lose transactions to crashes, and the horizon
  is the one the cluster computes (store floors, live homes' reads); some
  runs add keys that are read and never written.

After every call the verdicts agree on acyclicity, so a cycle is reported
at the record that closes it, and that record is named; at the end they
agree on everything (:func:`tests.offline_1sr.assert_same_verdict`).
"""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

import repro.db.serialization
from repro.db.serialization import HistoryRecorder
from tests.offline_1sr import OfflineHistory, assert_same_verdict

KEYS = ("x", "y", "z")
#: Keys a store run may add that are only ever read.
FROZEN = ("r", "s")


def replay(calls, recorder, offline):
    """Feed ``calls`` to both; after each, the verdicts agree on whether a
    cycle exists, and the online one names the call that closed it."""
    closed_by = recorder.check().closed_by
    for name, tx, *args in calls:
        getattr(offline, name)(tx, *args)
        getattr(recorder, name)(tx, *args)
        online = recorder.check()
        assert online.acyclic == offline.check().acyclic, (tx, online.explain())
        if closed_by is None and not online.acyclic:
            closed_by = tx
        assert online.closed_by == closed_by
    assert_same_verdict(recorder.check(), offline)


@st.composite
def histories(draw):
    """Record calls of up to a dozen transactions, in any order."""
    versions = dict.fromkeys(KEYS, 0)
    calls = []
    for index in range(draw(st.integers(1, 12))):
        tx = f"T{index}"
        reads = {
            key: max(0, versions[key] - draw(st.sampled_from((0, 0, 0, 1, 2))))
            for key in draw(st.sets(st.sampled_from(KEYS)))
        }
        writes = {}
        for key in sorted(draw(st.sets(st.sampled_from(KEYS)))):
            versions[key] += draw(st.sampled_from((1, 1, 1, 1, 1, 0, 2)))  # dup / gap
            writes[key] = versions[key]
        shape = draw(st.sampled_from(("full", "full", "upgraded", "adopted", "cohort only")))
        if shape != "full":
            calls.append(("record_commit_provisional", tx, 1, writes, float(index)))
        if shape != "cohort only":
            home_writes = {} if shape == "adopted" else writes
            calls.append(("record_commit", tx, 0, reads, home_writes, float(index)))
    return draw(st.permutations(calls))


@settings(max_examples=300, deadline=None)
@given(histories())
def test_online_verdict_equals_offline_on_any_history(calls):
    replay(calls, HistoryRecorder(), OfflineHistory())


class ReplicatedStore:
    """Sites applying one commit order at their own pace: just enough of a
    cluster to produce records the way replicas do, and its horizon."""

    def __init__(self, rng: random.Random, certify: bool, sites: int = 3, adopt: float = 0.2,
                 frozen: tuple = ()):
        self.rng = rng
        self.certify = certify
        self.adopt = adopt
        self.readable = KEYS + frozen
        self.stores = [dict.fromkeys(self.readable, 0) for _ in range(sites)]
        self.queues = [[] for _ in range(sites)]
        self.versions = dict.fromkeys(KEYS, 0)
        #: Attempts live at their homes: tx -> (home, reads, write keys).
        self.live = {}
        self.writes = {}
        self.count = 0
        self.calls = []

    def horizon(self, keys):
        floor = {key: min(store[key] for store in self.stores) for key in keys}
        for _, reads, _ in self.live.values():
            for key, version in reads.items():
                if key in floor:
                    floor[key] = min(floor[key], version)
        return floor, set(self.live)

    def step(self) -> None:
        rng = self.rng
        action = rng.choice(("begin", "begin", "commit", "apply", "apply", "apply", "crash"))
        live = sorted(self.live)
        uncommitted = [tx for tx in live if tx not in self.writes]
        if action == "begin":
            self.count += 1
            tx, home = f"T{self.count}", rng.randrange(len(self.stores))
            reads = {
                key: self.stores[home][key]
                for key in rng.sample(self.readable, rng.randint(0, 2))
            }
            write_keys = sorted(rng.sample(KEYS, rng.randint(0, 2)))
            if write_keys:
                self.live[tx] = (home, reads, write_keys)
            else:
                self.calls.append(("record_commit", tx, home, reads, {}, 0.0))
        elif action == "commit" and uncommitted:
            tx = rng.choice(uncommitted)
            reads = self.live[tx][1]
            if self.certify and any(self.versions.get(key, 0) != v for key, v in reads.items()):
                del self.live[tx]  # stale: aborts, so the order stays serial
                return
            writes = {}
            for key in self.live[tx][2]:
                self.versions[key] += 1
                writes[key] = self.versions[key]
            self.writes[tx] = writes
            for queue in self.queues:
                queue.append(tx)
        elif action == "apply":
            sites = [site for site, queue in enumerate(self.queues) if queue]
            if sites:
                self.apply(rng.choice(sites))
        elif action == "crash" and live:
            del self.live[rng.choice(live)]  # the home lost the client

    def apply(self, site: int) -> None:
        tx = self.queues[site].pop(0)
        writes = self.writes[tx]
        self.stores[site].update(writes)
        entry = self.live.get(tx)
        if entry is not None and entry[0] == site:
            del self.live[tx]
            # A home adopts the outcome (records no versions) only after
            # some cohort installed, as RBP's does.
            installed_elsewhere = any(
                tx not in queue for other, queue in enumerate(self.queues) if other != site
            )
            adopted = installed_elsewhere and self.rng.random() < self.adopt
            self.calls.append(("record_commit", tx, site, entry[1], {} if adopted else writes, 0.0))
        else:
            self.calls.append(("record_commit_provisional", tx, site, writes, 0.0))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 250),
    st.sampled_from((1, 2, 3, 8)),
    st.booleans(),
    st.sampled_from(((), FROZEN)),
)
def test_retirement_keeps_the_offline_verdict(seed, steps, chunk, certify, frozen):
    store = ReplicatedStore(random.Random(seed), certify, frozen=frozen)
    recorder, offline = HistoryRecorder(horizon=store.horizon), OfflineHistory()
    with mock.patch.object(repro.db.serialization, "CHUNK", chunk):
        for _ in range(steps):
            store.step()
            calls, store.calls = store.calls, []
            replay(calls, recorder, offline)


def test_a_long_history_is_checked_in_bounded_space():
    """Five thousand steps of a certifying replicated store (800 records):
    the online recorder holds a small window of them throughout, and its
    verdict is the oracle's."""
    store = ReplicatedStore(random.Random(3), certify=True)
    recorder, offline = HistoryRecorder(horizon=store.horizon), OfflineHistory()
    most = 0
    with mock.patch.object(repro.db.serialization, "CHUNK", 16):
        for _ in range(5_000):
            store.step()
            for name, tx, *args in store.calls:
                getattr(offline, name)(tx, *args)
                getattr(recorder, name)(tx, *args)
            store.calls = []
            most = max(most, len(recorder.held()))
    assert len(recorder) == len(offline.committed) > 750
    assert recorder.check().ok
    assert most < 50  # 30 at this seed; a quarter as many at 20,000 steps
    assert_same_verdict(recorder.check(), offline)


def names_in_slots(recorder: HistoryRecorder) -> int:
    """Transaction ids the recorder's version slots still hold."""
    return sum(
        len(slot.readers) + (slot.writer is not None) + len(slot.others)
        for state in recorder._keys.values()
        for slot in state.slots.values()
    )


def test_a_key_only_ever_read_holds_no_name_per_reader():
    """Keys read by a steady share of the records and never written: their
    version 0 stays open all run, and its retired readers become counts, so
    the names the slots hold do not grow with the history."""
    held = []
    for steps in (2_500, 5_000):
        store = ReplicatedStore(random.Random(3), certify=True, frozen=FROZEN)
        recorder, offline = HistoryRecorder(horizon=store.horizon), OfflineHistory()
        with mock.patch.object(repro.db.serialization, "CHUNK", 16):
            for _ in range(steps):
                store.step()
                for name, tx, *args in store.calls:
                    getattr(offline, name)(tx, *args)
                    getattr(recorder, name)(tx, *args)
                store.calls = []
        assert_same_verdict(recorder.check(), offline)
        held.append(names_in_slots(recorder))
    assert held[1] <= held[0] + 20, held
