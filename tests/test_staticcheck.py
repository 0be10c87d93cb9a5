"""Tests for detcheck (``repro.analysis.staticcheck``).

Each rule gets a positive fixture (the rule fires), a negative fixture
(the idiomatic pattern passes), and the suppression/baseline machinery is
exercised end to end.  The final meta-test runs the real checker over the
live tree, which is how CI keeps the codebase detcheck-clean.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.staticcheck import (
    ALL_RULE_IDS,
    Baseline,
    RULES,
    check_module,
    check_paths,
    main,
    parse_suppressions,
)
from repro.analysis.staticcheck.findings import fingerprint_findings

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_rules(source: str, protocol_layer: bool = False, enabled=None):
    """Rule ids hit by ``source``, in (line, id) order."""
    findings = check_module(
        textwrap.dedent(source),
        "fixture.py",
        enabled or ALL_RULE_IDS,
        protocol_layer=protocol_layer,
    )
    return [f.rule.id for f in findings]


# -- D101: ambient randomness -------------------------------------------------


def test_d101_flags_module_level_random():
    assert "D101" in run_rules(
        """
        import random

        def jitter():
            return random.random()
        """
    )


def test_d101_flags_renamed_import_and_urandom():
    hits = run_rules(
        """
        import random as rnd
        import os

        def draw():
            return rnd.uniform(0, 1) + len(os.urandom(4))
        """
    )
    assert hits.count("D101") == 2


def test_d101_allows_seeded_stream_and_random_class():
    assert "D101" not in run_rules(
        """
        import random

        def make(seed, registry):
            explicit = random.Random(seed)
            stream = registry.stream("retry")
            return explicit.random() + stream.uniform(0.5, 1.5)
        """
    )


# -- D102: wall-clock reads ---------------------------------------------------


def test_d102_flags_time_and_datetime():
    hits = run_rules(
        """
        import time
        import datetime

        def stamp():
            return time.time(), datetime.datetime.now()
        """
    )
    assert hits.count("D102") == 2


def test_d102_allows_simulated_clock():
    assert "D102" not in run_rules(
        """
        def stamp(self):
            return self.engine.now
        """
    )


# -- D103 / D104: unordered iteration feeding ordering-sensitive sinks --------


def test_d103_flags_set_loop_feeding_send():
    assert "D103" in run_rules(
        """
        def flush(self):
            peers = {1, 2, 3}
            for peer in peers:
                self.router.send(peer, "c", None, "k")
        """
    )


def test_d103_infers_set_typed_parameters():
    # Regression shape of the LockManager._reevaluate bug: a set-annotated
    # parameter driving lock grants in hash order across processes.
    assert "D103" in run_rules(
        """
        class LockManager:
            def _reevaluate(self, touched: set[str]) -> None:
                callbacks = []
                for key in touched:
                    callbacks.append(key)
        """
    )


def test_d103_allows_sorted_set_loop():
    assert "D103" not in run_rules(
        """
        def flush(self):
            peers = {1, 2, 3}
            for peer in sorted(peers):
                self.router.send(peer, "c", None, "k")
        """
    )


def test_d103_allows_order_insensitive_consumption():
    # Unordered-to-unordered rebuilds and order-free folds don't fix an
    # iteration order into anything downstream.
    assert "D103" not in run_rules(
        """
        def collect(self, peers):
            live = {p for p in peers if p.alive}
            return live, max(s.site for s in live)
        """
    )


def test_d104_flags_dict_view_driving_appends():
    assert "D104" in run_rules(
        """
        def drain(self, table):
            out = []
            for key, value in table.items():
                out.append((key, value))
            return out
        """
    )


def test_d104_allows_sorted_items():
    assert "D104" not in run_rules(
        """
        def drain(self, table):
            out = []
            for key, value in sorted(table.items()):
                out.append((key, value))
            return out
        """
    )


# -- D105: hash()/id() ordering ----------------------------------------------


def test_d105_flags_bare_hash_and_identity_sort_key():
    hits = run_rules(
        """
        def bucket(name, items):
            slot = hash(name) % 8
            return slot, sorted(items, key=id)
        """
    )
    assert hits.count("D105") == 2


def test_d105_exempts_dunder_hash_delegation():
    assert "D105" not in run_rules(
        """
        class Clock:
            def __hash__(self):
                return hash(tuple(self.entries))
        """
    )


# -- D106: float accumulation over unordered collections ----------------------


def test_d106_flags_sum_over_set():
    assert "D106" in run_rules(
        """
        def merge(latencies):
            samples = set(latencies)
            return sum(samples)
        """
    )


def test_d106_flags_genexp_over_dict_view():
    assert "D106" in run_rules(
        """
        def merge(per_site):
            return sum(v for v in per_site.values())
        """
    )


def test_d106_allows_sum_over_list():
    assert "D106" not in run_rules(
        """
        def merge(latencies):
            samples = list(latencies)
            return sum(samples)
        """
    )


# -- P201 / P202: wire payload shape ------------------------------------------

PAYLOAD_OK = """
    from dataclasses import dataclass

    from repro.net.sizes import register_payload


    @dataclass(slots=True)
    class Ping:
        seq: int
        kind: str = "x.ping"


    register_payload(Ping)
    """


def test_p201_flags_unslotted_payload():
    hits = run_rules(
        """
        from dataclasses import dataclass

        @dataclass
        class Ping:
            seq: int
            kind: str = "x.ping"
        """
    )
    assert "P201" in hits and "P202" in hits


def test_p201_p202_pass_for_slotted_registered_payload():
    hits = run_rules(PAYLOAD_OK)
    assert "P201" not in hits and "P202" not in hits


def test_p202_accepts_wire_size_shortcut():
    hits = run_rules(
        """
        class Ping:
            __slots__ = ("seq",)
            kind = "x.ping"

            def __wire_size__(self):
                return 24
        """
    )
    assert "P202" not in hits


def test_p201_ignores_non_payload_classes():
    assert run_rules(
        """
        class Config:
            retries = 3
        """
    ) == []


# -- P203: timer staleness guards ---------------------------------------------


def test_p203_flags_unguarded_timer_callback():
    assert "P203" in run_rules(
        """
        class Proto:
            def arm(self):
                self.schedule(10.0, self._fire)

            def _fire(self):
                self.router.send(0, "c", None, "k")
        """
    )


def test_p203_accepts_early_return_guard():
    assert "P203" not in run_rules(
        """
        class Proto:
            def arm(self):
                self.schedule(10.0, self._fire)

            def _fire(self):
                if not self.alive:
                    return
                self.router.send(0, "c", None, "k")
        """
    )


def test_p203_accepts_epoch_token_parameter():
    assert "P203" not in run_rules(
        """
        class Proto:
            def arm(self):
                self.schedule(10.0, self._fire, self.epoch)

            def _fire(self, epoch):
                if epoch != self.epoch:
                    return
                self.router.send(0, "c", None, "k")
        """
    )


def test_p203_exempts_zero_delay_dispatch():
    assert "P203" not in run_rules(
        """
        class Proto:
            def arm(self):
                self.schedule(0.0, self._fire)

            def _fire(self):
                self.router.send(0, "c", None, "k")
        """
    )


# -- P204: raw transport sends (protocol layer only) --------------------------


def test_p204_flags_raw_network_send_in_protocol_layer():
    assert "P204" in run_rules(
        """
        class Proto:
            def push(self):
                self.network.send(0, 1, None)
        """,
        protocol_layer=True,
    )


def test_p204_only_applies_to_protocol_layer():
    assert "P204" not in run_rules(
        """
        class Harness:
            def push(self):
                self.network.send(0, 1, None)
        """,
        protocol_layer=False,
    )


def test_p204_allows_router_send():
    assert "P204" not in run_rules(
        """
        class Proto:
            def push(self):
                self.router.send(0, "chan", None, "kind")
        """,
        protocol_layer=True,
    )


# -- E001: parse errors -------------------------------------------------------


def test_e001_on_syntax_error():
    assert run_rules("def broken(:\n") == ["E001"]


# -- suppressions -------------------------------------------------------------


def check_file(tmp_path, source, baseline=None):
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return check_paths([target], root=tmp_path, baseline=baseline)


def test_trailing_pragma_suppresses(tmp_path):
    findings = check_file(
        tmp_path,
        """
        import random

        def jitter():
            return random.random()  # detcheck: ignore[D101] — fixture
        """,
    )
    assert [f.rule.id for f in findings] == ["D101"]
    assert findings[0].suppressed and not findings[0].is_new


def test_standalone_pragma_covers_comment_block(tmp_path):
    findings = check_file(
        tmp_path,
        """
        import random

        def jitter():
            # detcheck: ignore[D101] — justification prose may continue
            # onto further comment lines before the statement itself.
            return random.random()
        """,
    )
    assert findings[0].suppressed


def test_pragma_for_other_rule_does_not_cover(tmp_path):
    findings = check_file(
        tmp_path,
        """
        import random

        def jitter():
            return random.random()  # detcheck: ignore[D102]
        """,
    )
    assert not findings[0].suppressed and findings[0].is_new


def test_file_ignore_pragma(tmp_path):
    findings = check_file(
        tmp_path,
        """
        # detcheck: file-ignore[D102] — wall clock is this module's job
        import time

        def a():
            return time.time()

        def b():
            return time.perf_counter()
        """,
    )
    assert len(findings) == 2
    assert all(f.suppressed for f in findings)


def test_parse_suppressions_table():
    table = parse_suppressions(
        "# detcheck: file-ignore[D101]\n"
        "x = 1  # detcheck: ignore[D103, D104]\n"
    )
    assert table.file_wide == {"D101"}
    assert table.covers(2, "D103") and table.covers(2, "D104")
    assert not table.covers(2, "D105")


# -- baseline round-trip ------------------------------------------------------


def test_baseline_roundtrip(tmp_path):
    source = """
        import random

        def jitter():
            return random.random()
        """
    findings = check_file(tmp_path, source)
    assert [f.is_new for f in findings] == [True]

    baseline_path = tmp_path / "baseline.json"
    count = Baseline.write(baseline_path, findings)
    assert count == 1
    raw = json.loads(baseline_path.read_text())
    assert raw["version"] == 1 and len(raw["findings"]) == 1

    reloaded = Baseline.load(baseline_path)
    again = check_file(tmp_path, source, baseline=reloaded)
    assert [f.baselined for f in again] == [True]
    assert not any(f.is_new for f in again)
    assert reloaded.stale_entries() == []


def test_baseline_reports_stale_entries(tmp_path):
    findings = check_file(
        tmp_path,
        """
        import random

        def jitter():
            return random.random()
        """,
    )
    baseline_path = tmp_path / "baseline.json"
    Baseline.write(baseline_path, findings)
    reloaded = Baseline.load(baseline_path)
    clean = check_file(tmp_path, "x = 1\n", baseline=reloaded)
    assert clean == []
    assert len(reloaded.stale_entries()) == 1


def test_fingerprints_survive_line_moves(tmp_path):
    base = "import random\n\ndef f():\n    return random.random()\n"
    moved = "import random\n\n\n# shifted\ndef f():\n    return random.random()\n"
    first = check_file(tmp_path, base)
    second = check_file(tmp_path, moved)
    assert first[0].fingerprint == second[0].fingerprint
    assert first[0].line != second[0].line


def test_fingerprints_distinguish_duplicate_lines():
    source = (
        "import random\n"
        "def f():\n"
        "    return random.random()\n"
        "def g():\n"
        "    return random.random()\n"
    )
    findings = check_module(source, "dup.py", ALL_RULE_IDS)
    fingerprint_findings(findings)
    assert len({f.fingerprint for f in findings}) == 2


# -- CLI ----------------------------------------------------------------------


def test_cli_exit_codes_and_json(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    assert main(["--no-baseline", str(clean)]) == 0
    capsys.readouterr()

    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nr = random.random()\n", encoding="utf-8")
    assert main(["--no-baseline", "--format", "json", str(dirty)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["new"] == 1
    assert payload["findings"][0]["rule"] == "D101"

    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n", encoding="utf-8")
    assert main(["--no-baseline", str(broken)]) == 2
    capsys.readouterr()


def test_cli_select_and_ignore_families(tmp_path, capsys):
    mixed = tmp_path / "mixed.py"
    mixed.write_text(
        "import time\nimport random\n"
        "t = time.time()\nr = random.random()\n",
        encoding="utf-8",
    )
    assert main(["--no-baseline", "--select", "D102", str(mixed)]) == 1
    out = capsys.readouterr().out
    assert "D102" in out and "D101" not in out
    assert main(["--no-baseline", "--ignore", "D", str(mixed)]) == 0
    capsys.readouterr()


def test_cli_rejects_unknown_rule(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--select", "D999", "src"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_rule_catalogue_is_complete():
    # E001 (parse error) is not selectable, but must be in the catalogue.
    assert set(ALL_RULE_IDS) | {"E001"} == set(RULES)
    for rule in RULES.values():
        assert rule.summary and rule.hint


# -- S301/S304: hot-path membership materialization ---------------------------


def test_s301_flags_member_scan_in_message_handler():
    # The PR 6 commit-tally O(n^2) class: a per-ack member-set rebuild.
    assert "S301" in run_rules(
        """
        class Proto:
            def __init__(self, router):
                router.register("commit", self._on_ack)

            def _on_ack(self, src, ack):
                tally = self.acks[ack.tx]
                tally.add(src)
                if set(self.view_members) <= tally:
                    self.commit(ack.tx)
        """
    )


def test_s301_reverting_length_guard_regresses():
    """The acceptance criterion: the O(1)-length-guard fix, and its revert."""
    guarded = """
        class Proto:
            def __init__(self, router):
                router.register("commit", self._on_ack)

            def _on_ack(self, src, ack):
                tally = self.acks[ack.tx]
                tally.add(src)
                if len(tally) >= len(self.view_members) and set(self.view_members) <= tally:
                    self.commit(ack.tx)
        """
    reverted = guarded.replace("len(tally) >= len(self.view_members) and ", "")
    assert "S301" not in run_rules(guarded)
    assert "S301" in run_rules(reverted)


def test_s301_allows_early_return_length_guard():
    assert "S301" not in run_rules(
        """
        class Proto:
            def __init__(self, router):
                router.register("commit", self._on_ack)

            def _on_ack(self, src, ack):
                tally = self.acks[ack.tx]
                tally.add(src)
                if len(tally) < len(self.view_members):
                    return
                missing = set(self.view_members) - tally
                self.commit(ack.tx, missing)
        """
    )


def test_s301_allows_dissemination_fanout_loop():
    assert "S301" not in run_rules(
        """
        class Proto:
            def __init__(self, router):
                router.register("req", self._on_request)

                router.register("relay", self._on_relay)

            def _on_request(self, src, msg):
                for dst in self.view_members:
                    self.router.send(dst, "c", msg, "k")

            def _on_relay(self, src, msg):
                self.router.multicast(
                    [dst for dst in self.view_members if dst != src], "c", msg, "k"
                )
        """
    )


def test_s301_ignores_cold_paths():
    # The same build in __init__ (or an unregistered method) is fine.
    assert "S301" not in run_rules(
        """
        class Proto:
            def __init__(self, router):
                router.register("c", self._on_msg)
                self.peers = set(self.view_members)

            def _on_msg(self, src, msg):
                self.seen.add(msg.id)

            def audit(self):
                return sorted(set(self.view_members))
        """
    )


def test_s301_hot_path_pragma_marks_entry():
    assert "S301" in run_rules(
        """
        class Proto:
            # detcheck: hot-path
            def fast(self):
                return set(self.view_members)
        """
    )


def test_s304_flags_derived_temporaries():
    # The local carries the taint; the flagged build never names the source.
    hits = run_rules(
        """
        class Proto:
            def __init__(self, router):
                router.register("c", self._on_msg)

            def _on_msg(self, src, msg):
                alive = self.view_members
                snapshot = sorted(alive)
                self.latest = snapshot
        """
    )
    assert "S304" in hits and "S301" not in hits


# -- S303: loop-invariant rebuilds --------------------------------------------


def test_s303_flags_sorted_rebuilt_per_iteration():
    assert "S303" in run_rules(
        """
        class Proto:
            def __init__(self, engine):
                engine.schedule(5.0, self._tick)

            def _tick(self):
                for item in self.queue:
                    if item in sorted(self.order):
                        self.emit(item)
        """
    )


def test_s303_allows_hoisted_build_and_loop_varying_arg():
    assert "S303" not in run_rules(
        """
        class Proto:
            def __init__(self, engine):
                engine.schedule(5.0, self._tick)

            def _tick(self):
                order = sorted(self.order)
                for item in self.queue:
                    if item in order:
                        self.order = self.order + [item]
                        refreshed = sorted(self.order)
                        self.emit(item, refreshed)
        """
    )


# -- H401: timer mutations ordered against the staleness guard ----------------


def test_h401_flags_unguarded_timer_mutation():
    assert "H401" in run_rules(
        """
        class Proto:
            def __init__(self, engine):
                engine.schedule(5.0, self._retry)

            def _retry(self):
                self.pending.clear()
                self.router.send(0, "c", None, "k")
        """
    )


def test_h401_flags_mutation_before_guard():
    assert "H401" in run_rules(
        """
        class Proto:
            def __init__(self, engine):
                engine.schedule(5.0, self._retry)

            def _retry(self):
                self.state = "retrying"
                if self.done:
                    return
                self.router.send(0, "c", None, "k")
        """
    )


def test_h401_allows_guard_first_and_counter_bumps():
    assert "H401" not in run_rules(
        """
        class Proto:
            def __init__(self, engine):
                engine.schedule(5.0, self._retry, 1)

            def _retry(self, attempt):
                self.retries += 1
                if attempt != self.attempt:
                    return
                self.pending.clear()
                self.router.send(0, "c", None, "k")
        """
    )


def test_h401_reaches_a_tick_body_handed_to_every():
    # Process.every's callable is a timer entry point; P203 does not apply.
    hits = run_rules(
        """
        class Proto:
            def __init__(self):
                self.every(5.0, self._sweep)

            def _sweep(self):
                self.pending.clear()
                self.router.send(0, "c", None, "k")
        """
    )
    assert "H401" in hits and "P203" not in hits


def test_h401_ignores_zero_delay_dispatch():
    # schedule(0, ...) is the uniform local-delivery path, not a timer.
    assert "H401" not in run_rules(
        """
        class Proto:
            def __init__(self, engine, message):
                engine.schedule(0.0, self._deliver, message)

            def _deliver(self, message):
                self.delivered.append(message)
        """
    )


# -- H402: read -> send -> mutate re-entrancy window ---------------------------


def test_h402_flags_send_between_read_and_mutation():
    assert "H402" in run_rules(
        """
        class Proto:
            def __init__(self, router):
                router.register("c", self._on_msg)

            def _on_msg(self, src, msg):
                count = len(self.outbox)
                self.router.send(src, "c", count, "k")
                self.outbox = []
        """
    )


def test_h402_allows_mutate_before_send():
    # The swap-drain idiom: complete the transition, then send.
    assert "H402" not in run_rules(
        """
        class Proto:
            def __init__(self, router):
                router.register("c", self._on_msg)

            def _on_msg(self, src, msg):
                outbox, self.outbox = self.outbox, []
                for item in outbox:
                    self.router.send(src, "c", item, "k")
        """
    )


# -- H403: durable installs inside the recovery window -------------------------


def test_h403_flags_install_without_deferral():
    assert "H403" in run_rules(
        """
        class Proto:
            def __init__(self, router):
                router.register("c", self._on_msg, during_transfer=True)

            def _on_msg(self, src, msg):
                self._apply(msg)

            def _apply(self, msg):
                self.store.install(msg.key, msg.value, msg.tx)
        """
    )
    # A dispatch table bound at construction hides no handler from the
    # call graph: reading the table reaches every method it holds.
    assert "H403" in run_rules(
        """
        class Proto:
            def __init__(self, router):
                router.register("c", self._on_msg, during_transfer=True)
                self._handlers = {Decision: self._apply}

            def _on_msg(self, src, msg):
                self._handlers[type(msg)](msg)

            def _apply(self, msg):
                self.store.install(msg.key, msg.value, msg.tx)
        """
    )


_H403_HANDLER = """
    class Proto:
        def __init__(self, router):
            router.register("c", self._on_msg{served})

        def _on_msg(self, src, msg):
            self._certify(msg)

        def _certify(self, msg):
            self.install_writes(msg.tx, msg.writes)
    """


def test_h403_checks_only_channels_served_during_transfer():
    # The router holds every other channel until the snapshot lands.
    assert "H403" in run_rules(_H403_HANDLER.format(served=", during_transfer=True"))
    assert "H403" not in run_rules(_H403_HANDLER.format(served=""))


def test_h403_allows_recovering_deferral():
    assert "H403" not in run_rules(
        """
        class Proto:
            def __init__(self, router):
                router.register("c", self._on_msg, during_transfer=True)

            def _on_msg(self, src, msg):
                if self.recovering:
                    self._backlog.append(msg)
                    return
                self._apply(msg)

            def _apply(self, msg):
                self.store.install(msg.key, msg.value, msg.tx)
        """
    )


def test_h403_ignores_handlers_without_installs():
    assert "H403" not in run_rules(
        """
        class Proto:
            def __init__(self, router):
                router.register("c", self._on_msg, during_transfer=True)

            def _on_msg(self, src, msg):
                self.seen.add(msg.id)
        """
    )


# -- S/H suppression and baseline round-trips ---------------------------------

_S301_SOURCE = """
    class Proto:
        def __init__(self, router):
            router.register("commit", self._on_ack)

        def _on_ack(self, src, ack):
            if set(self.view_members) <= self.acks[ack.tx]:{pragma}
                self.commit(ack.tx)
    """


def test_s_rule_pragma_suppresses(tmp_path):
    findings = check_file(
        tmp_path,
        _S301_SOURCE.format(pragma="  # detcheck: ignore[S301] — fixture"),
    )
    assert [f.rule.id for f in findings] == ["S301"]
    assert findings[0].suppressed and not findings[0].is_new


def test_s_rule_baseline_roundtrip(tmp_path):
    source = _S301_SOURCE.format(pragma="")
    findings = check_file(tmp_path, source)
    assert [(f.rule.id, f.is_new) for f in findings] == [("S301", True)]
    baseline_path = tmp_path / "baseline.json"
    Baseline.write(baseline_path, findings)
    again = check_file(tmp_path, source, baseline=Baseline.load(baseline_path))
    assert [f.baselined for f in again] == [True]
    assert not any(f.is_new for f in again)


def test_h_rule_pragma_suppresses(tmp_path):
    findings = check_file(
        tmp_path,
        """
        class Proto:
            def __init__(self, engine):
                engine.schedule(5.0, self._retry)

            def _retry(self):
                # detcheck: ignore[H401] — fixture justification
                self.pending.clear()
        """,
    )
    hits = [f for f in findings if f.rule.id == "H401"]
    assert hits and all(f.suppressed for f in hits)


def test_cli_select_s_and_h_families(tmp_path, capsys):
    target = tmp_path / "mixed.py"
    target.write_text(
        textwrap.dedent(
            """
            import random

            class Proto:
                def __init__(self, router, engine):
                    router.register("c", self._on_msg)
                    engine.schedule(5.0, self._retry)

                def _on_msg(self, src, msg):
                    members = set(self.view_members)
                    self.tallies[msg.tx] = members

                def _retry(self):
                    self.pending.clear()
                    self.jitter = random.random()
            """
        ),
        encoding="utf-8",
    )
    assert main(["--no-baseline", "--select", "S", str(target)]) == 1
    out = capsys.readouterr().out
    assert "S301" in out and "H401" not in out and "D101" not in out
    assert main(["--no-baseline", "--select", "H401", str(target)]) == 1
    out = capsys.readouterr().out
    assert "H401" in out and "S301" not in out
    assert main(["--no-baseline", "--ignore", "D,P,S,H", str(target)]) == 0
    capsys.readouterr()


# -- the --changed mode -------------------------------------------------------


def _git(cwd, *args):
    subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    )


def test_cli_changed_mode(tmp_path, monkeypatch, capsys):
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "config", "user.email", "dev@example.invalid")
    _git(tmp_path, "config", "user.name", "dev")
    committed = tmp_path / "committed.py"
    committed.write_text("import time\nt = time.time()\n", encoding="utf-8")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "base")
    monkeypatch.chdir(tmp_path)

    # Nothing changed: the committed violation is out of scope, exit 0.
    assert main(["--no-baseline", "--changed", "."]) == 0
    assert "no changed python files" in capsys.readouterr().out

    # An untracked violating file is in scope and fails the run.
    (tmp_path / "fresh.py").write_text(
        "import random\nr = random.random()\n", encoding="utf-8"
    )
    assert main(["--no-baseline", "--changed", "."]) == 1
    assert "D101" in capsys.readouterr().out

    # Editing the committed file brings it into scope too.
    committed.write_text(
        "import time\nt = time.time()\nu = time.time()\n", encoding="utf-8"
    )
    assert main(["--no-baseline", "--changed", "--select", "D102", "."]) == 1
    out = capsys.readouterr().out
    assert out.count("D102") >= 2


def test_cli_changed_outside_git_checkout(tmp_path, monkeypatch, capsys):
    (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "nowhere"))
    monkeypatch.chdir(tmp_path)
    assert main(["--no-baseline", "--changed", "."]) == 2
    assert "requires a git checkout" in capsys.readouterr().out


# -- the live tree ------------------------------------------------------------


def test_live_tree_is_detcheck_clean():
    """The shipped tree has no new findings (suppressions must justify)."""
    findings = check_paths(
        [ROOT / "src", ROOT / "scripts", ROOT / "benchmarks"], root=ROOT
    )
    new = [f for f in findings if f.is_new]
    assert not new, "\n".join(f.render() for f in new)


def test_wrapper_script_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "detcheck.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_seeded_violation_is_caught(tmp_path):
    """The acceptance gate: a synthetic violation must fail the run."""
    bad = tmp_path / "seeded.py"
    bad.write_text(
        "import time\n\ndef now():\n    return time.time()\n", encoding="utf-8"
    )
    assert main(["--no-baseline", str(bad)]) == 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
