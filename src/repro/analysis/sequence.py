"""Message sequence diagrams from network captures.

With capture enabled, the network reports every delivered datagram; this
module renders the flow between sites as an ASCII sequence diagram —
invaluable when explaining or debugging a protocol round:

    t=0.00    s0 ──rbp.write──────────▶ s1
    t=0.00    s0 ──rbp.write──────────▶ s2
    t=1.31    s1 ──rbp.write_ack─────▶ s0
    ...

Use :func:`attach_capture` before the run, then
:func:`render_sequence` afterwards (optionally filtered by message kind
prefix or a time window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.network import Network


@dataclass(frozen=True)
class CapturedMessage:
    """One delivered datagram, as captured for diagramming."""

    time: float
    src: int
    dst: int
    kind: str


class MessageCapture:
    """Collects delivered datagrams from a network."""

    def __init__(self, capacity: int = 100_000):
        self.capacity = capacity
        self.messages: list[CapturedMessage] = []

    def record(self, time: float, src: int, dst: int, kind: str) -> None:
        if len(self.messages) < self.capacity:
            self.messages.append(CapturedMessage(time, src, dst, kind))

    def filtered(
        self,
        kind_prefix: str = "",
        start: float = 0.0,
        end: Optional[float] = None,
        exclude: tuple[str, ...] = (),
    ) -> list[CapturedMessage]:
        """Messages matching a kind prefix inside a time window."""
        result = []
        for message in self.messages:
            if not message.kind.startswith(kind_prefix):
                continue
            if message.kind.startswith(exclude) and exclude:
                continue
            if message.time < start:
                continue
            if end is not None and message.time > end:
                continue
            result.append(message)
        return result

    def __len__(self) -> int:
        return len(self.messages)


def attach_capture(network: Network, capacity: int = 100_000) -> MessageCapture:
    """Record every datagram ``network`` delivers from now on."""
    capture = MessageCapture(capacity)
    network.on_deliver = capture.record
    return capture


def render_sequence(
    messages: list[CapturedMessage],
    num_sites: Optional[int] = None,
    max_lines: int = 200,
) -> str:
    """ASCII sequence diagram of the captured messages, in time order."""
    if not messages:
        return "(no messages captured)"
    ordered = sorted(messages, key=lambda m: (m.time, m.src, m.dst))[:max_lines]
    widest_kind = max(len(m.kind) for m in ordered)
    lines = []
    for message in ordered:
        arrow_body = message.kind.ljust(widest_kind, "─")
        lines.append(
            f"t={message.time:9.2f}  s{message.src} ──{arrow_body}"
            f"─▶ s{message.dst}"
        )
    if len(messages) > max_lines:
        lines.append(f"... {len(messages) - max_lines} more messages elided")
    return "\n".join(lines)


def message_matrix(messages: list[CapturedMessage], num_sites: int) -> list[list[int]]:
    """Counts of messages from row site to column site."""
    matrix = [[0] * num_sites for _ in range(num_sites)]
    for message in messages:
        matrix[message.src][message.dst] += 1
    return matrix
