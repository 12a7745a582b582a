"""Append-only event log shared by replay and serve.

Every pipeline action lands here as a typed event with a finite,
non-decreasing timestamp, so a run can be replayed, diffed bit-for-bit, and
scored offline.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..jsontext import shown

SAMPLED_PAIR = "sampled_pair"
KEY_MOMENT = "key_moment"
REASONED = "reasoned"
TRANSITION = "transition"
DELIVERY = "delivery"
ERROR = "error"

EVENT_KINDS = (SAMPLED_PAIR, KEY_MOMENT, REASONED, TRANSITION, DELIVERY, ERROR)


@dataclass(frozen=True)
class Event:
    kind: str
    t: float
    data: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {shown(self.kind)}")


class EventLog:
    """Ordered event collection; ``harness.report.load_report`` reads one back."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def append(self, kind: str, t: float, /, **data: Any) -> Event:
        if not math.isfinite(t):  # NaN would pass the order check below
            raise ValueError(f"event time must be finite, got {t}")
        if self.events and t < self.events[-1].t:
            raise ValueError(
                f"event timestamps must be non-decreasing: {t} after {self.events[-1].t}"
            )
        ev = Event(kind=kind, t=t, data=data)
        self.events.append(ev)
        return ev

    def of_kind(self, kind: str) -> list[Event]:
        return [ev for ev in self.events if ev.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def to_obj(self) -> list[dict[str, Any]]:
        return [{"kind": ev.kind, "t": ev.t, "data": ev.data} for ev in self.events]

    def dumps(self) -> str:
        """Canonical serialization; equal logs serialize to equal strings."""
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))


def run_counts(log: EventLog) -> dict[str, int]:
    """Tallies reported when a replayed or served session ends."""
    kinds = Counter(ev.kind for ev in log.events)
    return {
        "sampled_pairs": kinds[SAMPLED_PAIR],
        "key_moments": kinds[KEY_MOMENT],
        "reasoned": kinds[REASONED],
        "deliveries": sum(1 for ev in log.events if ev.kind == DELIVERY and ev.data["deliver"]),
        "errors": kinds[ERROR],
    }
