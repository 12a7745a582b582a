"""Evaluation metrics over a finished run.

``align`` joins every reasoned moment with ground truth, and
``compute_metrics`` scores the joined records into one ``MetricsReport``,
whose docstring defines each metric. Alignment uses half-open segment
intervals: a moment exactly at a boundary belongs to the following segment.
Moments outside every segment are kept (they still count for the proactive
metrics, with need=false) but excluded from step/status accuracy
denominators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Sequence

from .harness.events import DELIVERY, REASONED, SAMPLED_PAIR, EventLog
from .trace.types import ExecutionStatus, ProactiveInterval, Session


@dataclass(frozen=True)
class MomentRecord:
    """One reasoned moment joined with ground truth."""

    timestamp: float
    pred_step: str
    pred_status: ExecutionStatus
    pred_proactive: bool
    delivered: bool
    gt_step: str | None
    gt_status: ExecutionStatus | None
    annotated: bool
    need: bool
    interval_id: int | None


def align(log: EventLog, session: Session) -> list[MomentRecord]:
    """Join reasoned events with segments, intervals and outcomes. The log is the
    engine's or one ``harness.report.load_report`` read, whose scored fields it checked."""
    delivered_at = {ev.t for ev in log.of_kind(DELIVERY) if ev.data["deliver"]}
    records: list[MomentRecord] = []
    for ev in log.of_kind(REASONED):
        t = ev.t
        seg = session.segment_at(t)
        need = session.need_at(t)
        # equal intervals contain the same t, so index() finds the first container
        interval_id = None if need is None else session.proactive_intervals.index(need)
        records.append(
            MomentRecord(
                timestamp=t,
                pred_step=ev.data["step"],
                pred_status=ExecutionStatus(ev.data["status"]),
                pred_proactive=ev.data["proactive"],
                delivered=t in delivered_at,
                gt_step=seg.step if seg else None,
                gt_status=seg.status if seg else None,
                annotated=seg is not None,
                need=interval_id is not None,
                interval_id=interval_id,
            )
        )
    return records


@dataclass(frozen=True)
class StsResult:
    """Mean per-interval timeliness score.

    Each interval scores exp(-(t - start) / (end - start)) for the earliest
    delivered trigger t inside [start, end] whose predicted step matches the
    interval's step, and 0 otherwise; a trigger exactly at the interval end
    is worth exp(-1).
    """

    value: float
    per_interval: tuple[float, ...]
    trigger_times: tuple[float | None, ...]


def sts(
    records: Sequence[MomentRecord], intervals: Sequence[ProactiveInterval]
) -> StsResult:
    if not intervals:
        raise ValueError("sts needs at least one proactive interval")
    deliveries = sorted(
        (r for r in records if r.delivered), key=lambda r: r.timestamp
    )
    scores: list[float] = []
    triggers: list[float | None] = []
    for iv in intervals:
        inside = [r for r in deliveries if iv.start <= r.timestamp <= iv.end]
        if not inside:
            scores.append(0.0)
            triggers.append(None)
            continue
        first = inside[0]
        triggers.append(first.timestamp)
        if first.pred_step == iv.step:
            scores.append(
                math.exp(-(first.timestamp - iv.start) / (iv.end - iv.start))
            )
        else:
            scores.append(0.0)
    return StsResult(
        value=sum(scores) / len(scores),
        per_interval=tuple(scores),
        trigger_times=tuple(triggers),
    )


@dataclass(frozen=True)
class MetricsReport:
    """Everything the harness reports for one run.

    step_acc, status_acc: annotated moments whose predicted step (status)
        matches the segment's / annotated moments.
    acc_p: moments whose proactive flag matches need / moments.
    md: missed detections, needed moments left silent / needed moments.
    fd: false detections, quiet moments spoken on / quiet moments.
    sts: mean per-interval timeliness score (``sts``) over the proactive
        intervals.
    inference_ratio: reasoned moments / sampled pairs.
    hit_rate: reasoned moments inside proactive intervals / reasoned moments,
        reported only for a log with sampled pairs.

    A metric whose denominator is empty is None, never 0. ``counts`` holds the
    tallies behind them; the interval and overhead tallies appear only with
    proactive intervals and sampled pairs respectively.
    """

    step_acc: float | None
    status_acc: float | None
    acc_p: float | None
    md: float | None
    fd: float | None
    sts: float | None
    inference_ratio: float | None
    hit_rate: float | None
    counts: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "metrics": {name: getattr(self, name) for name in METRIC_NAMES},
            "counts": dict(self.counts),
        }


METRIC_NAMES = tuple(f.name for f in dataclass_fields(MetricsReport) if f.name != "counts")


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def compute_metrics(log: EventLog, session: Session) -> MetricsReport:
    """Score a finished run; an empty run is reportable, just mostly undefined."""
    records = align(log, session)
    annotated = [r for r in records if r.annotated]
    needed = [r for r in records if r.need]
    counts = {
        "moments": len(records),
        "annotated_moments": len(annotated),
        "step_correct": sum(r.pred_step == r.gt_step for r in annotated),
        "status_correct": sum(r.pred_status == r.gt_status for r in annotated),
        "proactive_correct": sum(r.pred_proactive == r.need for r in records),
        "need_moments": len(needed),
        "missed": sum(not r.pred_proactive for r in needed),
        "quiet_moments": len(records) - len(needed),
        "false_alarms": sum(r.pred_proactive and not r.need for r in records),
    }

    sts_value: float | None = None
    if session.proactive_intervals:
        result = sts(records, session.proactive_intervals)
        sts_value = result.value
        counts["intervals"] = len(session.proactive_intervals)
        counts["intervals_triggered"] = sum(t is not None for t in result.trigger_times)

    sampled = len(log.of_kind(SAMPLED_PAIR))
    if sampled:
        counts["sampled_pairs"] = sampled
        counts["reasoned_moments"] = len(records)
        counts["reasoned_in_interval"] = len(needed)

    return MetricsReport(
        step_acc=_ratio(counts["step_correct"], len(annotated)),
        status_acc=_ratio(counts["status_correct"], len(annotated)),
        acc_p=_ratio(counts["proactive_correct"], len(records)),
        md=_ratio(counts["missed"], len(needed)),
        fd=_ratio(counts["false_alarms"], counts["quiet_moments"]),
        sts=sts_value,
        inference_ratio=_ratio(len(records), sampled),
        hit_rate=_ratio(len(needed), len(records)) if sampled else None,
        counts=counts,
    )
