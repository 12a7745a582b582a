"""Evaluation metrics over a finished run.

Alignment maps every reasoned moment onto ground truth with half-open
segment intervals: a moment exactly at a boundary belongs to the following
segment. Moments outside every segment are kept (they still count for the
proactive metrics, with need=false) but excluded from step/status accuracy
denominators. Any metric whose denominator is empty is reported as None,
never as 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .harness.events import DELIVERY, REASONED, SAMPLED_PAIR, EventLog
from .jsontext import fields
from .reasoner import VERDICT_FIELDS
from .trace.types import ExecutionStatus, ProactiveInterval, SessionTrace


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


def align(log: EventLog, trace: SessionTrace) -> list[MomentRecord]:
    """Join reasoned events (read by ``jsontext.field``) with segments, intervals, outcomes."""
    delivered_at = {
        ev.t for ev in log.of_kind(DELIVERY)
        if fields(ev.data, {"deliver": bool}, f"delivery event at t={ev.t}")[0]
    }
    records: list[MomentRecord] = []
    for ev in log.of_kind(REASONED):
        t = ev.t
        step, status, proactive = fields(ev.data, VERDICT_FIELDS, f"reasoned event at t={t}")
        seg = trace.segment_at(t)
        need = trace.need_at(t)
        # equal intervals contain the same t, so index() finds the first container
        interval_id = None if need is None else trace.proactive_intervals.index(need)
        records.append(
            MomentRecord(
                timestamp=t,
                pred_step=step,
                pred_status=ExecutionStatus.parse(status),
                pred_proactive=proactive,
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
class ClassificationMetrics:
    """Step/status accuracy plus the three proactive-decision metrics.

    acc_p: fraction of moments whose proactive flag matches need.
    md: missed detections, needed moments left silent / needed moments.
    fd: false detections, quiet moments spoken on / quiet moments.
    """

    step_acc: float | None
    status_acc: float | None
    acc_p: float | None
    md: float | None
    fd: float | None
    counts: dict[str, int] = field(default_factory=dict)


def classification_metrics(records: Sequence[MomentRecord]) -> ClassificationMetrics:
    annotated = [r for r in records if r.annotated]
    step_correct = sum(1 for r in annotated if r.pred_step == r.gt_step)
    status_correct = sum(1 for r in annotated if r.pred_status == r.gt_status)

    total = len(records)
    proactive_correct = sum(1 for r in records if r.pred_proactive == r.need)
    needed = [r for r in records if r.need]
    quiet = [r for r in records if not r.need]
    missed = sum(1 for r in needed if not r.pred_proactive)
    false_alarms = sum(1 for r in quiet if r.pred_proactive)

    def ratio(num: int, den: int) -> float | None:
        return num / den if den else None

    return ClassificationMetrics(
        step_acc=ratio(step_correct, len(annotated)),
        status_acc=ratio(status_correct, len(annotated)),
        acc_p=ratio(proactive_correct, total),
        md=ratio(missed, len(needed)),
        fd=ratio(false_alarms, len(quiet)),
        counts={
            "moments": total,
            "annotated_moments": len(annotated),
            "step_correct": step_correct,
            "status_correct": status_correct,
            "proactive_correct": proactive_correct,
            "need_moments": len(needed),
            "missed": missed,
            "quiet_moments": len(quiet),
            "false_alarms": false_alarms,
        },
    )


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
class OverheadMetrics:
    """Reasoning economy: how often the reasoner ran, and how on-target.

    inference_ratio: reasoned moments / sampled pairs.
    hit_rate: reasoned moments inside proactive intervals / reasoned moments.
    """

    inference_ratio: float
    hit_rate: float | None
    counts: dict[str, int] = field(default_factory=dict)


def overhead_metrics(log: EventLog, trace: SessionTrace) -> OverheadMetrics:
    sampled = len(log.of_kind(SAMPLED_PAIR))
    if sampled == 0:
        raise ValueError("no sampled pairs in the log")
    reasoned_events = log.of_kind(REASONED)
    reasoned = len(reasoned_events)
    in_interval = sum(
        1 for ev in reasoned_events if trace.need_at(ev.t) is not None
    )
    return OverheadMetrics(
        inference_ratio=reasoned / sampled,
        hit_rate=(in_interval / reasoned) if reasoned else None,
        counts={
            "sampled_pairs": sampled,
            "reasoned_moments": reasoned,
            "reasoned_in_interval": in_interval,
        },
    )


@dataclass(frozen=True)
class MetricsReport:
    """Everything the harness reports for one run."""

    step_acc: float | None
    status_acc: float | None
    acc_p: float | None
    md: float | None
    fd: float | None
    sts: float | None
    inference_ratio: float | None
    hit_rate: float | None
    counts: dict[str, int] = field(default_factory=dict)

    METRIC_NAMES = (
        "step_acc",
        "status_acc",
        "acc_p",
        "md",
        "fd",
        "sts",
        "inference_ratio",
        "hit_rate",
    )

    def as_dict(self) -> dict[str, object]:
        return {
            "metrics": {name: getattr(self, name) for name in self.METRIC_NAMES},
            "counts": dict(self.counts),
        }


METRIC_NAMES = MetricsReport.METRIC_NAMES


def compute_metrics(log: EventLog, trace: SessionTrace) -> MetricsReport:
    """Aggregate every metric for a finished run.

    Metrics without a defined denominator come back None: sts without
    proactive intervals, hit_rate without reasoned moments, inference_ratio
    on a log with no sampled pairs (an empty run is reportable, just mostly
    undefined).
    """
    records = align(log, trace)
    cls_metrics = classification_metrics(records)
    counts = dict(cls_metrics.counts)

    sts_value: float | None = None
    if trace.proactive_intervals:
        sts_result = sts(records, trace.proactive_intervals)
        sts_value = sts_result.value
        counts["intervals"] = len(trace.proactive_intervals)
        counts["intervals_triggered"] = sum(
            1 for t in sts_result.trigger_times if t is not None
        )

    inference_ratio: float | None = None
    hit_rate: float | None = None
    if log.of_kind(SAMPLED_PAIR):
        overhead = overhead_metrics(log, trace)
        inference_ratio = overhead.inference_ratio
        hit_rate = overhead.hit_rate
        counts.update(overhead.counts)

    return MetricsReport(
        step_acc=cls_metrics.step_acc,
        status_acc=cls_metrics.status_acc,
        acc_p=cls_metrics.acc_p,
        md=cls_metrics.md,
        fd=cls_metrics.fd,
        sts=sts_value,
        inference_ratio=inference_ratio,
        hit_rate=hit_rate,
        counts=counts,
    )
