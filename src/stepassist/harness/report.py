"""Run artifacts on disk: one JSON report plus two CSV views."""
from __future__ import annotations

import csv
import json
from pathlib import Path

from ..jsontext import fields, loads
from ..metrics import METRIC_NAMES, MetricsReport
from ..reasoner import VERDICT_FIELDS
from ..trace.types import ExecutionStatus
from .events import DELIVERY, REASONED, EventLog

REPORT_FILE = "report.json"
EVENTS_FILE = "events.csv"
METRICS_FILE = "metrics.csv"

# metrics.csv value for a metric whose denominator was empty
UNDEFINED = "undefined"

# the data fields compute_metrics reads, by event kind (a reasoned status by
# ExecutionStatus.parse too), so it trusts a saved log as it trusts the engine's
_SCORED_FIELDS = {REASONED: VERDICT_FIELDS, DELIVERY: {"deliver": bool}}


def write_report(log: EventLog, metrics: MetricsReport, out_dir: str | Path) -> Path:
    """Write report.json (authoritative) plus events.csv and metrics.csv views."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)

    payload = metrics.as_dict()
    payload["events"] = log.to_obj()
    (root / REPORT_FILE).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    with open(root / EVENTS_FILE, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "t", "data"])
        for ev in log:
            writer.writerow([ev.kind, repr(ev.t), json.dumps(ev.data, sort_keys=True)])

    with open(root / METRICS_FILE, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for name in METRIC_NAMES:
            value = getattr(metrics, name)
            writer.writerow([name, UNDEFINED if value is None else repr(value)])

    return root / REPORT_FILE


def load_report(path: str | Path) -> EventLog:
    """The event log of a report.json (or its directory), each event and the fields the
    scorer reads checked here; ``eval`` recomputes the metrics, so they are not read."""
    p = Path(path)
    if p.is_dir():
        p = p / REPORT_FILE
    log = EventLog()
    try:
        (events,) = fields(loads(p.read_text(encoding="utf-8")), {"events": list}, "report")
        for i, entry in enumerate(events):
            where = f"event {i}"
            kind, t, data = fields(entry, {"kind": str, "t": float, "data": dict}, where)
            try:
                if kind in _SCORED_FIELDS:
                    fields(data, _SCORED_FIELDS[kind], "data")
                    if kind == REASONED:
                        ExecutionStatus.parse(data["status"])
                log.append(kind, t, **data)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None
    return log


def format_metrics(metrics: MetricsReport) -> str:
    """Human-readable one-metric-per-line summary."""
    lines = []
    for name in METRIC_NAMES:
        value = getattr(metrics, name)
        lines.append(f"{name:>16}  {UNDEFINED if value is None else f'{value:.4f}'}")
    counts = " ".join(f"{k}={v}" for k, v in sorted(metrics.counts.items()))
    lines.append(f"{'counts':>16}  {counts}")
    return "\n".join(lines)


__all__ = [
    "EVENTS_FILE",
    "METRICS_FILE",
    "REPORT_FILE",
    "UNDEFINED",
    "format_metrics",
    "load_report",
    "write_report",
]
