"""Core record types for recorded egocentric sessions.

A ``Session`` is what is fixed at session start: the task instruction, frame
geometry, pair gap and ground-truth annotations. A ``SessionTrace`` adds the
recorded streams: grayscale frames in two-frame pairs, and gyroscope samples.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import KW_ONLY, dataclass, field
from enum import Enum
from typing import Any, Iterable, Iterator

import numpy as np

from ..jsontext import shown

HAND_SIDES = ("left", "right", "unknown")


class ExecutionStatus(str, Enum):
    """Execution phase of the current procedural step."""

    JUST_START = "just_start"
    IN_PROGRESS = "in_progress"
    ABOUT_TO_FINISH = "about_to_finish"
    STEP_TRANSITION = "step_transition"

    @classmethod
    def parse(cls, value: str) -> "ExecutionStatus":
        try:
            return cls(value)
        except ValueError:
            raise ValueError(f"unknown execution status {shown(value)}") from None


@dataclass(frozen=True)
class FrameRecord:
    """One grayscale frame.

    ``image`` is a (height, width) uint8 array. ``slot`` is "a" for the first
    frame of a pair and "b" for the second.
    """

    timestamp: float
    pair_id: int
    slot: str
    image: np.ndarray

    def __post_init__(self) -> None:
        if self.slot not in ("a", "b"):
            raise ValueError(f"frame slot must be 'a' or 'b', got {shown(self.slot)}")
        if self.image.ndim != 2 or self.image.dtype != np.uint8:
            raise ValueError("frame image must be a 2-d uint8 array")


@dataclass(frozen=True)
class FramePair:
    """The two frames sampled around one moment; ``t`` is the first frame's time."""

    pair_id: int
    t: float
    frame_a: FrameRecord
    frame_b: FrameRecord


@dataclass(frozen=True)
class ImuSample:
    """One gyroscope reading, angular velocity in rad/s."""

    timestamp: float
    gx: float
    gy: float
    gz: float

    def magnitude(self) -> float:
        return math.sqrt(self.gx * self.gx + self.gy * self.gy + self.gz * self.gz)


@dataclass(frozen=True)
class StepSegment:
    """Ground-truth annotation: during [start, end) the user is in ``step`` with ``status``."""

    start: float
    end: float
    step: str
    status: ExecutionStatus

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"segment start must precede end, got [{self.start}, {self.end})")

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class ProactiveInterval:
    """Window during which assistance for ``step`` is considered timely."""

    start: float
    end: float
    step: str

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(
                f"proactive interval start must precede end, got [{self.start}, {self.end}]"
            )

    def contains(self, t: float) -> bool:
        """Half-open need test, consistent with segment alignment."""
        return self.start <= t < self.end


def step_vocabulary(segments: Iterable[StepSegment]) -> list[str]:
    """Unique step labels in order of first appearance."""
    return list(dict.fromkeys(seg.step for seg in segments))


@dataclass
class Session:
    """The header and the annotations: all the engine, the wire, ``StreamCheck``
    and the scorer read. ``hand_boxes`` optionally maps pair id to recorded
    hand boxes, each a JSON object with the keys side/x/y/w/h, as the
    annotation codec reads it whole; only annotation-backed hand detection
    reads them.
    """

    instruction: str
    width: int
    height: int
    pair_gap: float
    segments: list[StepSegment] = field(default_factory=list)
    proactive_intervals: list[ProactiveInterval] = field(default_factory=list)
    hand_boxes: dict[int, list[dict[str, Any]]] = field(default_factory=dict)
    guideline_doc_id: str | None = None

    def segment_at(self, t: float) -> StepSegment | None:
        for seg in self.segments:
            if seg.contains(t):
                return seg
        return None

    def need_at(self, t: float) -> ProactiveInterval | None:
        """The proactive interval containing t, if any (half-open containment)."""
        for iv in self.proactive_intervals:
            if iv.contains(t):
                return iv
        return None

    def step_labels(self) -> list[str]:
        """Unique step labels in order of first appearance in the segments."""
        return step_vocabulary(self.segments)


@dataclass
class SessionTrace(Session):
    """A session with its recorded sensor streams, as generated, written and loaded."""

    _: KW_ONLY
    frames: list[FrameRecord]
    imu: list[ImuSample]

    @property
    def duration(self) -> float:
        """Timestamp of the last recorded frame (0.0 for an empty frame stream)."""
        return self.frames[-1].timestamp if self.frames else 0.0

    def iter_sensor_records(self) -> Iterator[ImuSample | FrameRecord]:
        """Both sensor streams merged by timestamp, each in its recorded order.

        Ties go to the imu so motion state is current when a frame lands. A
        record out of order in its own stream stays out of order, as it
        would arrive live, so the engine sees what validate_session sees.
        """
        return heapq.merge(self.imu, self.frames, key=lambda r: r.timestamp)


@dataclass(frozen=True)
class Violation:
    """One validation finding: a short machine-readable kind plus a human message."""

    kind: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, message: str) -> None:
        self.violations.append(Violation(kind, message))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"[{v.kind}] {v.message}" for v in self.violations)
