"""Block-matching optical flow and hand detection.

Flow is estimated per block by exhaustive search: each block from the first
frame is compared against every shifted window of the second frame within the
search radius, under a sum-of-absolute-differences cost. Low-texture blocks
(intensity variance below 1.0) carry no signal and are excluded from the
mean. Ties are broken toward the smallest displacement magnitude, then
lexicographically by (dx, dy), so results are exactly reproducible.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from .trace.types import FrameRecord

# blocks with intensity variance below this are treated as untextured
LOW_TEXTURE_VARIANCE = 1.0

Region = tuple[int, int, int, int]  # x, y, w, h


@dataclass(frozen=True)
class FlowConfig:
    block: int = 8
    search_radius: int = 7

    def __post_init__(self) -> None:
        if self.block < 2:
            raise ValueError(f"block size must be at least 2, got {self.block}")
        if self.search_radius < 1:
            raise ValueError(f"search radius must be at least 1, got {self.search_radius}")


@dataclass(frozen=True)
class FlowSummary:
    """Mean block displacement over a region, in pixels (y grows downward)."""

    dx: float
    dy: float
    magnitude: float
    pixels_processed: int
    blocks_total: int
    blocks_used: int

    def __post_init__(self) -> None:
        if abs(self.magnitude - math.hypot(self.dx, self.dy)) > 1e-9:
            raise ValueError("flow magnitude inconsistent with components")


def _block_starts(extent: int, block: int) -> list[int]:
    """Grid offsets covering [0, extent): block steps plus a clamped tail."""
    starts = list(range(0, extent - block + 1, block))
    if starts[-1] + block < extent:
        starts.append(extent - block)
    return starts


def estimate_flow(
    frame_a: np.ndarray,
    frame_b: np.ndarray,
    region: Region | None = None,
    cfg: FlowConfig = FlowConfig(),
) -> FlowSummary:
    """Estimate mean displacement of ``region`` content from frame_a to frame_b.

    ``region`` is (x, y, w, h) in frame coordinates; None means the full
    frame. The region must fit in both frames and hold at least one block.
    Candidate windows are clamped to the frame, so blocks near the border
    simply search a smaller neighborhood; (0, 0) is always a candidate.
    """
    if frame_a.shape != frame_b.shape:
        raise ValueError(f"frame shapes differ: {frame_a.shape} vs {frame_b.shape}")
    if frame_a.ndim != 2:
        raise ValueError("frames must be 2-d grayscale arrays")
    fh, fw = frame_a.shape
    if region is None:
        region = (0, 0, fw, fh)
    x, y, w, h = region
    if x < 0 or y < 0 or x + w > fw or y + h > fh:
        raise ValueError(f"region {region} leaves the {fw}x{fh} frame")
    if w < cfg.block or h < cfg.block:
        raise ValueError(f"region {region} smaller than one {cfg.block}px block")

    a = frame_a.astype(np.int32)
    b = frame_b.astype(np.int32)
    r, bs = cfg.search_radius, cfg.block

    sum_dx = 0.0
    sum_dy = 0.0
    used = 0
    total = 0
    for oy in _block_starts(h, bs):
        for ox in _block_starts(w, bs):
            bx, by = x + ox, y + oy
            total += 1
            block = a[by : by + bs, bx : bx + bs]
            if np.var(block) < LOW_TEXTURE_VARIANCE:
                continue
            x0, y0 = max(0, bx - r), max(0, by - r)
            x1, y1 = min(fw, bx + bs + r), min(fh, by + bs + r)
            windows = np.lib.stride_tricks.sliding_window_view(
                b[y0:y1, x0:x1], (bs, bs)
            )
            costs = np.abs(windows - block).sum(axis=(2, 3))
            wy, wx = np.meshgrid(
                np.arange(costs.shape[0]), np.arange(costs.shape[1]), indexing="ij"
            )
            dxs = (wx + x0 - bx).ravel()
            dys = (wy + y0 - by).ravel()
            flat = costs.ravel()
            mag2 = dxs * dxs + dys * dys
            best = np.lexsort((dys, dxs, mag2, flat))[0]
            sum_dx += float(dxs[best])
            sum_dy += float(dys[best])
            used += 1

    if used:
        mean_dx, mean_dy = sum_dx / used, sum_dy / used
    else:
        mean_dx = mean_dy = 0.0  # nothing textured enough to track
    return FlowSummary(
        dx=mean_dx,
        dy=mean_dy,
        magnitude=math.hypot(mean_dx, mean_dy),
        pixels_processed=w * h,
        blocks_total=total,
        blocks_used=used,
    )


@dataclass(frozen=True)
class HandBox:
    """Axis-aligned hand bounding box; side is left, right, or unknown."""

    side: str
    x: int
    y: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if self.side not in ("left", "right", "unknown"):
            raise ValueError(f"hand side must be left/right/unknown, got {self.side!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"hand box must have positive size, got {self.w}x{self.h}")

    @property
    def center_x(self) -> float:
        return self.x + self.w / 2.0

    def region(self) -> Region:
        return (self.x, self.y, self.w, self.h)


class HandDetector(Protocol):
    def detect(self, frame: FrameRecord) -> list[HandBox]: ...


class HandDetectionError(RuntimeError):
    """A detector failed on a frame; the message carries the frame timestamp."""


class NullDetector:
    """Never detects hands; callers fall back to full-frame flow."""

    def detect(self, frame: FrameRecord) -> list[HandBox]:
        return []


class AnnotationDetector:
    """Plays back hand boxes recorded in the trace annotations."""

    def __init__(self, boxes_by_pair: Mapping[int, Sequence[Mapping[str, object]]]):
        self._boxes: dict[int, list[HandBox]] = {}
        for pid, boxes in boxes_by_pair.items():
            self._boxes[int(pid)] = [
                HandBox(
                    side=str(b["side"]),
                    x=int(b["x"]),
                    y=int(b["y"]),
                    w=int(b["w"]),
                    h=int(b["h"]),
                )
                for b in boxes
            ]

    @classmethod
    def from_trace(cls, trace) -> "AnnotationDetector":
        return cls(trace.hand_boxes)

    def detect(self, frame: FrameRecord) -> list[HandBox]:
        return list(self._boxes.get(frame.pair_id, []))


class SyntheticDetector:
    """Intensity-threshold blob finder for synthetic footage.

    Pixels at or above ``threshold`` are grouped into 4-connected components;
    components of at least ``min_area`` pixels become boxes (largest two kept,
    sides unassigned).
    """

    def __init__(self, threshold: int = 150, min_area: int = 16):
        self.threshold = threshold
        self.min_area = min_area

    def detect(self, frame: FrameRecord) -> list[HandBox]:
        mask = frame.image >= self.threshold
        visited = np.zeros_like(mask, dtype=bool)
        blobs: list[tuple[int, int, int, int, int]] = []  # area, x, y, w, h
        hh, ww = mask.shape
        for sy, sx in zip(*np.nonzero(mask)):
            if visited[sy, sx]:
                continue
            queue = deque([(int(sy), int(sx))])
            visited[sy, sx] = True
            area = 0
            min_x = max_x = int(sx)
            min_y = max_y = int(sy)
            while queue:
                cy, cx = queue.popleft()
                area += 1
                min_x, max_x = min(min_x, cx), max(max_x, cx)
                min_y, max_y = min(min_y, cy), max(max_y, cy)
                for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                    if 0 <= ny < hh and 0 <= nx < ww and mask[ny, nx] and not visited[ny, nx]:
                        visited[ny, nx] = True
                        queue.append((ny, nx))
            if area >= self.min_area:
                blobs.append((area, min_x, min_y, max_x - min_x + 1, max_y - min_y + 1))
        blobs.sort(key=lambda bl: (-bl[0], bl[1], bl[2]))
        return [HandBox("unknown", x, y, w, h) for _, x, y, w, h in blobs[:2]]


def detect_hands(frame: FrameRecord, detector: HandDetector) -> list[HandBox]:
    """Run a detector and normalize sides, ordered left to right.

    Unknown sides are resolved by position: with two boxes the leftmost is
    the left hand; with one, the side follows which half of the frame holds
    the box center. Detector failures surface as HandDetectionError carrying
    the frame timestamp.
    """
    try:
        boxes = detector.detect(frame)
    except Exception as exc:
        raise HandDetectionError(
            f"hand detector failed at t={frame.timestamp}: {exc}"
        ) from exc
    boxes = sorted(boxes, key=lambda b: b.center_x)[:2]
    if any(b.side == "unknown" for b in boxes):
        if len(boxes) == 2:
            sides = ("left", "right")
            boxes = [
                HandBox(side, b.x, b.y, b.w, b.h) for side, b in zip(sides, boxes)
            ]
        elif len(boxes) == 1:
            b = boxes[0]
            side = "left" if b.center_x < frame.image.shape[1] / 2.0 else "right"
            boxes = [HandBox(side, b.x, b.y, b.w, b.h)]
    return boxes


def box_flow_region(box: HandBox, width: int, height: int, min_size: int) -> Region:
    """Grow a box to at least min_size per side, clamped inside the frame."""
    x, y, w, h = box.x, box.y, box.w, box.h
    if w < min_size:
        x = max(0, min(x - (min_size - w) // 2, width - min_size))
        w = min_size
    if h < min_size:
        y = max(0, min(y - (min_size - h) // 2, height - min_size))
        h = min_size
    return (x, y, w, h)
