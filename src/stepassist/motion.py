"""Block-matching optical flow and hand detection.

Flow is estimated per block by exhaustive search: each block from the first
frame is compared against every shifted window of the second frame within the
search radius, under a sum-of-absolute-differences (SAD) cost. Low-texture
blocks (intensity variance below 1.0) carry no signal and are excluded from
the mean. Ties are broken toward the smallest displacement magnitude, then
lexicographically by (dx, dy), so results are exactly reproducible.

The search runs over batches of blocks and skips candidates that cannot win,
with the same result as costing them all. Candidates are listed in tie-break
order, so a block's match is its least (cost, position in the list). The
successive elimination algorithm (W. Li and E. Salari, IEEE TIP 4(1), 1995)
bounds every cost from below, |sum(block) - sum(window)| <= SAD, with each
window sum read from one integral image of the second frame. A block's
incumbent is the exact cost at (0, 0) or, if lower, at one of a few
smallest-bound candidates, and only candidates whose bound does not exceed
it are costed exactly. A skipped candidate's bound is strictly greater, so
its cost exceeds the incumbent, which is at least the minimum: every
candidate tied for the minimum is costed, and the tie-break sees them all.
"""
from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .trace.types import FrameRecord

# blocks with intensity variance below this are treated as untextured
LOW_TEXTURE_VARIANCE = 1

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


# Work per step of the search: blocks bounded together, candidates costed per
# gather, and smallest-bound candidates tried for the incumbent. They bound
# memory and time; no result depends on them.
_CHUNK_BLOCKS = 64
_GATHER = 1024
_SEEDS = 4
# window sum given to a candidate outside the frame: its bound exceeds any cost
_OUTSIDE = 1 << 62


@functools.lru_cache(maxsize=8)
def _candidates(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Every displacement within ``radius``, in tie-break order (|d|^2, dx, dy)."""
    side = np.arange(-radius, radius + 1)
    dx, dy = np.repeat(side, side.size), np.tile(side, side.size)
    order = np.lexsort((dy, dx, dx * dx + dy * dy))
    dx, dy = dx[order], dy[order]
    dx.flags.writeable = dy.flags.writeable = False
    return dx, dy


def _window_sums(area: np.ndarray, block: int, pad: int) -> np.ndarray:
    """Sums of every block-sized window of ``area``, padded with ``_OUTSIDE``."""
    h, w = area.shape
    integral = np.zeros((h + 1, w + 1), np.int64)
    np.cumsum(area, axis=0, dtype=np.int64, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
    sums = np.full((h - block + 1 + 2 * pad, w - block + 1 + 2 * pad), _OUTSIDE, np.int64)
    inner = sums[pad : pad + h - block + 1, pad : pad + w - block + 1]
    np.subtract(integral[block:, block:], integral[:-block, block:], out=inner)
    inner -= integral[block:, :-block]
    inner += integral[:-block, :-block]
    return sums


def estimate_flow(
    frame_a: np.ndarray,
    frame_b: np.ndarray,
    region: Region | None = None,
    cfg: FlowConfig = FlowConfig(),
) -> FlowSummary:
    """Estimate mean displacement of ``region`` content from frame_a to frame_b.

    The frames are 2-d uint8 arrays of one shape. ``region`` is (x, y, w, h)
    in frame coordinates; None means the full
    frame. The region must fit in both frames and hold at least one block.
    Candidate windows are clamped to the frame, so blocks near the border
    simply search a smaller neighborhood; (0, 0) is always a candidate.
    """
    if frame_a.shape != frame_b.shape:
        raise ValueError(f"frame shapes differ: {frame_a.shape} vs {frame_b.shape}")
    if frame_a.ndim != 2:
        raise ValueError("frames must be 2-d grayscale arrays")
    if frame_a.dtype != np.uint8 or frame_b.dtype != np.uint8:
        raise ValueError(f"frames must be uint8, got {frame_a.dtype} and {frame_b.dtype}")
    fh, fw = frame_a.shape
    if region is None:
        region = (0, 0, fw, fh)
    x, y, w, h = region
    if x < 0 or y < 0 or x + w > fw or y + h > fh:
        raise ValueError(f"region {region} leaves the {fw}x{fh} frame")
    if w < cfg.block or h < cfg.block:
        raise ValueError(f"region {region} smaller than one {cfg.block}px block")
    r, bs = cfg.search_radius, cfg.block
    n = bs * bs
    limit = LOW_TEXTURE_VARIANCE * n * n

    # block origins, row-major over the region
    gy, gx = np.meshgrid(_block_starts(h, bs), _block_starts(w, bs), indexing="ij")
    gy, gx = gy.ravel() + y, gx.ravel() + x
    a_blocks = sliding_window_view(frame_a, (bs, bs))
    # every candidate window of the region lies in this area of frame_b
    sx0, sy0 = max(0, x - r), max(0, y - r)
    area = frame_b[sy0 : min(fh, y + h + r), sx0 : min(fw, x + w + r)]
    b_windows = sliding_window_view(area, (bs, bs))
    wsum = _window_sums(area, bs, r)
    wflat = wsum.ravel()
    oy, ox = gy - sy0, gx - sx0  # block origins in the area
    at = (oy + r) * wsum.shape[1] + ox + r
    cdx, cdy = _candidates(r)
    step = cdy * wsum.shape[1] + cdx
    k_all = cdx.size

    used = sum_dx = sum_dy = 0
    for c0 in range(0, gy.size, _CHUNK_BLOCKS):
        blocks = a_blocks[gy[c0 : c0 + _CHUNK_BLOCKS], gx[c0 : c0 + _CHUNK_BLOCKS]]
        blocks = blocks.astype(np.int16)
        sums = blocks.sum(axis=(1, 2), dtype=np.int64)
        # n^2 * variance, exact in integers
        spread = n * np.square(blocks, dtype=np.int64).sum(axis=(1, 2)) - sums * sums
        rows = np.flatnonzero(spread >= limit)
        if not rows.size:
            continue
        blocks, sums, sel = blocks[rows], sums[rows], c0 + rows
        used += sel.size

        def cost(row: np.ndarray, cand: np.ndarray) -> np.ndarray:
            win = b_windows[oy[sel[row]] + cdy[cand], ox[sel[row]] + cdx[cand]]
            win = win.astype(np.int16)
            win -= blocks[row]
            np.abs(win, out=win)
            return win.sum(axis=(1, 2), dtype=np.int64)

        # successive elimination: |sum(block) - sum(window)| <= SAD
        bound = np.take(wflat, at[sel, None] + step)
        bound -= sums[:, None]
        np.abs(bound, out=bound)
        # incumbent: the cost at (0, 0), first in order and always in the
        # frame, or, if lower, at one of the smallest-bound candidates
        line = np.arange(sel.size)
        seeds = np.zeros((_SEEDS + 1, sel.size), np.intp)  # row 0 is (0, 0)
        held = np.zeros(seeds.shape, np.int64)
        for j in range(1, _SEEDS + 1):  # a few argmins cost less than argpartition
            seeds[j] = bound.argmin(axis=1)
            held[j] = bound[line, seeds[j]]
            bound[line, seeds[j]] = _OUTSIDE
        for j in reversed(range(1, _SEEDS + 1)):
            bound[line, seeds[j]] = held[j]
        seeds[held >= _OUTSIDE // 2] = 0  # a seed outside the frame: (0, 0) again
        incumbent = cost(np.tile(line, _SEEDS + 1), seeds.ravel())
        incumbent = incumbent.reshape(_SEEDS + 1, -1).min(axis=0)
        # a pruned candidate costs more than the incumbent, so more than the
        # minimum: every candidate tied for the minimum is kept
        keep = bound <= incumbent[:, None]
        flat = np.flatnonzero(keep)
        cand = flat % k_all
        key = np.empty(flat.size, np.int64)
        for g0 in range(0, flat.size, _GATHER):
            part = slice(g0, g0 + _GATHER)
            key[part] = cost(flat[part] // k_all, cand[part])
        # least (cost, order position) per block: the tie-break of the order
        key *= k_all
        key += cand
        counts = keep.sum(axis=1)
        best = np.minimum.reduceat(key, np.cumsum(counts) - counts) % k_all
        sum_dx += int(cdx[best].sum())
        sum_dy += int(cdy[best].sum())

    if used:
        mean_dx, mean_dy = sum_dx / used, sum_dy / used
    else:
        mean_dx = mean_dy = 0.0  # nothing textured enough to track
    return FlowSummary(
        dx=mean_dx,
        dy=mean_dy,
        magnitude=math.hypot(mean_dx, mean_dy),
        pixels_processed=w * h,
        blocks_total=gy.size,
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

    Pixels at or above ``THRESHOLD`` are grouped into 4-connected components;
    components of at least ``MIN_AREA`` pixels become boxes (largest two kept,
    sides unassigned).
    """

    # the generator draws hand patches from 160..255 over a 20..120 background
    THRESHOLD = 150
    MIN_AREA = 16

    def detect(self, frame: FrameRecord) -> list[HandBox]:
        mask = frame.image >= self.THRESHOLD
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
            if area >= self.MIN_AREA:
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
