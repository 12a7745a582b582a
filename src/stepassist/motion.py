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
bounds every cost from below, |sum(block) - sum(window)| <= SAD, with the
sums of every window of the search area built by repeated doubling. A
block's least-bound candidate is costed first; if its cost equals its bound,
it is the match, since no candidate costs less than its own bound and the
first least bound in order is the one taken; a batch whose blocks all
settle this way needs nothing more. Otherwise the incumbent is the least
cost there, at (0, 0) and at a few more smallest-bound candidates, and only
candidates whose bound does not exceed it are costed exactly. A skipped
candidate's bound is strictly greater, so its cost exceeds the incumbent,
which is at least the minimum: every candidate tied for the minimum is
costed, and the tie-break sees them all.

The arithmetic is exact in narrow types. A block has n = block^2 pixels and
``FlowConfig`` caps block at 256, so every SAD and every window sum is at
most n * 255 < 2^24. A frame is read as packed rows: an element is one
window row of ``block`` bytes, and the elements step one byte along the
frame and one frame row down a window, so one fancy index gathers whole
windows and ``.view(np.uint8)`` lays each out as n bytes. Block pixels stay
uint8, |a - b| is max - min in uint8, and each window's differences are
summed by a float32 product with a vector of ones: every partial sum is an
integer below 2^24, so each is exact whatever the order of the additions.
Window sums, bounds and costs are int32; a candidate outside the frame has
the window sum 2^31 - 1, so its bound, over 2^31 - 1 - 2^24, exceeds every
cost. A block's bounds are gathered the same way, its (2r + 1)^2 window sums
as 2r + 1 packed rows of the sum grid, and put in tie-break order by one
take.

A call's index tables come from a plan cached per search geometry: the
block origins, each block's corner in the padded window-sum grid, and each
candidate's step in the frame. The key is everything the tables
depend on: region size, block, radius, search-area shape, the region's
offset in that area, and frame width; so every interior hand box of one size
shares a plan. Each table is O(blocks + candidates), never one entry per
(block, candidate) pair (4 800 x 961 of them for a VGA frame at radius 15),
and the cache keeps at most 32 plans, so its memory stays bounded however
many geometries a session shows.

A hand box holds a few blocks, so a call's fixed costs weigh as much as its
search. The constants are built once and kept read-only: the candidate
tables, the vector of ones and the packed-row dtypes in small caches keyed
by radius, block and row size, and the row numbers of a chunk's bound table
as a module constant. A chunk whose blocks are all textured, as every chunk
of a textured scene is, is used as it stands: its blocks, sums, origins and
corners are not copied, and only a chunk with an untextured block gathers
out its textured rows.
"""
from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from .jsontext import shown
from .trace.types import HAND_SIDES, FrameRecord

# blocks with intensity variance below this are treated as untextured
LOW_TEXTURE_VARIANCE = 1
# largest block side: MAX_BLOCK^2 * 255 < 2^24
MAX_BLOCK = 256

Region = tuple[int, int, int, int]  # x, y, w, h


@dataclass(frozen=True)
class FlowConfig:
    block: int = 8
    search_radius: int = 7

    def __post_init__(self) -> None:
        if self.block < 2:
            raise ValueError(f"block size must be at least 2, got {shown(self.block)}")
        if self.block > MAX_BLOCK:
            # keeps every SAD and window sum below 2^24 (see the module docstring)
            raise ValueError(f"block size must be at most {MAX_BLOCK}, got {shown(self.block)}")
        if self.search_radius < 1:
            raise ValueError(f"search radius must be at least 1, got {shown(self.search_radius)}")


@dataclass(frozen=True)
class FlowSummary:
    """Mean block displacement over a region, in pixels (y grows downward)."""

    dx: float
    dy: float
    magnitude: float
    blocks_total: int
    blocks_used: int

    def __post_init__(self) -> None:
        if abs(self.magnitude - math.hypot(self.dx, self.dy)) > 1e-9:
            raise ValueError("flow magnitude inconsistent with components")


def _block_starts(extent: int, block: int) -> np.ndarray:
    """Grid offsets covering [0, extent): block steps plus a clamped tail."""
    starts = list(range(0, extent - block + 1, block))
    if starts[-1] + block < extent:
        starts.append(extent - block)
    return np.array(starts, np.intp)


# Work per step of the search: blocks bounded together, candidates costed per
# gather, and smallest-bound candidates tried for a loose incumbent. They
# bound memory and time; no result depends on them.
_CHUNK_BLOCKS = 64
_GATHER = 1024
_SEEDS = 4
# window sum given to a candidate outside the frame (int32's largest): its
# bound exceeds any cost
_OUTSIDE = 2**31 - 1
# each block's row in a chunk's bound table
_LINE = np.arange(_CHUNK_BLOCKS)
_LINE.flags.writeable = False


@functools.lru_cache(maxsize=8)
def _candidates(radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every displacement within ``radius``, in tie-break order (|d|^2, dx, dy).

    Returns dx, dy and each one's place in the row-major raster of the
    (2 * radius + 1)^2 displacements, dy-major.
    """
    side = np.arange(-radius, radius + 1)
    dy, dx = np.repeat(side, side.size), np.tile(side, side.size)
    order = np.lexsort((dy, dx, dx * dx + dy * dy))
    dx, dy = dx[order], dy[order]
    for table in (dx, dy, order):
        table.flags.writeable = False
    return dx, dy, order


@functools.lru_cache(maxsize=8)
def _ones(n: int) -> np.ndarray:
    """``n`` float32 ones: a product with them sums a window's ``n`` differences."""
    ones = np.ones(n, np.float32)
    ones.flags.writeable = False
    return ones


@functools.lru_cache(maxsize=8)
def _packed_row(nbytes: int) -> np.dtype:
    """The raw-bytes dtype of one packed row of ``nbytes`` bytes."""
    return np.dtype((np.void, nbytes))


@dataclass(frozen=True)
class _Plan:
    """Index tables for one search geometry, each O(blocks + candidates)."""

    origins: np.ndarray  # block origins, as flat frame offsets from the area's origin
    corner: np.ndarray  # each block's (-r, -r) candidate in the padded window-sum grid
    shift: np.ndarray  # each candidate's offset in the frame, in tie-break order


@functools.lru_cache(maxsize=32)
def _plan(h: int, w: int, block: int, radius: int, area_h: int, area_w: int,
          off_y: int, off_x: int, frame_w: int) -> _Plan:
    """Tables for an h x w region at (off_y, off_x) in an area_h x area_w search area."""
    by, bx = _block_starts(h, block), _block_starts(w, block)
    oy, ox = np.repeat(by, bx.size) + off_y, np.tile(bx, by.size) + off_x
    grid_w = area_w - block + 1 + 2 * radius  # as _window_sums pads it
    cdx, cdy, _ = _candidates(radius)
    plan = _Plan(
        origins=oy * frame_w + ox,
        corner=oy * grid_w + ox,
        shift=cdy * frame_w + cdx,
    )
    for table in (plan.origins, plan.corner, plan.shift):
        table.flags.writeable = False
    return plan


def _run_sums(a: np.ndarray, length: int) -> np.ndarray:
    """Sums of every ``length`` consecutive entries of ``a`` along its first axis.

    Runs of 2, 4, 8, ... entries are built by doubling, and the runs of
    ``length``'s set bits are joined: O(log length) array additions.
    """
    out, done, size = None, 0, 1
    while True:
        if length & size:
            out = a if out is None else out[: len(a) - done] + a[done:]
            done += size
        if 2 * size > length:
            return out
        a = a[:-size] + a[size:]
        size *= 2


def _window_sums(area: np.ndarray, block: int, pad: int) -> np.ndarray:
    """Sums of every block-sized window of ``area``, padded with ``_OUTSIDE``."""
    h, w = area.shape
    gh, gw = h - block + 1, w - block + 1
    cols = _run_sums(area.astype(np.int32), block)
    # runs along the flat array, read w to a row: those that cross a row end are
    # skipped, and the last row's last run is the array's last
    runs = _run_sums(cols.ravel(), block)
    rows = np.ndarray((gh, gw), np.int32, buffer=runs, strides=(w * runs.itemsize, runs.itemsize))
    sums = np.empty((gh + 2 * pad, gw + 2 * pad), np.int32)
    sums.fill(_OUTSIDE)
    sums[pad : pad + gh, pad : pad + gw] = rows
    return sums


def _windows(flat: np.ndarray, side: int, row_w: int) -> np.ndarray:
    """Every side x side window of a grid read flat: ``windows[p]`` is the one at ``p``.

    ``flat`` holds the grid's entries from some origin on, ``row_w`` to a
    row, and ``p`` runs to the last window whose rows all lie in ``flat``.
    An element is one window row as raw bytes (a packed row), so one fancy
    index gathers whole windows, and ``.view(flat.dtype)`` lays each out
    flat, row-major.
    """
    size = flat.itemsize
    return np.ndarray((flat.size - (side - 1) * row_w - side + 1, side), _packed_row(side * size),
                      buffer=flat, strides=(size, row_w * size))


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

    # every candidate window of the region lies in this area of frame_b
    sx0, sy0 = max(0, x - r), max(0, y - r)
    area = frame_b[sy0 : min(fh, y + h + r), sx0 : min(fw, x + w + r)]
    ah, aw = area.shape
    plan = _plan(h, w, bs, r, ah, aw, y - sy0, x - sx0, fw)
    # both frames read flat from the area's origin, so one offset finds a
    # block in frame_a and its window in frame_b
    base = sy0 * fw + sx0
    blocks_at = _windows(frame_a.ravel()[base:], bs, fw)
    windows = _windows(frame_b.ravel()[base:], bs, fw)
    sums_grid = _window_sums(area, bs, r)
    # each block's (2r + 1)^2 window sums, one per candidate, as a raster
    around = _windows(sums_grid.ravel(), 2 * r + 1, sums_grid.shape[1])
    ones = _ones(n)
    cdx, cdy, raster = _candidates(r)
    k_all = cdx.size

    def cost(at: np.ndarray, blk: np.ndarray) -> np.ndarray:
        """SAD of the windows at flat offsets ``at`` against block pixels ``blk``."""
        win = windows[at].view(np.uint8)
        diff = np.maximum(win, blk)
        diff -= np.minimum(win, blk, out=win)  # |a - b| in uint8
        return (diff.astype(np.float32) @ ones).astype(np.int32)  # exact below 2^24

    used = sum_dx = sum_dy = 0
    for c0 in range(0, plan.origins.size, _CHUNK_BLOCKS):
        chunk = slice(c0, c0 + _CHUNK_BLOCKS)
        origins, corner = plan.origins[chunk], plan.corner[chunk]
        blocks = blocks_at[origins].view(np.uint8)
        sums = blocks.sum(axis=1, dtype=np.int64)
        # n^2 * variance, exact in integers
        textured = n * np.square(blocks, dtype=np.int64).sum(axis=1) - sums * sums >= limit
        if not textured.all():  # a chunk all textured is used as it stands
            rows = np.flatnonzero(textured)
            if not rows.size:
                continue
            blocks, sums, origins, corner = blocks[rows], sums[rows], origins[rows], corner[rows]
        sums = sums.astype(np.int32)
        m = sums.size
        used += m

        # successive elimination: |sum(block) - sum(window)| <= SAD
        bound = around[corner].view(np.int32).take(raster, axis=1)
        bound -= sums[:, None]
        np.abs(bound, out=bound)
        line = _LINE[:m]
        first = bound.argmin(axis=1)  # never outside the frame: (0, 0) is not
        least = bound[line, first]
        incumbent = cost(origins + plan.shift[first], blocks)
        if not (incumbent > least).any():
            # each block's least-bound candidate costs its bound, and no
            # candidate costs less than its own bound; argmin returns the
            # first least bound in order, so that candidate is the match
            best = first
        else:
            # (0, 0), first in order and always in the frame, and the next
            # smallest-bound candidates may lower the incumbent (a few
            # argmins cost less than argpartition)
            seeds = np.zeros((_SEEDS, m), np.intp)  # row 0 is (0, 0)
            held = np.zeros(seeds.shape, np.int32)
            bound[line, first] = _OUTSIDE
            for j in range(1, _SEEDS):
                seeds[j] = bound.argmin(axis=1)
                held[j] = bound[line, seeds[j]]
                bound[line, seeds[j]] = _OUTSIDE
            bound[line, first] = least
            bound[line, seeds[1:]] = held[1:]  # the seeds of a row are distinct
            seeds[held >= _OUTSIDE // 2] = 0  # a seed outside the frame: (0, 0) again
            seeded = cost(origins + plan.shift[seeds], blocks)
            incumbent = np.minimum(incumbent, seeded.min(axis=0))
            # a pruned candidate costs more than the incumbent, so more than
            # the minimum: every candidate tied for the minimum is kept
            flat = np.flatnonzero(bound <= incumbent[:, None])
            cand = flat % k_all
            key = np.empty(flat.size, np.int64)
            for g0 in range(0, flat.size, _GATHER):
                part = slice(g0, g0 + _GATHER)
                row = flat[part] // k_all
                key[part] = cost(origins[row] + plan.shift[cand[part]],
                                 np.take(blocks, row, axis=0))
            # least (cost, order position) per block: the tie-break of the order
            key *= k_all
            key += cand
            best = np.minimum.reduceat(key, np.searchsorted(flat, line * k_all)) % k_all
        sum_dx += sum(cdx[best].tolist())
        sum_dy += sum(cdy[best].tolist())

    if used:
        mean_dx, mean_dy = sum_dx / used, sum_dy / used
    else:
        mean_dx = mean_dy = 0.0  # nothing textured enough to track
    return FlowSummary(
        dx=mean_dx,
        dy=mean_dy,
        magnitude=math.hypot(mean_dx, mean_dy),
        blocks_total=plan.origins.size,
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
        if self.side not in HAND_SIDES:
            raise ValueError(f"hand side must be left/right/unknown, got {shown(self.side)}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"hand box must have positive size, got {self.w}x{self.h}")

    @property
    def center_x(self) -> float:
        return self.x + self.w / 2.0


class HandDetector(Protocol):
    def detect(self, frame: FrameRecord) -> list[HandBox]: ...


class HandDetectionError(RuntimeError):
    """A detector failed on a frame; the message carries the frame timestamp."""


class NullDetector:
    """Never detects hands; callers fall back to full-frame flow."""

    def detect(self, frame: FrameRecord) -> list[HandBox]:
        return []


class AnnotationDetector:
    """Plays back hand boxes recorded in the trace annotations, built per detected pair."""

    def __init__(self, boxes_by_pair: Mapping[int, Sequence[Mapping[str, object]]]):
        self._boxes = boxes_by_pair

    def detect(self, frame: FrameRecord) -> list[HandBox]:
        return [HandBox(**b) for b in self._boxes.get(frame.pair_id, ())]


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
