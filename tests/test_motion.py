import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepassist.motion import (
    AnnotationDetector,
    FlowConfig,
    FlowSummary,
    HandBox,
    HandDetectionError,
    NullDetector,
    SyntheticDetector,
    box_flow_region,
    detect_hands,
    estimate_flow,
)
from stepassist import motion
from stepassist.trace.types import FrameRecord

from conftest import FIXTURE_RADIUS
from oracles import trace_pairs


# Reference implementation, written before the module under test: exhaustive
# per-block SAD search with plain loops, candidates clamped to the frame,
# minimum taken over the full (cost, |d|^2, dx, dy) key so ties are explicit.
def oracle_flow(frame_a, frame_b, region, cfg):
    fh, fw = frame_a.shape
    if region is None:
        region = (0, 0, fw, fh)
    x, y, w, h = region
    bs, r, stride = cfg.block, cfg.search_radius, cfg.block
    a = frame_a.astype(int)
    b = frame_b.astype(int)

    def starts(extent):
        grid = list(range(0, extent - bs + 1, stride))
        if grid[-1] + bs < extent:
            grid.append(extent - bs)
        return grid

    votes = []
    total = 0
    for oy in starts(h):
        for ox in starts(w):
            bx, by = x + ox, y + oy
            total += 1
            pixels = [int(a[by + j, bx + i]) for j in range(bs) for i in range(bs)]
            n = len(pixels)
            # variance below 1.0, exactly: n^2 * variance < n^2
            if n * sum(v * v for v in pixels) - sum(pixels) ** 2 < n * n:
                continue
            best = None
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    nx, ny = bx + dx, by + dy
                    if nx < 0 or ny < 0 or nx + bs > fw or ny + bs > fh:
                        continue
                    cost = 0
                    for j in range(bs):
                        for i in range(bs):
                            cost += abs(a[by + j, bx + i] - b[ny + j, nx + i])
                    key = (cost, dx * dx + dy * dy, dx, dy)
                    if best is None or key < best:
                        best = key
            votes.append((best[2], best[3]))
    if votes:
        mean_dx = sum(v[0] for v in votes) / len(votes)
        mean_dy = sum(v[1] for v in votes) / len(votes)
    else:
        mean_dx = mean_dy = 0.0
    return mean_dx, mean_dy, len(votes), total


def shifted_pair(rng, width, height, dx, dy, pad):
    """Two windows of one textured master image, offset by (dx, dy)."""
    master = rng.integers(0, 256, size=(height + 2 * pad, width + 2 * pad), dtype=np.uint8)
    a = master[pad : pad + height, pad : pad + width].copy()
    b = master[pad - dy : pad - dy + height, pad - dx : pad - dx + width].copy()
    return a, b


def test_matches_brute_force_oracle_on_random_frames():
    rng = np.random.default_rng(11)
    cfg = FlowConfig(block=6, search_radius=3)
    for _ in range(6):
        a = rng.integers(0, 256, size=(20, 24), dtype=np.uint8)
        b = rng.integers(0, 256, size=(20, 24), dtype=np.uint8)
        want_dx, want_dy, want_used, want_total = oracle_flow(a, b, None, cfg)
        got = estimate_flow(a, b, None, cfg)
        assert got.dx == want_dx
        assert got.dy == want_dy
        assert got.blocks_used == want_used
        assert got.blocks_total == want_total


def test_matches_oracle_on_region_with_flat_patches():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, size=(32, 40), dtype=np.uint8)
    a[8:24, 8:24] = 77  # untextured hole inside the region
    b = rng.integers(0, 256, size=(32, 40), dtype=np.uint8)
    cfg = FlowConfig(block=8, search_radius=2)
    region = (4, 4, 24, 24)
    want_dx, want_dy, want_used, want_total = oracle_flow(a, b, region, cfg)
    got = estimate_flow(a, b, region, cfg)
    assert (got.dx, got.dy) == (want_dx, want_dy)
    assert got.blocks_used == want_used < got.blocks_total == want_total


PAD = 6  # the largest drawn search radius
TEXTURES = ["noise", "two-level", "stripes", "near-flat", "extremes"]


def texture(rng, kind, height, width):
    """A uint8 frame of one texture family: the families stress ties, the texture test,
    and the largest sums the kernel's narrow types hold."""
    if kind == "noise":
        return rng.integers(0, 256, (height, width), dtype=np.uint8)
    if kind == "two-level":  # tie-heavy; a step of 2 puts block variances at or below 1.0
        low, step = rng.integers(0, 250), rng.choice([1, 2, 3, 5])
        return (low + step * rng.integers(0, 2, (height, width))).astype(np.uint8)
    if kind == "stripes":  # periodic: many zero-cost candidates
        ax, ay = [(1, 0), (0, 1), (1, 1)][rng.integers(0, 3)]
        phase = np.arange(width)[None, :] * ax + np.arange(height)[:, None] * ay
        return (phase % rng.integers(2, 5) * rng.choice([1, 2, 60])).astype(np.uint8)
    if kind == "extremes":  # 0 and 255 in square tiles: windows of all 255, SADs of n * 255
        cell = rng.integers(1, 21)
        tiles = rng.integers(0, 2, (height // cell + 1, width // cell + 1), dtype=np.uint8) * 255
        return np.repeat(np.repeat(tiles, cell, axis=0), cell, axis=1)[:height, :width]
    # near-flat: a constant plus small steps, block variances around 1.0
    spread = rng.integers(2, 4)
    return (rng.integers(0, 250) + rng.integers(0, spread + 1, (height, width))).astype(np.uint8)


def laid_out(frame, layout):
    """The same pixels in another memory layout: the kernel reads frames as raw bytes."""
    if layout == "contiguous":
        return np.ascontiguousarray(frame)
    if layout == "read-only":
        frame = frame.copy()
        frame.flags.writeable = False
        return frame
    if layout == "every other column":
        wide = np.zeros((frame.shape[0], 2 * frame.shape[1]), np.uint8)
        wide[:, ::2] = frame
        return wide[:, ::2]
    return frame  # as drawn


LAYOUTS = ["as drawn", "contiguous", "read-only", "every other column"]


@st.composite
def flow_cases(draw):
    block = draw(st.integers(2, 16))
    cfg = FlowConfig(block=block, search_radius=draw(st.integers(1, PAD)))
    height, width = draw(st.integers(block, 40)), draw(st.integers(block, 40))
    kind = draw(st.sampled_from(TEXTURES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    master = texture(rng, kind, height + 2 * PAD, width + 2 * PAD)
    a = master[PAD : PAD + height, PAD : PAD + width]
    if draw(st.booleans()):  # a's content moved, possibly beyond the radius
        dx, dy = draw(st.integers(-PAD, PAD)), draw(st.integers(-PAD, PAD))
        b = master[PAD - dy : PAD - dy + height, PAD - dx : PAD - dx + width]
    else:  # no true match
        b = texture(rng, kind, height, width)
    if kind == "extremes" and draw(st.booleans()):
        b = ~b  # the negative: a match, if any, now costs n * 255
    a, b = (laid_out(f, draw(st.sampled_from(LAYOUTS))) for f in (a, b))
    region = None  # the full frame touches every border
    if draw(st.booleans()):
        x, y = draw(st.integers(0, width - block)), draw(st.integers(0, height - block))
        region = (x, y, draw(st.integers(block, width - x)), draw(st.integers(block, height - y)))
    return a, b, region, cfg


@settings(max_examples=300, deadline=None)
@given(case=flow_cases())
def test_matches_oracle_on_generated_frames(case):
    a, b, region, cfg = case
    got = estimate_flow(a, b, region, cfg)
    assert (got.dx, got.dy, got.blocks_used, got.blocks_total) == oracle_flow(a, b, region, cfg)


def test_matches_oracle_at_the_benchmark_geometry():
    # the hand-box replays run 8 px blocks at radius 15 on 120x96 frames.
    # Regions sit inside and flush with each border; two with one size and
    # search-area shape differ only in their offset in the area, and one
    # differs only in the frame's width. Calls interleave across geometries,
    # so a plan cached under an incomplete key would answer the wrong call.
    rng = np.random.default_rng(15)
    cfg = FlowConfig(block=8, search_radius=FIXTURE_RADIUS)
    wide = [
        (48, 36, 16, 16),  # inside: the search area holds every candidate
        (0, 36, 24, 24),  # flush left
        (96, 36, 24, 24),  # flush right: same size and area shape as flush left
        (40, 0, 19, 27),  # flush top, clamped tail blocks
        (60, 72, 40, 24),  # flush bottom
        (0, 0, 8, 8),  # top-left corner
        (112, 88, 8, 8),  # bottom-right corner
    ]
    tall = [(36, 48, 16, 16), (0, 0, 8, 8)]  # as inside and top-left, 96 px wide
    kinds = ["noise", "two-level", "stripes", "near-flat"]
    pad = FIXTURE_RADIUS + 1
    calls = []
    for rnd in range(2):
        for shape, regions in (((96, 120), wide), ((120, 96), tall)):
            for region in regions:
                kind = kinds[(len(calls) + rnd) % len(kinds)]
                height, width = shape
                master = texture(rng, kind, height + 2 * pad, width + 2 * pad)
                dx, dy = rng.integers(-pad, pad + 1, 2)
                a = master[pad : pad + height, pad : pad + width]
                b = master[pad - dy : pad - dy + height, pad - dx : pad - dx + width]
                calls.append((a, b, region))
    order = rng.permutation(len(calls))
    for i in order:
        a, b, region = calls[i]
        got = estimate_flow(a, b, region, cfg)
        assert (got.dx, got.dy, got.blocks_used, got.blocks_total) == oracle_flow(a, b, region, cfg)
    # the plans are cached, and the cache is bounded
    assert motion._plan.cache_info().hits > 0
    assert motion._plan.cache_info().maxsize is not None


CHUNK_KINDS = ["textured", "mixed", "untextured"]


@st.composite
def chunked_cases(draw):
    """Read-only frames and a region of more than one chunk of blocks, each chunk's
    blocks all textured, all flat, or some of each, with the texture mask to expect."""
    block, radius = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    cols = draw(st.integers(6, 13))
    rows = draw(st.integers(motion._CHUNK_BLOCKS // cols + 1, 13))
    kinds = draw(st.lists(st.sampled_from(CHUNK_KINDS), min_size=3, max_size=3))
    mask = []
    for i in range(rows * cols):
        kind = kinds[min(i // motion._CHUNK_BLOCKS, 2)]
        mask.append(kind == "textured" or kind == "mixed" and draw(st.booleans()))
    margins = [draw(st.integers(0, radius + 1)) for _ in range(4)]  # left, top, right, bottom
    width, height = margins[0] + cols * block + margins[2], margins[1] + rows * block + margins[3]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pad = radius + 1
    master = rng.integers(0, 256, (height + 2 * pad, width + 2 * pad), dtype=np.uint8)
    a = master[pad : pad + height, pad : pad + width].copy()
    x0, y0 = margins[0], margins[1]
    for i, textured in enumerate(mask):
        by, bx = y0 + i // cols * block, x0 + i % cols * block
        if textured:  # two pixels far apart: the variance is well over 1.0
            a[by, bx], a[by, bx + 1] = 0, 255
        else:
            a[by : by + block, bx : bx + block] = draw(st.integers(0, 255))
    if draw(st.booleans()):  # b is a moved by up to a pixel past the radius, edges repeated
        dx, dy = draw(st.integers(-pad, pad)), draw(st.integers(-pad, pad))
        sx = np.clip(np.arange(width) - dx, 0, width - 1)
        sy = np.clip(np.arange(height) - dy, 0, height - 1)
        b = a[np.ix_(sy, sx)]
    else:
        b = rng.integers(0, 256, (height, width), dtype=np.uint8)
    for frame in (a, b):
        frame.flags.writeable = False
    region = (x0, y0, cols * block, rows * block)
    return a, b, region, FlowConfig(block=block, search_radius=radius), mask


@settings(max_examples=60, deadline=None)
@given(case=chunked_cases())
def test_matches_oracle_over_several_chunks_of_each_texture(case):
    # a chunk all textured is used as it stands, one with a flat block has its
    # textured rows copied out, and one all flat is skipped
    a, b, region, cfg, mask = case
    got = estimate_flow(a, b, region, cfg)
    assert (got.dx, got.dy, got.blocks_used, got.blocks_total) == oracle_flow(a, b, region, cfg)
    assert got.blocks_total == len(mask) > motion._CHUNK_BLOCKS
    assert got.blocks_used == sum(mask)


def test_costs_stay_exact_at_the_largest_block():
    # one 256 px block with two candidates, costing n * 255 and n * 255 - 1
    # (n = 256^2): the largest SAD of any accepted config, and one below it
    rows = np.random.default_rng(7).integers(0, 2, (256, 1), dtype=np.uint8) * 255
    a = np.repeat(rows, 257, axis=1)  # textured down the block, constant along it
    b = ~a
    b[0, 256] ^= 1  # only the (1, 0) window holds this pixel: it differs by 254
    cfg = FlowConfig(block=256, search_radius=1)
    flow = estimate_flow(a, b, (0, 0, 256, 256), cfg)
    assert (flow.dx, flow.dy, flow.blocks_used) == (1.0, 0.0, 1)
    assert (flow.dx, flow.dy, flow.blocks_used, flow.blocks_total) == oracle_flow(
        a, b, (0, 0, 256, 256), cfg)


def test_variance_at_the_threshold_counts_as_textured():
    # each block's exact variance is 1.0, and only a variance below 1.0 is
    # untextured; a float variance can read just below it (np.var does on the
    # last block, a plain sum of squared deviations on the last two)
    for digits in ["0022", "003021011311231023203212221211100202",
                   "103332212210332212311321231322101010"]:
        side = int(len(digits) ** 0.5)
        block = np.array([int(c) for c in digits], dtype=np.uint8).reshape(side, side)
        flow = estimate_flow(block, block, None, FlowConfig(block=side, search_radius=1))
        assert flow.blocks_used == 1


def test_recovers_scripted_displacements_exactly():
    rng = np.random.default_rng(2)
    cfg = FlowConfig(search_radius=7)
    for dx, dy in [(3, 0), (0, -4), (-7, 7), (5, 6), (-2, -3)]:
        a, b = shifted_pair(rng, 80, 64, dx, dy, pad=8)
        # region inset by the radius keeps every true match in bounds
        flow = estimate_flow(a, b, (7, 7, 66, 50), cfg)
        assert flow.dx == float(dx)
        assert flow.dy == float(dy)


def test_identical_frames_give_exact_zero():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(48, 64), dtype=np.uint8)
    flow = estimate_flow(img, img.copy(), None, FlowConfig())
    assert flow.dx == 0.0 and flow.dy == 0.0 and flow.magnitude == 0.0
    assert flow.blocks_used == flow.blocks_total


def test_wide_radius_recovers_long_displacement():
    rng = np.random.default_rng(4)
    a, b = shifted_pair(rng, 120, 96, 12, 0, pad=FIXTURE_RADIUS)
    r = FIXTURE_RADIUS
    flow = estimate_flow(a, b, (r, r, 120 - 2 * r, 96 - 2 * r), FlowConfig(search_radius=r))
    assert flow.dx == 12.0 and flow.dy == 0.0
    assert flow.magnitude == 12.0


def stripe_frames():
    """Period-2 vertical stripes; b is a one-column phase shift of a."""
    a = np.zeros((12, 12), dtype=np.uint8)
    a[:, 0::2] = 200
    b = np.zeros((12, 12), dtype=np.uint8)
    b[:, 1::2] = 200
    return a, b


def test_tie_breaks_prefer_smaller_magnitude_then_lex_order():
    a, b = stripe_frames()
    cfg = FlowConfig(block=4, search_radius=2)
    # identical periodic frames: many zero-cost candidates, (0, 0) wins on |d|
    same = estimate_flow(a, a.copy(), (4, 4, 4, 4), cfg)
    assert (same.dx, same.dy) == (0.0, 0.0)
    # one-column phase shift: (-1, 0) and (1, 0) tie at cost 0 and |d|=1;
    # the lexicographically smaller dx wins
    shifted = estimate_flow(a, b, (4, 4, 4, 4), cfg)
    assert (shifted.dx, shifted.dy) == (-1.0, 0.0)


def test_untextured_frames_report_zero_with_no_blocks_used():
    flat = np.full((32, 32), 50, dtype=np.uint8)
    flow = estimate_flow(flat, flat, None, FlowConfig())
    assert flow.blocks_used == 0
    assert flow.blocks_total == 16
    assert (flow.dx, flow.dy, flow.magnitude) == (0.0, 0.0, 0.0)


def test_grid_includes_clamped_tail_blocks():
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
    flow = estimate_flow(img, img, None, FlowConfig(block=8))
    # starts 0, 8 plus a tail at 12 per axis
    assert flow.blocks_total == 9


def test_region_flow_processes_fewer_pixels_than_full_frame(standard_trace):
    pair = trace_pairs(standard_trace)[3]
    detector = AnnotationDetector(standard_trace.hand_boxes)
    boxes = detect_hands(pair.frame_a, detector)
    assert [b.side for b in boxes] == ["left", "right"]
    cfg = FlowConfig(search_radius=FIXTURE_RADIUS)
    region = box_flow_region(boxes[0], standard_trace.width, standard_trace.height, cfg.block)
    focused = estimate_flow(pair.frame_a.image, pair.frame_b.image, region, cfg)
    full = estimate_flow(pair.frame_a.image, pair.frame_b.image, None, cfg)
    assert focused.blocks_total < full.blocks_total
    # the scripted left hand translates 12 px right at t=1.5
    assert focused.dx == 12.0 and focused.dy == 0.0


def test_estimate_flow_rejects_bad_inputs():
    img = np.zeros((16, 16), dtype=np.uint8)
    with pytest.raises(ValueError):
        estimate_flow(img, np.zeros((16, 8), dtype=np.uint8))
    with pytest.raises(ValueError):
        estimate_flow(img, img, region=(0, 0, 4, 4))  # below one block
    with pytest.raises(ValueError):
        estimate_flow(img, img, region=(10, 10, 8, 8))  # leaves the frame
    with pytest.raises(ValueError):
        estimate_flow(img.astype(np.int32), img.astype(np.int32))  # not uint8


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(block=1)
    assert FlowConfig(block=256).block == 256
    with pytest.raises(ValueError, match="block size must be at most 256, got 257"):
        FlowConfig(block=257)
    with pytest.raises(ValueError):
        FlowConfig(search_radius=0)


def test_flow_summary_checks_magnitude():
    FlowSummary(3.0, 4.0, 5.0, 4, 4)
    with pytest.raises(ValueError):
        FlowSummary(3.0, 4.0, 6.0, 4, 4)


# -- hand detection ----------------------------------------------------------


class StubDetector:
    def __init__(self, boxes):
        self.boxes = boxes

    def detect(self, frame):
        return list(self.boxes)


class BoomDetector:
    def detect(self, frame):
        raise RuntimeError("boom")


def blank_frame(t=1.5):
    return FrameRecord(t, 0, "a", np.zeros((96, 120), dtype=np.uint8))


def test_hand_box_validation():
    with pytest.raises(ValueError):
        HandBox("up", 0, 0, 4, 4)
    with pytest.raises(ValueError):
        HandBox("left", 0, 0, 0, 4)


def test_two_unknown_boxes_get_sides_by_position():
    det = StubDetector([HandBox("unknown", 70, 10, 20, 20), HandBox("unknown", 10, 10, 20, 20)])
    boxes = detect_hands(blank_frame(), det)
    assert [(b.side, b.x) for b in boxes] == [("left", 10), ("right", 70)]


def test_single_unknown_box_follows_frame_half():
    left = detect_hands(blank_frame(), StubDetector([HandBox("unknown", 10, 10, 20, 20)]))
    assert left[0].side == "left"
    right = detect_hands(blank_frame(), StubDetector([HandBox("unknown", 90, 10, 20, 20)]))
    assert right[0].side == "right"


def test_known_sides_are_kept_and_capped_at_two():
    det = StubDetector(
        [
            HandBox("right", 5, 5, 10, 10),
            HandBox("left", 60, 5, 10, 10),
            HandBox("left", 100, 5, 10, 10),
        ]
    )
    boxes = detect_hands(blank_frame(), det)
    assert len(boxes) == 2
    assert [(b.side, b.x) for b in boxes] == [("right", 5), ("left", 60)]


def test_detector_failure_carries_timestamp():
    with pytest.raises(HandDetectionError) as err:
        detect_hands(blank_frame(t=7.25), BoomDetector())
    assert "hand detector failed at t=7.25" in str(err.value)
    assert "boom" in str(err.value)


def test_null_detector_detects_nothing(standard_trace):
    pair = trace_pairs(standard_trace)[0]
    assert detect_hands(pair.frame_a, NullDetector()) == []


def test_synthetic_detector_finds_scripted_patches(steady_trace):
    pair = trace_pairs(steady_trace)[10]
    boxes = detect_hands(pair.frame_a, SyntheticDetector())
    want = steady_trace.hand_boxes[pair.pair_id]
    assert len(boxes) == len(want) == 1
    got = boxes[0]
    assert (got.x, got.y, got.w, got.h) == (want[0]["x"], want[0]["y"], want[0]["w"], want[0]["h"])
    assert got.side == "left"  # patch center sits in the left frame half


def test_synthetic_detector_respects_min_area_and_keeps_largest_two():
    img = np.zeros((60, 60), dtype=np.uint8)
    img[2:5, 2:5] = 255  # 9 px, below the default min_area of 16
    img[10:20, 10:20] = 255
    img[30:38, 30:38] = 255
    img[50:55, 50:55] = 255
    frame = FrameRecord(0.0, 0, "a", img)
    boxes = SyntheticDetector().detect(frame)
    assert [(b.x, b.y, b.w, b.h) for b in boxes] == [(10, 10, 10, 10), (30, 30, 8, 8)]
    assert all(b.side == "unknown" for b in boxes)


def test_box_flow_region_grows_and_clamps():
    assert box_flow_region(HandBox("left", 10, 10, 24, 24), 120, 96, 8) == (10, 10, 24, 24)
    assert box_flow_region(HandBox("left", 0, 0, 4, 4), 120, 96, 16) == (0, 0, 16, 16)
    grown = box_flow_region(HandBox("right", 110, 90, 4, 4), 120, 96, 16)
    assert grown == (104, 80, 16, 16)
    x, y, w, h = grown
    assert x + w <= 120 and y + h <= 96
