"""Deterministic synthetic session generator.

A SyntheticScript declares a step plan (phases with statuses and proactive
windows), gyro burst windows, and hand-patch motion, and checks when it is
built (``dataclasses.replace`` included) that it is consistent and renderable;
``generate_synthetic`` renders it into a fully annotated SessionTrace,
bit-identical for a given script (the only randomness is a generator seeded
from ``script.seed``).

Design notes that keep downstream math exact:

- Frame pairs are recorded on a fixed grid (``FRAME_GRID``, 0.5 s) covering both
  sampling rates, so a scheduler emitting times on that grid binds exactly.
- IMU samples are emitted every ``imu_period`` seconds (default 0.25, a
  dyadic float, so k * period is exact). Running the sampler with its
  smoothing window set to ``imu_period`` makes every window hold exactly one
  sample, which pins burst entry/exit to the scripted windows with no
  boundary ambiguity.
- Hand patches are bright (160..255) on a dimmer background (20..120), sized
  a multiple of the flow block size, and translate rigidly within a pair, so
  block matching recovers scripted displacements with zero cost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import (
    ExecutionStatus,
    FrameRecord,
    ImuSample,
    ProactiveInterval,
    SessionTrace,
    StepSegment,
)

FRAME_GRID = 0.5  # seconds between the first frames of consecutive pairs
# gyro magnitudes outside and inside the burst windows, either side of the default tau_s
BASE_MOTION = 0.08
BURST_MOTION = 0.8
FLOW_SEARCH_RADIUS = 15  # the most pixels a scripted move may shift a hand or the scene


@dataclass(frozen=True)
class PhaseSpec:
    """One status phase inside a step."""

    status: ExecutionStatus
    duration: float


@dataclass(frozen=True)
class StepPlan:
    """One scripted step: ordered phases plus proactive windows.

    ``proactive`` holds (offset_start, offset_end) windows relative to the
    step's start; each must fall inside the step.
    """

    step: str
    phases: tuple[PhaseSpec, ...]
    proactive: tuple[tuple[float, float], ...] = ()

    @property
    def duration(self) -> float:
        return sum(p.duration for p in self.phases)


@dataclass(frozen=True)
class HandMove:
    """While start <= t < end, the hand translates by (dx, dy) px within each pair."""

    start: float
    end: float
    dx: int
    dy: int


@dataclass(frozen=True)
class HandTrack:
    """A hand rendered as a textured patch anchored at (x, y) in every first frame."""

    side: str
    x: int
    y: int
    moves: tuple[HandMove, ...] = ()

    def displacement_at(self, t: float) -> tuple[int, int]:
        for mv in self.moves:
            if mv.start <= t < mv.end:
                return (mv.dx, mv.dy)
        return (0, 0)


class ScriptError(ValueError):
    """The script is internally inconsistent or physically unrenderable."""


@dataclass(frozen=True)
class SyntheticScript:
    """Complete recipe for one synthetic session."""

    steps: tuple[StepPlan, ...]
    instruction: str = "complete the scripted task"
    burst_windows: tuple[tuple[float, float], ...] = ()
    hands: tuple[HandTrack, ...] = ()
    global_moves: tuple[HandMove, ...] = ()
    width: int = 120
    height: int = 96
    patch: int = 24
    pair_gap: float = 0.1
    imu_period: float = 0.25
    seed: int = 0
    guideline_doc_id: str | None = None

    def __post_init__(self) -> None:
        if not self.steps:
            raise ScriptError("script declares no steps")
        for plan in self.steps:
            if not plan.step.strip():
                raise ScriptError("step label is empty")
            if not plan.phases:
                raise ScriptError(f"step {plan.step!r} has no phases")
            for ph in plan.phases:
                if ph.duration <= 0:
                    raise ScriptError(f"step {plan.step!r} has a non-positive phase duration")
            for off_s, off_e in plan.proactive:
                if not (0 <= off_s < off_e <= plan.duration):
                    raise ScriptError(
                        f"step {plan.step!r} proactive window ({off_s}, {off_e}) "
                        f"leaves the step [0, {plan.duration}]"
                    )

        total = self.total_duration
        cycles = total / FRAME_GRID
        if abs(cycles - round(cycles)) > 1e-9:
            raise ScriptError(f"total duration {total} is not a multiple of frame grid {FRAME_GRID}")
        if FRAME_GRID <= self.pair_gap:
            raise ScriptError("frame grid must exceed the intra-pair gap")
        if self.imu_period <= 0:
            raise ScriptError("imu period must be positive")
        for w0, w1 in self.burst_windows:
            if not (0 <= w0 < w1 <= total):
                raise ScriptError(f"burst window ({w0}, {w1}) leaves [0, {total}]")

        if self.global_moves and self.hands:
            raise ScriptError("global camera moves and hand tracks are mutually exclusive")
        if len(self.hands) > 2:
            raise ScriptError("at most two hand tracks")
        sides = [h.side for h in self.hands]
        if len(set(sides)) != len(sides) or any(s not in ("left", "right") for s in sides):
            raise ScriptError(f"hand sides must be unique left/right, got {sides}")

        r = FLOW_SEARCH_RADIUS
        for track in self.hands:
            positions = [(track.x, track.y)]
            for mv in track.moves:
                if max(abs(mv.dx), abs(mv.dy)) > r:
                    raise ScriptError(
                        f"{track.side} hand move ({mv.dx}, {mv.dy}) exceeds flow search radius {r}"
                    )
                positions.append((track.x + mv.dx, track.y + mv.dy))
            for px, py in positions:
                if not (0 <= px <= self.width - self.patch and 0 <= py <= self.height - self.patch):
                    raise ScriptError(f"{track.side} hand patch leaves the frame at ({px}, {py})")
        for mv in self.global_moves:
            if max(abs(mv.dx), abs(mv.dy)) > r:
                raise ScriptError(
                    f"global move ({mv.dx}, {mv.dy}) exceeds flow search radius {r}"
                )

        if len(self.hands) == 2:
            a, b, p = *self.hands, self.patch
            for t_probe in _pair_times(self):
                if _boxes_overlap(_box_at(a, t_probe, p), _box_at(b, t_probe, p)):
                    raise ScriptError(f"hand patches overlap in the second frame at t={t_probe}")
            if _boxes_overlap((a.x, a.y, p, p), (b.x, b.y, p, p)):
                raise ScriptError("hand patches overlap in the first frame")

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.steps)


def _box_at(track: HandTrack, t: float, patch: int) -> tuple[int, int, int, int]:
    dx, dy = track.displacement_at(t)
    return (track.x + dx, track.y + dy, patch, patch)


def _boxes_overlap(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return ax < bx + bw and bx < ax + aw and ay < by + bh and by < ay + ah


def _pair_times(script: SyntheticScript) -> list[float]:
    # one pair per grid slot, inclusive of the final boundary so the last
    # frame's timestamp covers every annotation
    n = round(script.total_duration / FRAME_GRID)
    return [k * FRAME_GRID for k in range(n + 1)]


def _global_displacement_at(script: SyntheticScript, t: float) -> tuple[int, int]:
    for mv in script.global_moves:
        if mv.start <= t < mv.end:
            return (mv.dx, mv.dy)
    return (0, 0)


def generate_synthetic(script: SyntheticScript) -> SessionTrace:
    """Render a script into an annotated SessionTrace, deterministically."""
    rng = np.random.default_rng(script.seed)
    h, w, patch = script.height, script.width, script.patch

    segments: list[StepSegment] = []
    intervals: list[ProactiveInterval] = []
    cursor = 0.0
    for plan in script.steps:
        step_start = cursor
        for ph in plan.phases:
            segments.append(StepSegment(cursor, cursor + ph.duration, plan.step, ph.status))
            cursor += ph.duration
        for off_s, off_e in plan.proactive:
            intervals.append(ProactiveInterval(step_start + off_s, step_start + off_e, plan.step))
    total = cursor

    # fixed draw order keeps traces bit-identical for a given seed
    pad = FLOW_SEARCH_RADIUS
    if script.global_moves:
        master = rng.integers(20, 121, size=(h + 2 * pad, w + 2 * pad), dtype=np.uint8)
        background = None
        textures: dict[str, np.ndarray] = {}
    else:
        master = None
        background = rng.integers(20, 121, size=(h, w), dtype=np.uint8)
        textures = {
            track.side: rng.integers(160, 256, size=(patch, patch), dtype=np.uint8)
            for track in script.hands
        }

    frames: list[FrameRecord] = []
    hand_boxes: dict[int, list[dict[str, int | str]]] = {}
    for pair_id, t in enumerate(_pair_times(script)):
        if master is not None:
            gdx, gdy = _global_displacement_at(script, t)
            img_a = master[pad : pad + h, pad : pad + w].copy()
            img_b = master[pad - gdy : pad - gdy + h, pad - gdx : pad - gdx + w].copy()
        else:
            img_a = background.copy()
            img_b = background.copy()
            boxes = []
            for track in script.hands:
                tex = textures[track.side]
                img_a[track.y : track.y + patch, track.x : track.x + patch] = tex
                dx, dy = track.displacement_at(t)
                img_b[track.y + dy : track.y + dy + patch, track.x + dx : track.x + dx + patch] = tex
                boxes.append(
                    {"side": track.side, "x": track.x, "y": track.y, "w": patch, "h": patch}
                )
            if boxes:
                hand_boxes[pair_id] = boxes
        frames.append(FrameRecord(t, pair_id, "a", img_a))
        frames.append(FrameRecord(t + script.pair_gap, pair_id, "b", img_b))

    imu: list[ImuSample] = []
    horizon = total + script.pair_gap + script.imu_period
    k = 0
    while True:
        t = k * script.imu_period
        if t > horizon:
            break
        inside = any(w0 <= t < w1 for w0, w1 in script.burst_windows)
        mag = BURST_MOTION if inside else BASE_MOTION
        imu.append(ImuSample(t, mag, 0.0, 0.0))
        k += 1

    return SessionTrace(
        instruction=script.instruction,
        width=w,
        height=h,
        pair_gap=script.pair_gap,
        frames=frames,
        imu=imu,
        segments=segments,
        proactive_intervals=intervals,
        hand_boxes=hand_boxes,
        guideline_doc_id=script.guideline_doc_id,
    )


def standard_script(seed: int = 0) -> SyntheticScript:
    """The reference six-step kitchen session used by the harness and tests.

    Each 12 s step runs just_start (2 s), in_progress (7 s), about_to_finish
    (2 s), step_transition (1 s), with proactive windows over the first and
    penultimate phases. The left hand translates (12, 0) px per pair through
    the active phases, the right hand (0, 12) px during in_progress, and the
    head turns (gyro burst) for two seconds around every step boundary.
    """
    labels = [
        "Measure water",
        "Boil water",
        "Add tea bag",
        "Pour water",
        "Steep tea",
        "Serve tea",
    ]
    step_len = 12.0
    phases = (
        PhaseSpec(ExecutionStatus.JUST_START, 2.0),
        PhaseSpec(ExecutionStatus.IN_PROGRESS, 7.0),
        PhaseSpec(ExecutionStatus.ABOUT_TO_FINISH, 2.0),
        PhaseSpec(ExecutionStatus.STEP_TRANSITION, 1.0),
    )
    steps = tuple(
        StepPlan(step=label, phases=phases, proactive=((0.0, 2.0), (9.0, 11.0)))
        for label in labels
    )
    bursts = tuple(
        (step_len * k - 1.0, step_len * k + 1.0) for k in range(1, len(labels))
    )
    left_moves = tuple(
        HandMove(step_len * k, step_len * k + 11.0, 12, 0) for k in range(len(labels))
    )
    right_moves = tuple(
        HandMove(step_len * k + 2.0, step_len * k + 9.0, 0, 12) for k in range(len(labels))
    )
    return SyntheticScript(
        steps=steps,
        instruction="brew a cup of tea",
        burst_windows=bursts,
        hands=(
            HandTrack(side="left", x=12, y=28, moves=left_moves),
            HandTrack(side="right", x=80, y=28, moves=right_moves),
        ),
        guideline_doc_id="tea",
        seed=seed,
    )
