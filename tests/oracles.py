"""Test-only oracles and scripts that the program itself never runs.

``trace_pairs`` groups a recorded session's frames into pairs by id, and
``run_sampler`` walks the sampling schedule over a whole recorded session
without the engine, so tests can check the engine's causal, windowed
schedule against it. ``inferred_step_sequence`` reads the checker's step
story from its state, and ``steady_script`` is a synthetic session with
steady 1 Hz key moments for noisy-reasoner experiments. ``json_values`` and
``or_any`` draw the outside JSON that the reply readers must check, and
``too_deep`` and ``with_too_deep`` write nesting past the decoder's recursion
limit.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from hypothesis import strategies as st

from stepassist.checker import CheckerState
from stepassist.perception import (
    SamplerConfig,
    SamplerState,
    bind_pair,
    head_motion,
    schedule_next_pair,
)
from stepassist.trace.synthetic import (
    HandMove,
    HandTrack,
    PhaseSpec,
    StepPlan,
    SyntheticScript,
)
from stepassist.trace.types import ExecutionStatus, FramePair, FrameRecord, SessionTrace


@dataclass(frozen=True)
class ScheduledSample:
    """One stop of the sampler walk; ``pair`` is None on a sampling miss."""

    scheduled_t: float
    motion: float
    mode: str  # mode decided at this pair, governing the gap to the next
    pair: FramePair | None


def trace_pairs(trace: SessionTrace) -> list[FramePair]:
    """Group frames into (a, b) pairs ordered by time."""
    by_id: dict[int, dict[str, FrameRecord]] = {}
    for fr in trace.frames:
        by_id.setdefault(fr.pair_id, {})[fr.slot] = fr
    out = []
    for pid in sorted(by_id):
        slots = by_id[pid]
        if "a" not in slots or "b" not in slots:
            raise ValueError(f"frame pair {pid} is missing slot 'a' or 'b'")
        out.append(FramePair(pid, slots["a"].timestamp, slots["a"], slots["b"]))
    out.sort(key=lambda p: p.t)
    return out


def run_sampler(trace: SessionTrace, cfg: SamplerConfig) -> list[ScheduledSample]:
    """Walk the sampling schedule over a whole recorded session.

    Starts at t = 0 and stops once the schedule passes the last frame
    timestamp. Each scheduled time is bound to the nearest recorded pair
    within half the session's pair gap.
    """
    pairs = trace_pairs(trace)
    pair_times = [p.t for p in pairs]
    out: list[ScheduledSample] = []
    state = SamplerState()
    horizon = trace.duration
    while state.next_pair_time <= horizon:
        t = state.next_pair_time
        motion = head_motion(trace.imu, t, cfg)
        state = schedule_next_pair(state, motion, cfg)
        bound = bind_pair(pair_times, t, trace.pair_gap / 2.0)
        out.append(
            ScheduledSample(
                scheduled_t=t,
                motion=motion,
                mode=state.mode,
                pair=None if bound is None else pairs[bound],
            )
        )
    return out


def inferred_step_sequence(state: CheckerState) -> tuple[str, ...]:
    """Completed steps plus the still-active one: the checker's step story."""
    seq = state.history.completed
    if state.active_step is not None and state.active_step not in seq:
        seq = seq + (state.active_step,)
    return seq


def steady_script(seed: int = 0) -> SyntheticScript:
    """Six-step assembly session with steady 1 Hz key moments and no bursts.

    Built for noisy-reasoner experiments: the head stays still (every pair
    lands on the 1 s grid), both hands rest for the first three seconds so
    the opening prediction falls on a settled scene, and one hand then moves
    continuously until the final second, giving one key moment per sampled
    pair across the whole session.
    """
    labels = [
        "Lay out parts",
        "Attach legs",
        "Mount shelf",
        "Fit drawer",
        "Tighten screws",
        "Check stability",
    ]
    step_len = 12.0
    phases = (
        PhaseSpec(ExecutionStatus.JUST_START, 2.0),
        PhaseSpec(ExecutionStatus.IN_PROGRESS, 8.0),
        PhaseSpec(ExecutionStatus.ABOUT_TO_FINISH, 2.0),
    )
    steps = tuple(
        StepPlan(step=label, phases=phases, proactive=((0.0, 2.0), (9.0, 11.0)))
        for label in labels
    )
    total = step_len * len(labels)
    return SyntheticScript(
        steps=steps,
        instruction="assemble the side table",
        burst_windows=(),
        hands=(HandTrack(side="left", x=30, y=30, moves=(HandMove(3.0, total - 1.0, 12, 0),)),),
        guideline_doc_id=None,
        seed=seed,
    )


# any JSON value, nested a little
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def or_any(valid):
    """A value drawn from ``valid``, or any JSON value in its place."""
    return valid | json_values


def too_deep() -> str:
    """A JSON array nested past the decoder's recursion limit."""
    depth = 2 * sys.getrecursionlimit()
    return "[" * depth + "]" * depth


def with_too_deep(obj: dict, key: str) -> str:
    """``obj`` as JSON text with ``obj[key]`` nested past the decoder's recursion limit."""
    marker = "\0deep\0"
    return json.dumps({**obj, key: marker}).replace(json.dumps(marker), too_deep())


def same(a, b) -> bool:
    """Equal and of one type, so 1, 1.0 and True are told apart."""
    return type(a) is type(b) and a == b
