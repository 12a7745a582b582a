"""Motion-aware frame-pair sampling and key-moment selection.

The sampler runs on gyro energy alone: the smoothed angular-velocity norm at
each pair time picks the spacing to the next pair (burst spacing while the
head is turning, relaxed spacing otherwise). Key moments are then chosen by
image evidence: a sampled pair survives only if some tracked region (hand
boxes when available, the whole frame otherwise) moved at least ``tau_f``
pixels between the pair's two frames.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from .jsontext import shown
from .motion import (
    FlowConfig,
    FlowSummary,
    HandBox,
    box_flow_region,
    estimate_flow,
)
from .trace.types import FramePair, ImuSample

MODE_NORMAL = "normal"
MODE_BURST = "burst"

_TIMESTAMP = attrgetter("timestamp")


@dataclass(frozen=True)
class SamplerConfig:
    tau_s: float = 0.3
    normal_interval: float = 1.0
    burst_interval: float = 0.5
    smoothing_window: float = 0.2

    def __post_init__(self) -> None:
        if not 0 < self.burst_interval < self.normal_interval:
            raise ValueError(
                f"need 0 < burst_interval < normal_interval, got "
                f"{shown(self.burst_interval)} and {shown(self.normal_interval)}"
            )
        if not 0 < self.smoothing_window <= self.normal_interval:
            raise ValueError(f"smoothing window {shown(self.smoothing_window)} out of range")
        if self.tau_s <= 0:
            raise ValueError(f"tau_s must be positive, got {shown(self.tau_s)}")


@dataclass(frozen=True)
class SamplerState:
    """``next_pair_time`` is the time of the pair about to be handled."""

    mode: str = MODE_NORMAL
    next_pair_time: float = 0.0


@dataclass(frozen=True)
class KeyMomentConfig:
    tau_f: float = 10.0
    stationary_threshold: float = 1.0

    def __post_init__(self) -> None:
        if not self.tau_f > self.stationary_threshold > 0:
            raise ValueError(
                f"need tau_f > stationary_threshold > 0, got "
                f"{shown(self.tau_f)} and {shown(self.stationary_threshold)}"
            )


@dataclass(frozen=True)
class KeyMoment:
    """A sampled pair whose imagery shows enough motion to reason about."""

    t: float
    pair_id: int
    flows: dict[str, FlowSummary]  # per hand side, or one "scene" entry
    trigger_magnitude: float


def head_motion(imu: Sequence[ImuSample], t: float, cfg: SamplerConfig) -> float:
    """Smoothed head-rotation speed at time t.

    Mean angular-velocity norm over samples in (t - smoothing_window, t];
    if the window is empty, the most recent sample at or before t stands in.
    """
    if not imu:
        raise ValueError("imu stream is empty")
    hi = bisect_right(imu, t, key=_TIMESTAMP)
    if hi == 0:
        raise ValueError(f"no imu sample at or before t={t}")
    lo = bisect_right(imu, t - cfg.smoothing_window, hi=hi, key=_TIMESTAMP)
    if lo == hi:  # empty window, fall back to the latest sample
        return imu[hi - 1].magnitude()
    window = imu[lo:hi]
    return sum(s.magnitude() for s in window) / len(window)


def schedule_next_pair(
    state: SamplerState, motion: float, cfg: SamplerConfig
) -> SamplerState:
    """Advance the sampler past the pair at ``state.next_pair_time``.

    The mode is re-decided from scratch at every pair: burst iff motion
    strictly exceeds tau_s. No hysteresis.
    """
    mode = MODE_BURST if motion > cfg.tau_s else MODE_NORMAL
    interval = cfg.burst_interval if mode == MODE_BURST else cfg.normal_interval
    return SamplerState(mode=mode, next_pair_time=state.next_pair_time + interval)


def bind_pair(
    pair_times: Sequence[float], scheduled_t: float, tolerance: float
) -> int | None:
    """Index of the recorded pair nearest to scheduled_t within tolerance.

    Ties between two equidistant pairs go to the earlier one. Returns None
    when no recorded pair is close enough (a sampling miss).
    """
    idx = bisect_left(pair_times, scheduled_t)
    best: int | None = None
    best_err = tolerance
    for cand in (idx - 1, idx):
        if 0 <= cand < len(pair_times):
            err = abs(pair_times[cand] - scheduled_t)
            if err < best_err or (err == best_err and best is None):
                best = cand
                best_err = err
    return best


def drop_unreachable(imu: list[ImuSample], t: float, cfg: SamplerConfig) -> None:
    """Drop the samples no schedule time from t on can use: those before the latest
    one at or before t - smoothing_window, where ``head_motion``'s window starts."""
    del imu[: max(bisect_right(imu, t - cfg.smoothing_window, key=_TIMESTAMP) - 1, 0)]


def select_key_moment(
    pair: FramePair,
    hands: Sequence[HandBox],
    kcfg: KeyMomentConfig = KeyMomentConfig(),
    fcfg: FlowConfig = FlowConfig(),
) -> KeyMoment | None:
    """Measure motion over the pair and keep it only if it clears tau_f.

    With hand boxes present, flow runs per hand box (grown to hold at least
    one block); otherwise a single full-frame flow stands in. The trigger is
    the largest per-region magnitude. The flows are keyed by hand side, or
    by ``"scene"`` alone when no hand is tracked.
    """
    frame_h, frame_w = pair.frame_a.image.shape
    a, b = pair.frame_a.image, pair.frame_b.image
    if hands:
        flows = {
            box.side: estimate_flow(a, b, box_flow_region(box, frame_w, frame_h, fcfg.block), fcfg)
            for box in hands
        }
    else:
        flows = {"scene": estimate_flow(a, b, None, fcfg)}
    trigger = max(f.magnitude for f in flows.values())
    if trigger < kcfg.tau_f:
        return None
    return KeyMoment(t=pair.t, pair_id=pair.pair_id, flows=flows, trigger_magnitude=trigger)
