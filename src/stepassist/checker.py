"""Consistency checking between reasoning and delivery.

Raw per-moment step predictions are too jittery to narrate: a single
misprediction would corrupt the completed-step history, and statuses repeat
for many consecutive moments. The checker smooths step identity with a
sliding majority window and deduplicates delivery against the previous
(step, status) state. ``update`` is a pure function, so every case is
directly table-testable.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .context import ProgressRecord
from .jsontext import shown
from .reasoner import ExecutionStatus, ReasonerOutput


@dataclass(frozen=True)
class CheckerConfig:
    window: int = 6  # W, sliding window length
    tau_c: float = 0.5  # dominance fraction for a step transition
    min_window: int = 3  # no transitions before this many predictions

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {shown(self.window)}")
        if not 0.0 < self.tau_c <= 1.0:
            raise ValueError(f"tau_c must be in (0, 1], got {shown(self.tau_c)}")
        if not 1 <= self.min_window <= self.window:
            raise ValueError(
                f"min_window must be in [1, window], got {shown(self.min_window)} "
                f"with window {shown(self.window)}"
            )


@dataclass(frozen=True)
class CheckerState:
    window_buf: tuple[str, ...] = ()
    active_step: str | None = None
    history: ProgressRecord = ProgressRecord()
    prev_step: str | None = None
    prev_status: ExecutionStatus | None = None


class SuppressReason(str, Enum):
    REDUNDANT_STATE = "redundant_state"
    NO_PROACTIVE_NEED = "no_proactive_need"


@dataclass(frozen=True)
class DeliveryDecision:
    deliver: bool
    response: str | None = None
    suppress_reason: SuppressReason | None = None
    transitioned: bool = False

    def __post_init__(self) -> None:
        if self.deliver == (self.suppress_reason is not None):
            raise ValueError("exactly one of deliver / suppress_reason")


def _dominant(window: tuple[str, ...], active: str | None) -> tuple[str, int]:
    """Most frequent step in the window.

    Ties go to the active step when it is among the tied maxima, otherwise to
    the tied step predicted most recently.
    """
    counts = Counter(window)
    top = max(counts.values())
    tied = [s for s, c in counts.items() if c == top]
    if len(tied) == 1:
        return tied[0], top
    if active in tied:
        return active, top
    for step in reversed(window):
        if step in tied:
            return step, top
    raise AssertionError("tied steps must appear in the window")


def update(
    state: CheckerState, out: ReasonerOutput, cfg: CheckerConfig = CheckerConfig()
) -> tuple[CheckerState, DeliveryDecision]:
    """Fold one reasoner output into the checker.

    Step identity: the prediction joins the sliding window (oldest evicted
    past ``window``); if the window's dominant step differs from the active
    step, occupies at least ``tau_c`` of the window, and the window has at
    least ``min_window`` entries, the active step is appended to the history
    (unless already there) and the dominant step becomes active. The window
    is never cleared.

    Delivery: a proactive output is delivered unless its (step, status) pair
    equals the previous moment's; a non-proactive output is suppressed. The
    previous pair updates unconditionally, delivered or not. Malformed
    outputs must never reach this function.
    """
    window = (state.window_buf + (out.step,))[-cfg.window :]
    active = state.active_step if state.active_step is not None else out.step
    history = state.history

    transitioned = False
    dominant, count = _dominant(window, active)
    if (
        dominant != active
        and count >= cfg.tau_c * len(window)
        and len(window) >= cfg.min_window
    ):
        history = history.add(active)
        active = dominant
        transitioned = True

    if not out.proactive:
        decision = DeliveryDecision(
            deliver=False,
            suppress_reason=SuppressReason.NO_PROACTIVE_NEED,
            transitioned=transitioned,
        )
    elif (out.step, out.status) == (state.prev_step, state.prev_status):
        decision = DeliveryDecision(
            deliver=False,
            suppress_reason=SuppressReason.REDUNDANT_STATE,
            transitioned=transitioned,
        )
    else:
        decision = DeliveryDecision(
            deliver=True, response=out.response, transitioned=transitioned
        )

    new_state = CheckerState(
        window_buf=window,
        active_step=active,
        history=history,
        prev_step=out.step,
        prev_status=out.status,
    )
    return new_state, decision
