"""The session engine: one causal pass from sensor records to deliveries.

SessionPipeline takes IMU samples and frames, each stream in timestamp order.
The gyro path decides each scheduled time once a sample strictly after it
arrives (the head motion there sets the mode and the next time); the frame
path binds it to a pair once the frames pass its binding tolerance or end.
Batch replay and the live socket server both drive this engine, so a replayed
trace and the same trace streamed over TCP log identical events by construction.
"""
from __future__ import annotations

from collections import deque
from typing import Sequence

from ..checker import CheckerState, update
from ..context import (
    GuidelineCorpus,
    GuidelineFormatError,
    GuidelineStep,
    RemoteStructurer,
    ScriptedStructurer,
    StructuredGuideline,
    render_progress,
    retrieve_guideline,
    textualize_motion,
)
from ..httpchat import ChatEndpointError
from ..metrics import MetricsReport, compute_metrics
from ..motion import (
    AnnotationDetector,
    HandDetector,
    NullDetector,
    SyntheticDetector,
    detect_hands,
)
from ..perception import (
    SamplerState,
    bind_pair,
    drop_unreachable,
    head_motion,
    schedule_next_pair,
    select_key_moment,
)
from ..reasoner import (
    MalformedOutput,
    OracleReasoner,
    Reasoner,
    ReasonerInput,
    RemoteReasoner,
    flag_off_guideline,
)
from ..trace.io import StreamCheck
from ..trace.types import FramePair, FrameRecord, ImuSample, Session, SessionTrace
from .config import PipelineConfig
from .events import (
    DELIVERY,
    ERROR,
    KEY_MOMENT,
    REASONED,
    SAMPLED_PAIR,
    TRANSITION,
    Event,
    EventLog,
)


def synthesize_guideline(instruction: str, step_labels: Sequence[str]) -> StructuredGuideline:
    """Sequential guideline built from a session's own step vocabulary.

    Stands in when no expert corpus is configured (synthetic sessions carry
    their step plan; that plan is the expert knowledge).
    """
    steps = tuple(
        GuidelineStep(
            id=i + 1,
            title=label,
            prerequisites=(i,) if i >= 1 else (),
        )
        for i, label in enumerate(step_labels)
    )
    return StructuredGuideline(task=instruction, steps=steps)


def resolve_guideline(
    cfg: PipelineConfig,
    instruction: str,
    step_labels: Sequence[str],
) -> tuple[str, list[str]]:
    """Produce the prompt's guideline text and the known step vocabulary.

    With a corpus configured: retrieve by instruction, then structure
    (through ``structurer.endpoint`` when it is set, else by markup). A
    retrieval that cannot be structured, because the structurer's reply is
    malformed or its endpoint is unreachable, falls back to the raw document
    text (vocabulary unknown). Without a corpus, a guideline is synthesized
    from the session's step labels when present, else the instruction stands
    in.
    """
    if cfg.corpus_dir is not None:
        corpus = GuidelineCorpus.load(cfg.corpus_dir)
        result = retrieve_guideline(instruction, corpus)
        if cfg.structurer.endpoint:
            structurer = RemoteStructurer(
                cfg.structurer.endpoint, cfg.structurer.model, cfg.structurer.timeout
            )
        else:
            structurer = ScriptedStructurer()
        try:
            guideline = structurer.structure(result.text)
        except (GuidelineFormatError, ChatEndpointError):
            return result.text, []
        return guideline.render(), guideline.step_titles()
    if step_labels:
        guideline = synthesize_guideline(instruction, step_labels)
        return guideline.render(), guideline.step_titles()
    return instruction, []


def build_detector(cfg: PipelineConfig, hand_boxes) -> HandDetector:
    if cfg.detector.kind == "annotation":
        return AnnotationDetector(hand_boxes)
    if cfg.detector.kind == "synthetic":
        return SyntheticDetector()
    return NullDetector()


class SessionPipeline:
    """Causal engine for one session.

    Feed sensor records in timestamp order via feed_imu/feed_frame, then call
    finish(). Every call returns the events it produced, in order; the full
    log accumulates on ``self.log``.

    ``session`` sets the instruction, the frame size, the pair gap and the
    annotations. The constructor, each feed and ``finish`` raise ValueError
    naming the first StreamCheck rule broken, ``finish`` for the rules that
    need the whole recording.

    ``imu`` and ``pairs`` hold a causal window, not the session: deciding a
    time cuts the gyro back to ``smoothing_window`` before the next one, and
    binding one drops the pairs more than half the pair gap before it. The
    schedule only moves forward, so the cuts never change a result.
    """

    def __init__(
        self,
        cfg: PipelineConfig,
        session: Session,
        *,
        reasoner: Reasoner | None = None,
    ):
        self._stream = StreamCheck(session)
        if self._stream.report.violations:
            raise ValueError(self._stream.report.violations[0].message)
        if not session.pair_gap < cfg.sampler.burst_interval:
            raise ValueError(
                f"session pair gap {session.pair_gap} must be below "
                f"the burst interval {cfg.sampler.burst_interval}"
            )
        self.cfg = cfg
        self._bind_tolerance = session.pair_gap / 2.0

        self.guideline_text, self.step_titles = resolve_guideline(
            cfg, session.instruction, session.step_labels()
        )

        if reasoner is None:
            if cfg.reasoner.kind == "oracle":
                reasoner = OracleReasoner.from_trace(session, cfg.reasoner.oracle)
            else:
                reasoner = RemoteReasoner(
                    cfg.reasoner.endpoint, cfg.reasoner.model, cfg.reasoner.timeout
                )
        self.reasoner = reasoner
        self.detector = build_detector(cfg, session.hand_boxes)

        self.log = EventLog()
        self.sampler_state = SamplerState()
        self.checker_state = CheckerState()
        self.imu: list[ImuSample] = []
        self.pairs: list[FramePair] = []
        self.decided: deque[tuple[float, float, str]] = deque()  # (t, motion, mode) to bind
        self.pair_count = 0
        self._finished = False

    # -- feeding ---------------------------------------------------------

    def feed_imu(self, sample: ImuSample) -> list[Event]:
        self._check(self._stream.imu, sample)
        self.imu.append(sample)
        if sample.timestamp <= self.sampler_state.next_pair_time:
            return []  # another sample at the next scheduled time may follow
        while sample.timestamp > self.sampler_state.next_pair_time:
            self._decide()
        return self._bind(finished=False)

    def feed_frame(self, frame: FrameRecord) -> list[Event]:
        first = self._stream.waiting
        self._check(self._stream.frame, frame)
        if frame.slot == "a":
            return []
        self.pairs.append(FramePair(frame.pair_id, first.timestamp, first, frame))
        self.pair_count += 1
        return self._bind(finished=False)

    def finish(self) -> list[Event]:
        self._check(self._stream.end)  # so at least one pair is complete
        # like batch replay, the schedule runs on to the last frame time and no further
        horizon = self._stream.last_frame_t
        while self.sampler_state.next_pair_time <= horizon:
            self._decide()
        while self.decided and self.decided[-1][0] > horizon:
            self.decided.pop()
        events = self._bind(finished=True)
        self._finished = True
        return events

    def _check(self, rule, *record) -> None:
        """Run one of StreamCheck's steps; a broken rule raises ValueError."""
        if self._finished:
            raise RuntimeError("session already finished")
        rule(*record)
        if self._stream.report.violations:
            raise ValueError(self._stream.report.violations[0].message)

    # -- decide (gyro path), then bind (frame path) ----------------------

    def _decide(self) -> None:
        t = self.sampler_state.next_pair_time
        motion = head_motion(self.imu, t, self.cfg.sampler)
        self.sampler_state = schedule_next_pair(self.sampler_state, motion, self.cfg.sampler)
        self.decided.append((t, motion, self.sampler_state.mode))
        drop_unreachable(self.imu, self.sampler_state.next_pair_time, self.cfg.sampler)

    def _bind(self, finished: bool) -> list[Event]:
        before = len(self.log)
        while self.decided and (
            finished or self.pairs and self.pairs[-1].t > self.decided[0][0] + self._bind_tolerance
        ):
            self._resolve_moment(*self.decided.popleft())
        return self.log.events[before:]

    def _resolve_moment(self, t: float, motion: float, mode: str) -> None:
        while self.pairs and t - self.pairs[0].t > self._bind_tolerance:
            del self.pairs[0]  # no later time binds it
        idx = bind_pair([p.t for p in self.pairs], t, self._bind_tolerance)
        if idx is None:
            self.log.append(
                ERROR,
                t,
                code="sampling_miss",
                detail=f"no recorded pair within {self._bind_tolerance}s of schedule",
                scheduled_t=t,
            )
            return
        pair = self.pairs[idx]

        self.log.append(
            SAMPLED_PAIR,
            pair.t,
            pair=pair.pair_id,
            scheduled_t=t,
            mode=mode,
            motion=motion,
        )

        hands = detect_hands(pair.frame_a, self.detector)
        moment = select_key_moment(pair, hands, self.cfg.key_moment, self.cfg.flow)
        if moment is None:
            return

        motion_text = textualize_motion(moment.flows, self.cfg.key_moment.stationary_threshold)
        self.log.append(
            KEY_MOMENT,
            pair.t,
            pair=pair.pair_id,
            trigger_magnitude=moment.trigger_magnitude,
            flows=[
                {"side": side, "dx": f.dx, "dy": f.dy, "magnitude": f.magnitude}
                for side, f in moment.flows.items()
            ],
            motion_text=motion_text,
        )

        inp = ReasonerInput(
            timestamp=pair.t,
            guideline_text=self.guideline_text,
            history_text=render_progress(self.checker_state.history),
            motion_text=motion_text,
            image=pair.frame_b.image,
        )
        try:
            out = self.reasoner.reason(inp)
        except ChatEndpointError as exc:
            # moment dropped whole, like a malformed reply
            self.log.append(
                ERROR, pair.t, code="reasoner_unavailable", detail=str(exc), pair=pair.pair_id
            )
            return

        if isinstance(out, MalformedOutput):
            # moment dropped whole: no reasoned event, checker untouched
            self.log.append(
                ERROR,
                pair.t,
                code="malformed_output",
                detail=out.reason,
                attempts=out.attempts,
                pair=pair.pair_id,
            )
            return

        if self.step_titles:
            out = flag_off_guideline(out, self.step_titles)
        self.log.append(
            REASONED,
            pair.t,
            pair=pair.pair_id,
            step=out.step,
            status=out.status.value,
            proactive=out.proactive,
            response=out.response,
            reasoning=out.reasoning,
            off_guideline=out.off_guideline,
        )

        prior_active = self.checker_state.active_step
        self.checker_state, decision = update(self.checker_state, out, self.cfg.checker)
        if decision.transitioned:
            self.log.append(
                TRANSITION,
                pair.t,
                from_step=prior_active,
                to_step=self.checker_state.active_step,
                history=list(self.checker_state.history.completed),
            )
        data = {"deliver": decision.deliver, "step": out.step, "status": out.status.value}
        if decision.deliver:
            data["response"] = decision.response
        else:
            data["suppress_reason"] = decision.suppress_reason.value
        self.log.append(DELIVERY, pair.t, **data)


def replay(
    trace: SessionTrace,
    cfg: PipelineConfig = PipelineConfig(),
    *,
    reasoner: Reasoner | None = None,
) -> tuple[EventLog, MetricsReport]:
    """Run the whole pipeline over a recorded session and score it.

    The simulated clock is the trace's own timeline: records are fed in
    timestamp order and each scheduled pair resolves as soon as its inputs
    exist.
    """
    engine = SessionPipeline(cfg, trace, reasoner=reasoner)
    for record in trace.iter_sensor_records():
        if isinstance(record, ImuSample):
            engine.feed_imu(record)
        else:
            engine.feed_frame(record)
    engine.finish()
    return engine.log, compute_metrics(engine.log, trace)


__all__ = [
    "SessionPipeline",
    "build_detector",
    "replay",
    "resolve_guideline",
    "synthesize_guideline",
]
