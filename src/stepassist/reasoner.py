"""Step-aware reasoning over key moments.

One reasoner call sees four context blocks (structured guideline, completed
steps, the frame, and the textualized hand motion) and returns the current
step, its execution status, and whether to speak up. Two interchangeable
backends: a scripted oracle that reads ground truth (optionally corrupted at
seeded rates, for controlled evaluation) and a remote chat-completion client.

A reply that does not parse or mistypes a field raises ReasonerOutputError;
the remote client retries once on it and then returns MalformedOutput. A
transport failure is httpchat's ChatEndpointError, raised through unchanged.
"""
from __future__ import annotations

import base64
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Protocol, Sequence, Union

from .httpchat import chat_complete
from .jsontext import extract_first_json, field, fields, shown
from .trace.pgm import write_pgm
from .trace.types import (
    ExecutionStatus,
    ProactiveInterval,
    Session,
    StepSegment,
    step_vocabulary,
)

__all__ = [
    "ExecutionStatus",
    "MalformedOutput",
    "OracleConfig",
    "OracleReasoner",
    "Reasoner",
    "ReasonerInput",
    "ReasonerOutput",
    "ReasonerOutputError",
    "RemoteReasoner",
    "assemble_prompt",
    "parse_output",
]

PROMPT_TEMPLATE = (
    "Task Instructions: You are a proactive assistant for procedural tasks, "
    "tracking user progress through real-time sensory data from wearable "
    "devices and procedural context. Based on these contexts, you need to "
    "understand user's actions and identify the current procedural step and "
    "status, then determine whether to initiate a proactive service for the "
    "user or not. Please provide timely, relevant guidance when appropriate.\n"
    "Now you will receive the sensory and procedural contexts for the target "
    "moment in the procedural task.\n"
    "Guideline: Structured guideline with task-specific expert knowledge: "
    "{guideline}\n"
    "Historical Context: Previously completed steps in order: {history}\n"
    "Sensory Context: Vision information shows as the image. <IMAGE>\n"
    "Hand Motion Cues: The optical flow between the current frame and the "
    "previous frame indicates that in the image plane, {motion}. You may "
    "combine the image-plane hand motion cue with visual context, object "
    "relationships, and task semantics to infer how the hand is moving in "
    "the actual scene when useful.\n"
    "Output Format: Reply with a JSON object of the form "
    '{{"step": <guideline step title>, "status": one of "just_start", '
    '"in_progress", "about_to_finish", "step_transition", '
    '"proactive": true or false, "response": <guidance text, required when '
    'proactive is true>, "reasoning": <optional short justification>}}.'
)


@dataclass(frozen=True)
class ReasonerInput:
    """Everything one reasoning call needs, already rendered to text."""

    timestamp: float
    guideline_text: str
    history_text: str
    motion_text: str
    image: object  # the moment's frame, a 2-d uint8 array


@dataclass(frozen=True)
class ReasonerOutput:
    step: str
    status: ExecutionStatus
    proactive: bool
    response: str | None = None
    reasoning: str | None = None
    off_guideline: bool = False

    def __post_init__(self) -> None:
        if self.proactive and not (self.response and self.response.strip()):
            raise ValueError("proactive output carries no response text")


@dataclass(frozen=True)
class MalformedOutput:
    """Marker for a reasoner reply that stayed unparseable after a retry."""

    reason: str
    attempts: int = 1


class Reasoner(Protocol):
    def reason(self, inp: ReasonerInput) -> Union[ReasonerOutput, MalformedOutput]: ...


def assemble_prompt(inp: ReasonerInput) -> str:
    """Fill the system prompt template from a reasoner input.

    The motion sentence is embedded as rendered, minus its trailing period
    (the template supplies the sentence-final punctuation).
    """
    motion = inp.motion_text.rstrip()
    if motion.endswith("."):
        motion = motion[:-1]
    return PROMPT_TEMPLATE.format(
        guideline=inp.guideline_text,
        history=inp.history_text,
        motion=motion,
    )


class ReasonerOutputError(ValueError):
    """A model reply that does not parse into a ReasonerOutput."""


# a reply's verdict, also as a reasoned event carries it
VERDICT_FIELDS = {"step": str, "status": str, "proactive": bool}


def parse_output(text: str) -> ReasonerOutput:
    """Parse a model reply into a ReasonerOutput.

    The first JSON object in the text that parses is used; surrounding
    prose is tolerated. Its fields are read by ``jsontext.field``, never
    converted: ``response`` and ``reasoning`` must be strings or null. Every
    failure raises ReasonerOutputError, whose message names what was wrong,
    so callers can log and retry.
    """
    try:
        obj = extract_first_json(text)
        step, status, proactive = fields(obj, VERDICT_FIELDS, "reply")
        if not step.strip():
            raise ValueError("reply lacks a step title")
        return ReasonerOutput(step, ExecutionStatus.parse(status), proactive,
                              field(obj, "response", str, "reply", None),
                              field(obj, "reasoning", str, "reply", None))
    except ValueError as exc:
        raise ReasonerOutputError(str(exc)) from None


def flag_off_guideline(out: ReasonerOutput, step_titles: Sequence[str]) -> ReasonerOutput:
    """Mark outputs whose step is not in the guideline vocabulary."""
    off = out.step not in set(step_titles)
    return replace(out, off_guideline=off) if off != out.off_guideline else out


@dataclass(frozen=True)
class OracleConfig:
    step_error_rate: float = 0.0
    status_error_rate: float = 0.0
    proactive_flip_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("step_error_rate", "status_error_rate", "proactive_flip_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {shown(rate)}")


class OracleReasoner:
    """Ground-truth playback with per-field seeded corruption.

    Corruption is keyed by (seed, moment timestamp), never by call order, so
    any moment's output is reproducible in isolation. Step errors pick
    uniformly among the other scripted steps, status errors among the other
    three statuses, and proactive flips negate the ground-truth flag. A
    noiseless oracle, every rate 0, draws nothing: a draw in [0, 1) is never
    below 0, so it plays back the ground truth without building a generator.
    """

    def __init__(
        self,
        segments: Sequence[StepSegment],
        proactive_intervals: Sequence[ProactiveInterval],
        cfg: OracleConfig = OracleConfig(),
    ):
        if not segments:
            raise ValueError("oracle needs at least one annotated segment")
        self.segments = sorted(segments, key=lambda s: s.start)
        self.intervals = list(proactive_intervals)
        self.cfg = cfg
        # corruption picks from this order, so it follows the start-sorted segments
        self.step_labels = step_vocabulary(self.segments)
        self._starts = [s.start for s in self.segments]

    @classmethod
    def from_trace(cls, session: Session, cfg: OracleConfig = OracleConfig()) -> "OracleReasoner":
        return cls(session.segments, session.proactive_intervals, cfg)

    def _ground_truth(self, t: float) -> tuple[str, ExecutionStatus]:
        idx = bisect_right(self._starts, t) - 1
        if idx >= 0 and self.segments[idx].contains(t):
            seg = self.segments[idx]
            return seg.step, seg.status
        # outside every segment: nearest segment's step, read as transitional
        nearest = min(
            self.segments,
            key=lambda s: (0.0 if s.contains(t) else min(abs(t - s.start), abs(t - s.end)), s.start),
        )
        return nearest.step, ExecutionStatus.STEP_TRANSITION

    def reason_at(self, t: float) -> ReasonerOutput:
        step, status = self._ground_truth(t)
        proactive = any(iv.contains(t) for iv in self.intervals)

        cfg = self.cfg
        if cfg.step_error_rate or cfg.status_error_rate or cfg.proactive_flip_rate:
            # string seeding is stable across processes, unlike hash()
            rng = random.Random(f"{cfg.seed}:{t!r}")
            if rng.random() < cfg.step_error_rate:
                others = [s for s in self.step_labels if s != step]
                if others:
                    step = others[rng.randrange(len(others))]
            if rng.random() < cfg.status_error_rate:
                others_s = [s for s in ExecutionStatus if s != status]
                status = others_s[rng.randrange(len(others_s))]
            if rng.random() < cfg.proactive_flip_rate:
                proactive = not proactive
        response = f"Guidance for {step} ({status.value})." if proactive else None
        return ReasonerOutput(step=step, status=status, proactive=proactive, response=response)

    def reason(self, inp: ReasonerInput) -> ReasonerOutput:
        return self.reason_at(inp.timestamp)


_FORMAT_REMINDER = (
    "Your previous reply could not be parsed. Reply again with only a JSON "
    'object: {"step": str, "status": one of "just_start"/"in_progress"/'
    '"about_to_finish"/"step_transition", "proactive": bool, "response": str '
    'required when proactive is true, "reasoning": optional str}.'
)


class RemoteReasoner:
    """Chat-completion backend: one call per key moment, one retry on bad format."""

    def __init__(self, endpoint: str, model: str | None = None, timeout: float = 30.0):
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout

    def reason(self, inp: ReasonerInput) -> Union[ReasonerOutput, MalformedOutput]:
        frame = {
            "type": "image",
            "format": "pgm_base64",
            "data": base64.b64encode(write_pgm(inp.image)).decode("ascii"),
        }
        messages = [
            {"role": "system", "content": assemble_prompt(inp)},
            {"role": "user", "content": [frame]},
        ]
        errors: list[str] = []
        for _ in range(2):
            reply = chat_complete(self.endpoint, messages, model=self.model, timeout=self.timeout)
            try:
                return parse_output(reply)
            except ReasonerOutputError as exc:
                errors.append(str(exc))
            messages = messages + [
                {"role": "assistant", "content": reply},
                {"role": "user", "content": _FORMAT_REMINDER},
            ]
        return MalformedOutput(reason=f"first: {errors[0]}; retry: {errors[1]}", attempts=2)
