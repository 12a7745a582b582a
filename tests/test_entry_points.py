"""One session, three entry points: disk, engine and wire refuse the same sessions.

A small generated session is damaged by a drawn list of mutations and fed
three ways: ``write_session`` then ``load_session``; a ``SessionPipeline``
in process; and a ``WireSession``, line by line. All three accept it or all
three refuse it. The engine's and the wire's refusal is one of
``load_session``'s report lines, and an accepted session logs, serves and
counts what a replay of the loaded session does.

The pair gap is damaged only to values the ``bad_pair_gap`` rule refuses or
to ones below the burst interval: a pair gap at or above it is a rule of
the config, which the engine refuses and a session directory cannot know.
"""
import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stepassist.harness.client import record_message
from stepassist.harness.events import DELIVERY, run_counts
from stepassist.harness.pipeline import SessionPipeline, replay
from stepassist.harness.server import BAD_STREAM, NO_SESSION, PROTOCOL_VERSION, WireSession
from stepassist.trace.io import (
    HEADER_FIELDS,
    SessionFormatError,
    annotations_from_obj,
    annotations_to_obj,
    header_from_obj,
    header_to_obj,
    load_session,
    write_session,
)
from stepassist.trace.synthetic import (
    HandMove,
    HandTrack,
    PhaseSpec,
    StepPlan,
    SyntheticScript,
    generate_synthetic,
)
from stepassist.trace.types import ExecutionStatus, FrameRecord, ImuSample, SessionTrace

from conftest import fixture_config
from oracles import trace_pairs
from test_harness import feed

CONFIG = fixture_config()
# 12 frames of 40x24 and 12 gyro samples over 2.6 s; every pair is a key moment
TRACE = generate_synthetic(SyntheticScript(
    steps=(
        StepPlan("Fill kettle", (PhaseSpec(ExecutionStatus.JUST_START, 0.5),
                                 PhaseSpec(ExecutionStatus.IN_PROGRESS, 1.0)),
                 proactive=((0.0, 1.0),)),
        StepPlan("Heat kettle", (PhaseSpec(ExecutionStatus.IN_PROGRESS, 1.0),)),
    ),
    hands=(HandTrack("left", 8, 8, (HandMove(0.0, 2.5, 12, 0),)),),
    burst_windows=((0.9, 1.6),),
    width=40,
    height=24,
    patch=8,
    seed=2,
))
END = {"type": "session_end"}


# -- mutations: plain tuples, so a failing list can be pinned with @example ------------

STREAMS = st.sampled_from(["frames", "imu"])
INDEX = st.integers(0, 30)  # taken modulo the stream's length when applied
SHIFTS = [-5.0, -0.3, -0.05, 0.0005, 0.05, 0.3, 61.0]
TIMES = [-1.0, 0.0, 0.3, 1.05, 1.65, 2.05, 2.55]  # frames come at 0.0, 0.1, 0.5, 0.6, ...
HEADER_DAMAGE = {
    "instruction": ["", "  ", 5],
    "width": [0, -40, 48, 40.5, True, "40"],
    "height": [0, 12, None],
    "pair_gap": [0.0, -0.1, math.nan, math.inf, 0.2, "0.1"],
}
ANNOTATION_DAMAGE = [
    "status", "reversed", "segment_end", "segment_start", "segment_order", "segment_overlap",
    "interval_step", "interval_end", "box_pair", "box_side", "box_bounds", "box_keys",
    "box_key_text", "box_key_digits", "box_x_text", "segments_number", "not_an_object",
    "empty_step",
]
MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), STREAMS, INDEX),
    st.tuples(st.just("copy"), STREAMS, INDEX),
    st.tuples(st.just("swap"), STREAMS, INDEX, INDEX),
    st.tuples(st.just("shift"), STREAMS, INDEX, st.sampled_from(SHIFTS)),
    st.tuples(st.just("nonfinite"), st.sampled_from(["frames", "imu", "gyro"]), INDEX,
              st.sampled_from([math.nan, math.inf, -math.inf])),
    st.tuples(st.just("geometry"), INDEX, st.sampled_from([(24, 48), (12, 40), (1, 1)])),
    st.tuples(st.just("cut"), STREAMS, st.integers(0, 12)),
    st.tuples(st.just("stop"), STREAMS, st.sampled_from(TIMES)),
    st.sampled_from(sorted(HEADER_DAMAGE)).flatmap(
        lambda key: st.tuples(st.just("header"), st.just(key),
                              st.sampled_from([*HEADER_DAMAGE[key], "<missing>"]))),
    st.tuples(st.just("annotations"), st.sampled_from(ANNOTATION_DAMAGE)),
)


@dataclasses.dataclass
class Damaged:
    header: dict
    annotations: object
    frames: list[FrameRecord]
    imu: list[ImuSample]

    def records(self) -> SessionTrace:
        """The sensor streams, in a trace with the undamaged header and annotations."""
        return dataclasses.replace(TRACE, frames=self.frames, imu=self.imu)


def damage_annotations(ann, name: str):
    """``ann`` with one damage; a damage the object no longer has room for changes nothing."""
    try:
        segments, boxes = ann["segments"], ann["hand_boxes"]
        if name == "status":
            segments[0]["status"] = "done"
        elif name == "reversed":
            segments[0]["start"], segments[0]["end"] = segments[0]["end"], segments[0]["start"]
        elif name == "segment_end":
            segments[-1]["end"] += 5.0
        elif name == "segment_start":
            segments[0]["start"] = -0.5
        elif name == "segment_order":
            segments[0], segments[1] = segments[1], segments[0]
        elif name == "segment_overlap":
            segments[1]["start"] -= 0.25
        elif name == "interval_step":
            ann["proactive_intervals"][0]["step"] = "Paint the fence"
        elif name == "interval_end":
            ann["proactive_intervals"][0]["end"] += 5.0
        elif name == "box_pair":
            boxes["99"] = [{"side": "left", "x": 0, "y": 0, "w": 4, "h": 4}]
        elif name == "box_side":
            boxes["0"][0]["side"] = "up"
        elif name == "box_bounds":
            boxes["0"][0]["x"] = TRACE.width
        elif name == "box_keys":
            del boxes["0"][0]["h"]
        elif name == "box_key_text":
            boxes["x"] = boxes.pop("0")
        elif name == "box_key_digits":
            boxes["1" * 5000] = boxes.pop("0")
        elif name == "box_x_text":
            boxes["0"][0]["x"] = "abc"
        elif name == "segments_number":
            ann["segments"] = 5
        elif name == "empty_step":  # a step no interval names, so only its label is at fault
            for seg in segments:
                if seg["step"] == "Heat kettle":
                    seg["step"] = "  "
        else:
            return []
    except (KeyError, IndexError, TypeError):
        pass
    return ann


def damaged(mutations) -> Damaged:
    s = Damaged(header_to_obj(TRACE), json.loads(json.dumps(annotations_to_obj(TRACE))),
                list(TRACE.frames), list(TRACE.imu))
    for kind, *args in mutations:
        if kind == "header":
            key, value = args
            s.header.pop(key, None)
            if value != "<missing>":
                s.header[key] = value
        elif kind == "annotations":
            s.annotations = damage_annotations(s.annotations, *args)
        elif kind == "cut":
            stream, k = args
            del getattr(s, stream)[k:]
        elif kind == "stop":
            stream, t = args
            setattr(s, stream, [r for r in getattr(s, stream) if r.timestamp <= t])
        elif kind == "geometry":
            (i, shape), frames = args, s.frames
            if frames:
                # every copy of the frame, so its one file on disk holds what the engine is fed
                fr = frames[i % len(frames)]
                image = np.zeros(shape, dtype=np.uint8)
                s.frames = [dataclasses.replace(f, image=image)
                            if (f.pair_id, f.slot) == (fr.pair_id, fr.slot) else f
                            for f in frames]
        else:
            stream, i, *rest = args
            records = getattr(s, "imu" if stream == "gyro" else stream)
            if not records:
                continue
            i %= len(records)
            if kind == "drop":
                del records[i]
            elif kind == "copy":
                records.insert(i, records[i])
            elif kind == "swap":
                j = rest[0] % len(records)
                records[i], records[j] = records[j], records[i]
            elif kind == "shift":
                records[i] = dataclasses.replace(records[i],
                                                 timestamp=records[i].timestamp + rest[0])
            elif stream == "gyro":
                records[i] = dataclasses.replace(records[i], gx=rest[0])
            else:
                records[i] = dataclasses.replace(records[i], timestamp=rest[0])
    return s


# -- the three entry points ---------------------------------------------------------


def from_disk(s: Damaged) -> tuple[SessionTrace | None, list[str]]:
    """The loaded session, or None and the reasons of each line of its refusal."""
    with tempfile.TemporaryDirectory() as tmp:
        root = write_session(s.records(), Path(tmp) / "session")
        manifest = json.loads((root / "manifest.json").read_text())
        for key in HEADER_FIELDS:
            del manifest[key]
        (root / "manifest.json").write_text(json.dumps({**manifest, **s.header}))
        (root / "annotations.json").write_text(json.dumps(s.annotations))
        try:
            return load_session(root), []
        except SessionFormatError as exc:
            # each line is "<path>: <reason>", "[<kind>] <reason>" or "<path>: [<kind>] <reason>"
            lines = [line.split(": ", 1)[1] if line.startswith(tmp) else line
                     for line in str(exc).splitlines()]
    return None, [re.sub(r"^\[\w+\] ", "", line) for line in lines]


def in_process(s: Damaged) -> tuple[SessionPipeline | None, str | None]:
    """The finished engine, or None and its refusal."""
    try:
        session = SessionTrace(**header_from_obj(s.header), **annotations_from_obj(s.annotations),
                               frames=[], imu=[])
        engine = SessionPipeline(CONFIG, session)
        feed(engine, s.records().iter_sensor_records())  # and finish
    except ValueError as exc:
        return None, str(exc)
    return engine, None


def over_the_wire(s: Damaged) -> tuple[list[dict], dict]:
    """Every reply to the session's lines, and the logs of the sessions it finished."""
    logs, faults = {}, []
    wire = WireSession(SimpleNamespace(cfg=CONFIG, store_log=logs.__setitem__),
                       lambda: faults.append(None))
    start = {"type": "session_start", "protocol": PROTOCOL_VERSION, "session_id": "damaged",
             **s.header, "annotations": s.annotations}
    replies = []
    for msg in (start, *map(record_message, s.records().iter_sensor_records()), END):
        out, keep_open = wire.feed(json.dumps(msg).encode("utf-8"))
        assert keep_open
        replies += out
    assert faults == []
    return replies, logs


def check_entry_points_agree(mutations) -> None:
    s = damaged(mutations)
    loaded, reasons = from_disk(s)
    engine, refusal = in_process(s)
    replies, logs = over_the_wire(s)
    errors = [r for r in replies if r["type"] == "error"]
    if loaded is None:
        assert refusal in reasons, (refusal, reasons)
        assert errors[0] == {"type": "error", "code": BAD_STREAM,
                             "detail": f"ValueError: {refusal}"}
        assert {r["code"] for r in errors[1:]} <= {NO_SESSION}
        assert logs == {}
        return
    assert refusal is None and errors == []
    log, _ = replay(loaded, CONFIG)
    assert engine.log.dumps() == logs["damaged"].dumps() == log.dumps()
    assert [r for r in replies if r["type"] == "assist"] == [
        {"type": "assist", "t": ev.t, "step": ev.data["step"], "status": ev.data["status"],
         "text": ev.data["response"]}
        for ev in log.of_kind(DELIVERY) if ev.data["deliver"]
    ]
    assert replies[-1] == {"type": "ack", "of": "session_end",
                           "counts": {"pairs": len(trace_pairs(loaded)), **run_counts(log)}}


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutations=st.lists(MUTATIONS, max_size=3))
# the whole-recording rules once ran on the disk alone: no records (the wire acked zero
# counts), gyro only (likewise), frames without gyro (the engine answered "imu stream is
# empty" from head_motion), a camera that stops before the annotations end, and hand
# boxes for a pair no frame names
@example(mutations=[("cut", "frames", 0), ("cut", "imu", 0)])
@example(mutations=[("cut", "frames", 0)])
@example(mutations=[("cut", "imu", 0)])
@example(mutations=[("stop", "frames", 1.65)])
@example(mutations=[("annotations", "box_pair")])
# load_session once checked the header's rules before it read the annotations, and it
# worded a refusal of annotations that are not an object unlike the wire
@example(mutations=[("header", "width", 0), ("annotations", "status")])
@example(mutations=[("annotations", "not_an_object")])
# a blank step label once passed the disk and broke the engine's guideline
@example(mutations=[("annotations", "empty_step")])
# load_session once checked the header's rules alone before any frame, so its report of a
# bad header left out the blank step label the engine names first
@example(mutations=[("header", "height", 0), ("annotations", "empty_step")])
def test_disk_engine_and_wire_refuse_the_same_sessions(mutations):
    check_entry_points_agree(mutations)


def test_the_undamaged_session_is_accepted_everywhere():
    assert in_process(damaged([]))[1] is None
    check_entry_points_agree([])
