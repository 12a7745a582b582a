"""The wire protocol's core, ``WireSession``, driven directly with no socket.

A stateful fuzzer interleaves the records of a small generated session with
hostile lines; after any of them a fresh valid session on the same
``WireSession`` must serve exactly what a batch replay of its trace logs.
"""
import base64
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from stepassist.harness import pipeline as pipeline_module
from stepassist.harness import server as server_module
from stepassist.harness.client import record_message
from stepassist.harness.events import DELIVERY, ERROR, KEY_MOMENT, REASONED, SAMPLED_PAIR
from stepassist.harness.pipeline import replay
from stepassist.harness.server import (
    BAD_JSON,
    BAD_MESSAGE,
    BAD_STREAM,
    INTERNAL,
    NO_SESSION,
    PROTOCOL_MISMATCH,
    PROTOCOL_VERSION,
    SESSION_ACTIVE,
    WireSession,
)
from stepassist.trace.io import annotations_to_obj, header_to_obj
from stepassist.trace.synthetic import generate_synthetic

from conftest import fixture_config
from oracles import trace_pairs
from test_harness import shelf_script

CONFIG = fixture_config()
TRACE = generate_synthetic(shelf_script())
START = {
    "type": "session_start",
    "protocol": PROTOCOL_VERSION,
    "session_id": "fuzz",
    **header_to_obj(TRACE),
    "annotations": annotations_to_obj(TRACE),
}
RECORDS = [record_message(r) for r in TRACE.iter_sensor_records()]
FRAMES = [m for m in RECORDS if m["type"] == "frame"]
END = {"type": "session_end"}
SESSION = [START, *RECORDS, END]
CODES = {BAD_JSON, BAD_MESSAGE, BAD_STREAM, NO_SESSION, SESSION_ACTIVE, PROTOCOL_MISMATCH}
# errors that leave an open session as it was
REFUSALS = {BAD_JSON, BAD_MESSAGE, NO_SESSION, SESSION_ACTIVE}

# the oracle: a batch replay of the same trace
BATCH_LOG, _ = replay(TRACE, CONFIG)
ASSISTS = [
    {"type": "assist", "t": ev.t, "step": ev.data["step"], "status": ev.data["status"],
     "text": ev.data["response"]}
    for ev in BATCH_LOG.of_kind(DELIVERY)
    if ev.data["deliver"]
]
COUNTS = {
    "pairs": len(trace_pairs(TRACE)),
    "sampled_pairs": len(BATCH_LOG.of_kind(SAMPLED_PAIR)),
    "key_moments": len(BATCH_LOG.of_kind(KEY_MOMENT)),
    "reasoned": len(BATCH_LOG.of_kind(REASONED)),
    "deliveries": len(ASSISTS),
    "errors": len(BATCH_LOG.of_kind(ERROR)),
}


def line(msg, raw: bytes = b"") -> bytes:
    """One wire line; the string ``"@"`` anywhere in ``msg`` becomes the bytes ``raw``."""
    return json.dumps(msg).encode("utf-8").replace(b'"@"', raw)


def start_line(**overrides) -> bytes:
    return line({**START, **overrides})


# -- hostile lines ------------------------------------------------------------------


def _choice(values: list):
    """``sampled_from`` by index: the strategy's repr would spell out each long value."""
    return st.integers(0, len(values) - 1).map(lambda i: values[i])


# values no reply may echo whole: every refusal shows one cut to 40 characters
LONG_TEXT = _choice(["x" * 100_000, "7" * 100_000 + "just_start"])
LONG = LONG_TEXT | _choice([10**3999, -(10**3999)])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | LONG,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
NUMBERS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e9, -1e9, 10**30, -(10**30), 2**63, 5e-324,
     -0.0, -1, 0]
)
# number literals the encoder will not write: too many digits, or out of float range
HUGE = _choice([b"1" * 5000, b"-" + b"9" * 4301, b"1e400", b"-1e400", b"9" * 400])
RASTER = base64.b64decode(FRAMES[0]["data"]).split(b"255\n", 1)[1]
PGMS = st.one_of(
    _choice([
        b"",
        b"P5",
        b"P6\n120 96\n255\n" + RASTER,
        b"P5\n96 120\n255\n" + RASTER,
        b"P5\n120 96\n65535\n" + RASTER,
        b"P5\n0 0\n255\n",
        b"P5\n99999999 99999999\n255\n" + RASTER,
        b"P5\n" + b"9" * 5000 + b" 1\n255\n" + RASTER,
        b"P5\n120 96\n255\n" + RASTER[:-1],
        b"P5\n120 96\n255\n" + RASTER + b"extra",
        b"P5 # comment\n120 96 255\n" + RASTER,
    ]),
    st.binary(max_size=32),
    st.integers(0, 2**32 - 1).map(lambda seed: b"P5\n120 96\n255\n" + np.random.default_rng(
        seed).integers(0, 256, len(RASTER), dtype=np.uint8).tobytes()),
    st.builds(lambda w, h: f"P5\n{w} {h}\n255\n".encode() + RASTER, st.integers(-2, 200),
              st.integers(-2, 200)),
)
HAND_BOXES = st.dictionaries(
    _choice(["1" * 5000, "9" * 4000, "-0", "01", "0", "1", "x", "1.5", "٣"]) | st.text(max_size=5),
    JSON_VALUES | st.lists(st.dictionaries(st.sampled_from(["side", "x", "y", "w", "h"]),
                                           JSON_VALUES | NUMBERS, max_size=5), max_size=2),
    max_size=2,
)
TIMES = NUMBERS | st.floats() | st.integers(-2, 10)
STEPS = _choice([seg["step"] for seg in START["annotations"]["segments"]]) | st.text(max_size=3) \
    | LONG_TEXT
SEGMENTS = st.lists(st.fixed_dictionaries({
    "start": TIMES, "end": TIMES, "step": STEPS,
    "status": st.sampled_from(["just_start", "in_progress", "about_to_finish", "done"]) | LONG_TEXT,
}), max_size=3)
INTERVALS = st.lists(st.fixed_dictionaries({"start": TIMES, "end": TIMES, "step": STEPS}),
                     max_size=2)
def altered(msgs) -> st.SearchStrategy[bytes]:
    """A message drawn from ``msgs`` with a key missing, added, retyped or too long to decode."""
    def keyed(make):
        return msgs.flatmap(lambda msg: st.sampled_from(sorted(msg)).flatmap(
            lambda k: make(msg, k)))

    return st.one_of(
        keyed(lambda msg, k: st.just(line({x: v for x, v in msg.items() if x != k}))),
        st.builds(lambda msg, k, v: line({**msg, k: v}), msgs, st.text(max_size=4), JSON_VALUES),
        keyed(lambda msg, k: (JSON_VALUES | NUMBERS).map(lambda v: line({**msg, k: v}))),
        keyed(lambda msg, k: HUGE.map(lambda raw: line({**msg, k: "@"}, raw))),
    )


def altered_frames(frames) -> st.SearchStrategy[bytes]:
    """A frame drawn from ``frames`` with its base64 cut short or another PGM in it."""
    return st.one_of(
        st.builds(lambda msg, n: line({**msg, "data": msg["data"][:n]}), frames,
                  st.integers(0, len(FRAMES[0]["data"]) - 1)),
        st.builds(lambda msg, pgm: line({**msg, "data": base64.b64encode(pgm).decode()}),
                  frames, PGMS),
    )


def _spliced(text: bytes, at: int, junk: bytes) -> bytes:
    return text[:at] + junk + text[at:]


messages = _choice(SESSION)
HOSTILE = st.one_of(
    altered(messages),
    altered_frames(_choice(FRAMES)),
    # over-deep, non-UTF-8, blank and non-object lines
    _choice([b"[" * 100000, b'{"type": "imu", "t": ' + b"[" * 100000, b"[" * 900 + b"]" * 900,
             b"", b"  \r", b"5", b'"imu"', b"[]", b"null", b"{}", b'{"type": 5}',
             b'{"type": "bogus"}', b"NaN", b"\xef\xbb\xbf{}"]),
    st.builds(_spliced, messages.map(line), st.integers(0, 60),
              st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\x00"])),
    messages.map(lambda msg: json.dumps(msg).encode("utf-16")),
    # session starts: another protocol, bad headers and annotations
    st.builds(lambda p: start_line(protocol=p), JSON_VALUES | NUMBERS),
    st.builds(lambda a: start_line(annotations=a), JSON_VALUES),
    st.builds(lambda hb: start_line(annotations={"hand_boxes": hb}), HAND_BOXES),
    st.builds(lambda s: start_line(annotations={"segments": s}), JSON_VALUES),
    st.builds(lambda s, i: start_line(annotations={"segments": s, "proactive_intervals": i}),
              SEGMENTS, INTERVALS),
)


# -- the machine ----------------------------------------------------------------------


class WireMachine(RuleBasedStateMachine):
    """Feeds lines to one WireSession and follows its session's state from the replies.

    ``pos`` indexes the open session's next line in SESSION, however the
    session was started. ``clean`` holds while it was started by START and
    has taken only its own records, in order, so that its ``session_end``
    must match the batch replay.
    """

    def __init__(self):
        super().__init__()
        self.faults: list[None] = []
        self.logs: dict = {}
        self.connect()

    def connect(self) -> None:
        owner = SimpleNamespace(cfg=CONFIG, store_log=self.logs.__setitem__)
        self.wire = WireSession(owner, lambda: self.faults.append(None))
        self.open = self.clean = False
        self.pos = 0
        self.served: list[dict] = []  # the replies to a clean session

    def feed(self, raw: bytes) -> list[dict]:
        replies, keep_open = self.wire.feed(raw)
        assert self.faults == [], "on_fault called"
        for reply in replies:
            assert reply["type"] in ("ack", "assist", "error"), reply
            if reply["type"] == "error":
                assert reply["code"] in CODES, reply
                assert len(reply["detail"]) <= 1000, reply["detail"][:1000]
            elif reply["type"] == "ack":
                assert reply["of"] in ("session_start", "pair", "session_end"), reply
        assert keep_open is not (bool(replies) and replies[-1].get("code") == PROTOCOL_MISMATCH)
        if not raw.strip():
            assert (replies, keep_open) == ([], True)
        for reply in replies:
            if reply.get("of") == "session_start":
                self.open, self.pos, self.served = True, 1, []
            elif reply.get("of") == "session_end" or reply.get("code") == BAD_STREAM:
                self.open = self.clean = False
        if not keep_open:
            self.connect()  # the handler returns; the client connects again
        return replies

    @rule()
    def start(self) -> None:
        was_open = self.open
        replies = self.feed(line(START))
        if was_open:
            assert [r.get("code") for r in replies] == [SESSION_ACTIVE]
        else:
            assert replies == [{"type": "ack", "of": "session_start", "session_id": "fuzz"}]
            self.clean = True

    @precondition(lambda self: self.open and self.pos < len(SESSION))
    @rule()
    def next_line(self) -> None:
        """The open session's next record, or its end; a hostile start's session too."""
        msg = SESSION[self.pos]
        self.pos += 1
        replies = self.feed(line(msg))
        if not self.clean:
            return
        assert all(r["type"] != "error" for r in replies), replies
        self.served += replies
        if msg is END:
            assert self.logs["fuzz"].dumps() == BATCH_LOG.dumps()
            assert [r for r in self.served if r["type"] == "assist"] == ASSISTS
            assert sum(r.get("of") == "pair" for r in self.served) == COUNTS["pairs"]
            assert self.served[-1] == {"type": "ack", "of": "session_end", "counts": COUNTS}

    @rule(i=st.integers(0, len(RECORDS) - 1))
    def record(self, i: int) -> None:
        """Any record of the session: out of order, a duplicate, or after its end."""
        if self.clean and self.pos == i + 1:
            return self.next_line()
        was_open = self.open
        replies = self.feed(line(RECORDS[i]))
        if not was_open:
            assert [r.get("code") for r in replies] == [NO_SESSION]
        self.clean = False

    @rule(raws=st.lists(HOSTILE, min_size=1, max_size=4))
    def hostile(self, raws: list[bytes]) -> None:
        for raw in raws:
            was_open = self.open
            replies = self.feed(raw)
            refused = not raw.strip() or any(r.get("code") in REFUSALS for r in replies)
            if was_open and self.open and not refused:
                self.clean = False  # the engine took a record of no clean session

    @precondition(lambda self: self.open and self.pos < len(SESSION))
    @rule(data=st.data())
    def altered_next_line(self, data) -> None:
        """The open session's next line, altered; the engine may well take it."""
        msg = SESSION[self.pos]
        lines = altered(_choice([msg]))
        if msg["type"] == "frame":
            lines |= altered_frames(_choice([msg]))
        self.pos += 1
        self.hostile([data.draw(lines)])
        self.clean = False  # its own next line is lost or altered

    @rule()
    def fresh_session(self) -> None:
        """After whatever came before, a whole valid session serves like its replay."""
        self.feed(line(END))  # ends an open session, as it stands
        assert not self.open
        self.start()
        while self.clean:
            self.next_line()

    def teardown(self) -> None:
        self.fresh_session()


WireMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestWireFuzz = WireMachine.TestCase

# each hostile line once faulted the server; the fuzzer must keep finding it harmless
PINNED_5000_DIGIT_HAND_BOX_KEY = start_line(annotations={"hand_boxes": {"1" * 5000: []}})
# each was once echoed whole in an error reply of over 4 000 characters
X, DIGITS = "x" * 100_000, 10**3999
SEGMENT = {"start": 0.0, "end": 1.0, "step": "Sand the edges", "status": "in_progress"}
BOX = {"side": "left", "x": 0, "y": 0, "w": 1, "h": 1}
PINNED_LONG = {
    "message type": (False, line({"type": X})),
    "protocol": (False, start_line(protocol=X)),
    "segment status": (False, start_line(annotations={"segments": [{**SEGMENT, "status": X}]})),
    "interval step": (False, start_line(annotations={
        "segments": [SEGMENT], "proactive_intervals": [{**SEGMENT, "step": X}]})),
    "hand box side": (False, start_line(annotations={"hand_boxes": {"0": [{**BOX, "side": X}]}})),
    "hand box pair id": (False, start_line(annotations={
        "hand_boxes": {"9" * 4000: [{**BOX, "x": -1}]}})),
    "hand box x": (False, start_line(annotations={"hand_boxes": {"0": [{**BOX, "x": -DIGITS}]}})),
    "width": (False, start_line(width=-DIGITS)),
    "frame slot": (True, line({**FRAMES[0], "slot": X})),
    "frame pair id": (True, line({**FRAMES[0], "pair": DIGITS})),
}

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(opened=st.booleans(), raw=HOSTILE)
@example(opened=False, raw=PINNED_5000_DIGIT_HAND_BOX_KEY)
@example(*PINNED_LONG["message type"])
@example(*PINNED_LONG["protocol"])
@example(*PINNED_LONG["segment status"])
@example(*PINNED_LONG["interval step"])
@example(*PINNED_LONG["hand box side"])
@example(*PINNED_LONG["hand box pair id"])
@example(*PINNED_LONG["hand box x"])
@example(*PINNED_LONG["width"])
@example(*PINNED_LONG["frame slot"])
@example(*PINNED_LONG["frame pair id"])
def test_one_hostile_line_then_a_fresh_session_serves_like_replay(opened, raw):
    machine = WireMachine()
    if opened:
        machine.start()
    machine.hostile([raw])
    machine.teardown()


def test_a_5000_digit_hand_box_key_is_named():
    machine = WireMachine()
    (reply,) = machine.feed(PINNED_5000_DIGIT_HAND_BOX_KEY)
    assert reply["code"] == BAD_STREAM
    # the key is cut as jsontext.field cuts a value
    assert reply["detail"] == f"ValueError: hand_boxes['{'1' * 39}]: the key is not a pair id"


@pytest.mark.parametrize(
    "hand_boxes",
    [{"x" * 100_000: []}, {"1" * 100_000: []}, {"1" * 4300: 5}, {"1" * 4300: [{"x": "1"}]}],
    ids=["text", "digits", "boxes-not-an-array", "box-field"],
)
def test_a_refused_hand_box_key_is_cut_in_the_reply(hand_boxes):
    machine = WireMachine()
    (reply,) = machine.feed(start_line(annotations={"hand_boxes": hand_boxes}))
    assert reply["code"] == BAD_STREAM
    assert len(json.dumps(reply)) < 160


# -- the WireSession contract ----------------------------------------------------------


def test_a_blank_line_has_no_reply():
    wire = WireSession(SimpleNamespace(cfg=CONFIG), lambda: None)
    for raw in (b"", b"\n", b"  \r\n"):
        assert wire.feed(raw) == ([], True)


def test_an_engine_fault_is_one_internal_reply_and_one_on_fault_call(monkeypatch):
    def broken_detector(frame, detector):
        raise TypeError("detector crashed")

    monkeypatch.setattr(pipeline_module, "detect_hands", broken_detector)
    faults = []
    wire = WireSession(SimpleNamespace(cfg=CONFIG), lambda: faults.append(None))
    for msg in SESSION:
        replies, keep_open = wire.feed(line(msg))
        if any(r["type"] == "error" for r in replies):
            break
    assert keep_open and faults == [None]
    assert replies[-1]["code"] == INTERNAL and "detector crashed" in replies[-1]["detail"]
    assert [r for r in replies if r["type"] == "error"] == replies[-1:]
    assert wire.feed(line(START)) == (
        [{"type": "ack", "of": "session_start", "session_id": "fuzz"}], True)


class _Counted:
    """A module global with one function counted, the rest passed through."""

    def __init__(self, module, name: str, calls: list):
        self._module = module
        fn = getattr(module, name)
        setattr(self, name, lambda *args: calls.append(name) or fn(*args))

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def test_each_line_decodes_through_the_module_globals_the_tracer_wraps(monkeypatch):
    calls: list[str] = []
    monkeypatch.setattr(server_module, "json", _Counted(json, "loads", calls))
    monkeypatch.setattr(server_module, "base64", _Counted(base64, "b64decode", calls))
    monkeypatch.setattr(server_module, "read_pgm",
                        _Counted(server_module, "read_pgm", calls).read_pgm)
    wire = WireSession(SimpleNamespace(cfg=CONFIG, store_log=lambda *_: None), lambda: None)
    for msg in SESSION:
        before = len(calls)
        wire.feed(line(msg) + b"\n")
        expected = ["loads", "b64decode", "read_pgm"] if msg["type"] == "frame" else ["loads"]
        assert calls[before:] == expected, msg["type"]
    wire.feed(b"\n")
    wire.feed(b"not json\n")
    assert calls.count("loads") == len(SESSION) + 1
