import base64
import dataclasses
import json
import math
import socket
import struct
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from stepassist.harness import cli
from stepassist.harness.cli import main
from stepassist.harness import pipeline as pipeline_module
from stepassist.harness.config import DetectorSpec, PipelineConfig, ReasonerSpec
from stepassist.harness.client import record_message, stream_session
from stepassist.harness.events import DELIVERY, ERROR, KEY_MOMENT, REASONED, SAMPLED_PAIR
from stepassist.harness.pipeline import SessionPipeline, replay
from stepassist.harness.report import REPORT_FILE
from stepassist.harness.server import INTERNAL, PROTOCOL_VERSION, PipelineServer
from stepassist.jsontext import shown
from stepassist.motion import HandDetectionError
from stepassist.trace.io import (
    annotations_to_obj,
    header_to_obj,
    load_session,
    validate_session,
    write_session,
)
from stepassist.trace.pgm import write_pgm
from stepassist.trace.synthetic import (
    HandMove,
    HandTrack,
    PhaseSpec,
    StepPlan,
    generate_synthetic,
    standard_script,
)
from stepassist.trace.types import ExecutionStatus, ProactiveInterval

from conftest import KeepingServer, dead_endpoint, fixture_config, hanging_endpoint
from oracles import trace_pairs
from test_harness import interleaved_trace, shelf_script

SEGMENT_ANN = {
    "segments": [{"start": 0.0, "end": 1.0, "step": "A", "status": "in_progress"}],
    "proactive_intervals": [],
    "hand_boxes": {},
}


PGM_8X8 = base64.b64encode(write_pgm(np.zeros((8, 8), dtype=np.uint8))).decode()
# the records of a session that every rule accepts under start_message(): a gyro sample at
# t = 0 and two pairs, the second at t = 1.0, where SEGMENT_ANN's segment ends
VALID_RECORDS = [
    {"type": "imu", "t": 0.0, "gx": 0.0, "gy": 0.0, "gz": 0.0},
    *({"type": "frame", "t": t + dt, "pair": pair, "slot": slot, "data": PGM_8X8}
      for pair, t in ((0, 0.0), (1, 1.0)) for slot, dt in (("a", 0.0), ("b", 0.1))),
]
PAIR_ACKS = [{"type": "ack", "of": "pair", "pair": 0}, {"type": "ack", "of": "pair", "pair": 1}]


def start_message(**overrides):
    msg = {
        "type": "session_start",
        "protocol": PROTOCOL_VERSION,
        "session_id": "raw",
        "instruction": "demo",
        "width": 8,
        "height": 8,
        "pair_gap": 0.1,
        "annotations": SEGMENT_ANN,
    }
    msg.update(overrides)
    return msg


@pytest.fixture
def server():
    with KeepingServer(fixture_config()) as srv:
        yield srv


@contextmanager
def raw_client(server):
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10)
    rfile = sock.makefile("rb")
    wfile = sock.makefile("wb")

    def send(obj) -> None:
        data = obj if isinstance(obj, bytes) else json.dumps(obj).encode("utf-8")
        wfile.write(data + b"\n")
        wfile.flush()

    def recv():
        line = rfile.readline()
        return None if not line else json.loads(line.decode("utf-8"))

    try:
        yield send, recv
    finally:
        sock.close()


def delivered(log):
    return [
        (ev.t, ev.data["step"], ev.data["status"], ev.data["response"])
        for ev in log.of_kind(DELIVERY)
        if ev.data["deliver"]
    ]


# -- serving equals replaying ----------------------------------------------------


def test_streamed_session_matches_batch_replay(server):
    trace = generate_synthetic(shelf_script())
    host, port = server.address
    result = stream_session(trace, host, port, session_id="shelf")

    batch_log, _ = replay(trace, fixture_config())
    assert server.finished_logs["shelf"].dumps() == batch_log.dumps()

    assert [
        (a["t"], a["step"], a["status"], a["text"]) for a in result.assists
    ] == delivered(batch_log)
    assert result.pair_acks == len(trace_pairs(trace))
    assert result.errors == []
    assert result.end_counts == {
        "pairs": len(trace_pairs(trace)),
        "sampled_pairs": len(batch_log.of_kind(SAMPLED_PAIR)),
        "key_moments": len(batch_log.of_kind(KEY_MOMENT)),
        "reasoned": len(batch_log.of_kind(REASONED)),
        "deliveries": len(delivered(batch_log)),
        "errors": len(batch_log.of_kind(ERROR)),
    }


def test_session_with_its_own_pair_gap_serves_like_its_replay(server):
    trace = generate_synthetic(dataclasses.replace(standard_script(), pair_gap=0.2))
    host, port = server.address
    result = stream_session(trace, host, port, session_id="wide-gap")

    batch_log, _ = replay(trace, fixture_config())
    assert server.finished_logs["wide-gap"].dumps() == batch_log.dumps()
    assert result.errors == []
    assert len(batch_log.of_kind(SAMPLED_PAIR)) == 83
    assert result.end_counts["deliveries"] == len(delivered(batch_log)) == 12


def test_concurrent_sessions_stay_isolated(server):
    shelf = generate_synthetic(shelf_script())
    paint = generate_synthetic(
        shelf_script(
            steps=(
                StepPlan(
                    "Prime the wall",
                    (
                        PhaseSpec(ExecutionStatus.JUST_START, 1.0),
                        PhaseSpec(ExecutionStatus.IN_PROGRESS, 3.0),
                    ),
                    proactive=((1.0, 3.0),),
                ),
                StepPlan("Roll the paint", (PhaseSpec(ExecutionStatus.IN_PROGRESS, 4.0),)),
            ),
            instruction="paint the wall",
            hands=(HandTrack("right", 80, 28, (HandMove(0.0, 8.0, 0, 12),)),),
            seed=9,
        )
    )
    host, port = server.address
    failures = []

    def run(trace, sid):
        try:
            stream_session(trace, host, port, session_id=sid)
        except Exception as exc:  # surfaced after join
            failures.append((sid, exc))

    threads = [
        threading.Thread(target=run, args=(shelf, "shelf")),
        threading.Thread(target=run, args=(paint, "paint")),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert failures == []

    for trace, sid in ((shelf, "shelf"), (paint, "paint")):
        batch_log, _ = replay(trace, fixture_config())
        assert server.finished_logs[sid].dumps() == batch_log.dumps()


def test_one_connection_can_run_sessions_back_to_back(server):
    with raw_client(server) as (send, recv):
        send(start_message())
        assert recv()["of"] == "session_start"
        for record in VALID_RECORDS:
            send(record)
        send({"type": "session_end"})
        assert [recv(), recv()] == PAIR_ACKS
        end = recv()
        assert end["of"] == "session_end"
        assert end["counts"]["pairs"] == 2
        send(start_message(session_id="second"))
        ack = recv()
        assert ack["of"] == "session_start" and ack["session_id"] == "second"


# -- protocol faults -------------------------------------------------------------


def test_garbage_line_keeps_the_connection(server):
    with raw_client(server) as (send, recv):
        send(b"{not json")
        err = recv()
        assert err["type"] == "error" and err["code"] == "bad_json"
        send(start_message())
        assert recv()["of"] == "session_start"


def test_a_number_too_long_to_decode_keeps_the_connection(server):
    with raw_client(server) as (send, recv):
        send(b'{"type": "imu", "t": ' + b"1" * 5000 + b"}")
        assert recv()["code"] == "bad_json"
        send(start_message())
        assert recv()["of"] == "session_start"


def test_a_line_nested_too_deeply_keeps_the_connection(server):
    with raw_client(server) as (send, recv):
        send(b"[" * 100_000)
        err = recv()
        assert err["code"] == "bad_json" and "nested too deeply" in err["detail"]
        send(start_message())
        assert recv()["of"] == "session_start"


def test_untyped_and_unknown_messages_are_rejected(server):
    with raw_client(server) as (send, recv):
        send({"no_type": 1})
        assert recv()["code"] == "bad_message"
        send({"type": "telemetry"})
        err = recv()
        assert err["code"] == "bad_message" and "telemetry" in err["detail"]


def test_records_before_session_start_are_rejected(server):
    with raw_client(server) as (send, recv):
        send({"type": "imu", "t": 0.0, "gx": 0.0, "gy": 0.0, "gz": 0.0})
        assert recv()["code"] == "no_session"
        send(start_message())
        assert recv()["of"] == "session_start"


@pytest.mark.parametrize("protocol", [True, 1.0])
def test_a_protocol_of_another_json_type_is_a_mismatch(server, protocol):
    with raw_client(server) as (send, recv):
        send(start_message(protocol=protocol))
        assert recv()["code"] == "protocol_version"
        assert recv() is None


def test_protocol_mismatch_closes_the_connection(server):
    with raw_client(server) as (send, recv):
        send(start_message(protocol=2))
        err = recv()
        assert err["code"] == "protocol_version"
        assert "2" in err["detail"]
        assert recv() is None  # server hung up


@pytest.mark.parametrize("pair_gap", [0.5, 0.7, 0.0, -0.1, float("nan")])
def test_pair_gap_outside_the_burst_interval_is_a_stream_fault(server, pair_gap):
    # the fixture's burst interval is 0.5 s
    with raw_client(server) as (send, recv):
        send(start_message(pair_gap=pair_gap))
        err = recv()
        assert err["code"] == "bad_stream" and "pair gap" in err["detail"]
        send(start_message())  # the connection is still usable
        assert recv()["of"] == "session_start"


def off_gap_trace():
    """The shelf session with pair 0's frames 0.3 s apart under a 0.1 s pair gap."""
    trace = generate_synthetic(shelf_script())
    late_b = dataclasses.replace(trace.frames[1], timestamp=trace.frames[0].timestamp + 0.3)
    trace.frames = sorted(trace.frames[:1] + [late_b] + trace.frames[2:], key=lambda f: f.timestamp)
    return trace, late_b


def test_a_pair_off_the_session_gap_fails_replay_and_serve(server):
    # load_session refuses such a pair
    trace, late_b = off_gap_trace()
    assert [v.kind for v in validate_session(trace).violations] == ["pair_gap"]

    with pytest.raises(ValueError, match="pair gap"):
        replay(trace, fixture_config())

    with raw_client(server) as (send, recv):
        send(start_message(width=trace.width, height=trace.height, pair_gap=trace.pair_gap,
                           annotations=annotations_to_obj(trace)))
        assert recv()["of"] == "session_start"
        for record in trace.iter_sensor_records():
            send(record_message(record))
            if record is late_b:
                break
        reply = recv()
        while reply["type"] != "error":
            reply = recv()
        assert reply["code"] == "bad_stream" and "pair gap" in reply["detail"]


def test_a_dropped_session_ends_the_client_stream_at_once(server):
    trace, _ = off_gap_trace()
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="bad_stream: .*pair gap"):
        stream_session(trace, *server.address, timeout=10)
    assert time.monotonic() - started < 5


@pytest.mark.parametrize("reply", [b"[1]\n", b"[" * 100000 + b"\n"], ids=["array", "too-deep"])
def test_a_reply_that_is_not_a_json_object_ends_the_client_stream_at_once(monkeypatch, reply):
    # a peer that drains its input and answers one JSON array, or a line nested too deep
    thread_faults = []
    monkeypatch.setattr(threading, "excepthook", thread_faults.append)
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def answer_one_line():
            conn, _ = listener.accept()
            with conn:
                conn.sendall(reply)
                while conn.recv(1 << 16):
                    pass

        peer = threading.Thread(target=answer_one_line, daemon=True)
        peer.start()
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="session did not complete: connection closed"):
            stream_session(generate_synthetic(shelf_script()), *listener.getsockname(), timeout=10)
        assert time.monotonic() - started < 2
        peer.join(timeout=5)
    assert thread_faults == []


def test_a_server_that_stops_reading_names_the_stalled_session(standard_trace):
    # a peer with a small receive buffer that acks session_start and then reads nothing
    release = threading.Event()
    with socket.socket() as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # the accepted socket's too
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def ack_then_stall():
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()
                conn.sendall(b'{"type": "ack", "of": "session_start", "session_id": "stalled"}\n')
                release.wait(10)

        peer = threading.Thread(target=ack_then_stall, daemon=True)
        peer.start()
        started = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match=r"^session 'stalled' timed out after 0\.5s "
                               "sending to the server$"):
                stream_session(standard_trace, *listener.getsockname(), session_id="stalled",
                               timeout=0.5)
            assert time.monotonic() - started < 5
        finally:
            release.set()
            peer.join(timeout=5)


def test_a_server_that_never_acks_session_end_names_the_wait(monkeypatch):
    # a peer that acks the start and every pair, then after session_end keeps sending
    # pair acks, so the reader is never silent but no session_end ack comes
    thread_faults = []
    monkeypatch.setattr(threading, "excepthook", thread_faults.append)
    release = threading.Event()
    pair_ack = b'{"type": "ack", "of": "pair"}\n'
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def ack_all_but_the_end():
            conn, _ = listener.accept()
            with conn:
                for raw in conn.makefile("rb"):
                    msg = json.loads(raw)
                    if msg["type"] == "session_start":
                        conn.sendall(b'{"type": "ack", "of": "session_start"}\n')
                    elif msg["type"] == "frame" and msg["slot"] == "b":
                        conn.sendall(pair_ack)
                    elif msg["type"] == "session_end":
                        break
                while not release.wait(0.05):
                    conn.sendall(pair_ack)

        peer = threading.Thread(target=ack_all_but_the_end, daemon=True)
        peer.start()
        trace = generate_synthetic(shelf_script())
        started = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match=r"^session 'acked' timed out after 0\.5s "
                               "waiting for the session_end ack$"):
                stream_session(trace, *listener.getsockname(), session_id="acked", timeout=0.5)
            assert time.monotonic() - started < 5
        finally:
            release.set()
            peer.join(timeout=5)
    assert not peer.is_alive()
    assert thread_faults == []


def test_a_server_that_never_answers_names_the_silent_session(standard_trace):
    # a peer that drains its input and sends nothing; the paced send outlasts the timeout
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def drain():
            conn, _ = listener.accept()
            with conn:
                while conn.recv(1 << 16):
                    pass

        peer = threading.Thread(target=drain, daemon=True)
        peer.start()
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=r"^session 'silent' timed out after 0\.5s "
                           "waiting for a reply$"):
            stream_session(standard_trace, *listener.getsockname(), session_id="silent",
                           timeout=0.5, pace=True)
        assert time.monotonic() - started < 5
        peer.join(timeout=5)
        assert not peer.is_alive()


def test_interleaved_pairs_are_a_stream_fault(server):
    with pytest.raises(RuntimeError, match="bad_stream: .*pair 0 has no slot b"):
        stream_session(interleaved_trace(), *server.address, timeout=10)


def break_rule(trace, case):
    """Break one rule that needs no sensor record in the shelf session."""
    segments, boxes = trace.segments, next(iter(trace.hand_boxes.values()))
    if case == "empty_instruction":
        trace.instruction = "  "
    elif case == "bad_geometry":
        trace.width = 0
    elif case.startswith("bad_pair_gap"):
        trace.pair_gap = {"bad_pair_gap": 0.0, "bad_pair_gap-nan": math.nan,
                          "bad_pair_gap-inf": math.inf}[case]
    elif case == "segment_order":
        segments[1], segments[2] = segments[2], segments[1]
    elif case == "segment_overlap":
        segments[1] = dataclasses.replace(segments[1], start=segments[0].end - 0.5)
    elif case == "interval_step":
        trace.proactive_intervals.append(ProactiveInterval(0.0, 1.0, "Paint the fence"))
    elif case == "interval_coverage":
        # names a real step but lies over the other step's span
        trace.proactive_intervals.append(ProactiveInterval(5.0, 6.0, segments[0].step))
    else:
        boxes[0]["x"] = trace.width - 1
    return case.split("-")[0]


@pytest.mark.parametrize(
    "case",
    ["empty_instruction", "bad_geometry", "bad_pair_gap", "bad_pair_gap-nan", "bad_pair_gap-inf",
     "segment_order", "segment_overlap", "interval_step", "interval_coverage", "hand_box_bounds"],
)
def test_validation_replay_and_serve_refuse_the_same_header(server, case):
    trace = generate_synthetic(shelf_script())
    kind = break_rule(trace, case)
    message = next(v.message for v in validate_session(trace).violations if v.kind == kind)

    with pytest.raises(ValueError) as err:
        SessionPipeline(fixture_config(), trace)
    assert str(err.value) == message

    with raw_client(server) as (send, recv):
        send(start_message(**header_to_obj(trace), annotations=annotations_to_obj(trace)))
        err = recv()
        assert err["code"] == "bad_stream" and err["detail"] == f"ValueError: {message}"
        send(start_message())  # the connection is still usable
        assert recv()["of"] == "session_start"


def test_clients_that_reset_end_their_handlers_quietly(server, monkeypatch):
    tcp = server._tcp
    faults, closed = [], []
    monkeypatch.setattr(tcp, "handle_error", lambda request, address: faults.append(address))
    shutdown_request = tcp.shutdown_request

    def record_close(request):
        closed.append(request)
        shutdown_request(request)

    monkeypatch.setattr(tcp, "shutdown_request", record_close)
    trace = generate_synthetic(shelf_script())
    start = start_message(**header_to_obj(trace), annotations=annotations_to_obj(trace))
    lines = [start] + [record_message(r) for r in list(trace.iter_sensor_records())[:60]]
    payload = b"".join(json.dumps(m).encode("utf-8") + b"\n" for m in lines)
    for _ in range(5):
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(payload)
        # linger 0: close sends a reset, not a graceful end of stream
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
    deadline = time.monotonic() + 10
    while len(closed) < 5 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(closed) == 5 and faults == []

    result = stream_session(trace, *server.address, session_id="after-resets")
    assert result.errors == [] and result.pair_acks == len(trace_pairs(trace))


def test_second_session_start_is_refused_while_open(server):
    with raw_client(server) as (send, recv):
        send(start_message())
        assert recv()["of"] == "session_start"
        send(start_message(session_id="other"))
        assert recv()["code"] == "session_active"


def test_corrupt_stream_drops_the_session(server):
    with raw_client(server) as (send, recv):
        send(start_message())
        assert recv()["of"] == "session_start"
        send({"type": "imu", "t": 0.0, "gx": 0.0, "gy": 0.0, "gz": 0.0})
        send({"type": "imu", "t": 1.0, "gx": 0.0, "gy": 0.0, "gz": 0.0})
        send({"type": "imu", "t": 0.5, "gx": 0.0, "gy": 0.0, "gz": 0.0})
        err = recv()
        assert err["code"] == "bad_stream" and "timestamp order" in err["detail"]
        send({"type": "imu", "t": 2.0, "gx": 0.0, "gy": 0.0, "gz": 0.0})
        assert recv()["code"] == "no_session"


def test_non_finite_records_are_stream_faults(server):
    pgm = base64.b64encode(write_pgm(np.zeros((8, 8), dtype=np.uint8))).decode()
    bad_records = (
        b'{"type": "imu", "t": NaN, "gx": 0.0, "gy": 0.0, "gz": 0.0}',
        b'{"type": "imu", "t": 0.0, "gx": Infinity, "gy": 0.0, "gz": 0.0}',
        b'{"type": "frame", "t": NaN, "pair": 0, "slot": "a", "data": "%s"}' % pgm.encode(),
    )
    with raw_client(server) as (send, recv):
        for record in bad_records:
            send(start_message())
            assert recv()["of"] == "session_start"
            send(record)
            err = recv()
            assert err["code"] == "bad_stream" and "non-finite" in err["detail"]
        send(start_message())  # the connection is still usable
        assert recv()["of"] == "session_start"


@pytest.mark.parametrize(
    "record",
    [
        {"type": "imu", "t": 10**400, "gx": 0.0, "gy": 0.0, "gz": 0.0},
        {"type": "frame", "t": 0.0, "pair": 1e400, "slot": "a", "data": PGM_8X8},
        {"type": "frame", "t": 0.0, "pair": 0, "slot": "a",
         "data": base64.b64encode(b"P2 2 1 255 1 99999999999999999999").decode()},
    ],
    ids=["imu-time", "pair-id", "p2-sample"],
)
def test_numbers_that_overflow_are_stream_faults(server, record):
    with raw_client(server) as (send, recv):
        send(start_message())
        assert recv()["of"] == "session_start"
        send(record)
        assert recv()["code"] == "bad_stream"
        send(start_message())  # the connection is still usable
        assert recv()["of"] == "session_start"


@pytest.mark.parametrize(
    "record",
    [
        {"type": "imu", "t": "1.0", "gx": 0.0, "gy": 0.0, "gz": 0.0},
        {"type": "frame", "t": 0.0, "pair": True, "slot": "a", "data": PGM_8X8},
        {"type": "frame", "t": 0.0, "pair": 2.5, "slot": "a", "data": PGM_8X8},
    ],
    ids=["imu-time-text", "pair-bool", "pair-fraction"],
)
def test_a_record_field_of_the_wrong_json_type_is_a_stream_fault(server, record):
    with raw_client(server) as (send, recv):
        send(start_message())
        assert recv()["of"] == "session_start"
        send({"type": "imu", "t": 0.0, "gx": 0.0, "gy": 0.0, "gz": 0.0})
        send(record)
        send(start_message())  # refused as session_active if the record were taken
        err = recv()
        assert err["code"] == "bad_stream" and "must be a" in err["detail"]
        assert recv()["of"] == "session_start"


def test_a_record_far_past_the_last_is_a_stream_fault(server):
    with raw_client(server) as (send, recv):
        send(start_message())
        assert recv()["of"] == "session_start"
        send({"type": "imu", "t": 0.0, "gx": 0.0, "gy": 0.0, "gz": 0.0})
        send({"type": "imu", "t": 1e9, "gx": 0.0, "gy": 0.0, "gz": 0.0})
        err = recv()
        assert err["code"] == "bad_stream" and "over 60.0s after t=0.0" in err["detail"]
        send(start_message())
        assert recv()["of"] == "session_start"


def test_malformed_annotation_segment_is_a_stream_fault(server):
    bad = dict(SEGMENT_ANN, segments=[dict(SEGMENT_ANN["segments"][0], status="half_done")])
    with raw_client(server) as (send, recv):
        send(start_message(annotations=bad))
        err = recv()
        assert err["code"] == "bad_stream" and "segment 0:" in err["detail"]
        send(start_message())
        assert recv()["of"] == "session_start"
        for record in VALID_RECORDS:
            send(record)
        send({"type": "session_end"})
        assert [recv(), recv()] == PAIR_ACKS
        assert recv()["of"] == "session_end"


@pytest.mark.parametrize(
    "overrides, detail",
    [
        ({"instruction": None}, "instruction must be a string, got None"),
        ({"width": "abc"}, "width must be an integer, got 'abc'"),
        ({"width": 320.9}, "width must be an integer, got 320.9"),
        ({"height": True}, "height must be an integer, got True"),
        ({"pair_gap": "0.1"}, "pair_gap must be a number, got '0.1'"),
        ({"annotations": dict(SEGMENT_ANN, hand_boxes={"0": [
            {"side": "left", "x": "abc", "y": 0, "w": 4, "h": 4}]})}, "hand_boxes['0']:"),
        ({"annotations": dict(SEGMENT_ANN, hand_boxes={"0": [
            {"side": "left", "x": 0, "y": 0, "w": 4}]})}, "hand_boxes['0'] missing key 'h'"),
        ({"annotations": dict(SEGMENT_ANN, hand_boxes={"0": [
            {"side": "up", "x": 0, "y": 0, "w": 4, "h": 4}]})},
         "hand_boxes['0']: side must be left/right/unknown, got 'up'"),
        ({"annotations": dict(SEGMENT_ANN, segments=5)}, "segments must be a JSON array"),
        ({"annotations": dict(SEGMENT_ANN, proactive_intervals=5)},
         "proactive_intervals must be a JSON array"),
        ({"annotations": dict(SEGMENT_ANN, hand_boxes=5)}, "hand_boxes must be a JSON object"),
        ({"annotations": dict(SEGMENT_ANN, hand_boxes=[1])}, "hand_boxes must be a JSON object"),
    ],
    ids=["instruction-null", "width-text", "width-fraction", "height-bool", "pair-gap-text",
         "hand-box-x-text", "hand-box-no-h", "hand-box-side-up", "segments-number",
         "intervals-number", "hand-boxes-number", "hand-boxes-array"],
)
def test_a_header_field_that_does_not_convert_is_a_stream_fault(server, overrides, detail):
    with raw_client(server) as (send, recv):
        send(start_message(**overrides))
        err = recv()
        assert err["code"] == "bad_stream" and detail in err["detail"]
        send(start_message())
        assert recv()["of"] == "session_start"


@pytest.mark.parametrize("annotations", [[], False, ""])
def test_annotations_that_are_not_an_object_are_refused_not_read_as_empty(server, annotations):
    with raw_client(server) as (send, recv):
        send(start_message(annotations=annotations))
        err = recv()
        assert err["code"] == "bad_stream" and "annotations must be a JSON object" in err["detail"]


def test_frame_geometry_mismatch_is_a_stream_fault(server):
    with raw_client(server) as (send, recv):
        send(start_message())
        assert recv()["of"] == "session_start"
        pgm = base64.b64encode(write_pgm(np.zeros((16, 16), dtype=np.uint8)))
        send({"type": "frame", "t": 0.0, "pair": 0, "slot": "a", "data": pgm.decode()})
        err = recv()
        assert err["code"] == "bad_stream" and "geometry" in err["detail"]


def test_oracle_sessions_need_annotations(server):
    with raw_client(server) as (send, recv):
        send(start_message(annotations=None))
        err = recv()
        assert err["code"] == "bad_stream" and "segment" in err["detail"]


def test_engine_fault_drops_the_session_and_keeps_the_socket(server, monkeypatch):
    # a TypeError inside the engine is an engine fault too, not a malformed stream
    for fault in (HandDetectionError("detector crashed"), TypeError("detector crashed")):
        def broken_detector(frame, detector):
            raise fault

        monkeypatch.setattr(pipeline_module, "detect_hands", broken_detector)
        with raw_client(server) as (send, recv):
            send(start_message())
            assert recv()["of"] == "session_start"
            for record in VALID_RECORDS:
                send(record)
            assert [recv(), recv()] == PAIR_ACKS
            send({"type": "session_end"})  # resolving pair 0 runs the detector
            err = recv()
            assert err["code"] == INTERNAL and "detector crashed" in err["detail"]
            send({"type": "imu", "t": 0.2, "gx": 0.0, "gy": 0.0, "gz": 0.0})
            assert recv()["code"] == "no_session"
            send(start_message(session_id="second"))
            ack = recv()
            assert ack["of"] == "session_start" and ack["session_id"] == "second"


def assert_each_moment_dropped(reasoner: ReasonerSpec):
    trace = generate_synthetic(shelf_script())
    with PipelineServer(fixture_config(reasoner=reasoner)) as srv:
        host, port = srv.address
        result = stream_session(trace, host, port, session_id="dead")
    counts = result.end_counts
    assert result.errors == [] and result.assists == []
    assert result.pair_acks == len(trace_pairs(trace))
    assert counts["key_moments"] > 0
    assert counts["errors"] == counts["key_moments"]
    assert counts["reasoned"] == counts["deliveries"] == 0


def test_dead_reasoner_endpoint_still_ends_the_session():
    assert_each_moment_dropped(ReasonerSpec(kind="remote", endpoint=dead_endpoint()))


def test_hanging_reasoner_endpoint_still_ends_the_session():
    with hanging_endpoint() as endpoint:
        assert_each_moment_dropped(ReasonerSpec(kind="remote", endpoint=endpoint, timeout=0.2))


# -- command line -----------------------------------------------------------------


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    trace = generate_synthetic(shelf_script())
    return write_session(trace, tmp_path_factory.mktemp("cli") / "shelf-session")


REPLAY_FLAGS = ["--smoothing-window", "0.25", "--search-radius", "15"]


def test_cli_generate_and_replay(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path / "sess"), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "wrote session" in out
    trace = load_session(tmp_path / "sess")
    assert trace.duration == 72.1

    assert (
        main(
            ["replay", "--session", str(tmp_path / "sess"), "--out", str(tmp_path / "rep")]
            + REPLAY_FLAGS
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "step_acc" in out and "1.0000" in out
    assert "deliveries" in out
    assert (tmp_path / "rep" / REPORT_FILE).exists()


def test_cli_eval_recomputes_saved_reports(tmp_path, capsys, session_dir):
    assert (
        main(
            ["replay", "--session", str(session_dir), "--out", str(tmp_path / "rep")]
            + REPLAY_FLAGS
        )
        == 0
    )
    capsys.readouterr()
    assert (
        main(["eval", "--report", str(tmp_path / "rep"), "--session", str(session_dir)]) == 0
    )
    out = capsys.readouterr().out
    assert "step_acc" in out and "sts" in out


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory, session_dir):
    out = tmp_path_factory.mktemp("cli") / "rep"
    assert main(["replay", "--session", str(session_dir), "--out", str(out)] + REPLAY_FLAGS) == 0
    return out


def damaged_report(report_dir, tmp_path, damage):
    """A copy of the saved report.json with ``damage`` applied to its events."""
    payload = json.loads((report_dir / REPORT_FILE).read_text())
    damage(payload["events"])
    path = tmp_path / REPORT_FILE
    path.write_text(json.dumps(payload))
    return path


def drop_first_kind(events):
    del events[0]["kind"]


def proactive_as_text(events):
    for ev in events:
        if ev["kind"] == "reasoned":
            ev["data"]["proactive"] = "yes" if ev["data"]["proactive"] else "no"


def nan_fifth_time(events):
    events[5]["t"] = math.nan  # json writes the non-JSON literal NaN, and reads it back


def fifth_time_before_fourth(events):
    events[5]["t"] = events[4]["t"] - 1.0


def bogus_fifth_kind(events):
    events[5]["kind"] = "bogus"


def first_status_done(events):
    next(ev for ev in events if ev["kind"] == "reasoned")["data"]["status"] = "done"


@pytest.mark.parametrize(
    "damage, message",
    [
        (drop_first_kind, "report.json: event 0 missing key 'kind'"),
        (proactive_as_text, "proactive must be a boolean, got 'no'"),
        (nan_fifth_time, "report.json: event 5: event time must be finite, got nan"),
        (fifth_time_before_fourth, "report.json: event 5: event timestamps must be non-decreasing"),
        (bogus_fifth_kind, "report.json: event 5: unknown event kind 'bogus'"),
        (first_status_done, "unknown execution status 'done'"),
    ],
)
def test_cli_eval_refuses_a_damaged_report(tmp_path, capsys, session_dir, report_dir,
                                           damage, message):
    report = damaged_report(report_dir, tmp_path, damage)
    capsys.readouterr()
    assert main(["eval", "--report", str(report), "--session", str(session_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # a fault found while loading or while scoring names the file
    assert captured.err.startswith(f"stepassist: error: {report}: ") and message in captured.err
    assert len(captured.err.splitlines()) == 1


def test_cli_input_faults_exit_2_with_one_line(tmp_path, capsys, session_dir):
    config = tmp_path / "run.json"
    config.write_text("{not json")
    assert main(["replay", "--session", str(session_dir), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"stepassist: error: {config}: Expecting property name")

    # a file of the wrong shape, with a flag to lay over it
    for text, message in [("[1]", "config must be an object, got [1]"),
                          ('{"sampler": 5}', "config sampler must be an object, got 5")]:
        config.write_text(text)
        argv = ["replay", "--session", str(session_dir), "--config", str(config), "--tau-s", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"stepassist: error: {message}\n"

    # a range check and the corpus look-up show a huge value cut
    for obj, message in [({"checker": {"window": -(10**3999)}}, "window must be at least 1"),
                         ({"corpus_dir": "c" * 100000}, "corpus directory 'ccc")]:
        config.write_text(json.dumps(obj))
        assert main(["replay", "--session", str(session_dir), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"stepassist: error: {message}") and len(err) < 1000
        assert len(err.splitlines()) == 1

    # an endpoint that is no http:// or https:// URL with a host and a numeric port is
    # refused before any session, by replay and serve alike
    for endpoint in ["localhost:9", "http://", "http://127.0.0.1:notaport/", "ftp://127.0.0.1:9/"]:
        for command in [["replay", "--session", str(session_dir)], ["serve", "--port", "0"]]:
            assert main(command + ["--reasoner", "remote", "--endpoint", endpoint]) == 2
            assert capsys.readouterr().err == f"stepassist: error: endpoint {endpoint!r} is not " \
                "an http:// or https:// URL with a host and a numeric port\n"

    # a number that is not finite, a timeout that is not positive and a corpus with no
    # usable guideline are refused when the config is built, by replay and serve alike
    (empty := tmp_path / "empty").mkdir()
    (undecodable := tmp_path / "undecodable").mkdir()
    (undecodable / "tea.txt").write_bytes(b"\xff")
    remote = '"kind": "remote", "endpoint": "http://127.0.0.1:9/"'
    for text, flags, message in [
        ("{}", ["--tau-s", "nan"], "config key sampler.tau_s must be finite, got nan\n"),
        ('{"key_moment": {"tau_f": -Infinity}}', [],
         "config key key_moment.tau_f must be finite, got -inf\n"),
        ('{"reasoner": {%s, "timeout": 1e999}}' % remote, [],
         "config key reasoner.timeout must be finite, got inf\n"),
        ('{"reasoner": {%s, "timeout": -1}}' % remote, [],
         "reasoner timeout must be positive, got -1\n"),
        ('{"reasoner": {%s, "timeout": 0}}' % remote, [],
         "reasoner timeout must be positive, got 0\n"),
        ('{"structurer": {"timeout": 0.0}}', [], "structurer timeout must be positive, got 0.0\n"),
        ("{}", ["--corpus", str(empty)], f"corpus directory {shown(str(empty))} holds no "
         "guideline\n"),
        ("{}", ["--corpus", str(undecodable)],
         f"{undecodable / 'tea.txt'}: 'utf-8' codec can't decode byte 0xff"),
    ]:
        config.write_text(text)
        for command in [["replay", "--session", str(session_dir)], ["serve", "--port", "0"]]:
            assert main(command + ["--config", str(config)] + flags) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"stepassist: error: {message}")
            assert len(err.splitlines()) == 1

    broken = write_session(load_session(session_dir), tmp_path / "broken")
    manifest = json.loads((broken / "manifest.json").read_text())
    manifest["width"] = 320.9
    (broken / "manifest.json").write_text(json.dumps(manifest))
    assert main(["replay", "--session", str(broken)] + REPLAY_FLAGS) == 2
    err = capsys.readouterr().err
    assert err == f"stepassist: error: {broken / 'manifest.json'}: width must be an integer, " \
        "got 320.9\n"


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--report", "{missing}", "--session", "{session}"],
        ["replay", "--session", "{session}", "--config", "{missing}"],
        ["retrieve", "--corpus", "{missing}", "--instruction", "brew tea"],
    ],
)
def test_cli_missing_input_file_exits_2_with_one_line(tmp_path, capsys, session_dir, command):
    missing = tmp_path / "missing"
    argv = [a.format(missing=missing, session=session_dir) for a in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("stepassist: error: ") and str(missing) in captured.err
    assert len(captured.err.splitlines()) == 1


def test_cli_send_streams_to_a_live_server(capsys, session_dir):
    with PipelineServer(fixture_config()) as srv:
        host, port = srv.address
        code = main(
            ["send", "--session", str(session_dir), "--host", host, "--port", str(port)]
        )
    assert code == 0
    out = capsys.readouterr().out
    assert "finished:" in out and "deliveries=1" in out


def send_without_annotations(cfg, session_dir):
    with PipelineServer(cfg) as srv:
        host, port = srv.address
        return main(["send", "--session", str(session_dir), "--host", host, "--port", str(port),
                     "--no-annotations"])


def test_cli_send_of_a_session_the_server_drops_exits_2_with_one_line(capsys, session_dir):
    # the oracle reasons from the annotations, so the server drops a session without them
    assert send_without_annotations(fixture_config(), session_dir) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("stepassist: error: session did not complete: bad_stream: ")
    assert len(captured.err.splitlines()) == 1


def test_cli_send_without_annotations_to_a_remote_reasoner_finishes(capsys, session_dir):
    # no hand boxes to read either, so the hands are found in the frames
    cfg = fixture_config(reasoner=ReasonerSpec(kind="remote", endpoint=dead_endpoint()),
                         detector=DetectorSpec(kind="synthetic"))
    assert send_without_annotations(cfg, session_dir) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"session {session_dir.name} finished: ")
    counts = dict(kv.split("=") for kv in last.split(": ", 1)[1].split())
    assert int(counts["errors"]) == int(counts["key_moments"]) > 0


def test_cli_retrieve_names_a_document_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "tea.txt").write_text("Boil water. Steep the tea.")
    (tmp_path / "broken.txt").write_bytes(b"Boil \xff water.")
    assert main(["retrieve", "--corpus", str(tmp_path), "--instruction", "brew tea"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"stepassist: error: {tmp_path / 'broken.txt'}: 'utf-8' codec")
    assert len(captured.err.splitlines()) == 1


def test_cli_serve_interrupted_while_announcing_closes_its_socket(monkeypatch):
    # the interrupt lands before any serve loop has started
    announced = []

    def interrupted_print(*args, **kwargs):
        line = " ".join(str(a) for a in args)
        if line.startswith("listening on "):
            announced.append(line.split()[-1])
            raise KeyboardInterrupt

    monkeypatch.setattr(cli, "print", interrupted_print, raising=False)
    codes = []
    runner = threading.Thread(
        target=lambda: codes.append(main(["serve", "--port", "0"])), daemon=True
    )
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive()
    assert codes == [0]
    host, port = announced[0].rsplit(":", 1)
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, int(port)), timeout=2).close()


class CapturedServer:
    """Stands in for PipelineServer: records the config and serves nothing."""

    configs = []

    def __init__(self, cfg, host, port):
        self.configs.append(cfg)
        self.address = (host, port)

    def serve_forever(self):
        pass


def test_cli_sets_every_config_flag(tmp_path, monkeypatch, capsys, corpus_dir):
    # flag -> (value, config field it must set, that field's value)
    expected = {
        "--tau-s": ("0.7", lambda c: c.sampler.tau_s, 0.7),
        "--normal-interval": ("2.0", lambda c: c.sampler.normal_interval, 2.0),
        "--burst-interval": ("0.8", lambda c: c.sampler.burst_interval, 0.8),
        "--smoothing-window": ("0.4", lambda c: c.sampler.smoothing_window, 0.4),
        "--tau-f": ("12.5", lambda c: c.key_moment.tau_f, 12.5),
        "--stationary-threshold": ("2.5", lambda c: c.key_moment.stationary_threshold, 2.5),
        "--block": ("6", lambda c: c.flow.block, 6),
        "--search-radius": ("9", lambda c: c.flow.search_radius, 9),
        "--window": ("9", lambda c: c.checker.window, 9),
        "--tau-c": ("0.75", lambda c: c.checker.tau_c, 0.75),
        "--min-window": ("4", lambda c: c.checker.min_window, 4),
        "--reasoner": ("remote", lambda c: c.reasoner.kind, "remote"),
        "--endpoint": ("http://127.0.0.1:9/chat", lambda c: c.reasoner.endpoint,
                       "http://127.0.0.1:9/chat"),
        "--model": ("tiny", lambda c: c.reasoner.model, "tiny"),
        "--detector": ("synthetic", lambda c: c.detector.kind, "synthetic"),
        "--corpus": (str(corpus_dir), lambda c: c.corpus_dir, str(corpus_dir)),
        "--step-error-rate": ("0.1", lambda c: c.reasoner.oracle.step_error_rate, 0.1),
        "--status-error-rate": ("0.2", lambda c: c.reasoner.oracle.status_error_rate, 0.2),
        "--flip-rate": ("0.3", lambda c: c.reasoner.oracle.proactive_flip_rate, 0.3),
        "--oracle-seed": ("7", lambda c: c.reasoner.oracle.seed, 7),
    }
    assert set(expected) == {flag for flag, _, _ in cli._CONFIG_FLAGS}
    argv = ["serve", "--port", "0"]
    for flag, (value, _, _) in expected.items():
        argv += [flag] if value is None else [flag, value]
    monkeypatch.setattr(cli, "PipelineServer", CapturedServer)
    CapturedServer.configs.clear()
    assert main(argv) == 0
    cfg = CapturedServer.configs[0]
    default = PipelineConfig()
    for flag, (_, field, want) in expected.items():
        assert field(default) != want, flag
        assert field(cfg) == want, flag

    # flags lay over a config file without dropping its other keys
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"reasoner": {"oracle": {"seed": 3}}, "flow": {"block": 4}}))
    assert main(["serve", "--config", str(path), "--flip-rate", "0.5", "--block", "5"]) == 0
    cfg = CapturedServer.configs[1]
    assert (cfg.reasoner.oracle.seed, cfg.reasoner.oracle.proactive_flip_rate) == (3, 0.5)
    assert cfg.flow.block == 5
    capsys.readouterr()


def test_cli_retrieve_reports_the_matched_guideline(capsys, corpus_dir):
    code = main(
        [
            "retrieve",
            "--corpus",
            str(corpus_dir),
            "--instruction",
            "brew a cup of tea",
            "--structure",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("tea ")
    assert "Task: Brew tea" in out
    assert "4. Pour water [after 2, 3]" in out
