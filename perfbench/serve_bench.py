"""Open-loop serve workload: serve-live.

One process streams two sessions at once to a ``stepassist serve``
subprocess over two connections, using two threads: the main thread sleeps
until each record is due and writes it, a second thread reads both sockets.
A record is due at its session timestamp divided by ``SPEEDUP``; the second
session starts half a frame-grid step after the first. Every latency is
timed from when its record was due, so a stall also delays what is queued
behind it. The server reasons through a mock chat endpoint in its own
process; the served assists and end counts must equal an untimed in-process
``replay()`` of the same session against the same mock.
"""
from __future__ import annotations

import json
import selectors
import socket
import threading
import time
import urllib.request
from pathlib import Path

from stepassist.harness import pipeline
from stepassist.harness.client import record_message
from stepassist.harness.events import DELIVERY, ERROR, KEY_MOMENT, REASONED, SAMPLED_PAIR
from stepassist.harness.server import PROTOCOL_VERSION
from stepassist.trace.io import load_session, write_session
from stepassist.trace.synthetic import generate_synthetic
from stepassist.trace.types import FrameRecord

from common import (
    BENCH_DIR,
    Result,
    cpu_seconds,
    live_script,
    median,
    pct,
    peak_rss_mib,
    remote_config,
    serve_flags,
    spawn_listening,
    stamp_frames,
    stop,
)
from mock_chat import DELAY_S as MOCK_DELAY_S
from tracer import Tracer, layer_report, load_dump

# session-seconds streamed per wall-second on each connection; at 8x the
# seed server is about half busy
SPEEDUP = 8.0
SECOND_SESSION_LAG = 0.25  # session-seconds: half the 0.5 s frame grid
CONNECTIONS = 2
KITCHEN_STEP_S = 12.0
SPAWNS_EACH_SIDE = 3  # extra server start-ups timed before and after the leg
END_TIMEOUT_S = 90.0
COUNT_KEYS = ("pairs", "sampled_pairs", "key_moments", "reasoned", "deliveries", "errors")


def _expected(trace, log) -> tuple[list[tuple], dict[str, int]]:
    """Assists and end-of-session counts the server should send for this session."""
    delivered = [ev for ev in log.of_kind(DELIVERY) if ev.data.get("deliver")]
    assists = [(ev.t, ev.data["step"], ev.data["status"], ev.data["response"]) for ev in delivered]
    counts = {
        "pairs": len(trace.frames) // 2,
        "sampled_pairs": len(log.of_kind(SAMPLED_PAIR)),
        "key_moments": len(log.of_kind(KEY_MOMENT)),
        "reasoned": len(log.of_kind(REASONED)),
        "deliveries": len(delivered),
        "errors": len(log.of_kind(ERROR)),
    }
    return assists, counts


def _start_message(trace, session_id: str) -> bytes:
    msg = {
        "type": "session_start",
        "protocol": PROTOCOL_VERSION,
        "session_id": session_id,
        "instruction": trace.instruction,
        "width": trace.width,
        "height": trace.height,
        "pair_gap": trace.pair_gap,
        "annotations": {
            "segments": [
                {"start": s.start, "end": s.end, "step": s.step, "status": s.status.value}
                for s in trace.segments
            ],
            "proactive_intervals": [
                {"start": iv.start, "end": iv.end, "step": iv.step}
                for iv in trace.proactive_intervals
            ],
            "hand_boxes": {str(pid): boxes for pid, boxes in trace.hand_boxes.items()},
        },
    }
    return json.dumps(msg).encode("utf-8") + b"\n"


class Plan:
    """Every line of one session, encoded before any timing starts.

    A frame line is kept as (head, base64 data, tail) so identical images
    share one encoded copy; ``times`` holds each line's session timestamp.
    """

    def __init__(self, trace) -> None:
        self.starts = [_start_message(trace, f"live-{k}") for k in range(CONNECTIONS)]
        self.lines: list[tuple[bytes, ...]] = []
        self.times: list[float] = []
        self.b_time: dict[int, float] = {}
        shared: dict[str, bytes] = {}
        for record in trace.iter_sensor_records():
            msg = record_message(record)
            if isinstance(record, FrameRecord):
                data = msg.pop("data")
                blob = shared.setdefault(data, data.encode("ascii"))
                head = json.dumps(msg)[:-1].encode("utf-8") + b', "data": "'
                self.lines.append((head, blob, b'"}\n'))
                if record.slot == "b":
                    self.b_time[record.pair_id] = record.timestamp
            else:
                self.lines.append((json.dumps(msg).encode("utf-8") + b"\n",))
            self.times.append(record.timestamp)
        self.lines.append((b'{"type": "session_end"}\n',))
        self.times.append(self.times[-1])
        self.duration = trace.duration
        self.pairs = len(self.b_time)


class _Receiver(threading.Thread):
    """Reads both connections; stamps every reply with its arrival time."""

    def __init__(self, socks: list[socket.socket]) -> None:
        super().__init__(daemon=True)
        self.socks = socks
        self.replies: list[list[tuple[float, dict]]] = [[] for _ in socks]
        self.started = threading.Event()
        self.done = threading.Event()
        self.stop_flag = False

    def run(self) -> None:
        sel = selectors.DefaultSelector()
        for c, sock in enumerate(self.socks):
            sel.register(sock, selectors.EVENT_READ, c)
        buffers = [b""] * len(self.socks)
        open_count, started, ended = len(self.socks), 0, 0
        try:
            while open_count and ended < len(self.socks) and not self.stop_flag:
                for key, _ in sel.select(timeout=0.5):
                    c = key.data
                    chunk = key.fileobj.recv(1 << 16)
                    now = time.perf_counter()
                    if not chunk:
                        sel.unregister(key.fileobj)
                        open_count -= 1
                        continue
                    *lines, buffers[c] = (buffers[c] + chunk).split(b"\n")
                    for line in lines:
                        msg = json.loads(line)
                        self.replies[c].append((now, msg))
                        if msg.get("type") == "ack" and msg.get("of") == "session_start":
                            started += 1
                            if started == len(self.socks):
                                self.started.set()
                        elif msg.get("type") == "ack" and msg.get("of") == "session_end":
                            ended += 1
        finally:
            sel.close()
            self.started.set()
            self.done.set()


def _stream(port: int, plan: Plan) -> dict:
    """Run both sessions against a server on ``port``; return raw timings and replies."""
    socks = [socket.create_connection(("127.0.0.1", port), timeout=END_TIMEOUT_S)
             for _ in range(CONNECTIONS)]
    receiver = _Receiver(socks)
    try:
        for sock in socks:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        receiver.start()
        for sock, start in zip(socks, plan.starts):
            sock.sendall(start)
        receiver.started.wait(END_TIMEOUT_S)

        lag = [k * SECOND_SESSION_LAG / SPEEDUP for k in range(CONNECTIONS)]
        rel = [t / SPEEDUP for t in plan.times]
        n = len(rel)
        late: list[float] = []
        t0 = time.perf_counter() + 0.05
        nxt = [0] * CONNECTIONS
        while True:
            pending = [c for c in range(CONNECTIONS) if nxt[c] < n]
            if not pending:
                break
            c = min(pending, key=lambda c: rel[nxt[c]] + lag[c])
            due = t0 + rel[nxt[c]] + lag[c]
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
                now = time.perf_counter()
            late.append(now - due)
            for part in plan.lines[nxt[c]]:
                socks[c].sendall(part)
            nxt[c] += 1
        finished = receiver.done.wait(END_TIMEOUT_S)
        t_end = max((r[-1][0] for r in receiver.replies if r), default=time.perf_counter())
    finally:
        receiver.stop_flag = True
        for sock in socks:
            sock.close()
        receiver.join(timeout=5.0)
    return {"t0": t0, "lag": lag, "late": late, "t_end": t_end,
            "finished": finished, "replies": receiver.replies}


def _score(raw: dict, plan: Plan, expected: tuple[list, dict]) -> dict:
    """Latencies from due times, plus the output check of every pair and session."""
    exp_assists, exp_counts = expected
    acks: list[float] = []
    assists: list[float] = []
    failed_pairs = failed_sessions = 0
    for c, replies in enumerate(raw["replies"]):
        base = raw["t0"] + raw["lag"][c]
        acked: set[int] = set()
        got: list[tuple] = []
        counts = None
        trigger_due = base
        for arrived, msg in replies:
            kind = msg.get("type")
            if kind == "ack" and msg.get("of") == "pair":
                trigger_due = base + plan.b_time[msg["pair"]] / SPEEDUP
                acks.append(arrived - trigger_due)
                acked.add(msg["pair"])
            elif kind == "assist":
                # the server acks the triggering pair first, then its assists
                assists.append(arrived - trigger_due)
                got.append((msg["t"], msg["step"], msg["status"], msg["text"]))
            elif kind == "ack" and msg.get("of") == "session_end":
                counts = msg.get("counts") or {}
        session_errors = sum(1 for _, m in replies if m.get("type") == "error")
        failed_pairs += min(plan.pairs, plan.pairs - len(acked) + session_errors)
        same_counts = counts is not None and all(counts.get(k) == exp_counts[k] for k in COUNT_KEYS)
        if got != exp_assists or not same_counts:
            failed_sessions += 1
    return {"acks": acks, "assists": assists, "failed_pairs": failed_pairs,
            "failed_sessions": failed_sessions}


def _mock_stats(endpoint: str) -> dict:
    with urllib.request.urlopen(endpoint + "stats", timeout=10) as reply:
        return json.loads(reply.read())


def _spawn_time(server_argv: list[str]) -> float:
    """Seconds from spawning a server to its ``listening on`` line."""
    started = time.perf_counter()
    proc, _ = spawn_listening(server_argv)
    took = time.perf_counter() - started
    stop(proc)
    return took


def _leg(server_argv: list[str], plan: Plan, expected, endpoint: str) -> dict:
    """Start one server, stream both sessions through it, stop it."""
    started = time.perf_counter()
    proc, line = spawn_listening(server_argv)
    setup_s = time.perf_counter() - started
    try:
        port = int(line.rsplit(":", 1)[1])
        mock0, cpu0 = _mock_stats(endpoint), cpu_seconds(proc.pid)
        raw = _stream(port, plan)
        cpu1, rss = cpu_seconds(proc.pid), peak_rss_mib(proc.pid)
        mock1 = _mock_stats(endpoint)
    finally:
        stop(proc)
    scored = _score(raw, plan, expected)
    wall = raw["t_end"] - raw["t0"]
    served = CONNECTIONS * plan.duration
    scored.update(
        setup_s=setup_s,
        rtf=served / wall,
        cpu_ms_per_session_s=(cpu1 - cpu0) * 1e3 / served,
        cpu_util=(cpu1 - cpu0) / wall,
        peak_rss_mb=rss,
        late=raw["late"],
        finished=raw["finished"],
        mock_requests=mock1["requests"] - mock0["requests"],
        mock_wait_s=mock1["wait_s"] - mock0["wait_s"],
        wall=wall,
    )
    return scored


def run(seed: int, seconds: float, traced: bool, work: Path, spans_out: Path) -> Result:
    n_steps = max(1, round(SPEEDUP * seconds / KITCHEN_STEP_S))
    trace = stamp_frames(generate_synthetic(live_script(seed, n_steps)))
    session_dir = write_session(trace, work / "session")
    del trace
    client_tracer = Tracer().install(
        [("stepassist.harness.pipeline:compute_metrics", "metrics.compute_metrics"),
         ("stepassist.trace.io:read_pgm", "trace.read_pgm")]
    ) if traced else None
    mock, line = spawn_listening([str(BENCH_DIR / "mock_chat.py")])
    try:
        endpoint = f"http://127.0.0.1:{line.split()[-1]}/"
        if client_tracer is not None:
            trace = client_tracer.span("trace.load_session", load_session, session_dir)
        else:
            trace = load_session(session_dir)
        # untimed reference: the same session replayed in-process against the same mock
        ref_log, _ = pipeline.replay(trace, remote_config(endpoint))
        if client_tracer is not None:
            client_tracer.uninstall()
        expected = _expected(trace, ref_log)
        plan = Plan(trace)
        del trace, ref_log

        serve_argv = ["-m", "stepassist.harness.cli", "serve", *serve_flags(endpoint)]
        res = Result()
        # set-up samples come before and after the measured leg, plus its own
        spawns = 0 if traced else SPAWNS_EACH_SIDE
        setups = [_spawn_time(serve_argv) for _ in range(spawns)]
        leg = _leg(serve_argv, plan, expected, endpoint)
        setups += [leg["setup_s"]] + [_spawn_time(serve_argv) for _ in range(spawns)]
        _fill(res, leg, plan, expected)
        if not traced:
            res.metrics["setup_s"] = (median(setups), "s")
            res.samples["setup_s"] = len(setups)
        else:
            launcher = [str(BENCH_DIR / "launch_server.py"), str(spans_out),
                        *serve_flags(endpoint)]
            traced_leg = _leg(launcher, plan, expected, endpoint)
            res.attempted += CONNECTIONS * (plan.pairs + 1)
            res.failed += traced_leg["failed_pairs"] + traced_leg["failed_sessions"]
            dump = load_dump(str(spans_out))
            res.layers = layer_report(dump["spans"], dump["counters"])
            # loading and scoring happen in this process, around the reference replay
            client = layer_report(client_tracer.spans, client_tracer.counters)
            res.layers.update({k: v for k, v in client.items() if k.startswith(("trace.", "metrics."))})
            res.layers.update(
                {
                    "server.cpu_util": traced_leg["cpu_util"],
                    "tracing.overhead_ratio":
                        traced_leg["cpu_ms_per_session_s"] / leg["cpu_ms_per_session_s"],
                    "mock.delay_s": MOCK_DELAY_S,
                    "mock.wait_s": traced_leg["mock_wait_s"],
                    "client.late_ms_max": max(traced_leg["late"]) * 1e3,
                    "client.late_ms_p99": pct(traced_leg["late"], 99) * 1e3,
                }
            )
            res.notes.append(f"server spans written to {spans_out}")
        return res
    finally:
        stop(mock)


def _fill(res: Result, leg: dict, plan: Plan, expected) -> None:
    res.attempted = CONNECTIONS * (plan.pairs + 1)
    res.failed = leg["failed_pairs"] + leg["failed_sessions"]
    res.metrics.update(
        {
            "replay_rtf": (leg["rtf"], "session-s/s"),
            "assist_ms_p50": (median(leg["assists"]) * 1e3, "ms"),
            "ack_ms_p90": (pct(leg["acks"], 90) * 1e3, "ms"),
            "peak_rss_mb": (leg["peak_rss_mb"], "MiB"),
            "cpu_ms_per_session_s": (leg["cpu_ms_per_session_s"], "ms/session-s"),
        }
    )
    res.samples.update(
        {
            "replay_rtf": CONNECTIONS,
            "assist_ms_p50": len(leg["assists"]),
            "ack_ms_p90": len(leg["acks"]),
            "peak_rss_mb": 1,
            "cpu_ms_per_session_s": CONNECTIONS,
        }
    )
    res.notes.append(
        f"2 sessions of {plan.duration:.1f} s ({plan.pairs} pairs each) at {SPEEDUP:g}x, "
        f"wall {leg['wall']:.2f} s, server cpu_util {leg['cpu_util']:.3f}"
    )
    res.notes.append(
        f"client late_ms p99 {pct(leg['late'], 99) * 1e3:.3f} max {max(leg['late']) * 1e3:.3f} "
        f"over {len(leg['late'])} lines"
    )
    res.notes.append(
        f"mock: {leg['mock_requests']} requests, {leg['mock_wait_s']:.3f} s injected wait "
        f"({MOCK_DELAY_S * 1e3:g} ms each); {len(expected[0])} assists expected per session"
    )
    if not leg["finished"]:
        res.notes.append("server did not finish both sessions in time")
