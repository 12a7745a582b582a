"""Live session serving over TCP.

Wire protocol (version 1): newline-delimited JSON both ways. The client
opens a session, streams sensor records in timestamp order, and closes it:

    {"type": "session_start", "protocol": 1, "session_id": "...",
     "instruction": "...", "width": W, "height": H, "pair_gap": G,
     "annotations": {...}}          annotations optional
    {"type": "imu", "t": T, "gx": X, "gy": Y, "gz": Z}
    {"type": "frame", "t": T, "pair": P, "slot": "a"|"b", "data": "<b64 PGM>"}
    {"type": "session_end"}

The server acknowledges session_start, every completed pair, and
session_end (with run counts), and pushes an ``assist`` message for every
delivered response:

    {"type": "assist", "t": T, "step": "...", "status": "...", "text": "..."}

Protocol faults come back as {"type": "error", "code": ..., "detail": ...}.
Fields are read by load_session's rule, ``jsontext.field``, and session_start
by its codecs and rules: any ValueError is answered ``bad_stream``, and any
other exception is an engine fault that drops the session as ``internal``.
Only a protocol version mismatch closes the connection; a client that
resets or closes its connection just ends its handler. Each connection is
its own pipeline, so concurrent clients never share state.
"""
from __future__ import annotations

import base64
import json
import socketserver
import threading
from typing import Any

from ..jsontext import field, fields, fits
from ..trace.io import annotations_from_obj, header_from_obj
from ..trace.pgm import read_pgm
from ..trace.types import FrameRecord, ImuSample, SessionTrace
from .config import PipelineConfig
from .events import DELIVERY, Event, EventLog, run_counts
from .pipeline import SessionPipeline

PROTOCOL_VERSION = 1
IMU_FIELDS = {"t": float, "gx": float, "gy": float, "gz": float}
FRAME_FIELDS = {"t": float, "pair": int, "slot": str, "data": str}

# error codes: connection survives all of these except protocol_version
BAD_JSON = "bad_json"
BAD_MESSAGE = "bad_message"
BAD_STREAM = "bad_stream"
NO_SESSION = "no_session"
SESSION_ACTIVE = "session_active"
PROTOCOL_MISMATCH = "protocol_version"
INTERNAL = "internal"  # an unexpected fault inside the engine


class _Handler(socketserver.StreamRequestHandler):
    """One connection: at most one open session at a time, serially."""

    def handle(self) -> None:
        try:
            self._serve()
        except ConnectionError:
            pass  # the client reset or closed its connection; no one is left to answer

    def _serve(self) -> None:
        owner: PipelineServer = self.server.owner  # type: ignore[attr-defined]
        self.engine: SessionPipeline | None = None
        self.session_id: str | None = None
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            try:
                msg = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # also too many digits or too deep
                self._send_error(BAD_JSON, f"undecodable line: {exc}")
                continue
            if not isinstance(msg, dict) or not isinstance(msg.get("type"), str):
                self._send_error(BAD_MESSAGE, "messages are objects with a 'type' field")
                continue
            try:
                keep_open = self._dispatch(owner, msg)
            except ValueError as exc:
                # the stream is no longer trustworthy; drop the session
                self._drop_session(BAD_STREAM, exc)
                continue
            except ConnectionError:
                raise  # from the handler's own writes; endpoint faults are ChatEndpointError
            except Exception as exc:
                # a fault inside the engine must not take the connection with
                # it; socketserver's handle_error prints the traceback
                self.server.handle_error(self.request, self.client_address)
                self._drop_session(INTERNAL, exc)
                continue
            if not keep_open:
                return

    def _drop_session(self, code: str, exc: Exception) -> None:
        self.engine = None
        self.session_id = None
        self._send_error(code, f"{type(exc).__name__}: {exc}")

    # -- message handling --------------------------------------------------

    def _dispatch(self, owner: "PipelineServer", msg: dict[str, Any]) -> bool:
        kind = msg["type"]
        if kind == "session_start":
            return self._on_session_start(owner, msg)
        if kind in ("imu", "frame", "session_end"):
            if self.engine is None:
                self._send_error(NO_SESSION, f"{kind} before session_start")
                return True
            if kind == "imu":
                self._on_imu(msg)
            elif kind == "frame":
                self._on_frame(msg)
            else:
                self._on_session_end(owner)
            return True
        self._send_error(BAD_MESSAGE, f"unknown message type {kind!r}")
        return True

    def _on_session_start(self, owner: "PipelineServer", msg: dict[str, Any]) -> bool:
        if not (fits(msg.get("protocol"), int) and msg["protocol"] == PROTOCOL_VERSION):
            self._send_error(
                PROTOCOL_MISMATCH,
                f"server speaks protocol {PROTOCOL_VERSION}, got {msg.get('protocol')!r}",
            )
            return False  # nothing sensible can follow; close
        if self.engine is not None:
            self._send_error(SESSION_ACTIVE, "finish the open session first")
            return True
        self.session_id = field(msg, "session_id", str, default="")
        session = SessionTrace(
            **header_from_obj(msg),
            **annotations_from_obj(field(msg, "annotations", dict, default={})),
            frames=[],
            imu=[],
        )
        self.engine = SessionPipeline(owner.cfg, session)
        self._send({"type": "ack", "of": "session_start", "session_id": self.session_id})
        return True

    def _on_imu(self, msg: dict[str, Any]) -> None:
        self._push_assists(self.engine.feed_imu(ImuSample(*fields(msg, IMU_FIELDS))))

    def _on_frame(self, msg: dict[str, Any]) -> None:
        t, pair_id, slot, data = fields(msg, FRAME_FIELDS)
        frame = FrameRecord(t, pair_id, slot, read_pgm(base64.b64decode(data)))
        events = self.engine.feed_frame(frame)
        if frame.slot == "b":
            self._send({"type": "ack", "of": "pair", "pair": frame.pair_id})
        self._push_assists(events)

    def _on_session_end(self, owner: "PipelineServer") -> None:
        engine = self.engine
        self._push_assists(engine.finish())
        counts = {"pairs": engine.pair_count, **run_counts(engine.log)}
        owner.store_log(self.session_id, engine.log)
        self.engine = None
        self.session_id = None
        self._send({"type": "ack", "of": "session_end", "counts": counts})

    # -- replies -----------------------------------------------------------

    def _push_assists(self, events: list[Event]) -> None:
        for ev in events:
            if ev.kind == DELIVERY and ev.data.get("deliver"):
                self._send(
                    {
                        "type": "assist",
                        "t": ev.t,
                        "step": ev.data["step"],
                        "status": ev.data["status"],
                        "text": ev.data["response"],
                    }
                )

    def _send(self, obj: dict[str, Any]) -> None:
        self.wfile.write(json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n")
        self.wfile.flush()

    def _send_error(self, code: str, detail: str) -> None:
        self._send({"type": "error", "code": code, "detail": detail})


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class PipelineServer:
    """TCP front end; one pipeline per connection, sessions run in parallel.

    With ``keep_logs`` the full event log of every finished session stays
    addressable by session id (tests compare them against batch replays).
    """

    def __init__(
        self,
        cfg: PipelineConfig = PipelineConfig(),
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        keep_logs: bool = False,
    ):
        self.cfg = cfg
        self.keep_logs = keep_logs
        self.finished_logs: dict[str, EventLog] = {}
        self._lock = threading.Lock()
        self._tcp = _ThreadingServer((host, port), _Handler)
        self._tcp.owner = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def store_log(self, session_id: str | None, log: EventLog) -> None:
        if self.keep_logs:
            with self._lock:
                self.finished_logs[session_id or ""] = log

    def start(self) -> tuple[str, int]:
        """Serve on a background thread; returns the bound (host, port)."""
        self._thread = threading.Thread(target=self._tcp.serve_forever, daemon=True)
        self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        self._tcp.serve_forever()

    def shutdown(self) -> None:
        """Stop the serve loop ``start()`` began, if any; always close the socket.

        socketserver's own shutdown waits for a running loop, so it would
        block forever when none was started.
        """
        if self._thread is not None:
            self._tcp.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._tcp.server_close()

    def __enter__(self) -> "PipelineServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


__all__ = [
    "BAD_JSON",
    "BAD_MESSAGE",
    "BAD_STREAM",
    "INTERNAL",
    "NO_SESSION",
    "PROTOCOL_MISMATCH",
    "PROTOCOL_VERSION",
    "SESSION_ACTIVE",
    "PipelineServer",
]
