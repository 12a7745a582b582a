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
Fields are read by load_session's rule, ``jsontext.field``, and the session
by its codecs and rules, session_end checking the whole recording: any
ValueError is answered ``bad_stream``, and any other exception is an engine
fault that drops the session as ``internal``.
Only a protocol version mismatch closes the connection. ``WireSession`` is
the protocol core, one line in and its replies out, with no socket; the
handler is a read loop that sends a line's replies in one write. A client
that resets or closes its connection just ends its handler. Each connection
is its own pipeline, so concurrent clients never share state.
"""
from __future__ import annotations

import base64
import json
import socketserver
import threading
from typing import Any, Callable

from ..jsontext import TOO_DEEP, field, fields, fits, shown
from ..trace.io import annotations_from_obj, header_from_obj
from ..trace.pgm import read_pgm
from ..trace.types import FrameRecord, ImuSample, Session
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
POLL_S = 0.05  # seconds between start()'s serve loop's looks for shutdown(), which waits one out


class WireSession:
    """One connection's protocol core, with no socket: at most one open session at a time.

    ``on_fault`` reports each engine fault before the session is dropped as ``internal``.
    """

    def __init__(self, owner: "PipelineServer", on_fault: Callable[[], None]):
        self.owner = owner
        self.on_fault = on_fault
        self.engine: SessionPipeline | None = None
        self.session_id = ""  # the open session's; read only while engine is set
        self.replies: list[dict[str, Any]] = []

    def feed(self, line: bytes) -> tuple[list[dict[str, Any]], bool]:
        """The replies to one line, and whether the connection stays open."""
        self.replies = []
        line = line.strip()
        if not line:
            return self.replies, True
        try:
            msg = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # also too many digits or too deep
            why = TOO_DEEP if isinstance(exc, RecursionError) else exc
            self._send_error(BAD_JSON, f"undecodable line: {why}")
            return self.replies, True
        kind = msg.get("type") if isinstance(msg, dict) else None
        try:
            if not isinstance(kind, str):
                self._send_error(BAD_MESSAGE, "messages are objects with a 'type' field")
            elif kind == "session_start" and not (
                fits(msg.get("protocol"), int) and msg["protocol"] == PROTOCOL_VERSION
            ):
                self._send_error(PROTOCOL_MISMATCH, f"server speaks protocol {PROTOCOL_VERSION}, "
                                 f"got {shown(msg.get('protocol'))}")
                return self.replies, False  # nothing sensible can follow; close
            elif kind == "session_start" and self.engine is not None:
                self._send_error(SESSION_ACTIVE, "finish the open session first")
            elif kind == "session_start":
                self.session_id = field(msg, "session_id", str, default="")
                header = header_from_obj(msg)  # before the annotations, as load_session reads
                annotations = annotations_from_obj(field(msg, "annotations", dict, default={}))
                self.engine = SessionPipeline(self.owner.cfg, Session(**header, **annotations))
                self.replies.append(
                    {"type": "ack", "of": "session_start", "session_id": self.session_id}
                )
            elif kind not in ("imu", "frame", "session_end"):
                self._send_error(BAD_MESSAGE, f"unknown message type {shown(kind)}")
            elif self.engine is None:
                self._send_error(NO_SESSION, f"{kind} before session_start")
            elif kind == "imu":
                self._push_assists(self.engine.feed_imu(ImuSample(*fields(msg, IMU_FIELDS))))
            elif kind == "frame":
                t, pair_id, slot, data = fields(msg, FRAME_FIELDS)
                frame = FrameRecord(t, pair_id, slot, read_pgm(base64.b64decode(data)))
                events = self.engine.feed_frame(frame)
                if frame.slot == "b":
                    self.replies.append({"type": "ack", "of": "pair", "pair": frame.pair_id})
                self._push_assists(events)
            else:
                engine = self.engine
                self._push_assists(engine.finish())
                counts = {"pairs": engine.pair_count, **run_counts(engine.log)}
                self.owner.store_log(self.session_id, engine.log)
                self.engine = None
                self.replies.append({"type": "ack", "of": "session_end", "counts": counts})
        except ValueError as exc:
            # the stream is no longer trustworthy; drop the session
            self._drop_session(BAD_STREAM, exc)
        except Exception as exc:
            # a fault inside the engine must not take the connection with
            # it; on_fault reports it, with its traceback
            self.on_fault()
            self._drop_session(INTERNAL, exc)
        return self.replies, True

    def _drop_session(self, code: str, exc: Exception) -> None:
        self.engine = None
        self._send_error(code, f"{type(exc).__name__}: {exc}")

    # -- replies -----------------------------------------------------------

    def _push_assists(self, events: list[Event]) -> None:
        for ev in events:
            if ev.kind == DELIVERY and ev.data.get("deliver"):
                self.replies.append(
                    {
                        "type": "assist",
                        "t": ev.t,
                        "step": ev.data["step"],
                        "status": ev.data["status"],
                        "text": ev.data["response"],
                    }
                )

    def _send_error(self, code: str, detail: str) -> None:
        self.replies.append({"type": "error", "code": code, "detail": detail})


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a read loop over a WireSession, one write per line."""

    def handle(self) -> None:
        wire = WireSession(
            self.server.owner,  # type: ignore[attr-defined]
            lambda: self.server.handle_error(self.request, self.client_address),
        )
        try:
            for raw in self.rfile:
                replies, keep_open = wire.feed(raw)
                if replies:
                    self.wfile.write(b"".join(
                        json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n" for obj in replies
                    ))
                if not keep_open:
                    return
        except ConnectionError:
            pass  # the client reset or closed its connection; no one is left to answer


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class PipelineServer:
    """TCP front end; one pipeline per connection, sessions run in parallel."""

    def __init__(self, cfg: PipelineConfig = PipelineConfig(), host: str = "127.0.0.1",
                 port: int = 0):
        self.cfg = cfg
        self._tcp = _ThreadingServer((host, port), _Handler)
        self._tcp.owner = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def store_log(self, session_id: str, log: EventLog) -> None:
        """Called on a connection's thread with the log of each session it finished; the
        server keeps no log, so this does nothing. A subclass may record them."""

    def start(self) -> tuple[str, int]:
        """Serve on a background thread; returns the bound (host, port)."""
        self._thread = threading.Thread(target=self._tcp.serve_forever, args=(POLL_S,), daemon=True)
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
    "WireSession",
]
