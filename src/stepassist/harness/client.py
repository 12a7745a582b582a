"""Client side of the wire protocol: stream a recorded session to a server."""
from __future__ import annotations

import base64
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..jsontext import loads, shown
from ..trace.io import annotations_to_obj, header_to_obj
from ..trace.pgm import write_pgm
from ..trace.types import FrameRecord, ImuSample, SessionTrace
from .server import BAD_STREAM, INTERNAL, PROTOCOL_VERSION


@dataclass
class StreamResult:
    """Everything the server sent back, split by message type."""

    session_id: str
    assists: list[dict[str, Any]] = field(default_factory=list)
    errors: list[dict[str, Any]] = field(default_factory=list)
    end_counts: dict[str, int] | None = None
    pair_acks: int = 0


def record_message(record: ImuSample | FrameRecord) -> dict[str, Any]:
    """Wire form of one sensor record."""
    if isinstance(record, ImuSample):
        return {
            "type": "imu",
            "t": record.timestamp,
            "gx": record.gx,
            "gy": record.gy,
            "gz": record.gz,
        }
    return {
        "type": "frame",
        "t": record.timestamp,
        "pair": record.pair_id,
        "slot": record.slot,
        "data": base64.b64encode(write_pgm(record.image)).decode("ascii"),
    }


def paced(records: Iterable[ImuSample | FrameRecord]) -> Iterator[ImuSample | FrameRecord]:
    """The records, each held back until its recorded time since the first record
    has passed in wall-clock time since the first was yielded, so the overshoot of
    one sleep is made up by the next and never adds up."""
    origin: tuple[float, float] | None = None  # (wall clock, timestamp) of the first
    for record in records:
        if origin is None:
            origin = (time.perf_counter(), record.timestamp)
        elif (wait := record.timestamp - origin[1] - (time.perf_counter() - origin[0])) > 0:
            time.sleep(wait)
        yield record


def stream_session(
    trace: SessionTrace,
    host: str,
    port: int,
    *,
    session_id: str = "session-0",
    include_annotations: bool = True,
    timeout: float = 60.0,
    pace: bool = False,
) -> StreamResult:
    """Stream one session over TCP and collect every reply.

    Sends session_start, all sensor records in timestamp order (``paced`` with
    ``pace``), then session_end, while a reader thread drains acks, assists,
    and errors. Returns once the session_end ack arrives. Raises RuntimeError,
    naming the server's error code, if the server drops the session or closes
    first, or naming the session and the seconds waited if the server stops
    reading or sends nothing for ``timeout`` seconds; a reply that is not a
    JSON object, too deep to decode included, reads as a close. Sending stops
    as soon as the session is dropped.
    """
    result = StreamResult(session_id=session_id)
    done = threading.Event()
    silent = threading.Event()  # the reader waited ``timeout`` for a reply
    stalled = f"session {shown(session_id)} timed out after {timeout}s"

    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.settimeout(timeout)
        rfile = sock.makefile("rb")

        def read_replies() -> None:
            try:
                for raw in rfile:
                    msg = loads(raw.decode("utf-8"))
                    if not isinstance(msg, dict):
                        break  # not a message of the protocol: read as a torn-down connection
                    kind = msg.get("type")
                    if kind == "assist":
                        result.assists.append(msg)
                    elif kind == "error":
                        result.errors.append(msg)
                        if msg.get("code") in (BAD_STREAM, INTERNAL):
                            break  # the server dropped the session
                    elif kind == "ack" and msg.get("of") == "pair":
                        result.pair_acks += 1
                    elif kind == "ack" and msg.get("of") == "session_end":
                        result.end_counts = msg.get("counts")
                        break
            except TimeoutError:
                silent.set()
            except (OSError, ValueError):
                pass  # connection torn down; fall through to EOF handling
            done.set()

        reader = threading.Thread(target=read_replies, daemon=True)
        reader.start()

        def send(obj: dict[str, Any]) -> None:
            sock.sendall(json.dumps(obj).encode("utf-8") + b"\n")

        start_msg: dict[str, Any] = {
            "type": "session_start",
            "protocol": PROTOCOL_VERSION,
            "session_id": session_id,
            **header_to_obj(trace),
        }
        if include_annotations:
            start_msg["annotations"] = annotations_to_obj(trace)

        try:
            send(start_msg)
            records = trace.iter_sensor_records()
            for record in paced(records) if pace else records:
                if done.is_set():
                    break
                send(record_message(record))
            else:
                send({"type": "session_end"})
        except (BrokenPipeError, ConnectionResetError):
            pass  # server hung up; the reader captured whatever it said
        except TimeoutError:  # the server stopped reading
            raise RuntimeError(f"{stalled} sending to the server") from None

        if not done.wait(timeout):
            raise RuntimeError(f"{stalled} waiting for the session_end ack")
        if silent.is_set():
            raise RuntimeError(f"{stalled} waiting for a reply")
        reader.join(timeout=5.0)
    finally:
        sock.close()

    if result.end_counts is None:
        why = "connection closed"
        if result.errors:
            why = "{code}: {detail}".format(**result.errors[-1])
        raise RuntimeError(f"session did not complete: {why}")
    return result


__all__ = ["StreamResult", "paced", "record_message", "stream_session"]
