"""Thin chat-completion HTTP client shared by the remote reasoner and structurer.

Each call sends one HTTP/1.1 POST on a plain socket (RFC 9112) and reads the
one reply it gets, so a process that imports this module loads neither
``http.client`` nor ``urllib.request``; ``ssl`` is loaded only for an
``https://`` endpoint. It follows no proxy and no redirect, and refuses a
reply over ``MAX_REPLY_BYTES``.
"""
from __future__ import annotations

import json
import re
import socket
from typing import Any, BinaryIO, Sequence
from urllib.parse import urlsplit

from .jsontext import fields, loads, shown

MAX_REPLY_BYTES = 16 << 20  # status line, header lines and body together: memory stays bounded
_DEFAULT_PORTS = {"http": 80, "https": 443}
_STATUS = re.compile(rb"HTTP/1\.\d (\d{3})(?: ([^\r\n]*))?\r?\n")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")  # extensions are ignored
_BLANK = (b"\r\n", b"\n")


class ChatEndpointError(RuntimeError):
    """Transport or protocol failure talking to a chat-completion endpoint."""


def parse_endpoint(endpoint: str) -> tuple[str, str, int, str, str]:
    """``(scheme, host, port, authority, request target)`` of an ``http://`` or
    ``https://`` URL with a host and, if it names one, a numeric port. Raises
    ValueError, showing the value, for any other text."""
    try:
        parts = urlsplit(endpoint)
        port = parts.port  # ValueError for a port that is not a number in 0-65535
        # urlsplit drops tabs and line breaks, which must not reach the request line
        valid = bool(parts.hostname) and endpoint.isascii() and endpoint.isprintable() \
            and " " not in endpoint and parts.scheme in _DEFAULT_PORTS
    except ValueError:
        valid = False
    if not valid:
        raise ValueError(f"endpoint {shown(endpoint)} is not an http:// or https:// URL "
                         "with a host and a numeric port")
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    port = _DEFAULT_PORTS[parts.scheme] if port is None else port
    return parts.scheme, parts.hostname, port, parts.netloc.rpartition("@")[2], target


class _Reply:
    """The bytes of one reply, every one counted against ``MAX_REPLY_BYTES``.

    A fault is a ConnectionError, so a bad reply reads like a dropped one."""

    def __init__(self, rfile: BinaryIO):
        self.rfile = rfile
        self.left = MAX_REPLY_BYTES

    def _take(self, n: int) -> None:
        if n > self.left:
            raise ConnectionError(f"reply larger than {MAX_REPLY_BYTES} bytes")
        self.left -= n

    def line(self) -> bytes:
        line = self.rfile.readline(self.left + 1)
        self._take(len(line))
        if not line.endswith(b"\n"):
            raise ConnectionError("connection closed inside the reply's head")
        return line

    def read(self, n: int) -> bytes:
        self._take(n)
        data = self.rfile.read(n)
        if len(data) < n:
            short = n - len(data)
            raise ConnectionError(f"connection closed {short} bytes short of the reply's end")
        return data

    def rest(self) -> bytes:
        # piece by piece: read(n) would allocate all n bytes before the first arrives
        pieces = []
        while piece := self.rfile.read1(1 << 16):
            self._take(len(piece))
            pieces.append(piece)
        return b"".join(pieces)


def _read_body(rfile: BinaryIO) -> bytes:
    """The body of the reply on ``rfile``, framed as RFC 9112 section 6.3 says; reads
    no further, so a peer that keeps the connection open costs no wait."""
    reply = _Reply(rfile)
    code = b"1"
    while code.startswith(b"1"):  # an interim reply has no body; the final one follows
        line = reply.line()
        if (status := _STATUS.fullmatch(line)) is None:
            raise ConnectionError(f"bad status line {shown(line)}")
        code = status[1]
        headers = {}
        while (line := reply.line()) not in _BLANK:
            name, _, value = line.partition(b":")
            headers[name.strip().lower()] = value.strip()
    if not code.startswith(b"2"):
        reason = (status[2] or b"").decode("latin-1")
        raise ConnectionError(f"HTTP Error {code.decode()}: {shown(reason)}")
    if b"transfer-encoding" in headers:
        if headers[b"transfer-encoding"].rpartition(b",")[2].strip().lower() != b"chunked":
            return reply.rest()  # no length: the body ends with the connection
        chunks = []
        while True:
            line = reply.line()
            if (size := _CHUNK_SIZE.fullmatch(line)) is None:
                raise ConnectionError(f"bad chunk size line {shown(line)}")
            if not (n := int(size[1], 16)):
                break
            chunks.append(reply.read(n))
            if reply.line() not in _BLANK:
                raise ConnectionError("chunk data longer than its size")
        while reply.line() not in _BLANK:  # trailer fields
            pass
        return b"".join(chunks)
    if (length := headers.get(b"content-length")) is None:
        return reply.rest()
    if not length.isdigit():
        raise ConnectionError(f"bad Content-Length {shown(length.decode('latin-1'))}")
    # int() refuses over 4 300 digits; 20 already exceed the cap
    return reply.read(int(length) if len(length) < 20 else MAX_REPLY_BYTES + 1)


def _post(endpoint: str, body: bytes, timeout: float) -> bytes:
    """POST ``body`` as JSON to ``endpoint`` and return the reply's body."""
    scheme, host, port, authority, target = parse_endpoint(endpoint)
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        if scheme == "https":
            import ssl  # only here: a process that speaks plain HTTP never maps libssl

            sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
        head = (f"POST {target} HTTP/1.1\r\nHost: {authority}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n")
        sock.sendall(head.encode("ascii") + body)
        with sock.makefile("rb") as rfile:
            return _read_body(rfile)
    finally:
        sock.close()


def chat_complete(
    endpoint: str,
    messages: Sequence[dict[str, Any]],
    model: str | None = None,
    timeout: float = 30.0,
) -> str:
    """POST a chat request and return the assistant message text.

    Accepts both the nested chat-completion reply shape
    (choices[0].message.content) and a flat {"content": ...} shape, so small
    local mock endpoints stay trivial. The content must be a JSON string.
    """
    payload: dict[str, Any] = {"messages": list(messages)}
    if model is not None:
        payload["model"] = model
    try:
        body = _post(endpoint, json.dumps(payload).encode("utf-8"), timeout)
    except (OSError, ValueError) as exc:
        # a refused URL, a timeout, a dropped connection and a bad reply alike
        raise ChatEndpointError(f"chat endpoint {endpoint} unreachable: {exc}") from exc
    try:
        reply = loads(body.decode("utf-8"))
        if isinstance(reply, dict) and "choices" in reply:
            (choices,) = fields(reply, {"choices": list}, "reply")
            (reply,) = fields(choices[0] if choices else None, {"message": dict}, "choices[0]")
        return fields(reply, {"content": str}, "reply")[0]
    except ValueError as exc:
        raise ChatEndpointError(
            f"chat endpoint {endpoint} returned non-JSON or a malformed reply: {exc}"
        ) from exc
