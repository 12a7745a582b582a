"""The chat client against peers written on raw sockets.

``tests/test_reasoner.py``'s ``MockChat`` holds the client to the standard
library's HTTP server; these peers frame their replies in every way RFC 9112
allows, split them across writes, keep the connection open or break the rules.
"""
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stepassist
from stepassist.httpchat import MAX_REPLY_BYTES, ChatEndpointError, chat_complete, parse_endpoint

MESSAGES = [{"role": "user", "content": "which step is this?"}]
TLS_DIR = Path(__file__).parent / "tls"  # a self-signed certificate for 127.0.0.1, see below


class Peer:
    """A one-connection HTTP peer in a thread: it reads the request, sends
    ``writes`` one by one, then closes, or waits for the client to close first."""

    def __init__(self, writes, *, keep_open=False):
        self.writes = writes
        self.keep_open = keep_open
        self.request = None  # (head lines, body)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.endpoint = f"http://127.0.0.1:{self.port}/chat?v=1"
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn:
            conn.settimeout(10)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            rfile = conn.makefile("rb")
            head = []
            while (line := rfile.readline()) not in (b"\r\n", b""):
                head.append(line.decode("ascii").rstrip("\r\n"))
            length = next(int(h.split(":")[1]) for h in head if h.startswith("Content-Length:"))
            self.request = (head, rfile.read(length))
            try:
                for piece in self.writes:
                    conn.sendall(piece)
                    time.sleep(0.001)  # so the client's reads see each piece on its own
                while self.keep_open and conn.recv(1 << 16):
                    pass
            except OSError:
                pass  # the client stopped reading and hung up, as it should on a refusal

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.thread.join(timeout=10)
        self.listener.close()
        assert not self.thread.is_alive()


def envelope(content, nested):
    obj = {"choices": [{"message": {"content": content}}]} if nested else {"content": content}
    return json.dumps(obj).encode("utf-8")


def cut(data, points):
    """``data`` split at ``points``, empty pieces left out."""
    edges = [0, *sorted(points), len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:]) if b > a]


def spelled(draw, name):
    return draw(st.sampled_from([name, name.lower(), name.upper()])).encode("ascii")


@st.composite
def replies(draw):
    """(content, reply bytes split into writes, whether the peer keeps the connection open)."""
    content = draw(st.text(max_size=200))
    body = envelope(content, draw(st.booleans()))
    framing = draw(st.sampled_from(["length", "chunked", "close"]))
    status = draw(st.sampled_from([b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 201",
                                   b"HTTP/1.1 203 Non-Authoritative Information"]))
    head = b"HTTP/1.1 100 Continue\r\n\r\n" if draw(st.booleans()) else b""
    head += status + b"\r\n" + spelled(draw, "Content-Type") + b": application/json\r\n"
    if framing == "length":
        head += spelled(draw, "Content-Length") + b": %d\r\n" % len(body)
    elif framing == "chunked":
        head += spelled(draw, "Transfer-Encoding") + b": chunked\r\n"
        framed = b""
        for chunk in cut(body, draw(st.lists(st.integers(0, len(body)), max_size=6))):
            size = draw(st.sampled_from(["%x", "%X", "%04x"])) % len(chunk)
            ext = draw(st.sampled_from(["", ";ext", ";name=value", ' ; q="a;b"']))
            framed += f"{size}{ext}\r\n".encode("ascii") + chunk + b"\r\n"
        trailer = draw(st.sampled_from([b"", b"X-Checksum: 1\r\n"]))
        body = framed + b"0" + draw(st.sampled_from([b"", b";end"])) + b"\r\n" + trailer + b"\r\n"
    reply = head + b"Server: raw\r\n\r\n" + body
    writes = cut(reply, draw(st.lists(st.integers(0, len(reply)), max_size=8)))
    return content, writes, framing != "close" and draw(st.booleans())


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(replies())
def test_any_framing_and_split_of_a_reply_gives_its_content(reply):
    content, writes, keep_open = reply
    with Peer(writes, keep_open=keep_open) as peer:
        # a reader that waits past a framed body's end spends the timeout and fails
        assert chat_complete(peer.endpoint, MESSAGES, timeout=5.0) == content


def test_the_request_is_one_post_that_closes():
    body = envelope("fine", nested=False)
    writes = [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body]
    with Peer(writes) as peer:
        assert chat_complete(peer.endpoint, MESSAGES, model="m", timeout=5.0) == "fine"
    head, sent = peer.request
    assert head == ["POST /chat?v=1 HTTP/1.1", f"Host: 127.0.0.1:{peer.port}",
                    "Content-Type: application/json", f"Content-Length: {len(sent)}",
                    "Connection: close"]
    assert json.loads(sent) == {"messages": MESSAGES, "model": "m"}


def test_a_keep_alive_peer_answers_well_inside_the_timeout():
    body = envelope("still open", nested=True)
    writes = [b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n", b"Content-Length: %d\r\n\r\n"
              % len(body), body]
    with Peer(writes, keep_open=True) as peer:
        started = time.monotonic()
        assert chat_complete(peer.endpoint, MESSAGES, timeout=10.0) == "still open"
        assert time.monotonic() - started < 2


OK = b"HTTP/1.1 200 OK\r\n"


def test_a_transfer_coding_that_does_not_end_in_chunked_is_read_to_the_close():
    body = envelope("to the close", nested=False)
    # the last coding frames the body, and one that is not chunked has no length
    writes = [OK + b"Transfer-Encoding: chunked, x-raw\r\n\r\n" + body[:5], body[5:]]
    with Peer(writes) as peer:
        assert chat_complete(peer.endpoint, MESSAGES, timeout=5.0) == "to the close"


@pytest.mark.parametrize(
    "writes, keep_open, message",
    [
        ([b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"], False,
         "HTTP Error 404: 'Not Found'"),
        ([b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 2\r\n\r\n{}"], False,
         "HTTP Error 500: 'Internal Server Error'"),
        # a redirect is not followed: urllib re-sent a redirected POST as a GET
        ([b"HTTP/1.1 302 Found\r\nLocation: /elsewhere\r\nContent-Length: 0\r\n\r\n"], True,
         "HTTP Error 302: 'Found'"),
        ([OK + b'Content-Length: 100\r\n\r\n{"content": "cut'], False,
         "connection closed 84 bytes short of the reply's end"),
        ([OK + b"Content-Length: 12abc\r\n\r\n"], False, "bad Content-Length '12abc'"),
        ([OK + b"Transfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n"], True,
         r"bad chunk size line b'zz\r\n'"),
        ([OK + b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}}\r\n0\r\n\r\n"], True,
         "chunk data longer than its size"),
        ([b"SSH-2.0-OpenSSH_9.6\r\n"], True, r"bad status line b'SSH-2.0-OpenSSH_9.6\r\n'"),
        ([b"HTTP/1.1 200 OK\r\nContent-"], False, "connection closed inside the reply's head"),
        ([], False, "connection closed inside the reply's head"),
        ([OK + b"Content-Length: %d\r\n\r\n" % (MAX_REPLY_BYTES + 1)], True,
         f"reply larger than {MAX_REPLY_BYTES} bytes"),
        ([OK + b"Transfer-Encoding: chunked\r\n\r\n%x\r\n" % MAX_REPLY_BYTES], True,
         f"reply larger than {MAX_REPLY_BYTES} bytes"),
        ([OK + b"\r\n", b"x" * (MAX_REPLY_BYTES + 1)], False,
         f"reply larger than {MAX_REPLY_BYTES} bytes"),
        ([], True, "timed out"),
    ],
    ids=["404", "500", "redirect", "truncated-length", "bad-length", "bad-chunk-size",
         "long-chunk", "garbage-status", "cut-head", "no-reply", "length-over-cap",
         "chunk-over-cap", "stream-over-cap", "never-answers"],
)
def test_a_refused_reply_is_an_unreachable_endpoint(writes, keep_open, message):
    with Peer(writes, keep_open=keep_open) as peer:
        started = time.monotonic()
        with pytest.raises(ChatEndpointError) as err:
            chat_complete(peer.endpoint, MESSAGES, timeout=0.5)
        assert time.monotonic() - started < 5
    assert str(err.value) == f"chat endpoint {peer.endpoint} unreachable: {message}"


@pytest.mark.parametrize(
    "endpoint, parts",
    [
        ("http://127.0.0.1:8080/v1/chat?key=a", ("http", "127.0.0.1", 8080, "127.0.0.1:8080",
                                                 "/v1/chat?key=a")),
        ("https://user@Example.com", ("https", "example.com", 443, "Example.com", "/")),
        ("HTTP://[::1]/chat#part", ("http", "::1", 80, "[::1]", "/chat")),
    ],
)
def test_an_endpoint_splits_into_what_the_request_needs(endpoint, parts):
    assert parse_endpoint(endpoint) == parts


@pytest.mark.parametrize(
    "endpoint",
    ["localhost:9", "http://", "http://127.0.0.1:notaport/", "http://127.0.0.1:70000/",
     "ftp://127.0.0.1:9/", "file:///etc/hosts", "http://[::1/", "http://host/a b",
     "http://host/a\r\nX-Injected: 1", "http://hôst/", ""],
)
def test_an_endpoint_that_is_no_http_url_is_refused(endpoint):
    with pytest.raises(ValueError, match="is not an http:// or https:// URL with a host"):
        parse_endpoint(endpoint)
    with pytest.raises(ChatEndpointError, match="unreachable: endpoint .* is not an http"):
        chat_complete(endpoint, MESSAGES, timeout=0.5)


# The certificate was made with
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes \
#     -keyout key.pem -out cert.pem -days 36500 -subj /CN=127.0.0.1 \
#     -addext subjectAltName=IP:127.0.0.1 -addext keyUsage=critical,digitalSignature,keyCertSign
TLS_ROUND_TRIP = """
import json, socket, ssl, sys, threading
from stepassist.httpchat import ChatEndpointError, chat_complete

server = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
server.load_cert_chain(sys.argv[1], sys.argv[2])
listener = socket.create_server(("127.0.0.1", 0))

def serve():
    conn, _ = listener.accept()
    try:
        with server.wrap_socket(conn, server_side=True) as tls:
            rfile = tls.makefile("rb")
            length = 0
            while (line := rfile.readline()) not in (b"\\r\\n", b""):
                if line.startswith(b"Content-Length:"):
                    length = int(line.split(b":")[1])
            rfile.read(length)
            body = json.dumps({"content": "over tls"}).encode()
            tls.sendall(b"HTTP/1.1 200 OK\\r\\nContent-Length: %d\\r\\n\\r\\n" % len(body) + body)
    except ssl.SSLError:
        pass  # the client refused the certificate

threading.Thread(target=serve, daemon=True).start()
try:
    endpoint = f"https://127.0.0.1:{listener.getsockname()[1]}/chat"
    print(chat_complete(endpoint, [{"role": "user", "content": "hi"}], timeout=10))
except ChatEndpointError as exc:
    print(exc)
"""


@pytest.mark.parametrize("trusted", [True, False], ids=["trusted", "untrusted"])
def test_an_https_endpoint_speaks_tls_and_checks_the_certificate(trusted):
    src = str(Path(stepassist.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("SSL_CERT_FILE", "SSL_CERT_DIR")}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if trusted:
        env["SSL_CERT_FILE"] = str(TLS_DIR / "cert.pem")
    run = subprocess.run(
        [sys.executable, "-c", TLS_ROUND_TRIP, str(TLS_DIR / "cert.pem"), str(TLS_DIR / "key.pem")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    if trusted:
        assert run.stdout == "over tls\n"
    else:
        assert "unreachable" in run.stdout and "CERTIFICATE_VERIFY_FAILED" in run.stdout
