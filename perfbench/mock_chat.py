"""Mock chat-completion endpoint for the serve-live workload.

Run as ``python3 perfbench/mock_chat.py``; it prints ``listening on <port>``
once it accepts requests and serves until SIGINT or SIGTERM. Every reply
waits ``DELAY_S`` seconds, then answers with a pure function of the request
body, so a replay and a served session that send the same requests get the
same answers in any interleaving:

- one in ``MALFORMED_EVERY`` first attempts gets a reply with no JSON in it,
  which sends the remote reasoner down its one-retry path; retries always
  parse;
- otherwise the reply names a step title taken from the guideline in the
  prompt, a status, and, for half of the bodies, a proactive flag with
  response text.

``GET /stats`` returns the number of chat requests and the seconds spent in
the injected waits.
"""
from __future__ import annotations

import hashlib
import json
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_S = 0.005  # injected wait per request, standing in for a model's latency
MALFORMED_EVERY = 8
STATUSES = ("just_start", "in_progress", "about_to_finish", "step_transition")
TITLE_LINE = re.compile(r"^\d+\. (.+?)(?: \[after [^\]]*\])?(?: :: .*)?$", re.MULTILINE)


def reply_for(body: bytes) -> str:
    """The assistant text for one request body."""
    digest = hashlib.sha256(body).digest()
    messages = json.loads(body)["messages"]
    if len(messages) <= 2 and digest[0] % MALFORMED_EVERY == 0:
        return "I am not sure what is happening in this frame."
    titles = TITLE_LINE.findall(messages[0]["content"]) or ["Unknown step"]
    step = titles[digest[1] % len(titles)]
    status = STATUSES[digest[2] % len(STATUSES)]
    obj = {"step": step, "status": status, "proactive": digest[3] % 2 == 0}
    if obj["proactive"]:
        obj["response"] = f"Next for {step}: check item {digest[4]:03d}."
    return json.dumps(obj)


class _Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.wait_s = 0.0


def make_handler(stats: _Stats):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self) -> None:
            body = self.rfile.read(int(self.headers["Content-Length"]))
            started = time.perf_counter()
            time.sleep(DELAY_S)
            waited = time.perf_counter() - started
            with stats.lock:
                stats.requests += 1
                stats.wait_s += waited
            self._reply({"content": reply_for(body)})

        def do_GET(self) -> None:
            with stats.lock:
                self._reply({"requests": stats.requests, "wait_s": stats.wait_s})

        def _reply(self, obj: dict) -> None:
            data = json.dumps(obj).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format: str, *args: object) -> None:
            pass

    return Handler


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(_Stats()))
    server.daemon_threads = True
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    print(f"listening on {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
