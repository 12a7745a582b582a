"""Command-line front end: generate, replay, serve, send, eval, retrieve.

The ``stepassist`` command starts OpenBLAS with one thread unless
``OPENBLAS_NUM_THREADS`` is already set, and each subcommand imports only the
modules it runs, so a process starts at about the cost of numpy. ``--pace``
on ``send`` holds each record until its recorded time since the first;
``replay`` feeds the trace as recorded.
"""
from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from pathlib import Path

# Before numpy loads: the engine's arrays are small and its concurrency is one
# thread per session, so OpenBLAS's thread pool is never used, and starting it
# costs about 70 ms of every process. A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ..context import GuidelineCorpus, ScriptedStructurer, retrieve_guideline
from ..jsontext import loads
from ..metrics import compute_metrics
from ..trace.io import load_session, write_session
from .config import DETECTOR_KINDS, REASONER_KINDS, PipelineConfig, config_from_dict
from .events import run_counts
from .pipeline import replay
from .server import PipelineServer


# (flag, config path, argparse kwargs); the path is also the flag's dest
_CONFIG_FLAGS: list[tuple[str, str, dict]] = [
    ("--tau-s", "sampler.tau_s", {"type": float, "help": "Head-motion burst threshold"}),
    ("--normal-interval", "sampler.normal_interval", {"type": float}),
    ("--burst-interval", "sampler.burst_interval", {"type": float}),
    ("--smoothing-window", "sampler.smoothing_window", {"type": float}),
    ("--tau-f", "key_moment.tau_f", {"type": float, "help": "Key-moment flow threshold"}),
    ("--stationary-threshold", "key_moment.stationary_threshold", {"type": float}),
    ("--block", "flow.block", {"type": int, "help": "Flow block size"}),
    ("--search-radius", "flow.search_radius", {"type": int}),
    ("--window", "checker.window", {"type": int, "help": "Consistency window size"}),
    ("--tau-c", "checker.tau_c", {"type": float, "help": "Dominance ratio for a step switch"}),
    ("--min-window", "checker.min_window", {"type": int}),
    ("--reasoner", "reasoner.kind", {"choices": REASONER_KINDS}),
    ("--endpoint", "reasoner.endpoint", {"help": "Chat-completion endpoint URL"}),
    ("--model", "reasoner.model", {}),
    ("--detector", "detector.kind", {"choices": DETECTOR_KINDS}),
    ("--corpus", "corpus_dir", {"help": "Guideline corpus directory"}),
    ("--step-error-rate", "reasoner.oracle.step_error_rate", {"type": float}),
    ("--status-error-rate", "reasoner.oracle.status_error_rate", {"type": float}),
    ("--flip-rate", "reasoner.oracle.proactive_flip_rate",
     {"type": float, "help": "Oracle proactive flip rate"}),
    ("--oracle-seed", "reasoner.oracle.seed", {"type": int}),
]


def _add_config_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--config", default=None, help="Pipeline config JSON file")
    for flag, path, kwargs in _CONFIG_FLAGS:
        ap.add_argument(flag, dest=path, default=None, **kwargs)


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    """The ``--config`` file (if any) with every given flag laid over it."""
    obj, flags = {}, {}
    if args.config:
        try:
            obj = loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:  # a JSON or UTF-8 fault, named as load_report names one
            raise ValueError(f"{args.config}: {exc}") from None
    for _, path, _ in _CONFIG_FLAGS:
        if (value := getattr(args, path)) is not None:
            *sections, key = path.split(".")
            node = flags
            for section in sections:
                node = node.setdefault(section, {})
            node[key] = value
    return config_from_dict(obj, flags)


def _cmd_generate(args: argparse.Namespace) -> int:
    from ..trace.synthetic import generate_synthetic, standard_script

    script = standard_script(seed=args.seed)
    trace = generate_synthetic(script)
    root = write_session(trace, args.out)
    pairs = len(trace.frames) // 2  # the generator records whole pairs
    print(f"wrote session to {root} ({pairs} pairs, {len(trace.imu)} imu samples, "
          f"{trace.duration}s)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .report import format_metrics, write_report

    cfg = _build_config(args)
    trace = load_session(args.session)
    log, metrics = replay(trace, cfg)
    print(format_metrics(metrics))
    print(f"{'deliveries':>16}  {run_counts(log)['deliveries']}")
    if args.out:
        path = write_report(log, metrics, args.out)
        print(f"{'report':>16}  {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # a background job of a shell starts with SIGINT ignored, and Python keeps that; only
    # the main thread may set a handler
    if (signal.getsignal(signal.SIGINT) is signal.SIG_IGN
            and threading.current_thread() is threading.main_thread()):
        signal.signal(signal.SIGINT, signal.default_int_handler)
    cfg = _build_config(args)
    server = PipelineServer(cfg, host=args.host, port=args.port)
    host, port = server.address
    try:  # an interrupt during the print must still close the socket
        print(f"listening on {host}:{port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def _cmd_send(args: argparse.Namespace) -> int:
    from .client import stream_session

    trace = load_session(args.session)
    session_id = args.session_id or Path(args.session).name
    try:
        result = stream_session(
            trace,
            args.host,
            args.port,
            session_id=session_id,
            include_annotations=not args.no_annotations,
            pace=args.pace,
        )
    except RuntimeError as exc:  # the server dropped the session, closed or went silent
        raise ValueError(exc) from None
    for assist in result.assists:
        print(f"[{assist['t']:8.2f}] {assist['step']} ({assist['status']}): {assist['text']}")
    for err in result.errors:
        print(f"server error {err['code']}: {err['detail']}", file=sys.stderr)
    counts = " ".join(f"{k}={v}" for k, v in sorted((result.end_counts or {}).items()))
    print(f"session {session_id} finished: {counts}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .report import format_metrics, load_report

    log = load_report(args.report)
    trace = load_session(args.session)
    print(format_metrics(compute_metrics(log, trace)))
    return 0


def _cmd_retrieve(args: argparse.Namespace) -> int:
    corpus = GuidelineCorpus.load(args.corpus)
    result = retrieve_guideline(args.instruction, corpus)
    flag = " (low confidence)" if result.low_confidence else ""
    print(f"{result.doc_id}  similarity={result.similarity:.4f}{flag}")
    if args.structure:
        print(ScriptedStructurer().structure(result.text).render())
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="stepassist",
        description="Trace-driven proactive step assistance: replay, serve, and score sessions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="Write a synthetic session directory")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("replay", help="Run the pipeline over a recorded session")
    r.add_argument("--session", required=True, help="Session directory")
    r.add_argument("--out", default=None, help="Write report.json/events.csv/metrics.csv here")
    _add_config_args(r)
    r.set_defaults(func=_cmd_replay)

    s = sub.add_parser("serve", help="Serve live sessions over TCP")
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=7461)
    _add_config_args(s)
    s.set_defaults(func=_cmd_serve)

    c = sub.add_parser("send", help="Stream a recorded session to a running server")
    c.add_argument("--session", required=True)
    c.add_argument("--host", default="127.0.0.1")
    c.add_argument("--port", type=int, default=7461)
    c.add_argument("--session-id", default=None)
    c.add_argument("--no-annotations", action="store_true")
    c.add_argument("--pace", action="store_true", help="Send records in real time")
    c.set_defaults(func=_cmd_send)

    e = sub.add_parser("eval", help="Recompute metrics for a saved report")
    e.add_argument("--report", required=True, help="report.json or its directory")
    e.add_argument("--session", required=True)
    e.set_defaults(func=_cmd_eval)

    q = sub.add_parser("retrieve", help="Match an instruction against a guideline corpus")
    q.add_argument("--corpus", required=True)
    q.add_argument("--instruction", required=True)
    q.add_argument("--structure", action="store_true")
    q.set_defaults(func=_cmd_retrieve)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # an input fault; others keep their traceback
        print(f"stepassist: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
