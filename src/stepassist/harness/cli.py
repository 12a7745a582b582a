"""Command-line front end: generate, replay, serve, send, eval, retrieve."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..context import GuidelineCorpus, ScriptedStructurer, retrieve_guideline
from ..metrics import compute_metrics
from ..trace.io import load_session, write_session
from ..trace.synthetic import generate_synthetic, standard_script
from .client import stream_session
from .config import DETECTOR_KINDS, REASONER_KINDS, PipelineConfig, config_from_dict
from .events import run_counts
from .pipeline import replay
from .report import format_metrics, load_report, write_report
from .server import PipelineServer


def _add_config_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--config", default=None, help="Pipeline config JSON file")
    ap.add_argument("--tau-s", type=float, default=None, help="Head-motion burst threshold")
    ap.add_argument("--normal-interval", type=float, default=None)
    ap.add_argument("--burst-interval", type=float, default=None)
    ap.add_argument("--smoothing-window", type=float, default=None)
    ap.add_argument("--pair-gap", type=float, default=None)
    ap.add_argument("--tau-f", type=float, default=None, help="Key-moment flow threshold")
    ap.add_argument("--stationary-threshold", type=float, default=None)
    ap.add_argument("--block", type=int, default=None, help="Flow block size")
    ap.add_argument("--search-radius", type=int, default=None)
    ap.add_argument("--window", type=int, default=None, help="Consistency window size")
    ap.add_argument("--tau-c", type=float, default=None, help="Dominance ratio for a step switch")
    ap.add_argument("--min-window", type=int, default=None)
    ap.add_argument("--reasoner", choices=REASONER_KINDS, default=None)
    ap.add_argument("--endpoint", default=None, help="Chat-completion endpoint URL")
    ap.add_argument("--model", default=None)
    ap.add_argument("--detector", choices=DETECTOR_KINDS, default=None)
    ap.add_argument("--corpus", default=None, help="Guideline corpus directory")
    ap.add_argument("--step-error-rate", type=float, default=None)
    ap.add_argument("--status-error-rate", type=float, default=None)
    ap.add_argument("--flip-rate", type=float, default=None, help="Oracle proactive flip rate")
    ap.add_argument("--oracle-seed", type=int, default=None)
    ap.add_argument(
        "--record-latency", action="store_const", const=True, default=None,
        help="Record wall-clock stage latencies in the event log",
    )


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    obj: dict = {}
    if args.config:
        obj = json.loads(Path(args.config).read_text(encoding="utf-8"))

    def put(section: str, key: str, value) -> None:
        if value is not None:
            obj.setdefault(section, {})[key] = value

    put("sampler", "tau_s", args.tau_s)
    put("sampler", "normal_interval", args.normal_interval)
    put("sampler", "burst_interval", args.burst_interval)
    put("sampler", "smoothing_window", args.smoothing_window)
    put("sampler", "pair_gap", args.pair_gap)
    put("key_moment", "tau_f", args.tau_f)
    put("key_moment", "stationary_threshold", args.stationary_threshold)
    put("flow", "block", args.block)
    put("flow", "search_radius", args.search_radius)
    put("checker", "window", args.window)
    put("checker", "tau_c", args.tau_c)
    put("checker", "min_window", args.min_window)
    put("reasoner", "kind", args.reasoner)
    put("reasoner", "endpoint", args.endpoint)
    put("reasoner", "model", args.model)
    put("detector", "kind", args.detector)
    if args.step_error_rate is not None:
        obj.setdefault("reasoner", {}).setdefault("oracle", {})["step_error_rate"] = args.step_error_rate
    if args.status_error_rate is not None:
        obj.setdefault("reasoner", {}).setdefault("oracle", {})["status_error_rate"] = args.status_error_rate
    if args.flip_rate is not None:
        obj.setdefault("reasoner", {}).setdefault("oracle", {})["proactive_flip_rate"] = args.flip_rate
    if args.oracle_seed is not None:
        obj.setdefault("reasoner", {}).setdefault("oracle", {})["seed"] = args.oracle_seed
    if args.corpus is not None:
        obj["corpus_dir"] = args.corpus
    if args.record_latency is not None:
        obj["record_latency"] = args.record_latency
    return config_from_dict(obj)


def _cmd_generate(args: argparse.Namespace) -> int:
    script = standard_script(seed=args.seed)
    trace = generate_synthetic(script)
    root = write_session(trace, args.out)
    pairs = len(trace.pairs())
    print(f"wrote session to {root} ({pairs} pairs, {len(trace.imu)} imu samples, "
          f"{trace.duration}s)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    trace = load_session(args.session)
    log, metrics = replay(trace, cfg, pace=args.pace)
    print(format_metrics(metrics))
    print(f"{'deliveries':>16}  {run_counts(log)['deliveries']}")
    if args.out:
        path = write_report(log, metrics, args.out)
        print(f"{'report':>16}  {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    server = PipelineServer(cfg, host=args.host, port=args.port)
    host, port = server.address
    print(f"listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def _cmd_send(args: argparse.Namespace) -> int:
    trace = load_session(args.session)
    session_id = args.session_id or Path(args.session).name
    result = stream_session(
        trace,
        args.host,
        args.port,
        session_id=session_id,
        include_annotations=not args.no_annotations,
        pace=args.pace,
    )
    for assist in result.assists:
        print(f"[{assist['t']:8.2f}] {assist['step']} ({assist['status']}): {assist['text']}")
    for err in result.errors:
        print(f"server error {err['code']}: {err['detail']}", file=sys.stderr)
    counts = " ".join(f"{k}={v}" for k, v in sorted((result.end_counts or {}).items()))
    print(f"session {session_id} finished: {counts}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    log, _ = load_report(args.report)
    trace = load_session(args.session)
    metrics = compute_metrics(log, trace)
    print(format_metrics(metrics))
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
    r.add_argument("--pace", action="store_true", help="Replay in real time")
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
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
