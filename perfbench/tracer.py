"""Span tracer that times stepassist's layers from the outside.

``Tracer.install`` replaces public functions with timing wrappers in the
module (or class) where their callers look them up, so nothing inside
``src/`` changes. Each call records one span: name, start, end, parent span,
thread, and the ids of the record (one wire line or one fed sensor record)
and the moment (one scheduled pair, opened by ``perception.head_motion``)
it belongs to. Spans stay in memory until ``dump`` writes them out;
``layer_report`` derives self time as a span's duration minus the time its
child spans cover.
"""
from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

# (target "module:attr" or "module:Class.method", span name)
LAYER_TARGETS = [
    ("stepassist.harness.pipeline:head_motion", "perception.head_motion"),
    ("stepassist.harness.pipeline:detect_hands", "motion.detect_hands"),
    ("stepassist.harness.pipeline:select_key_moment", "perception.select_key_moment"),
    ("stepassist.perception:estimate_flow", "motion.estimate_flow"),
    ("stepassist.harness.pipeline:textualize_motion", "context.textualize_motion"),
    ("stepassist.harness.pipeline:render_progress", "context.render_progress"),
    ("stepassist.harness.pipeline:update", "checker.update"),
    ("stepassist.harness.pipeline:compute_metrics", "metrics.compute_metrics"),
    ("stepassist.harness.pipeline:SessionPipeline.feed_imu", "pipeline.feed_imu"),
    ("stepassist.harness.pipeline:SessionPipeline.feed_frame", "pipeline.feed_frame"),
    ("stepassist.harness.pipeline:SessionPipeline.finish", "pipeline.finish"),
    ("stepassist.harness.events:EventLog.append", "events.append"),
    ("stepassist.reasoner:OracleReasoner.reason", "reasoner.reason"),
    ("stepassist.reasoner:RemoteReasoner.reason", "reasoner.reason"),
    ("stepassist.reasoner:chat_complete", "httpchat.chat_complete"),
    ("stepassist.trace.io:read_pgm", "trace.read_pgm"),
]

# the server's line decoding: JSON parse, base64, PGM
SERVER_TARGETS = [
    ("stepassist.harness.server:json.loads", "server.json_loads"),
    ("stepassist.harness.server:base64.b64decode", "server.b64decode"),
    ("stepassist.harness.server:read_pgm", "server.read_pgm"),
]
DECODE_SPANS = ("server.json_loads", "server.b64decode", "server.read_pgm")

# spans that start a new record id when called outside any other span
RECORD_SPANS = ("pipeline.feed_imu", "pipeline.feed_frame", "pipeline.finish")
MOMENT_SPAN = "perception.head_motion"


class _ModuleProxy:
    """Stands in for a module global (``json``, ``base64``) with one attribute swapped."""

    def __init__(self, module: Any, attr: str, replacement: Callable):
        self._module = module
        setattr(self, attr, replacement)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


class Tracer:
    def __init__(self) -> None:
        # (id, name, start, end, parent, thread, record, moment)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._records = itertools.count(1)
        self._moments = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.record = None
            st.moment = None
            st.line_open = False
        return st

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             hook: Callable | None = None) -> Any:
        st = self._state()
        if name == "server.json_loads":
            st.record, st.moment, st.line_open = next(self._records), None, True
        elif name in RECORD_SPANS and not st.stack and not st.line_open:
            st.record, st.moment = next(self._records), None
        if name == MOMENT_SPAN:
            st.moment = next(self._moments)
        sid = next(self._ids)
        parent = st.stack[-1] if st.stack else None
        st.stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            st.stack.pop()
            if name in RECORD_SPANS and not st.stack:
                st.line_open = False
            self.spans.append(
                (sid, name, start, end, parent, threading.get_ident(), st.record, st.moment)
            )
        if hook is not None:
            hook(self.counters, args, result)
        return result

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` under a span; for calls the benchmark makes itself."""
        return self.call(name, fn, args, kwargs)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        call = self.call

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(name, fn, args, kwargs, hook)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self, targets: list[tuple[str, str]]) -> "Tracer":
        """Swap in wrappers; raise, installing none, if the program lacks a target."""
        found, missing = [], []
        for target, name in targets:
            mod_name, _, path = target.partition(":")
            try:
                owner: Any = importlib.import_module(mod_name)
                parts = path.split(".")
                for part in parts[:-1]:
                    holder, owner = owner, getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                missing.append(target)
                continue
            found.append((name, holder if len(parts) == 2 else None, owner, parts, original))
        if missing:
            raise RuntimeError(f"tracer targets not found in the program: {', '.join(missing)}")
        for name, holder, owner, parts, original in found:
            wrapped = self._wrap(name, original)
            if holder is not None and not isinstance(owner, type):
                # module global such as ``json``: swap the global for a proxy
                self._restore.append((holder, parts[0], owner))
                setattr(holder, parts[0], _ModuleProxy(owner, parts[1], wrapped))
            else:
                self._restore.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "thread", "record", "moment"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def load_dump(path: str) -> dict[str, Any]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


# -- result hooks: counts measured where the work happens -----------------


def _flow_hook(counters, args, summary) -> None:
    counters["motion.blocks_total"] += summary.blocks_total
    counters["motion.blocks_used"] += summary.blocks_used


def _key_moment_hook(counters, args, moment) -> None:
    if moment is not None:
        counters["perception.key_moments"] += 1


def _update_hook(counters, args, result) -> None:
    if result[1].deliver:
        counters["checker.deliveries"] += 1


def _reason_hook(counters, args, out) -> None:
    if type(out).__name__ == "MalformedOutput":
        counters["reasoner.malformed"] += 1


def _chat_hook(counters, args, reply) -> None:
    if len(args[1]) > 2:  # the format-reminder retry carries the first reply
        counters["httpchat.retries"] += 1


def _finish_hook(counters, args, events) -> None:
    engine = args[0]
    counters["pipeline.held_pairs"] = max(counters["pipeline.held_pairs"], len(engine.pairs))
    counters["pipeline.held_imu"] = max(counters["pipeline.held_imu"], len(engine.imu))


HOOKS = {
    "motion.estimate_flow": _flow_hook,
    "perception.select_key_moment": _key_moment_hook,
    "checker.update": _update_hook,
    "reasoner.reason": _reason_hook,
    "httpchat.chat_complete": _chat_hook,
    "pipeline.finish": _finish_hook,
}


# -- per-layer report -------------------------------------------------------


def span_stats(spans: list) -> dict[str, dict[str, Any]]:
    """Per span name: calls, and each call's duration and self time."""
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, *_ in spans:
        if parent is not None:
            # children of one span run one after another on its thread, so
            # their summed durations are the time they cover
            child_time[parent] += end - start
    stats: dict[str, dict[str, Any]] = {}
    for sid, name, start, end, *_ in spans:
        st = stats.setdefault(name, {"calls": 0, "self": [], "dur": []})
        st["calls"] += 1
        st["dur"].append(end - start)
        st["self"].append(max(0.0, end - start - child_time.get(sid, 0.0)))
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_report(spans: list, counters: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, plus serve-only extras."""
    stats = span_stats(spans)

    def calls(name: str) -> int:
        return stats[name]["calls"] if name in stats else 0

    def self_s(name: str) -> float:
        return float(sum(stats[name]["self"])) if name in stats else 0.0

    def pct(name: str, key: str, q: float, scale: float) -> float:
        if name not in stats:
            return 0.0
        return float(np.percentile(stats[name][key], q)) * scale

    c = counters
    out: dict[str, float] = {
        "motion.estimate_flow.calls": calls("motion.estimate_flow"),
        "motion.estimate_flow.self_s": self_s("motion.estimate_flow"),
        "motion.estimate_flow.self_ms_p50": pct("motion.estimate_flow", "self", 50, 1e3),
        "motion.blocks_total": c.get("motion.blocks_total", 0),
        "motion.blocks_used": c.get("motion.blocks_used", 0),
        "motion.textured_ratio": _ratio(c.get("motion.blocks_used", 0), c.get("motion.blocks_total", 0)),
        "motion.detect_hands.calls": calls("motion.detect_hands"),
        "motion.detect_hands.self_s": self_s("motion.detect_hands"),
        "perception.head_motion.calls": calls("perception.head_motion"),
        "perception.head_motion.self_s": self_s("perception.head_motion"),
        "perception.head_motion.self_us_p50": pct("perception.head_motion", "self", 50, 1e6),
        "perception.select_key_moment.calls": calls("perception.select_key_moment"),
        "perception.select_key_moment.self_s": self_s("perception.select_key_moment"),
        "perception.key_moment_ratio": _ratio(
            c.get("perception.key_moments", 0), calls("perception.select_key_moment")
        ),
        "pipeline.feed_imu.calls": calls("pipeline.feed_imu"),
        "pipeline.feed_imu.self_s": self_s("pipeline.feed_imu"),
        "pipeline.feed_frame.calls": calls("pipeline.feed_frame"),
        "pipeline.feed_frame.self_s": self_s("pipeline.feed_frame"),
        "pipeline.finish.self_s": self_s("pipeline.finish"),
        "pipeline.held_pairs": c.get("pipeline.held_pairs", 0),
        "pipeline.held_imu": c.get("pipeline.held_imu", 0),
        "reasoner.reason.calls": calls("reasoner.reason"),
        "reasoner.reason.self_s": self_s("reasoner.reason"),
        "reasoner.reason.ms_p50": pct("reasoner.reason", "dur", 50, 1e3),
        "httpchat.chat_complete.calls": calls("httpchat.chat_complete"),
        "httpchat.retries": c.get("httpchat.retries", 0),
        "context.textualize_motion.self_s": self_s("context.textualize_motion"),
        "context.render_progress.self_s": self_s("context.render_progress"),
        "checker.update.calls": calls("checker.update"),
        "checker.update.self_s": self_s("checker.update"),
        "checker.delivery_ratio": _ratio(c.get("checker.deliveries", 0), calls("checker.update")),
        "events.append.calls": calls("events.append"),
        "events.append.self_s": self_s("events.append"),
        "metrics.compute_metrics.self_s": self_s("metrics.compute_metrics"),
        "trace.load_session.s": pct("trace.load_session", "dur", 50, 1.0),
        "trace.read_pgm.calls": calls("trace.read_pgm"),
        "trace.read_pgm.self_s": self_s("trace.read_pgm"),
        "server.records": calls("server.json_loads"),
        # printed only: these exist on serve-live alone
        "reasoner.malformed": c.get("reasoner.malformed", 0),
        "httpchat.chat_complete.ms_p50": pct("httpchat.chat_complete", "dur", 50, 1e3),
        "server.decode.self_s": sum(self_s(n) for n in DECODE_SPANS),
    }
    return out
