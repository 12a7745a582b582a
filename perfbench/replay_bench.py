"""Closed-loop replay workloads: replay-hands and replay-scene.

Each timed replay is one call of the program's ``replay()``, timed by wall
clock and process CPU. A replay counts as failed unless its scores are
perfect and its event log equals the one the untimed reference replay wrote.
"""
from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

from stepassist.harness import pipeline
from stepassist.trace.io import load_session, write_session
from stepassist.trace.synthetic import generate_synthetic

from common import (
    Result,
    fixture_config,
    hands_script,
    median,
    null_detector_config,
    peak_rss_mib,
    scene_script,
    scores_perfect,
)
from tracer import LAYER_TARGETS, Tracer, layer_report

# Before each replay the session is loaded again and again for this share of
# the last replay's wall time, so that set-up samples are many (a load takes
# milliseconds) and spread through the run.
SETUP_SHARE = 0.1


def _one_replay(trace, cfg, reference: str) -> dict:
    cpu0, t0 = time.process_time(), time.perf_counter()
    log, metrics = pipeline.replay(trace, cfg)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    ok = scores_perfect(metrics) and log.dumps() == reference
    return {"wall": wall, "cpu": cpu, "ok": ok}


def _loads(load: Callable, budget: float) -> list[float]:
    """Time loads of the session until ``budget`` seconds are spent; at least one."""
    took: list[float] = []
    while not took or sum(took) < budget:
        started = time.perf_counter()
        load()
        took.append(time.perf_counter() - started)
    return took


def _leg(trace, cfg, reference: str, seconds: float, first_wall: float,
         load: Callable) -> tuple[list[dict], list[float]]:
    """Replay for ``seconds``, timing session loads before each replay.

    A replay starts only if one as long as the last still ends in time.
    """
    runs: list[dict] = []
    loads: list[float] = []
    start = time.perf_counter()
    last_wall = first_wall
    while not runs or time.perf_counter() - start + last_wall * (1 + SETUP_SHARE) <= seconds:
        loads += _loads(load, SETUP_SHARE * last_wall)
        runs.append(_one_replay(trace, cfg, reference))
        last_wall = runs[-1]["wall"]
    return runs, loads


def _cpu_ms_per_session_s(runs: list[dict], duration: float) -> float:
    return median([r["cpu"] * 1e3 / duration for r in runs])


def run(workload: str, seed: int, seconds: float, traced: bool, work: Path, spans_out: Path) -> Result:
    if workload == "replay-hands":
        script, cfg = hands_script(seed), fixture_config()
    else:
        script, cfg = scene_script(seed), null_detector_config()
    session_dir = write_session(generate_synthetic(script), work / "session")
    trace = load_session(session_dir)

    # untimed reference through the same replay(); also warms every cache
    started = time.perf_counter()
    ref_log, ref_metrics = pipeline.replay(trace, cfg)
    ref_wall = time.perf_counter() - started
    reference = ref_log.dumps()

    res = Result()
    runs, loads = _leg(trace, cfg, reference, seconds, ref_wall, lambda: load_session(session_dir))
    res.attempted = len(runs)
    res.failed = sum(not r["ok"] for r in runs)
    if not scores_perfect(ref_metrics):
        res.failed = res.attempted
        res.notes.append(f"reference replay scores are not perfect: {ref_metrics}")

    res.metrics = {
        "setup_s": (median(loads), "s"),
        "replay_rtf": (median([trace.duration / r["wall"] for r in runs]), "session-s/s"),
        "peak_rss_mb": (peak_rss_mib("self"), "MiB"),
        "cpu_ms_per_session_s": (_cpu_ms_per_session_s(runs, trace.duration), "ms/session-s"),
    }
    res.samples = {
        "setup_s": len(loads),
        "replay_rtf": len(runs),
        "peak_rss_mb": 1,
        "cpu_ms_per_session_s": len(runs),
    }
    res.notes.append(
        f"session {trace.duration:.1f} s, {len(trace.frames) // 2} pairs, "
        f"{len(trace.imu)} imu samples; {len(runs)} replays"
    )

    if traced:
        tracer = Tracer().install(LAYER_TARGETS)
        started = time.perf_counter()
        try:
            traced_runs, _ = _leg(
                trace, cfg, reference, seconds, ref_wall,
                lambda: tracer.span("trace.load_session", load_session, session_dir),
            )
        finally:
            tracer.uninstall()
        res.notes.append(
            f"traced: {len(traced_runs)} replays in {time.perf_counter() - started:.2f} s wall"
        )
        res.attempted += len(traced_runs)
        res.failed += sum(not r["ok"] for r in traced_runs)
        res.layers = layer_report(tracer.spans, tracer.counters)
        res.layers["tracing.overhead_ratio"] = (
            _cpu_ms_per_session_s(traced_runs, trace.duration)
            / _cpu_ms_per_session_s(runs, trace.duration)
        )
        tracer.dump(spans_out)
        res.notes.append(f"spans written to {spans_out}")
    return res
