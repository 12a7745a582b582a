import argparse
import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepassist
from stepassist.checker import CheckerState, update
from stepassist.harness.config import (
    DetectorSpec,
    PipelineConfig,
    ReasonerSpec,
    StructurerSpec,
    config_from_dict,
)
from stepassist.harness.events import (
    DELIVERY,
    ERROR,
    KEY_MOMENT,
    REASONED,
    SAMPLED_PAIR,
    TRANSITION,
    EventLog,
)
from stepassist.harness import cli
from stepassist.harness import client
from stepassist.harness.pipeline import (
    SessionPipeline,
    replay,
    resolve_guideline,
    synthesize_guideline,
)
from stepassist.harness.report import (
    EVENTS_FILE,
    METRICS_FILE,
    UNDEFINED,
    format_metrics,
    load_report,
    write_report,
)
from stepassist.metrics import MetricsReport, compute_metrics
from stepassist.perception import SamplerConfig
from stepassist.httpchat import ChatEndpointError
from stepassist.reasoner import (
    MalformedOutput,
    OracleReasoner,
    ReasonerOutput,
)
from stepassist.trace.io import validate_session
from stepassist.trace.synthetic import (
    FRAME_GRID,
    HandMove,
    HandTrack,
    PhaseSpec,
    StepPlan,
    SyntheticScript,
    generate_synthetic,
    standard_script,
)
from stepassist.trace.types import (
    ExecutionStatus,
    FrameRecord,
    ImuSample,
    Session,
    SessionTrace,
    StepSegment,
)

from conftest import dead_endpoint, fixture_config, hanging_endpoint
from oracles import run_sampler, trace_pairs
from test_reasoner import MockChat, content_reply

IP = ExecutionStatus.IN_PROGRESS
JS = ExecutionStatus.JUST_START


def shelf_script(**overrides) -> SyntheticScript:
    """Two steps over 8 s with a hand moving fast enough to key every pair."""
    plan = dict(
        steps=(
            StepPlan(
                "Sand the edges",
                (PhaseSpec(JS, 1.0), PhaseSpec(IP, 3.0)),
                proactive=((1.0, 3.0),),
            ),
            StepPlan("Wipe the dust", (PhaseSpec(IP, 4.0),)),
        ),
        instruction="smooth the shelf",
        hands=(HandTrack("left", 12, 28, (HandMove(0.0, 8.0, 12, 0),)),),
        seed=5,
    )
    plan.update(overrides)
    return SyntheticScript(**plan)


@pytest.fixture(scope="module")
def shelf_trace():
    return generate_synthetic(shelf_script())


# -- engine behaviour ----------------------------------------------------------


def test_replay_is_bitwise_deterministic(shelf_trace):
    log_a, metrics_a = replay(shelf_trace, fixture_config())
    log_b, metrics_b = replay(shelf_trace, fixture_config())
    assert log_a.dumps() == log_b.dumps()
    assert metrics_a == metrics_b


def test_replay_moments_match_the_standalone_sampler(shelf_trace):
    cfg = fixture_config()
    log, _ = replay(shelf_trace, cfg)
    expected = run_sampler(shelf_trace, cfg.sampler)
    sampled = log.of_kind(SAMPLED_PAIR)
    assert len(sampled) == len(expected)
    for ev, want in zip(sampled, expected):
        assert want.pair is not None
        assert ev.data["scheduled_t"] == want.scheduled_t
        assert ev.data["mode"] == want.mode
        assert ev.data["pair"] == want.pair.pair_id
        assert ev.t == want.pair.t


def test_incremental_feeding_accumulates_one_log(shelf_trace):
    engine = SessionPipeline(fixture_config(), shelf_trace)
    streamed = []
    for record in shelf_trace.iter_sensor_records():
        if isinstance(record, ImuSample):
            streamed.extend(engine.feed_imu(record))
        else:
            streamed.extend(engine.feed_frame(record))
    streamed.extend(engine.finish())
    assert streamed == engine.log.events

    batch_log, _ = replay(shelf_trace, fixture_config())
    assert engine.log.dumps() == batch_log.dumps()


class FakeClock:
    """Stands in for the ``time`` module: ``sleep`` advances ``perf_counter`` by its
    argument plus ``overshoot``, as a real sleep that wakes late does."""

    def __init__(self, overshoot: float = 0.0) -> None:
        self.now = 100.0
        self.overshoot = overshoot
        self.slept: list[float] = []

    def perf_counter(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds + self.overshoot


def test_paced_records_sleep_out_the_recorded_gaps(shelf_trace, monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(client, "time", clock)
    records = list(client.paced(shelf_trace.iter_sensor_records()))
    assert records == list(shelf_trace.iter_sensor_records())
    assert all(gap > 0 for gap in clock.slept)
    assert sum(clock.slept) == pytest.approx(records[-1].timestamp - records[0].timestamp)


def test_paced_records_do_not_add_up_each_sleeps_overshoot(monkeypatch):
    # 1000 gyro records 5 ms apart, and a sleep that always wakes 1 ms late
    clock = FakeClock(overshoot=0.001)
    monkeypatch.setattr(client, "time", clock)
    samples = [ImuSample(k * 0.005, 0.0, 0.0, 0.0) for k in range(1000)]
    fed_at = [clock.now for _ in client.paced(samples)]
    span = samples[-1].timestamp - samples[0].timestamp
    assert len(fed_at) == 1000
    # no record goes out early, and the last is late by one overshoot, not 999
    assert all(at - fed_at[0] >= s.timestamp - 1e-9 for at, s in zip(fed_at, samples))
    assert fed_at[-1] - fed_at[0] <= span + clock.overshoot + 1e-9


def bare_engine() -> SessionPipeline:
    """An engine for a session with the shelf script's frame size and pair gap."""
    session = Session(instruction="demo", width=120, height=96, pair_gap=0.1,
                      segments=[StepSegment(0.0, 1.0, "A", IP)])
    return SessionPipeline(fixture_config(), session)


def test_feeding_rejects_out_of_order_records(shelf_trace):
    engine = bare_engine()
    engine.feed_imu(ImuSample(0.0, 0.1, 0.0, 0.0))
    engine.feed_imu(ImuSample(1.0, 0.1, 0.0, 0.0))
    with pytest.raises(ValueError, match="timestamp order"):
        engine.feed_imu(ImuSample(0.5, 0.1, 0.0, 0.0))

    frames = [r for r in shelf_trace.iter_sensor_records() if not isinstance(r, ImuSample)]
    engine2 = bare_engine()
    engine2.feed_frame(frames[0])
    with pytest.raises(ValueError, match="strictly increasing"):
        engine2.feed_frame(frames[0])

    engine3 = bare_engine()
    with pytest.raises(ValueError, match="slot b before"):
        engine3.feed_frame(frames[1])  # slot b of pair 0 without its slot a


def test_session_pair_gap_sets_the_binding_tolerance():
    # every pair is recorded 0.07 s after its slot on the schedule: within
    # half of a 0.2 s pair gap, beyond half of a 0.1 s one
    for pair_gap, binds in ((0.2, True), (0.1, False)):
        trace = generate_synthetic(shelf_script(pair_gap=pair_gap))
        trace.frames = [
            dataclasses.replace(f, timestamp=f.timestamp + 0.07) for f in trace.frames
        ]
        log, _ = replay(trace, fixture_config())
        schedule = run_sampler(trace, fixture_config().sampler)
        assert all((s.pair is not None) == binds for s in schedule)
        assert [ev.data["pair"] for ev in log.of_kind(SAMPLED_PAIR)] == [
            s.pair.pair_id for s in schedule if s.pair is not None
        ]
        misses = [ev for ev in log.of_kind(ERROR) if ev.data["code"] == "sampling_miss"]
        assert len(misses) == (0 if binds else len(schedule))


@pytest.mark.parametrize("pair_gap", [0.5, 0.7, 0.0, -0.1, float("nan")])
def test_pair_gap_outside_the_burst_interval_is_rejected(shelf_trace, pair_gap):
    # the fixture's burst interval is 0.5 s
    trace = dataclasses.replace(shelf_trace, pair_gap=pair_gap)
    with pytest.raises(ValueError, match="pair gap"):
        replay(trace, fixture_config())


def test_frame_of_another_size_is_rejected(shelf_trace):
    trace = dataclasses.replace(shelf_trace, width=shelf_trace.width + 8)
    with pytest.raises(ValueError, match="geometry"):
        replay(trace, fixture_config())


def test_finished_engine_refuses_more_input(shelf_trace):
    engine = SessionPipeline(fixture_config(), shelf_trace)
    feed(engine, shelf_trace.iter_sensor_records())  # and finish
    with pytest.raises(RuntimeError, match="finished"):
        engine.feed_imu(ImuSample(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(RuntimeError, match="finished"):
        engine.finish()


def test_dropped_pair_surfaces_as_sampling_miss():
    trace = generate_synthetic(shelf_script())
    trace.frames = [f for f in trace.frames if f.pair_id != 8]  # the pair at t = 4.0
    del trace.hand_boxes[8]  # no frame names the pair now
    log, _ = replay(trace, fixture_config())
    misses = [ev for ev in log.of_kind(ERROR) if ev.data["code"] == "sampling_miss"]
    assert len(misses) == 1
    assert misses[0].t == 4.0
    assert misses[0].data["scheduled_t"] == 4.0
    # the schedule keeps walking afterwards
    later = [ev for ev in log.of_kind(SAMPLED_PAIR) if ev.data["scheduled_t"] > 4.0]
    assert [ev.data["scheduled_t"] for ev in later] == [5.0, 6.0, 7.0, 8.0]


# -- the stream rules ----------------------------------------------------------


def blank(t: float, pair_id: int, slot: str) -> FrameRecord:
    return FrameRecord(t, pair_id, slot, np.zeros((16, 16), dtype=np.uint8))


def small_session(frames, imu, end=1.6) -> SessionTrace:
    return SessionTrace(
        instruction="demo",
        width=16,
        height=16,
        pair_gap=0.1,
        frames=frames,
        imu=imu,
        segments=[StepSegment(0.0, end, "A", IP)],
        proactive_intervals=[],
    )


def interleaved_trace() -> SessionTrace:
    """Pairs 0 and 1 interleaved, each on the pair gap, then pairs at 1, 2 and 3 s."""
    frames = [blank(0.0, 0, "a"), blank(0.0005, 1, "a"), blank(0.1001, 1, "b"),
              blank(0.1009, 0, "b")]
    for pair_id, t in ((2, 1.0), (3, 2.0), (4, 3.0)):
        frames += [blank(t, pair_id, "a"), blank(t + 0.1, pair_id, "b")]
    return small_session(frames, [ImuSample(k * 0.25, 0.1, 0, 0) for k in range(14)], end=3.1)


def test_interleaved_pairs_are_refused_by_validation_and_replay():
    trace = interleaved_trace()
    assert {v.kind for v in validate_session(trace).violations} == {"incomplete_pair"}
    with pytest.raises(ValueError, match="pair 0 has no slot b"):
        replay(trace, fixture_config())


@pytest.mark.parametrize(
    "frames, imu, kind",
    [
        ([], [ImuSample(-0.25, 0.1, 0, 0)], "negative_timestamp"),
        ([blank(-0.1, 0, "a"), blank(0.0, 0, "b")], [], "negative_timestamp"),
        ([blank(0.0, 0, "a"), blank(0.1, 0, "b"), blank(0.5, 0, "a"), blank(0.6, 0, "b")], [],
         "duplicate_frame"),
        ([blank(0.0, 0, "a"), blank(0.1, 0, "b"), blank(0.5, 1, "a")], [], "incomplete_pair"),
    ],
    ids=["negative-imu-time", "negative-frame-time", "repeated-pair-id", "slot-a-at-finish"],
)
def test_engine_refuses_what_validation_refuses(frames, imu, kind):
    report = validate_session(small_session(frames, imu))
    assert kind in {v.kind for v in report.violations}
    engine = SessionPipeline(fixture_config(), small_session([], []))
    with pytest.raises(ValueError) as err:
        feed(engine, imu + frames)
    assert str(err.value) == next(v.message for v in report.violations if v.kind == kind)


def test_a_record_far_past_the_last_is_refused_before_the_schedule_runs_to_it():
    engine = SessionPipeline(fixture_config(), small_session([], []))
    engine.feed_imu(ImuSample(0.0, 0.1, 0, 0))
    with pytest.raises(ValueError, match="over 60.0s after t=0.0"):
        engine.feed_imu(ImuSample(20000.0, 0.1, 0, 0))
    assert len(engine.decided) <= 1


def test_a_second_slot_a_is_refused_at_once():
    engine = SessionPipeline(fixture_config(), small_session([], []))
    fed = 0
    with pytest.raises(ValueError, match="pair 0 has no slot b"):
        for pair_id in range(1000):
            engine.feed_frame(blank(pair_id * 0.5, pair_id, "a"))
            fed += 1
    assert fed == 1


STREAM_KINDS = {
    "imu_nonfinite", "negative_timestamp", "imu_start", "imu_order", "frame_geometry",
    "frame_nonfinite", "frame_order", "pair_gap", "duplicate_frame", "incomplete_pair",
}


@st.composite
def mutated_sessions(draw):
    """A small valid session with one stream record dropped, copied, moved or altered."""
    frames = [
        blank(t + d, pair_id, slot)
        for pair_id, t in enumerate((0.0, 0.5, 1.0, 1.5))
        for slot, d in (("a", 0.0), ("b", 0.1))
    ]
    imu = [ImuSample(k * 0.25, 0.1, 0, 0) for k in range(8)]
    i = draw(st.integers(0, len(frames) - 1))
    fr = frames[i]
    times = st.sampled_from([-0.1, math.nan, fr.timestamp + 0.0005, fr.timestamp + 0.05,
                             fr.timestamp - 0.1, fr.timestamp + 0.4, fr.timestamp + 0.5])
    mutation = draw(st.sampled_from(
        ["drop", "copy", "swap", "retime", "pair", "imu_time", "imu_shift"]
    ))
    if mutation == "drop":
        del frames[i]
    elif mutation == "copy":
        frames.insert(i, fr)
    elif mutation == "swap":
        j = draw(st.integers(0, len(frames) - 1))
        frames[i], frames[j] = frames[j], frames[i]
    elif mutation == "retime":
        frames[i] = dataclasses.replace(fr, timestamp=draw(times))
    elif mutation == "pair":
        frames[i] = dataclasses.replace(fr, pair_id=draw(st.integers(-1, 5)))
    elif mutation == "imu_time":
        k = draw(st.integers(0, len(imu) - 1))
        imu[k] = dataclasses.replace(imu[k], timestamp=draw(st.sampled_from([-0.1, math.nan])))
    else:
        shift = draw(st.sampled_from([-0.1, 0.05, 0.3]))
        imu = [dataclasses.replace(s, timestamp=s.timestamp + shift) for s in imu]
    return small_session(frames, imu)


@settings(max_examples=200, deadline=None)
@given(mutated_sessions())
def test_replay_refuses_exactly_the_streams_validation_refuses(trace):
    refused = {v.kind for v in validate_session(trace).violations} & STREAM_KINDS
    try:
        replay(trace, fixture_config())
    except ValueError:
        assert refused
    else:
        assert not refused


# -- the causal window ---------------------------------------------------------


def feed(engine, records, after_each=None):
    for record in records:
        if isinstance(record, ImuSample):
            engine.feed_imu(record)
        else:
            engine.feed_frame(record)
        if after_each is not None:
            after_each(engine)
    engine.finish()
    return engine.log


def schedule_outcomes(log):
    """(scheduled time, pair, mode, motion) per sampled pair; (time, None) per miss."""
    out = []
    for ev in log:
        if ev.kind == SAMPLED_PAIR:
            data = ev.data
            out.append((data["scheduled_t"], data["pair"], data["mode"], data["motion"]))
        elif ev.kind == ERROR and ev.data["code"] == "sampling_miss":
            out.append((ev.data["scheduled_t"], None))
    return out


@st.composite
def windowed_sessions(draw):
    """A small session whose pairs sit on, near, or exactly a binding
    tolerance from schedule times, plus one cross-stream feed order."""
    rnd = draw(st.randoms(use_true_random=False))
    pair_gap = draw(st.sampled_from([0.1, 0.125]))
    tol = pair_gap / 2
    # schedule times are multiples of the 0.5 s burst interval; a pair a gap
    # early ends on one, which can be the schedule's last
    jitter = st.one_of(
        st.sampled_from([-pair_gap, -tol, 0.0, tol]), st.floats(-1.5 * tol, 1.5 * tol)
    )
    slots = draw(st.lists(st.one_of(st.none(), jitter), min_size=2, max_size=24))
    if all(j is None for j in slots):
        slots[0] = 0.0
    image = np.zeros((16, 16), dtype=np.uint8)
    frames = []
    for pair_id, j in enumerate(slots):
        if j is not None:
            t = max(0.0, pair_id * 0.5 + j)
            frames.append(FrameRecord(t, pair_id, "a", image))
            frames.append(FrameRecord(t + pair_gap, pair_id, "b", image))

    # periods that divide the 0.5 s burst interval put samples on schedule times
    period = draw(st.one_of(st.sampled_from([0.125, 0.25]), st.floats(0.02, 0.4)))
    offset = draw(st.floats(0.0, 1.0)) * period
    end = frames[-1].timestamp + draw(st.floats(-1.0, 1.0))
    imu_times = [0.0] + [offset + k * period for k in range(int(end / period) + 1)]
    # a timestamp can repeat, with another reading
    imu_times += [t for t in imu_times if rnd.random() < 0.2]
    imu = [ImuSample(t, 0.5 if rnd.random() < 0.3 else 0.1, 0, 0) for t in sorted(imu_times)]

    # each stream arrives in order, after its own delays
    arrivals = []
    for stream, records in enumerate((imu, frames)):
        lag, last = rnd.uniform(0.0, 3.0), 0.0
        for record in records:
            last = max(last, record.timestamp + lag * rnd.random())
            arrivals.append((last, stream, record))
    order = [r for _, _, r in sorted(arrivals, key=lambda a: a[:2])]
    session = SessionTrace(
        instruction="demo",
        width=16,
        height=16,
        pair_gap=pair_gap,
        frames=frames,
        imu=imu,
        segments=[StepSegment(0.0, frames[-1].timestamp, "A", IP)],
        proactive_intervals=[],
    )
    smoothing = draw(st.sampled_from([0.05, 0.2, 0.25, 0.5]))
    return session, order, SamplerConfig(smoothing_window=smoothing)


@settings(max_examples=150, deadline=None)
@given(windowed_sessions())
def test_windowed_engine_schedules_like_the_full_trace_sampler(case):
    session, order, sampler = case
    engine = SessionPipeline(PipelineConfig(sampler=sampler), session)
    log = feed(engine, order)
    expected = [
        (s.scheduled_t, s.pair.pair_id, s.mode, s.motion) if s.pair else (s.scheduled_t, None)
        for s in run_sampler(session, sampler)
    ]
    assert schedule_outcomes(log) == expected
    assert engine.pair_count == len(trace_pairs(session))


def test_a_repeated_imu_timestamp_counts_whatever_the_stream_order():
    # two samples at t = 1.0; with the frames already past t + tolerance, the
    # first of them used to resolve the moment before the second arrived
    image = np.zeros((16, 16), dtype=np.uint8)
    frames = []
    for pair_id, t in enumerate([0.0, 1.0, 2.0, 3.0]):
        frames += [FrameRecord(t, pair_id, "a", image), FrameRecord(t + 0.1, pair_id, "b", image)]
    readings = [(0.0, 0.1), (0.5, 0.1), (1.0, 0.1), (1.0, 0.9), (3.5, 0.1)]
    imu = [ImuSample(t, g, 0, 0) for t, g in readings]
    session = SessionTrace(
        instruction="demo",
        width=16,
        height=16,
        pair_gap=0.1,
        frames=frames,
        imu=imu,
        segments=[StepSegment(0.0, 3.1, "A", IP)],
        proactive_intervals=[],
    )
    cfg = PipelineConfig(sampler=SamplerConfig(smoothing_window=0.25))
    in_time = feed(SessionPipeline(cfg, session), session.iter_sensor_records())
    frames_first = feed(SessionPipeline(cfg, session), frames + imu)
    assert frames_first.dumps() == in_time.dumps()
    assert (1.0, 1, "burst", 0.5) in schedule_outcomes(in_time)


def kitchen_script(repeats: int) -> SyntheticScript:
    """The standard kitchen script with its 72 s of steps played ``repeats`` times."""
    base = standard_script()
    span = base.total_duration

    def repeated(items, shift):
        return tuple(shift(x, span * r) for r in range(repeats) for x in items)

    def shift_move(move, d):
        return dataclasses.replace(move, start=move.start + d, end=move.end + d)

    return dataclasses.replace(
        base,
        steps=base.steps * repeats,
        burst_windows=repeated(base.burst_windows, lambda w, d: (w[0] + d, w[1] + d)),
        hands=tuple(
            dataclasses.replace(h, moves=repeated(h.moves, shift_move)) for h in base.hands
        ),
    )


def test_held_records_are_bounded_by_the_config_not_the_session_length():
    cfg = fixture_config()
    script = standard_script()
    # after a cut at t, the window reaches back to the last sample at or
    # before t - smoothing_window (or t - tolerance for pairs); the next
    # moment (at most normal_interval on) resolves once a pair completes
    # past it + tolerance, at most one frame slot and one pair gap later
    tol = script.pair_gap / 2
    reach = cfg.sampler.normal_interval + tol + FRAME_GRID + script.pair_gap
    imu_bound = (cfg.sampler.smoothing_window + reach) / script.imu_period + 2
    pair_bound = (tol + reach) / FRAME_GRID + 1

    def held_sizes(repeats):
        held = {"imu": 0, "pairs": 0}

        def check(engine):
            assert len(engine.imu) <= imu_bound and len(engine.pairs) <= pair_bound
            held["imu"] = max(held["imu"], len(engine.imu))
            held["pairs"] = max(held["pairs"], len(engine.pairs))

        trace = generate_synthetic(kitchen_script(repeats))
        feed(SessionPipeline(cfg, trace), trace.iter_sensor_records(), check)
        return held

    assert kitchen_script(9).total_duration >= 600.0
    assert held_sizes(1) == held_sizes(9)


def test_a_camera_stall_holds_no_more_gyro_than_an_in_order_feed(standard_trace):
    # every frame arrives 60 s after the gyro sample at its time: the gyro
    # path still decides each scheduled time, so only the decided times wait
    cfg = fixture_config()
    lag = 60.0
    stalled = sorted(
        standard_trace.iter_sensor_records(),
        key=lambda r: (r.timestamp + (0.0 if isinstance(r, ImuSample) else lag),
                       isinstance(r, FrameRecord)),
    )

    def fed(records):
        peak = {"imu": 0, "decided": 0}

        def check(engine):
            peak["imu"] = max(peak["imu"], len(engine.imu))
            peak["decided"] = max(peak["decided"], len(engine.decided))

        log = feed(SessionPipeline(cfg, standard_trace), records, check)
        return log.dumps(), peak

    in_order, in_order_peak = fed(standard_trace.iter_sensor_records())
    stalled_log, stalled_peak = fed(stalled)
    assert stalled_log == in_order
    assert stalled_peak["imu"] <= in_order_peak["imu"]
    assert lag / cfg.sampler.normal_interval <= stalled_peak["decided"]
    assert stalled_peak["decided"] <= lag / cfg.sampler.burst_interval + 1


class Tamper:
    """Wraps a reasoner and garbles its reply at scripted timestamps."""

    def __init__(self, inner, bad_times):
        self.inner = inner
        self.bad = set(bad_times)

    def reason(self, inp):
        if inp.timestamp in self.bad:
            return MalformedOutput("scripted garbage", attempts=2)
        return self.inner.reason(inp)


def refold_checker(log, cfg):
    """Independent fold of the logged predictions through the checker."""
    state = CheckerState()
    transitions = []
    decisions = []
    for ev in log.of_kind(REASONED):
        out = ReasonerOutput(
            step=ev.data["step"],
            status=ExecutionStatus.parse(ev.data["status"]),
            proactive=ev.data["proactive"],
            response=ev.data["response"],
            reasoning=ev.data["reasoning"],
            off_guideline=ev.data["off_guideline"],
        )
        prior = state.active_step
        state, decision = update(state, out, cfg.checker)
        if decision.transitioned:
            transitions.append((ev.t, prior, state.active_step))
        decisions.append((ev.t, decision.deliver))
    return transitions, decisions


def test_malformed_replies_are_contained(shelf_trace):
    cfg = fixture_config()
    oracle = OracleReasoner(shelf_trace.segments, shelf_trace.proactive_intervals)
    bad_times = (2.0, 5.0)
    log, _ = replay(shelf_trace, cfg, reasoner=Tamper(oracle, bad_times))

    errors = [ev for ev in log.of_kind(ERROR) if ev.data["code"] == "malformed_output"]
    assert [ev.t for ev in errors] == list(bad_times)
    assert all(ev.data["attempts"] == 2 for ev in errors)
    assert all(ev.data["detail"] == "scripted garbage" for ev in errors)

    # the garbled moments leave no trace downstream of the error event
    reasoned_times = {ev.t for ev in log.of_kind(REASONED)}
    assert reasoned_times.isdisjoint(bad_times)
    assert {ev.t for ev in log.of_kind(DELIVERY)} == reasoned_times

    # checker state evolved exactly as a fold over the surviving predictions
    transitions, decisions = refold_checker(log, cfg)
    assert [
        (ev.t, ev.data["from_step"], ev.data["to_step"]) for ev in log.of_kind(TRANSITION)
    ] == transitions
    assert [(ev.t, ev.data["deliver"]) for ev in log.of_kind(DELIVERY)] == decisions


def test_malformed_moments_only_differ_locally(shelf_trace):
    cfg = fixture_config()
    clean_log, _ = replay(shelf_trace, cfg)
    oracle = OracleReasoner(shelf_trace.segments, shelf_trace.proactive_intervals)
    bad_log, _ = replay(shelf_trace, cfg, reasoner=Tamper(oracle, (6.0,)))
    clean_before = [ev for ev in clean_log if ev.t < 6.0]
    bad_before = [ev for ev in bad_log if ev.t < 6.0]
    assert clean_before == bad_before


def assert_each_moment_dropped(log, detail):
    key_pairs = [ev.data["pair"] for ev in log.of_kind(KEY_MOMENT)]
    errors = log.of_kind(ERROR)
    assert key_pairs
    assert [ev.data["code"] for ev in errors] == ["reasoner_unavailable"] * len(key_pairs)
    assert [ev.data["pair"] for ev in errors] == key_pairs
    assert all(detail in ev.data["detail"] for ev in errors)
    assert log.of_kind(REASONED) == log.of_kind(DELIVERY) == log.of_kind(TRANSITION) == []


def test_dead_reasoner_endpoint_drops_each_moment(shelf_trace):
    cfg = fixture_config(reasoner=ReasonerSpec(kind="remote", endpoint=dead_endpoint()))
    log, _ = replay(shelf_trace, cfg)
    assert_each_moment_dropped(log, "unreachable")


def test_hanging_reasoner_endpoint_drops_each_moment(shelf_trace):
    with hanging_endpoint() as endpoint:
        reasoner = ReasonerSpec(kind="remote", endpoint=endpoint, timeout=0.2)
        log, _ = replay(shelf_trace, fixture_config(reasoner=reasoner))
    assert_each_moment_dropped(log, "timed out")


def test_an_over_deep_reply_drops_each_moment_as_malformed(shelf_trace):
    moments = len(replay(shelf_trace, fixture_config())[0].of_kind(KEY_MOMENT))
    deep = content_reply('{"step": ' + "[" * 5000)
    with MockChat([deep] * (2 * moments)) as mock:
        reasoner = ReasonerSpec(kind="remote", endpoint=mock.endpoint, timeout=5.0)
        log, _ = replay(shelf_trace, fixture_config(reasoner=reasoner))
    key_pairs = [ev.data["pair"] for ev in log.of_kind(KEY_MOMENT)]
    errors = log.of_kind(ERROR)
    assert moments and len(key_pairs) == moments and not log.of_kind(REASONED)
    assert [ev.data["code"] for ev in errors] == ["malformed_output"] * moments
    assert [ev.data["pair"] for ev in errors] == key_pairs
    assert all("nested too deeply" in ev.data["detail"] for ev in errors)


class Unreachable:
    """Wraps a reasoner and fails to reach it at scripted timestamps."""

    def __init__(self, inner, down_times):
        self.inner = inner
        self.down = set(down_times)

    def reason(self, inp):
        if inp.timestamp in self.down:
            raise ChatEndpointError("endpoint down")
        return self.inner.reason(inp)


def test_unavailable_reasoner_leaves_the_checker_untouched(shelf_trace):
    cfg = fixture_config()
    oracle = OracleReasoner(shelf_trace.segments, shelf_trace.proactive_intervals)
    down_times = (2.0, 5.0)
    log, _ = replay(shelf_trace, cfg, reasoner=Unreachable(oracle, down_times))

    errors = log.of_kind(ERROR)
    assert [(ev.t, ev.data["code"]) for ev in errors] == [
        (t, "reasoner_unavailable") for t in down_times
    ]
    assert [ev.data["detail"] for ev in errors] == ["endpoint down"] * len(down_times)
    assert {ev.t for ev in log.of_kind(REASONED)}.isdisjoint(down_times)
    transitions, decisions = refold_checker(log, cfg)
    assert [
        (ev.t, ev.data["from_step"], ev.data["to_step"]) for ev in log.of_kind(TRANSITION)
    ] == transitions
    assert [(ev.t, ev.data["deliver"]) for ev in log.of_kind(DELIVERY)] == decisions


def test_redundant_states_are_suppressed(shelf_trace):
    log, _ = replay(shelf_trace, fixture_config())
    deliveries = log.of_kind(DELIVERY)
    assert [ev.data["deliver"] for ev in deliveries].count(True) == 1
    delivered = next(ev for ev in deliveries if ev.data["deliver"])
    assert delivered.t == 1.0  # the proactive window opens at t = 1
    assert delivered.data["response"]
    reasons = {ev.data.get("suppress_reason") for ev in deliveries if not ev.data["deliver"]}
    assert reasons == {"no_proactive_need", "redundant_state"}


# -- guideline resolution ------------------------------------------------------


def test_synthesized_guideline_chains_prerequisites():
    guideline = synthesize_guideline("demo task", ["First", "Second", "Third"])
    text = guideline.render()
    assert "1. First" in text
    assert "2. Second [after 1]" in text
    assert "3. Third [after 2]" in text
    assert guideline.step_titles() == ["First", "Second", "Third"]


def test_resolve_guideline_prefers_the_corpus(corpus_dir):
    cfg = fixture_config(corpus_dir=str(corpus_dir))
    text, titles = resolve_guideline(cfg, "brew a cup of tea", ["ignored"])
    assert "Task: Brew tea" in text
    assert titles[0] == "Measure water" and len(titles) == 6


def test_resolve_guideline_falls_back_to_the_instruction():
    text, titles = resolve_guideline(fixture_config(), "free-form tinkering", [])
    assert text == "free-form tinkering"
    assert titles == []


def remote_structurer_config(corpus_dir, endpoint):
    structurer = StructurerSpec(endpoint=endpoint, timeout=2.0)
    return fixture_config(corpus_dir=str(corpus_dir), structurer=structurer)


def test_remote_structurer_reply_gives_the_step_titles(corpus_dir):
    reply = json.dumps(
        {
            "task": "Brew tea",
            "steps": [
                {"id": 1, "title": "Boil water"},
                {"id": 2, "title": "Steep tea", "prerequisites": [1], "details": "3 min"},
            ],
        }
    )
    with MockChat([content_reply(f"Structured:\n{reply}")]) as mock:
        cfg = remote_structurer_config(corpus_dir, mock.endpoint)
        text, titles = resolve_guideline(cfg, "brew a cup of tea", [])
    assert titles == ["Boil water", "Steep tea"]
    assert "2. Steep tea [after 1]" in text
    (request,) = mock.requests
    assert request["messages"][-1]["content"].startswith("Task: Brew tea")


@pytest.mark.parametrize("reply", ["no guideline here", '{"task": "Brew tea"}'])
def test_malformed_structurer_reply_falls_back_to_the_raw_text(corpus_dir, reply):
    with MockChat([content_reply(reply)]) as mock:
        cfg = remote_structurer_config(corpus_dir, mock.endpoint)
        text, titles = resolve_guideline(cfg, "brew a cup of tea", [])
    assert text == (corpus_dir / "tea.txt").read_text(encoding="utf-8")
    assert titles == []


def test_replay_with_a_dead_structurer_endpoint_finishes(corpus_dir, standard_trace):
    cfg = remote_structurer_config(corpus_dir, dead_endpoint())
    text, titles = resolve_guideline(cfg, "brew a cup of tea", [])
    assert text == (corpus_dir / "tea.txt").read_text(encoding="utf-8")
    assert titles == []
    log, _ = replay(standard_trace, cfg)
    assert log.of_kind(REASONED)
    assert all(ev.data["off_guideline"] is False for ev in log.of_kind(REASONED))


def test_replay_with_corpus_marks_predictions_on_guideline(corpus_dir, standard_trace):
    cfg = fixture_config(corpus_dir=str(corpus_dir))
    log, _ = replay(standard_trace, cfg)
    reasoned = log.of_kind(REASONED)
    assert reasoned
    assert all(ev.data["off_guideline"] is False for ev in reasoned)


# -- artifacts -----------------------------------------------------------------


def test_report_round_trip(tmp_path, shelf_trace):
    log, metrics = replay(shelf_trace, fixture_config())
    path = write_report(log, metrics, tmp_path)
    assert load_report(path).dumps() == log.dumps()
    # the directory form loads the same file
    assert load_report(tmp_path).dumps() == log.dumps()

    events_csv = (tmp_path / EVENTS_FILE).read_text(encoding="utf-8")
    assert events_csv.splitlines()[0] == "kind,t,data"
    assert len(events_csv.splitlines()) == len(log.events) + 1


def test_report_writes_undefined_for_missing_denominators(tmp_path):
    session = Session(instruction="demo", width=8, height=8, pair_gap=0.1,
                      segments=[StepSegment(0.0, 1.0, "A", IP)])
    metrics = compute_metrics(EventLog(), session)
    write_report(EventLog(), metrics, tmp_path)
    rows = (tmp_path / METRICS_FILE).read_text(encoding="utf-8").splitlines()
    assert rows[0] == "metric,value"
    assert all(row.endswith(UNDEFINED) for row in rows[1:])
    assert UNDEFINED in format_metrics(metrics)


# -- configuration -------------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key 'typo'"):
        config_from_dict({"typo": 1})
    with pytest.raises(ValueError, match="unknown config key 'sampler.tau'"):
        config_from_dict({"sampler": {"tau": 0.3}})
    with pytest.raises(ValueError, match="unknown config key 'reasoner.oracle.rate'"):
        config_from_dict({"reasoner": {"oracle": {"rate": 0.5}}})
    # removed knobs: pacing is a replay/send argument, flow has one grid and one cost
    with pytest.raises(ValueError, match="unknown config key 'pace'"):
        config_from_dict({"pace": True})
    with pytest.raises(ValueError, match="unknown config key 'flow.cost'"):
        config_from_dict({"flow": {"cost": "sad"}})
    with pytest.raises(ValueError, match="unknown config key 'flow.grid_stride'"):
        config_from_dict({"flow": {"grid_stride": 4}})
    # the session sets the pair gap; the synthetic detector's cut-offs are constants
    for key in ("sampler.pair_gap", "detector.threshold", "detector.min_area"):
        section, name = key.split(".")
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            config_from_dict({section: {name: 1}})
    # the structurer is remote exactly when its endpoint is set
    with pytest.raises(ValueError, match="unknown config key 'structurer.kind'"):
        config_from_dict({"structurer": {"kind": "remote"}})
    # stage timings never enter the event log
    with pytest.raises(ValueError, match="unknown config key 'record_latency'"):
        config_from_dict({"record_latency": True})


def test_config_validation_failures(tmp_path):
    with pytest.raises(ValueError, match="endpoint"):
        config_from_dict({"reasoner": {"kind": "remote"}})
    with pytest.raises(ValueError, match="detector kind"):
        config_from_dict({"detector": {"kind": "lidar"}})
    with pytest.raises(ValueError, match="does not exist"):
        config_from_dict({"corpus_dir": str(tmp_path / "nope")})
    # each spec checks itself when it is built, however it is built
    with pytest.raises(ValueError, match="reasoner kind"):
        ReasonerSpec(kind="psychic")
    with pytest.raises(ValueError, match="remote reasoner requires an endpoint"):
        ReasonerSpec(kind="remote")
    with pytest.raises(ValueError, match="detector kind"):
        DetectorSpec(kind="lidar")
    # config_from_dict refuses inf before a spec is built; a spec built in Python refuses
    # it itself, or settimeout would overflow mid-session
    for spec, owner in [(ReasonerSpec, "reasoner"), (StructurerSpec, "structurer")]:
        with pytest.raises(ValueError, match=f"^{owner} timeout must be finite, got inf$"):
            spec(timeout=math.inf)
        with pytest.raises(ValueError, match=f"^{owner} timeout must be positive, got nan$"):
            spec(timeout=math.nan)
    with pytest.raises(ValueError, match="does not exist"):
        PipelineConfig(corpus_dir=str(tmp_path / "nope"))
    with pytest.raises(ValueError, match="config sampler must be an object"):
        config_from_dict({"sampler": 5})
    with pytest.raises(ValueError, match="config reasoner.oracle must be an object"):
        config_from_dict({"reasoner": {"oracle": 5}})
    # every leaf must fit its field's type; a bool is not an int
    bad_leaves = [
        ({"flow": {"block": 2.5}}, "flow.block"),
        ({"reasoner": {"timeout": "5"}}, "reasoner.timeout"),
        ({"sampler": {"tau_s": "abc"}}, "sampler.tau_s"),
        ({"corpus_dir": {}}, "corpus_dir"),
        ({"checker": {"window": True}}, "checker.window"),
    ]
    for obj, key in bad_leaves:
        with pytest.raises(ValueError, match=f"config key {key} must be"):
            config_from_dict(obj)
    # an int fits a float field, and None an optional one
    cfg = config_from_dict({"reasoner": {"timeout": 5, "model": None}})
    assert (cfg.reasoner.timeout, cfg.reasoner.model) == (5, None)


def test_config_round_trips_through_dict_and_file(tmp_path):
    cfg = fixture_config(
        structurer=StructurerSpec(endpoint="http://127.0.0.1:9/chat")
    )
    rebuilt = config_from_dict(dataclasses.asdict(cfg))
    assert rebuilt == cfg

    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "sampler": {"smoothing_window": 0.25},
                "reasoner": {"oracle": {"step_error_rate": 0.2, "seed": 7}},
                "detector": {"kind": "synthetic"},
            }
        ),
        encoding="utf-8",
    )
    # the file as the CLI's --config reads it, with no flag given
    no_flags = {dest: None for _, dest, _ in cli._CONFIG_FLAGS}
    loaded = cli._build_config(argparse.Namespace(config=str(path), **no_flags))
    assert loaded.sampler.smoothing_window == 0.25
    assert loaded.reasoner.oracle.step_error_rate == 0.2
    assert loaded.reasoner.oracle.seed == 7
    assert loaded.detector.kind == "synthetic"
    assert dataclasses.asdict(loaded)["flow"] == dataclasses.asdict(PipelineConfig())["flow"]


# -- packaging -----------------------------------------------------------------

def fresh_env(**overrides: str) -> dict[str, str]:
    """This environment with the package on the path, no ``OPENBLAS_NUM_THREADS``
    and ``overrides`` laid over it."""
    src = str(Path(stepassist.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(overrides)
    return env


IMPORT_EACH_FIRST = """
import importlib, pkgutil, sys
import stepassist
names = [m.name for m in pkgutil.walk_packages(stepassist.__path__, "stepassist.")]
for name in names:
    for loaded in [n for n in sys.modules if n.split(".")[0] == "stepassist"]:
        del sys.modules[loaded]
    importlib.import_module(name)
    print(name)
"""


def test_every_module_imports_first_in_a_fresh_interpreter():
    # the package __init__ files import nothing, so an import cycle between
    # two modules fails as soon as the one that closes it is imported first
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_EACH_FIRST],
        env=fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert {"stepassist.motion", "stepassist.harness.cli", "stepassist.trace.io"} <= set(
        run.stdout.split()
    )


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/status").is_file(), reason="needs /proc/<pid>/status"
)


# a shell's background job starts with SIGINT ignored, and exec keeps that; preexec_fn
# is unsafe with threads, so a small launcher ignores it and execs the server
IGNORING_SIGINT = ("import os, signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
                   "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])")


@needs_proc
@pytest.mark.parametrize("sigint", ["default", "ignored"])
def test_a_spawned_server_holds_one_thread_at_listening_on(sigint):
    # without the pin OpenBLAS starts a worker pool the engine never uses
    serve = ["-m", "stepassist.harness.cli", "serve", "--port", "0"]
    launcher = ["-c", IGNORING_SIGINT] if sigint == "ignored" else []
    with subprocess.Popen(
        [sys.executable, *launcher, *serve],
        env=fresh_env(), stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            assert line.startswith("listening on"), line
            status = Path(f"/proc/{proc.pid}/status").read_text().splitlines()
            assert "Threads:\t1" in status
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()  # so no server outlives the test
                raise
    assert proc.returncode == 0


CLI_IMPORT = """
import os, sys
import stepassist.harness.cli
print(os.environ["OPENBLAS_NUM_THREADS"])
print(" ".join(sorted(sys.modules)))
"""


def test_the_cli_import_keeps_a_users_blas_threads_and_defers_per_command_modules():
    run = subprocess.run(
        [sys.executable, "-c", CLI_IMPORT], env=fresh_env(OPENBLAS_NUM_THREADS="3"),
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    threads, loaded = run.stdout.splitlines()
    assert threads == "3"
    # the chat client frames its one POST itself and loads ssl only for https://
    deferred = {"stepassist.trace.synthetic", "stepassist.harness.client",
                "stepassist.harness.report", "ssl", "http.client", "urllib.request", "email"}
    assert not deferred & set(loaded.split())
