"""The package's acceptance gate, one criterion per test.

Each test prints a single PASS/FAIL line on the real stdout (bypassing
capture) so a full run always shows the ten verdicts, then asserts. The
criteria pin the load-bearing behaviour: scoring formulas, the consistency
algorithm, sampler cadence, flow recovery, end-to-end exactness, noise
robustness, suppression, metric arithmetic, wire equivalence, and retrieval.
"""
import math

import numpy as np
import pytest

from stepassist.checker import (
    CheckerConfig,
    CheckerState,
    DeliveryDecision,
    SuppressReason,
    update,
)
from stepassist.context import GuidelineCorpus, ProgressRecord, retrieve_guideline
from stepassist.harness.config import ReasonerSpec
from stepassist.harness.events import DELIVERY, ERROR, REASONED
from stepassist.harness.pipeline import replay
from stepassist.harness.client import stream_session
from stepassist.metrics import MomentRecord, compute_metrics, sts
from stepassist.motion import FlowConfig, estimate_flow
from stepassist.perception import SamplerConfig
from stepassist.reasoner import ExecutionStatus, OracleConfig, ReasonerOutput
from stepassist.trace.synthetic import (
    HandMove,
    HandTrack,
    PhaseSpec,
    StepPlan,
    generate_synthetic,
    standard_script,
)
from stepassist.trace.types import ProactiveInterval, StepSegment

from conftest import CORPUS_DOCS, KeepingServer, fixture_config
from oracles import inferred_step_sequence, run_sampler, steady_script
from test_context import INSTRUCTIONS
from test_harness import shelf_script
from test_metrics import (
    TWELVE_EXTRA_SAMPLED,
    TWELVE_INTERVALS,
    TWELVE_MOMENTS,
    TWELVE_SEGMENTS,
    build_log,
    minimal_trace,
    moment,
)
from test_motion import shifted_pair

IP = ExecutionStatus.IN_PROGRESS
JS = ExecutionStatus.JUST_START
ATF = ExecutionStatus.ABOUT_TO_FINISH


@pytest.fixture
def verdict(capfd):
    """Prints one PASS/FAIL line per criterion past pytest's capture."""

    def emit(num: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)

    return emit


# -- 1: timeliness scoring is exact ---------------------------------------------


def trigger_record(t: float, step: str) -> MomentRecord:
    return MomentRecord(
        timestamp=t,
        pred_step=step,
        pred_status=IP,
        pred_proactive=True,
        delivered=True,
        gt_step=step,
        gt_status=IP,
        annotated=True,
        need=True,
        interval_id=0,
    )


def test_criterion_01_timeliness_scoring(verdict):
    iv = [ProactiveInterval(3.0, 8.0, "Boil water")]
    at_start = sts([trigger_record(3.0, "Boil water")], iv).value
    at_end = sts([trigger_record(8.0, "Boil water")], iv).value
    wrong_step = sts([trigger_record(4.0, "Add tea bag")], iv).value
    outside = sts([trigger_record(8.5, "Boil water")], iv).value
    ok = (
        at_start == 1.0
        and abs(at_end - math.exp(-1.0)) <= 1e-9
        and wrong_step == 0.0
        and outside == 0.0
    )
    verdict(
        1,
        ok,
        f"score(start)={at_start} score(end)={at_end:.6f} "
        f"wrong_step={wrong_step} outside={outside}",
    )
    assert ok


# -- 2: the consistency algorithm, hand-traced ----------------------------------


def S(buf, active, hist, prev_step, prev_status) -> CheckerState:
    return CheckerState(
        window_buf=tuple(buf),
        active_step=active,
        history=ProgressRecord(tuple(hist)),
        prev_step=prev_step,
        prev_status=prev_status,
    )


def O(step, status=IP, proactive=False, response=None) -> ReasonerOutput:
    return ReasonerOutput(step=step, status=status, proactive=proactive, response=response)


def deliver(response, transitioned=False) -> DeliveryDecision:
    return DeliveryDecision(deliver=True, response=response, transitioned=transitioned)


def suppress(reason, transitioned=False) -> DeliveryDecision:
    return DeliveryDecision(deliver=False, suppress_reason=reason, transitioned=transitioned)


NO_NEED = SuppressReason.NO_PROACTIVE_NEED
REDUNDANT = SuppressReason.REDUNDANT_STATE

# (label, state, prediction, expected state, expected decision); W=6, dominance
# one half, three predictions before any switch
CHECKER_TABLE = [
    (
        "first prediction seeds the active step",
        S((), None, (), None, None),
        O("A"),
        S(("A",), "A", (), "A", IP),
        suppress(NO_NEED),
    ),
    (
        "isolated misprediction does not transition",
        S(("A", "A", "A"), "A", (), "A", IP),
        O("X"),
        S(("A", "A", "A", "X"), "A", (), "X", IP),
        suppress(NO_NEED),
    ),
    (
        "a two-thirds majority flips the step",
        S(("A", "A", "B", "B", "B"), "A", (), "B", IP),
        O("B"),
        S(("A", "A", "B", "B", "B", "B"), "B", ("A",), "B", IP),
        suppress(NO_NEED, transitioned=True),
    ),
    (
        "an exact tie keeps the active step",
        S(("A", "A", "B"), "A", (), "B", IP),
        O("B"),
        S(("A", "A", "B", "B"), "A", (), "B", IP),
        suppress(NO_NEED),
    ),
    (
        "two predictions are not enough evidence",
        S(("B",), "A", (), "B", IP),
        O("B"),
        S(("B", "B"), "A", (), "B", IP),
        suppress(NO_NEED),
    ),
    (
        "the third unanimous prediction switches",
        S(("B", "B"), "A", (), "B", IP),
        O("B"),
        S(("B", "B", "B"), "B", ("A",), "B", IP),
        suppress(NO_NEED, transitioned=True),
    ),
    (
        "the oldest prediction is evicted at capacity",
        S(("A", "A", "A", "A", "A", "B"), "A", (), "B", IP),
        O("B"),
        S(("A", "A", "A", "A", "B", "B"), "A", (), "B", IP),
        suppress(NO_NEED),
    ),
    (
        "a stale majority fires even when the input matches active",
        S(("B", "B", "B", "B", "A"), "A", ("Z",), "A", IP),
        O("A"),
        S(("B", "B", "B", "B", "A", "A"), "B", ("Z", "A"), "A", IP),
        suppress(NO_NEED, transitioned=True),
    ),
    (
        "leaving a revisited step does not duplicate history",
        S(("B", "B", "B", "A", "A"), "A", ("A", "B"), "A", IP),
        O("B"),
        S(("B", "B", "B", "A", "A", "B"), "B", ("A", "B"), "B", IP),
        suppress(NO_NEED, transitioned=True),
    ),
    (
        "a fresh proactive state is delivered",
        S(("A", "A"), "A", (), "A", JS),
        O("A", IP, True, "Pour slowly."),
        S(("A", "A", "A"), "A", (), "A", IP),
        deliver("Pour slowly."),
    ),
    (
        "an unchanged state is suppressed as redundant",
        S(("A", "A", "A"), "A", (), "A", IP),
        O("A", IP, True, "Pour slowly."),
        S(("A", "A", "A", "A"), "A", (), "A", IP),
        suppress(REDUNDANT),
    ),
    (
        "a delivery can coincide with a transition",
        S(("A", "B", "B"), "A", (), "B", IP),
        O("B", ATF, True, "Wipe it down."),
        S(("A", "B", "B", "B"), "B", ("A",), "B", ATF),
        deliver("Wipe it down.", transitioned=True),
    ),
    (
        "a status change alone re-arms delivery",
        S(("A", "A", "A", "A"), "A", (), "A", IP),
        O("A", ATF, True, "Almost done."),
        S(("A", "A", "A", "A", "A"), "A", (), "A", ATF),
        deliver("Almost done."),
    ),
    (
        "the previous state updates even while quiet",
        S(("A",), "A", (), "A", JS),
        O("A"),
        S(("A", "A"), "A", (), "A", IP),
        suppress(NO_NEED),
    ),
]


def test_criterion_02_consistency_algorithm_table(verdict):
    cfg = CheckerConfig(window=6, tau_c=0.5, min_window=3)
    failures = []
    for label, state, out, want_state, want_decision in CHECKER_TABLE:
        got_state, got_decision = update(state, out, cfg)
        if got_state != want_state or got_decision != want_decision:
            failures.append(label)
    ok = not failures
    verdict(2, ok, f"{len(CHECKER_TABLE)} hand-traced cases, {len(failures)} mismatches")
    assert ok, failures


# -- 3: sampling cadence ---------------------------------------------------------


def test_criterion_03_sampler_cadence(standard_trace, verdict):
    script = standard_script(seed=0)
    samples = run_sampler(standard_trace, SamplerConfig(smoothing_window=0.25))
    times = [s.scheduled_t for s in samples]
    worst = 0.0
    for earlier, later in zip(times, times[1:]):
        in_burst = any(w0 <= earlier < w1 for w0, w1 in script.burst_windows)
        expected = 0.5 if in_burst else 1.0
        worst = max(worst, abs((later - earlier) - expected))
    bound = all(s.pair is not None for s in samples)
    ok = worst <= 1e-9 and bound and len(times) > 1
    verdict(3, ok, f"{len(times)} scheduled pairs, max cadence error {worst:.1e}s")
    assert ok


# -- 4: flow recovery ------------------------------------------------------------


def test_criterion_04_flow_recovery(verdict):
    cfg = FlowConfig(search_radius=15)
    region = (16, 16, 88, 64)  # inset past the search radius on a 120x96 frame
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        dx, dy = (int(v) for v in rng.integers(-7, 8, size=2))
        a, b = shifted_pair(rng, 120, 96, dx, dy, pad=16)
        flow = estimate_flow(a, b, region, cfg)
        worst = max(worst, abs(flow.dx - dx), abs(flow.dy - dy))
    still = estimate_flow(a, a, region, cfg)
    ok = worst <= 0.5 and still.dx == 0.0 and still.dy == 0.0
    verdict(4, ok, f"20 scripted shifts, worst component error {worst}px, idle flow "
                  f"({still.dx}, {still.dy})")
    assert ok


# -- 5: noiseless end-to-end -----------------------------------------------------


def test_criterion_05_noiseless_replay(standard_trace, steady_trace, verdict):
    fixtures = [
        ("standard", standard_trace),
        ("steady", steady_trace),
        ("shelf", generate_synthetic(shelf_script())),
    ]
    bad = []
    for name, trace in fixtures:
        _, metrics = replay(trace, fixture_config())
        if not (
            metrics.step_acc == 1.0
            and metrics.status_acc == 1.0
            and metrics.acc_p == 1.0
            and metrics.md == 0.0
            and metrics.fd == 0.0
        ):
            bad.append((name, metrics.as_dict()["metrics"]))
    ok = not bad
    verdict(5, ok, f"{len(fixtures)} fixtures replayed, {len(bad)} off perfect scores")
    assert ok, bad


# -- 6: the checker earns its keep under noise -----------------------------------

UNCHECKED = CheckerConfig(window=1, tau_c=0.5, min_window=1)


def folded_sequence(log, checker_cfg) -> tuple[str, ...]:
    state = CheckerState()
    for ev in log.of_kind(REASONED):
        out = ReasonerOutput(
            step=ev.data["step"],
            status=ExecutionStatus.parse(ev.data["status"]),
            proactive=ev.data["proactive"],
            response=ev.data["response"],
            reasoning=ev.data["reasoning"],
            off_guideline=ev.data["off_guideline"],
        )
        state, _ = update(state, out, checker_cfg)
    return inferred_step_sequence(state)


def test_criterion_06_checker_robustness(steady_trace, verdict):
    truth = tuple(steady_trace.step_labels())
    checked_hits = 0
    unchecked_hits = 0
    sts_ok = True
    for seed in range(10):
        noisy = ReasonerSpec(oracle=OracleConfig(step_error_rate=0.2, seed=seed))
        checked_log, checked_metrics = replay(steady_trace, fixture_config(reasoner=noisy))
        unchecked_log, unchecked_metrics = replay(
            steady_trace, fixture_config(reasoner=noisy, checker=UNCHECKED)
        )
        checked_hits += folded_sequence(checked_log, CheckerConfig()) == truth
        unchecked_hits += folded_sequence(unchecked_log, UNCHECKED) == truth
        sts_ok = sts_ok and checked_metrics.sts >= unchecked_metrics.sts
    ok = checked_hits >= 9 and unchecked_hits <= 2 and sts_ok
    verdict(
        6,
        ok,
        f"exact step history: checked {checked_hits}/10, unchecked {unchecked_hits}/10, "
        f"timeliness never worse: {sts_ok}",
    )
    assert ok


# -- 7: suppression halves the chatter -------------------------------------------


def test_criterion_07_delivery_suppression(standard_trace, verdict):
    log, _ = replay(standard_trace, fixture_config())
    proactive = [ev for ev in log.of_kind(REASONED) if ev.data["proactive"]]
    delivered = [ev for ev in log.of_kind(DELIVERY) if ev.data["deliver"]]

    # at most one delivery per run of an unchanged (step, status) state
    per_run_ok = True
    run_state, run_deliveries = None, 0
    for ev in log.of_kind(DELIVERY):
        state = (ev.data["step"], ev.data["status"])
        if state != run_state:
            run_state, run_deliveries = state, 0
        run_deliveries += ev.data["deliver"]
        per_run_ok = per_run_ok and run_deliveries <= 1

    reduction = 1.0 - len(delivered) / len(proactive)
    ok = per_run_ok and reduction >= 0.5 and len(proactive) > 0
    verdict(
        7,
        ok,
        f"{len(proactive)} proactive moments, {len(delivered)} delivered "
        f"({reduction:.0%} suppressed), one per state: {per_run_ok}",
    )
    assert ok


# -- 8: metric arithmetic, hand-counted ------------------------------------------


def test_criterion_08_metric_hand_counts(verdict):
    four_trace = minimal_trace(
        [StepSegment(0.0, 10.0, "A", IP)], [ProactiveInterval(0.5, 5.5, "A")]
    )
    four_log = build_log(
        [
            moment(1.0, "A", "in_progress", True),
            moment(3.0, "A", "in_progress", False),
            moment(5.0, "A", "in_progress", True),
            moment(7.0, "A", "in_progress", False),
        ]
    )
    four = compute_metrics(four_log, four_trace)
    four_ok = four.acc_p == 0.75 and four.md == 1 / 3 and four.fd == 0.0

    twelve_trace = minimal_trace(TWELVE_SEGMENTS, TWELVE_INTERVALS)
    twelve_log = build_log(TWELVE_MOMENTS, extra_sampled=TWELVE_EXTRA_SAMPLED)
    twelve = compute_metrics(twelve_log, twelve_trace)
    twelve_ok = (
        twelve.step_acc == 8 / 10
        and twelve.status_acc == 9 / 10
        and twelve.acc_p == 11 / 12
        and twelve.md == 0.0
        and twelve.fd == 1 / 8
        and twelve.inference_ratio == 12 / 20
        and twelve.hit_rate == 4 / 12
    )
    ok = four_ok and twelve_ok
    verdict(
        8,
        ok,
        f"4-moment case (acc_p={four.acc_p}, md={four.md:.4f}, fd={four.fd}) and "
        f"12-moment case exact: {twelve_ok}",
    )
    assert ok


# -- 9: the wire adds nothing ----------------------------------------------------


def test_criterion_09_replay_serve_equivalence(verdict):
    shelf = generate_synthetic(shelf_script())
    paint = generate_synthetic(
        shelf_script(
            steps=(
                StepPlan("Prime the wall", (PhaseSpec(JS, 1.0), PhaseSpec(IP, 3.0)),
                         proactive=((1.0, 3.0),)),
                StepPlan("Roll the paint", (PhaseSpec(IP, 4.0),)),
            ),
            instruction="paint the wall",
            hands=(HandTrack("right", 80, 28, (HandMove(0.0, 8.0, 0, 12),)),),
            seed=9,
        )
    )
    mismatches = []
    with KeepingServer(fixture_config()) as server:
        host, port = server.address
        for name, trace in (("shelf", shelf), ("paint", paint)):
            result = stream_session(trace, host, port, session_id=name)
            batch_log, _ = replay(trace, fixture_config())
            served = [
                (ev.t, ev.data) for ev in server.finished_logs[name].of_kind(DELIVERY)
            ]
            replayed = [(ev.t, ev.data) for ev in batch_log.of_kind(DELIVERY)]
            assists = [(a["t"], a["step"], a["status"], a["text"]) for a in result.assists]
            pushed = [
                (ev.t, ev.data["step"], ev.data["status"], ev.data["response"])
                for ev in batch_log.of_kind(DELIVERY)
                if ev.data["deliver"]
            ]
            if served != replayed or assists != pushed:
                mismatches.append(name)
    ok = not mismatches
    verdict(9, ok, f"2 traces served over TCP, delivery mismatches: {len(mismatches)}")
    assert ok, mismatches


# -- 10: retrieval lands on the intended guideline --------------------------------


def test_criterion_10_retrieval_correctness(corpus_dir, verdict):
    corpus = GuidelineCorpus.load(corpus_dir)
    misses = []
    for instruction, intended in INSTRUCTIONS.items():
        result = retrieve_guideline(instruction, corpus)
        if result.doc_id != intended or result.text != CORPUS_DOCS[intended]:
            misses.append((instruction, result.doc_id))
    tea_ok = retrieve_guideline("brew a cup of tea", corpus).doc_id == "tea"
    ok = not misses and tea_ok
    verdict(10, ok, f"5 instructions matched to {len(INSTRUCTIONS) - len(misses)}/5 "
                   f"intended guidelines, tea case: {tea_ok}")
    assert ok, misses
