import json
import math
import random

import pytest

from stepassist.harness.events import DELIVERY, REASONED, SAMPLED_PAIR, EventLog
from stepassist.harness.report import load_report, write_report
from stepassist.metrics import (
    METRIC_NAMES,
    MomentRecord,
    align,
    compute_metrics,
    sts,
)
from stepassist.trace.types import (
    ExecutionStatus,
    ProactiveInterval,
    Session,
    StepSegment,
)

IP = ExecutionStatus.IN_PROGRESS
JS = ExecutionStatus.JUST_START
ATF = ExecutionStatus.ABOUT_TO_FINISH


def minimal_trace(segments, intervals):
    return Session(instruction="demo", width=8, height=8, pair_gap=0.1,
                   segments=list(segments), proactive_intervals=list(intervals))


def build_log(moments, extra_sampled=()):
    """moments: dicts with t/step/status/proactive/deliver."""
    ops = [(t, 0, SAMPLED_PAIR, {"pair": -1}) for t in extra_sampled]
    for m in moments:
        ops.append((m["t"], 0, SAMPLED_PAIR, {"pair": -1}))
        ops.append(
            (
                m["t"],
                1,
                REASONED,
                {"step": m["step"], "status": m["status"], "proactive": m["proactive"]},
            )
        )
        ops.append((m["t"], 2, DELIVERY, {"deliver": m["deliver"]}))
    log = EventLog()
    for t, _, kind, data in sorted(ops, key=lambda o: (o[0], o[1])):
        log.append(kind, t, **data)
    return log


def moment(t, step, status, proactive, deliver=None):
    return {
        "t": t,
        "step": step,
        "status": status,
        "proactive": proactive,
        "deliver": proactive if deliver is None else deliver,
    }


# -- proactive decision metrics ------------------------------------------------


def test_four_moment_proactive_decisions():
    trace = minimal_trace(
        [StepSegment(0.0, 10.0, "A", IP)], [ProactiveInterval(0.5, 5.5, "A")]
    )
    log = build_log(
        [
            moment(1.0, "A", "in_progress", True),
            moment(3.0, "A", "in_progress", False),  # needed but silent
            moment(5.0, "A", "in_progress", True),
            moment(7.0, "A", "in_progress", False),
        ]
    )
    report = compute_metrics(log, trace)
    assert report.acc_p == 0.75
    assert report.md == 1 / 3
    assert report.fd == 0.0
    assert report.step_acc == 1.0 and report.status_acc == 1.0
    assert report.counts["need_moments"] == 3
    assert report.counts["quiet_moments"] == 1


TWELVE_SEGMENTS = [
    StepSegment(0.0, 3.0, "A", JS),
    StepSegment(3.0, 6.0, "A", IP),
    StepSegment(6.0, 9.0, "B", IP),
    StepSegment(9.0, 12.0, "B", ATF),
]
TWELVE_INTERVALS = [ProactiveInterval(1.0, 3.0, "A"), ProactiveInterval(6.0, 8.0, "B")]

TWELVE_MOMENTS = [
    moment(0.0, "A", "just_start", False),
    moment(1.0, "A", "just_start", True, deliver=False),  # suppressed as redundant
    moment(2.0, "A", "in_progress", True, deliver=True),  # wrong status
    moment(3.0, "B", "in_progress", False),  # boundary: scored against [3, 6) A
    moment(4.5, "A", "in_progress", False),
    moment(6.0, "B", "in_progress", True, deliver=True),  # boundary: [6, 9) B
    moment(7.0, "B", "in_progress", True, deliver=True),
    moment(8.5, "B", "in_progress", False),
    moment(9.0, "B", "about_to_finish", False),
    moment(10.0, "A", "about_to_finish", True, deliver=True),  # false alarm, wrong step
    moment(12.0, "B", "step_transition", False),  # past the last segment
    moment(12.5, "B", "about_to_finish", False),
]
TWELVE_EXTRA_SAMPLED = (0.25, 0.75, 3.5, 5.0, 5.5, 8.0, 10.5, 11.0)


def twelve_fixture():
    trace = minimal_trace(TWELVE_SEGMENTS, TWELVE_INTERVALS)
    log = build_log(TWELVE_MOMENTS, extra_sampled=TWELVE_EXTRA_SAMPLED)
    return trace, log


@pytest.mark.parametrize(
    "kind, change, message",
    [
        (REASONED, {"proactive": "no"}, "proactive must be a boolean, got 'no'"),
        (REASONED, {"proactive": 0}, "proactive must be a boolean, got 0"),
        (REASONED, {"step": 5}, "step must be a string, got 5"),
        (REASONED, {"status": None}, "status must be a string, got None"),
        (REASONED, {"status": "done"}, "unknown execution status 'done'"),
        (DELIVERY, {"deliver": "no"}, "deliver must be a boolean, got 'no'"),
    ],
)
def test_a_reasoned_or_delivery_field_of_the_wrong_type_is_refused_not_scored(
        kind, change, message, tmp_path):
    # a saved log is read at the door by the fields the scorer reads, so the scorer trusts it
    trace, log = twelve_fixture()
    path = write_report(log, compute_metrics(log, trace), tmp_path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    index = [i for i, ev in enumerate(payload["events"]) if ev["kind"] == kind][3]
    payload["events"][index]["data"].update(change)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError) as refused:
        load_report(path)
    assert str(refused.value).startswith(f"{path}: event {index}: ")
    assert str(refused.value).endswith(message)


def test_twelve_moment_fixture_hand_counts():
    trace, log = twelve_fixture()
    report = compute_metrics(log, trace)
    assert report.step_acc == 8 / 10
    assert report.status_acc == 9 / 10
    assert report.acc_p == 11 / 12
    assert report.md == 0.0
    assert report.fd == 1 / 8
    assert report.sts == pytest.approx((math.exp(-0.5) + 1.0) / 2.0, abs=1e-12)
    assert report.inference_ratio == 12 / 20  # 12 + 8 extra sampled, 12 reasoned
    assert report.hit_rate == 4 / 12
    assert report.counts == {
        "moments": 12,
        "annotated_moments": 10,
        "step_correct": 8,
        "status_correct": 9,
        "proactive_correct": 11,
        "need_moments": 4,
        "missed": 0,
        "quiet_moments": 8,
        "false_alarms": 1,
        "intervals": 2,
        "intervals_triggered": 2,
        "sampled_pairs": 20,
        "reasoned_moments": 12,
        "reasoned_in_interval": 4,
    }


def test_alignment_fields_on_boundary_and_unannotated_moments():
    trace, log = twelve_fixture()
    records = {r.timestamp: r for r in align(log, trace)}
    assert records[3.0].gt_step == "A" and records[3.0].gt_status is IP
    assert records[6.0].gt_step == "B"
    assert records[6.0].need and records[6.0].interval_id == 1
    assert records[12.0].gt_step is None
    assert not records[12.0].annotated
    assert not records[12.0].need
    assert records[1.0].delivered is False
    assert records[2.0].delivered is True


def test_unannotated_moments_leave_accuracy_denominators():
    trace = minimal_trace([StepSegment(0.0, 1.0, "A", IP)], [])
    log = build_log(
        [moment(0.5, "A", "in_progress", False), moment(5.0, "X", "just_start", False)]
    )
    report = compute_metrics(log, trace)
    assert report.step_acc == 1.0  # the off-annotation moment is excluded
    assert report.counts["annotated_moments"] == 1
    assert report.counts["moments"] == 2


def test_accuracy_identity_links_the_three_decision_metrics():
    rng = random.Random(0)
    for _ in range(20):
        needed = [i for i in range(50) if rng.random() < 0.5]
        trace = minimal_trace(
            [StepSegment(0.0, 50.0, "A", IP)],
            [ProactiveInterval(float(i), i + 0.5, "A") for i in needed],
        )
        log = build_log(
            [moment(float(i), "A", "in_progress", rng.random() < 0.5) for i in range(50)]
        )
        c = compute_metrics(log, trace).counts
        assert c["need_moments"] == len(needed)
        assert c["proactive_correct"] == c["moments"] - (c["missed"] + c["false_alarms"])


# -- timeliness ---------------------------------------------------------------


def rec(t, step="A", delivered=True):
    return MomentRecord(
        timestamp=t,
        pred_step=step,
        pred_status=IP,
        pred_proactive=True,
        delivered=delivered,
        gt_step="A",
        gt_status=IP,
        annotated=True,
        need=True,
        interval_id=0,
    )


def test_sts_scores_the_earliest_delivered_trigger():
    iv = ProactiveInterval(2.0, 4.0, "A")
    assert sts([rec(2.0)], [iv]).value == 1.0  # trigger at the interval start
    at_end = sts([rec(4.0)], [iv])
    assert at_end.value == pytest.approx(math.exp(-1.0), abs=1e-9)  # inclusive end
    mid = sts([rec(3.0)], [iv])
    assert mid.value == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert mid.trigger_times == (3.0,)


def test_sts_wrong_step_on_the_earliest_trigger_scores_zero():
    iv = ProactiveInterval(2.0, 4.0, "A")
    result = sts([rec(2.5, step="B"), rec(3.0, step="A")], [iv])
    assert result.value == 0.0  # the later correct delivery does not rescue it
    assert result.trigger_times == (2.5,)


def test_sts_ignores_undelivered_and_outside_moments():
    iv = ProactiveInterval(2.0, 4.0, "A")
    result = sts([rec(2.0, delivered=False), rec(4.5)], [iv])
    assert result.value == 0.0
    assert result.trigger_times == (None,)


def test_sts_averages_across_intervals():
    intervals = [ProactiveInterval(2.0, 4.0, "A"), ProactiveInterval(6.0, 8.0, "B")]
    result = sts([rec(2.0)], intervals)
    assert result.per_interval == (1.0, 0.0)
    assert result.value == 0.5


def test_sts_requires_intervals():
    with pytest.raises(ValueError):
        sts([rec(2.0)], [])


# -- overhead -------------------------------------------------------------------


def test_overhead_ratios():
    trace = minimal_trace([StepSegment(0.0, 10.0, "A", IP)], [ProactiveInterval(0.0, 1.2, "A")])
    log = EventLog()
    reason_times = [round(0.1 * k, 1) for k in range(12)] + [
        round(4.0 + 0.1 * k, 1) for k in range(8)
    ]
    for k in range(100):
        t = round(0.1 * k, 1)
        log.append(SAMPLED_PAIR, t, pair=k)
        if t in reason_times:
            log.append(REASONED, t, step="A", status="in_progress", proactive=False)
    report = compute_metrics(log, trace)
    assert report.inference_ratio == 0.2
    assert report.hit_rate == 0.6
    assert {key: report.counts[key] for key in
            ("sampled_pairs", "reasoned_moments", "reasoned_in_interval")} == {
        "sampled_pairs": 100,
        "reasoned_moments": 20,
        "reasoned_in_interval": 12,
    }


def test_overhead_undefined_without_sampled_pairs():
    trace = minimal_trace([StepSegment(0.0, 1.0, "A", IP)], [])
    log = EventLog()
    log.append(REASONED, 0.5, step="A", status="in_progress", proactive=False)
    report = compute_metrics(log, trace)
    assert report.step_acc == 1.0 and report.counts["moments"] == 1
    assert report.inference_ratio is None
    assert report.hit_rate is None
    for key in ("sampled_pairs", "reasoned_moments", "reasoned_in_interval"):
        assert key not in report.counts, key


def test_overhead_hit_rate_undefined_without_reasoning():
    trace = minimal_trace([StepSegment(0.0, 1.0, "A", IP)], [])
    log = EventLog()
    log.append(SAMPLED_PAIR, 0.0, pair=0)
    report = compute_metrics(log, trace)
    assert report.inference_ratio == 0.0
    assert report.hit_rate is None


# -- aggregation ----------------------------------------------------------------


def test_empty_run_reports_undefined_not_zero():
    trace = minimal_trace([StepSegment(0.0, 1.0, "A", IP)], [])
    report = compute_metrics(EventLog(), trace)
    for name in METRIC_NAMES:
        assert getattr(report, name) is None, name


def test_intervals_without_deliveries_score_zero_not_none():
    trace = minimal_trace([StepSegment(0.0, 1.0, "A", IP)], [ProactiveInterval(0.0, 1.0, "A")])
    report = compute_metrics(EventLog(), trace)
    assert report.sts == 0.0
    assert report.counts["intervals_triggered"] == 0
    assert report.md is None  # no reasoned moments at all


def test_report_dict_round_trip():
    trace, log = twelve_fixture()
    report = compute_metrics(log, trace)
    again = json.loads(json.dumps(report.as_dict()))
    assert again["metrics"] == {name: getattr(report, name) for name in METRIC_NAMES}
    assert again["counts"] == report.counts
