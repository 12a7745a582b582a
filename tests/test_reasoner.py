import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepassist.reasoner import (
    ExecutionStatus,
    MalformedOutput,
    OracleConfig,
    OracleReasoner,
    ReasonerInput,
    ReasonerOutput,
    ReasonerOutputError,
    RemoteReasoner,
    assemble_prompt,
    parse_output,
)
from stepassist import reasoner as reasoner_module
from stepassist.harness.server import POLL_S
from stepassist.httpchat import ChatEndpointError
from stepassist.reasoner import flag_off_guideline
from stepassist.trace.pgm import read_pgm
import base64

from oracles import json_values, or_any, same, too_deep, trace_pairs, with_too_deep


FRAME = np.zeros((4, 6), dtype=np.uint8)


def make_input(image=FRAME):
    return ReasonerInput(
        timestamp=2.0,
        guideline_text="Task: Brew tea\nSteps:\n1. Measure water",
        history_text="[]",
        motion_text="The left hand is moving down-right.",
        image=image,
    )


VALID_REPLY = '{"step": "Measure water", "status": "in_progress", "proactive": false}'


# -- prompt assembly -----------------------------------------------------------


def test_prompt_carries_all_context_blocks():
    prompt = assemble_prompt(make_input())
    assert "You are a proactive assistant for procedural tasks" in prompt
    for header in (
        "Guideline:",
        "Historical Context:",
        "Sensory Context:",
        "Hand Motion Cues:",
        "Output Format:",
    ):
        assert header in prompt
    assert "Task: Brew tea" in prompt
    assert "Previously completed steps in order: []" in prompt
    assert "<IMAGE>" in prompt
    # the motion sentence drops its period; the template closes the sentence
    assert "in the image plane, The left hand is moving down-right. You may" in prompt
    assert '"step":' in prompt  # formatting braces render literally


# -- output parsing ------------------------------------------------------------


def test_parse_accepts_a_complete_reply():
    out = parse_output(
        '{"step": "Boil water", "status": "just_start", "proactive": true, '
        '"response": "Fill the kettle first.", "reasoning": "kettle is empty"}'
    )
    assert out.step == "Boil water"
    assert out.status is ExecutionStatus.JUST_START
    assert out.proactive
    assert out.response == "Fill the kettle first."
    assert out.reasoning == "kettle is empty"
    assert not out.off_guideline


def test_parse_tolerates_surrounding_prose():
    out = parse_output(f"Sure, here is my answer:\n```json\n{VALID_REPLY}\n```\nDone!")
    assert out.step == "Measure water"
    assert out.response is None and out.reasoning is None


def test_parse_takes_the_first_object_that_parses():
    # braces inside a string do not close the object
    out = parse_output('{"step": "Fold {the} flap}", "status": "in_progress", "proactive": false}')
    assert out.step == "Fold {the} flap}"
    # an invalid {...} is skipped for the valid object after it
    out = parse_output(f"Guess: {{step: water}} Final: {VALID_REPLY}")
    assert out.step == "Measure water"
    # a nested object belongs to the outer reply, so an object reasoning is refused
    with pytest.raises(ReasonerOutputError, match="reasoning must be a string"):
        parse_output(
            '{"step": "X", "status": "in_progress", "proactive": false, '
            '"reasoning": {"seen": {"hand": "left"}}} {"step": "Y", "status": "in_progress", '
            '"proactive": false}'
        )
    # an unclosed '{' is passed over, or leaves nothing to parse
    out = parse_output(f"{{ unclosed {VALID_REPLY}")
    assert out.step == "Measure water"
    with pytest.raises(ReasonerOutputError, match="no JSON object"):
        parse_output('{"step": "X", "status": "in_progress"')


def test_parse_error_kinds_are_distinct():
    # one error type; its message names what was wrong
    cases = [
        ("the user is boiling water", "no JSON object"),
        ('{"step": broken', "no JSON object"),
        ('[{"step": "X"}]', "missing key 'status'"),  # the object inside the array parses
        ('{"status": "in_progress", "proactive": false}', "missing key 'step'"),
        ('{"step": "  ", "status": "in_progress", "proactive": false}', "lacks a step title"),
        ('{"step": "X", "proactive": false}', "missing key 'status'"),
        ('{"step": "X", "status": "in_progress", "proactive": "yes"}',
         "proactive must be a boolean"),
        ('{"step": "X", "status": "in_progress", "proactive": false, "response": 3}',
         "response must be a string"),
        ('{"step": "X", "status": "done", "proactive": false}', "unknown execution status"),
        ('{"step": "X", "status": "in_progress", "proactive": true}', "no response text"),
        ('{"step": "X", "status": "in_progress", "proactive": true, "response": " "}',
         "no response text"),
    ]
    for reply, message in cases:
        with pytest.raises(ReasonerOutputError, match=message):
            parse_output(reply)


def test_an_over_deep_reply_is_a_reply_error():
    # the decoder's RecursionError is refused at once, not rescanned at each later '{'
    for reply in ('{"step": ' + "[" * 5000, '{"reasoning": ' + too_deep() + VALID_REPLY):
        with pytest.raises(ReasonerOutputError, match="nested too deeply"):
            parse_output(reply)
    with pytest.raises(ReasonerOutputError, match="digits"):
        parse_output('{"step": ' + "1" * 5000 + "}")


REPLY_KEYS = {
    "step": st.text(max_size=8),
    "status": st.sampled_from([s.value for s in ExecutionStatus]),
    "proactive": st.booleans(),
    "response": st.none() | st.text(max_size=8),
    "reasoning": st.none() | st.text(max_size=8),
}
# each reply key absent, well typed, or any JSON value; plus extra keys
replies = st.tuples(
    st.fixed_dictionaries({}, optional={k: or_any(v) for k, v in REPLY_KEYS.items()}),
    st.dictionaries(st.text(max_size=5), json_values, max_size=2),
).map(lambda parts: {**parts[1], **parts[0]})


@settings(max_examples=300, deadline=None)
@given(obj=replies, deep_key=st.none() | st.sampled_from([*REPLY_KEYS, "extra"]))
@example(obj={"step": "X", "status": "in_progress", "proactive": True, "response": "Go"},
         deep_key=None)
def test_parse_returns_the_reply_values_unchanged_or_refuses(obj, deep_key):
    text = json.dumps(obj) if deep_key is None else with_too_deep(obj, deep_key)
    try:
        out = parse_output(text)
    except ReasonerOutputError:
        return
    assert deep_key is None
    assert same(out.step, obj["step"]) and out.step.strip()
    assert same(out.status.value, obj["status"])
    assert same(out.proactive, obj["proactive"])
    assert same(out.response, obj.get("response"))
    assert same(out.reasoning, obj.get("reasoning"))


def test_output_type_requires_response_when_proactive():
    with pytest.raises(ValueError):
        ReasonerOutput(step="X", status=ExecutionStatus.IN_PROGRESS, proactive=True)


def test_flag_off_guideline():
    out = parse_output(VALID_REPLY)
    titles = ["Measure water", "Boil water"]
    assert flag_off_guideline(out, titles) is out  # on-guideline stays untouched
    off = flag_off_guideline(out, ["Other step"])
    assert off.off_guideline
    assert off.step == out.step


# -- scripted oracle -----------------------------------------------------------


def test_noiseless_oracle_plays_back_ground_truth(standard_trace, monkeypatch):
    # every rate 0: no draw can fall below 0, so no generator is built at all
    def no_generator(*args):
        raise AssertionError("a noiseless oracle built a random.Random")

    monkeypatch.setattr(reasoner_module.random, "Random", no_generator)
    oracle = OracleReasoner.from_trace(standard_trace, OracleConfig(seed=3))
    for pair in trace_pairs(standard_trace):
        out = oracle.reason_at(pair.t)
        seg = standard_trace.segment_at(pair.t)
        if seg is None:  # the final pair sits just past the half-open segments
            assert pair.t == 72.0
            assert out.step == "Serve tea"
            assert out.status is ExecutionStatus.STEP_TRANSITION
            continue
        assert out.step == seg.step
        assert out.status is seg.status
        assert out.proactive == (standard_trace.need_at(pair.t) is not None)
        if out.proactive:
            assert out.response == f"Guidance for {out.step} ({out.status.value})."
        else:
            assert out.response is None


def test_oracle_reads_segment_order_not_argument_order(steady_trace):
    forward = OracleReasoner(steady_trace.segments, steady_trace.proactive_intervals)
    shuffled = OracleReasoner(
        list(reversed(steady_trace.segments)), steady_trace.proactive_intervals
    )
    for t in (0.0, 3.0, 14.5, 60.0, 71.5):
        assert forward.reason_at(t) == shuffled.reason_at(t)


def test_oracle_outside_annotations_reads_as_transition(steady_trace):
    oracle = OracleReasoner.from_trace(steady_trace)
    past_end = oracle.reason_at(72.05)
    assert past_end.step == "Check stability"
    assert past_end.status is ExecutionStatus.STEP_TRANSITION
    before_start = oracle.reason_at(-0.5)
    assert before_start.step == "Lay out parts"
    assert before_start.status is ExecutionStatus.STEP_TRANSITION


def test_oracle_corruption_depends_only_on_seed_and_timestamp(steady_trace):
    cfg = OracleConfig(step_error_rate=0.5, status_error_rate=0.5, seed=7)
    a = OracleReasoner.from_trace(steady_trace, cfg)
    b = OracleReasoner.from_trace(steady_trace, cfg)
    for t in (0.0, 1.0, 2.0, 33.5):
        b.reason_at(t + 0.25)  # interleaved extra calls must not shift outcomes
    for t in (0.0, 1.0, 2.0, 33.5):
        assert a.reason_at(t) == b.reason_at(t)
        assert a.reason_at(t) == OracleReasoner.from_trace(steady_trace, cfg).reason_at(t)


def test_oracle_corruption_sets_are_frozen(steady_trace):
    # the noisy-checker fixture leans on these exact draws: with a step error
    # rate of 0.2, seeds 5/6/7/9 corrupt the moment at t=0.0 and no seed in
    # 0..9 corrupts the one at t=3.0
    truth = steady_trace.segment_at(0.0).step
    corrupted = set()
    for seed in range(10):
        cfg = OracleConfig(step_error_rate=0.2, seed=seed)
        out = OracleReasoner.from_trace(steady_trace, cfg).reason_at(0.0)
        if out.step != truth:
            corrupted.add(seed)
    assert corrupted == {5, 6, 7, 9}
    for seed in range(10):
        cfg = OracleConfig(step_error_rate=0.2, seed=seed)
        out = OracleReasoner.from_trace(steady_trace, cfg).reason_at(3.0)
        assert out.step == steady_trace.segment_at(3.0).step


def test_oracle_corruption_rates_match_configuration(steady_trace):
    cfg = OracleConfig(
        step_error_rate=0.3, status_error_rate=0.25, proactive_flip_rate=0.15, seed=1
    )
    noisy = OracleReasoner.from_trace(steady_trace, cfg)
    clean = OracleReasoner.from_trace(steady_trace)
    n = 2000
    step_errs = status_errs = flips = 0
    for k in range(n):
        t = 72.0 * k / n
        got, want = noisy.reason_at(t), clean.reason_at(t)
        step_errs += got.step != want.step
        status_errs += got.status != want.status
        flips += got.proactive != want.proactive
    assert abs(step_errs / n - 0.3) < 0.04
    assert abs(status_errs / n - 0.25) < 0.04
    assert abs(flips / n - 0.15) < 0.04


def test_corrupted_step_stays_in_the_scripted_vocabulary(steady_trace):
    cfg = OracleConfig(step_error_rate=1.0, seed=3)
    oracle = OracleReasoner.from_trace(steady_trace)
    noisy = OracleReasoner.from_trace(steady_trace, cfg)
    labels = set(steady_trace.step_labels())
    for k in range(50):
        t = 72.0 * k / 50
        out = noisy.reason_at(t)
        assert out.step in labels
        assert out.step != oracle.reason_at(t).step


def test_proactive_flip_negates_ground_truth(steady_trace):
    flipped = OracleReasoner.from_trace(steady_trace, OracleConfig(proactive_flip_rate=1.0))
    clean = OracleReasoner.from_trace(steady_trace)
    for t in (0.5, 3.0, 10.0, 21.5):
        assert flipped.reason_at(t).proactive == (not clean.reason_at(t).proactive)


# (t, step, status, proactive) from a noisy oracle on the steady fixture, one list per
# config: with any rate above 0 the seeded draws, and so these outputs, stay as they are
NOISY_DRAWS = [
    (OracleConfig(step_error_rate=0.3, status_error_rate=0.3, proactive_flip_rate=0.3, seed=4), [
        (0.0, "Lay out parts", "step_transition", True),
        (2.5, "Lay out parts", "in_progress", False),
        (7.25, "Lay out parts", "in_progress", True),
        (14.5, "Attach legs", "step_transition", False),
        (21.0, "Attach legs", "in_progress", True),
        (33.5, "Mount shelf", "in_progress", True),
        (48.0, "Mount shelf", "just_start", True),
        (60.0, "Check stability", "just_start", True),
        (71.5, "Lay out parts", "just_start", False),
    ]),
    (OracleConfig(status_error_rate=0.5, seed=9), [
        (0.0, "Lay out parts", "just_start", True),
        (2.5, "Lay out parts", "in_progress", False),
        (7.25, "Lay out parts", "in_progress", False),
        (14.5, "Attach legs", "in_progress", False),
        (21.0, "Attach legs", "just_start", True),
        (33.5, "Mount shelf", "in_progress", True),
        (48.0, "Tighten screws", "in_progress", True),
        (60.0, "Check stability", "step_transition", True),
        (71.5, "Check stability", "about_to_finish", False),
    ]),
]


@pytest.mark.parametrize("cfg, draws", NOISY_DRAWS, ids=["every-rate", "status-only"])
def test_a_noisy_oracle_keeps_its_seeded_draws(steady_trace, cfg, draws):
    oracle = OracleReasoner.from_trace(steady_trace, cfg)
    for t, step, status, proactive in draws:
        out = oracle.reason_at(t)
        assert (out.step, out.status.value, out.proactive) == (step, status, proactive)
        want = f"Guidance for {step} ({status})." if proactive else None
        assert out.response == want


def test_oracle_config_validation(steady_trace):
    with pytest.raises(ValueError):
        OracleConfig(step_error_rate=1.5)
    with pytest.raises(ValueError):
        OracleConfig(proactive_flip_rate=-0.1)
    with pytest.raises(ValueError):
        OracleReasoner([], steady_trace.proactive_intervals)


# -- remote backend ------------------------------------------------------------


class MockChat:
    """One-shot HTTP chat endpoint replaying scripted raw response bodies (text or bytes)."""

    def __init__(self, bodies):
        self.bodies = list(bodies)
        self.requests = []
        owner = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                owner.requests.append(json.loads(self.rfile.read(length)))
                data = owner.bodies.pop(0)
                data = data if isinstance(data, bytes) else data.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)

    @property
    def endpoint(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/chat"

    def __enter__(self):
        # PipelineServer.start()'s poll, so shutdown() waits out at most that
        threading.Thread(target=self.server.serve_forever, args=(POLL_S,), daemon=True).start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()


def content_reply(text):
    return json.dumps({"content": text})


def test_remote_reasoner_round_trip():
    with MockChat([content_reply(VALID_REPLY)]) as mock:
        out = RemoteReasoner(mock.endpoint).reason(make_input())
    assert isinstance(out, ReasonerOutput)
    assert out.step == "Measure water"
    (request,) = mock.requests
    assert "model" not in request
    system, user = request["messages"]
    assert system == {"role": "system", "content": assemble_prompt(make_input())}
    assert user["role"] == "user"


def test_remote_reasoner_embeds_the_frame_when_given():
    image = np.arange(24, dtype=np.uint8).reshape(4, 6)
    with MockChat([content_reply(VALID_REPLY)]) as mock:
        out = RemoteReasoner(mock.endpoint, model="m1").reason(make_input(image=image))
    assert isinstance(out, ReasonerOutput)
    (request,) = mock.requests
    assert request["model"] == "m1"
    (part,) = request["messages"][1]["content"]
    assert part["type"] == "image"
    assert part["format"] == "pgm_base64"
    assert np.array_equal(read_pgm(base64.b64decode(part["data"])), image)


def test_remote_reasoner_accepts_nested_completion_shape():
    body = json.dumps({"choices": [{"message": {"content": VALID_REPLY}}]})
    with MockChat([body]) as mock:
        out = RemoteReasoner(mock.endpoint).reason(make_input())
    assert isinstance(out, ReasonerOutput)


def test_remote_reasoner_retries_once_with_a_format_reminder():
    first = "The user seems to be measuring water right now."
    with MockChat([content_reply(first), content_reply(VALID_REPLY)]) as mock:
        out = RemoteReasoner(mock.endpoint).reason(make_input())
    assert isinstance(out, ReasonerOutput)
    assert len(mock.requests) == 2
    retry_messages = mock.requests[1]["messages"]
    assert len(retry_messages) == 4
    assert retry_messages[:2] == mock.requests[0]["messages"]
    assert retry_messages[2] == {"role": "assistant", "content": first}
    assert retry_messages[3]["role"] == "user"
    assert "could not be parsed" in retry_messages[3]["content"]


def test_remote_reasoner_gives_up_after_the_retry():
    with MockChat([content_reply("nope"), content_reply("still nope")]) as mock:
        out = RemoteReasoner(mock.endpoint).reason(make_input())
    assert isinstance(out, MalformedOutput)
    assert out.attempts == 2
    assert "first:" in out.reason and "retry:" in out.reason
    assert len(mock.requests) == 2


def test_remote_reasoner_lets_transport_failures_through():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    endpoint = f"http://127.0.0.1:{port}/chat"
    with pytest.raises(ChatEndpointError) as err:
        RemoteReasoner(endpoint, timeout=2.0).reason(make_input())
    assert endpoint in str(err.value)


def test_remote_reasoner_rejects_non_json_endpoint_body():
    with MockChat(["this is not json"]) as mock:
        with pytest.raises(ChatEndpointError):
            RemoteReasoner(mock.endpoint).reason(make_input())


def test_a_transport_failure_on_the_retry_raises_the_same_error():
    with MockChat([content_reply("nope"), "this is not json"]) as mock:
        with pytest.raises(ChatEndpointError, match="non-JSON"):
            RemoteReasoner(mock.endpoint).reason(make_input())
    assert len(mock.requests) == 2


@pytest.mark.parametrize(
    "body",
    [
        json.dumps({"content": 5}),
        json.dumps({"content": None}),
        json.dumps({"content": {"step": "X"}}),
        '{"content": ' + too_deep() + "}",
        json.dumps({"choices": []}),
        json.dumps({"choices": [{"message": {"content": 5}}]}),
        json.dumps({"choices": [{"message": "hi"}]}),
        b'{"content": "\xff"}',
    ],
    ids=["number", "null", "object", "over-deep", "no-choice", "nested-number", "nested-text",
         "not-utf-8"],
)
def test_a_malformed_chat_envelope_is_an_endpoint_error(body):
    with MockChat([body]) as mock:
        with pytest.raises(ChatEndpointError, match="malformed|non-JSON"):
            RemoteReasoner(mock.endpoint).reason(make_input())
