"""The no-hands path: a camera pan replayed with the null detector, so every
key moment is measured by full-frame flow (the benchmark's ``replay-scene``)."""
import hashlib

import pytest

from stepassist.harness.config import DetectorSpec
from stepassist.harness.events import KEY_MOMENT
from stepassist.harness.pipeline import replay
from stepassist.trace.synthetic import (
    HandMove,
    SyntheticScript,
    generate_synthetic,
    standard_script,
)

from conftest import fixture_config

# sha256 of EventLog.dumps() for the seed-1 pan below
SCENE_LOG_SHA256 = "f03e69f795e230e149916072b92e36619fdc6f94050dcd425a6c68276f86461d"


def scene_script(seed: int) -> SyntheticScript:
    """One kitchen step at 320x240, no hands; the camera pans 12 px per pair
    through the step's active phases (all but the closing transition).

    At 120x96 the mean pan over a frame falls below ``tau_f`` and no moment
    is keyed, so the frame stays at the benchmark's size.
    """
    kitchen = standard_script(seed=seed)
    step = kitchen.steps[0]
    active = sum(p.duration for p in step.phases[:-1])
    return SyntheticScript(
        steps=(step,),
        instruction=kitchen.instruction,
        global_moves=(HandMove(0.0, active, 12, 0),),
        width=320,
        height=240,
        seed=seed,
        guideline_doc_id=kitchen.guideline_doc_id,
    )


@pytest.fixture(scope="module")
def scene_replay():
    trace = generate_synthetic(scene_script(seed=1))
    return replay(trace, fixture_config(detector=DetectorSpec(kind="null")))


def test_every_scene_key_moment_carries_one_camera_flow(scene_replay):
    log, metrics = scene_replay
    moments = log.of_kind(KEY_MOMENT)
    assert moments
    for ev in moments:
        (flow,) = ev.data["flows"]
        assert flow["side"] == "scene"
        assert ev.data["motion_text"].startswith("The camera view is moving")
    assert metrics.step_acc == metrics.status_acc == metrics.acc_p == metrics.sts == 1.0
    assert metrics.md == metrics.fd == 0.0


def test_scene_replay_log_is_pinned(scene_replay):
    log, _ = scene_replay
    assert hashlib.sha256(log.dumps().encode("utf-8")).hexdigest() == SCENE_LOG_SHA256
