"""Golden event logs: the fixture replays must stay byte-identical.

Refactors and speed-ups of the engine count only if these digests hold. The
corrupted oracle makes the step-label order visible (step errors pick from
the vocabulary in first-appearance order), so it is gated too.
"""
import hashlib

import pytest

from stepassist.harness.config import DetectorSpec, ReasonerSpec
from stepassist.harness.pipeline import replay
from stepassist.reasoner import OracleConfig

from conftest import fixture_config

CONFIGS = {
    "annotation": fixture_config(),
    "synthetic": fixture_config(detector=DetectorSpec(kind="synthetic")),
    "noisy_oracle": fixture_config(
        reasoner=ReasonerSpec(
            oracle=OracleConfig(
                step_error_rate=0.3, status_error_rate=0.3, proactive_flip_rate=0.2, seed=3
            )
        )
    ),
}

GOLDEN = {
    ("standard", "annotation"): "e23fd9f8f9ad7045460a68552a0aea8d8789fafa18edb9fef7a8e94d9ed70386",
    ("standard", "synthetic"): "e23fd9f8f9ad7045460a68552a0aea8d8789fafa18edb9fef7a8e94d9ed70386",
    ("standard", "noisy_oracle"): "5d5f3707b932d1b9031ba6b814e467bb023c3baa96aa52258441b77abe596761",
    ("steady", "annotation"): "87fb4979dd9cc9cd2989e58b7497ece3491387931cd973305402102522832567",
    ("steady", "synthetic"): "87fb4979dd9cc9cd2989e58b7497ece3491387931cd973305402102522832567",
    ("steady", "noisy_oracle"): "f030088b9ef7c921c6a3b9fc6f686461dacb20de9775d1e59ccea9fb19263213",
}


@pytest.mark.parametrize("fixture,config", sorted(GOLDEN))
def test_fixture_event_log_digest(fixture, config, request):
    trace = request.getfixturevalue(f"{fixture}_trace")
    log, _ = replay(trace, CONFIGS[config])
    assert hashlib.sha256(log.dumps().encode("utf-8")).hexdigest() == GOLDEN[fixture, config]
