import contextlib
import socket

import pytest

from stepassist.harness.config import PipelineConfig
from stepassist.harness.server import PipelineServer
from stepassist.motion import FlowConfig
from stepassist.perception import SamplerConfig
from stepassist.trace.synthetic import generate_synthetic, standard_script

from oracles import steady_script

# Synthetic fixtures use a 0.25 s gyro period, so the smoothing window is set
# to match (exactly one sample per window) and the flow search radius to 15
# (the scripted 12 px hand translation must be inside the search range).
FIXTURE_SMOOTHING = 0.25
FIXTURE_RADIUS = 15


def fixture_config(**overrides) -> PipelineConfig:
    base = dict(
        sampler=SamplerConfig(smoothing_window=FIXTURE_SMOOTHING),
        flow=FlowConfig(search_radius=FIXTURE_RADIUS),
    )
    base.update(overrides)
    return PipelineConfig(**base)


class KeepingServer(PipelineServer):
    """A PipelineServer that keeps the log of every finished session, by session id."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.finished_logs = {}

    def store_log(self, session_id, log):
        self.finished_logs[session_id] = log


def dead_endpoint() -> str:
    """A chat endpoint URL on a local port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/chat"


@contextlib.contextmanager
def hanging_endpoint():
    """A chat endpoint URL on a local port that accepts connections and never answers."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen(64)
        yield f"http://127.0.0.1:{sock.getsockname()[1]}/chat"


@pytest.fixture(scope="session")
def standard_trace():
    return generate_synthetic(standard_script(seed=0))


@pytest.fixture(scope="session")
def steady_trace():
    return generate_synthetic(steady_script(seed=0))


@pytest.fixture
def base_config():
    return fixture_config()


CORPUS_DOCS = {
    "bike": (
        "Task: Fix a flat bicycle tire\n"
        "1. Remove the wheel\n"
        "2. Pull out the inner tube [after 1]\n"
        "3. Patch the puncture [after 2] :: Rough the rubber before gluing.\n"
        "4. Refit the tube and tire [after 3]\n"
        "5. Inflate the tire [after 4]\n"
        "Check the tire pressure with your thumb before riding the bike.\n"
    ),
    "coffee": (
        "Task: Brew a pot of coffee\n"
        "1. Grind the beans\n"
        "2. Rinse the filter\n"
        "3. Brew the coffee [after 1, 2] :: Pour in slow circles.\n"
        "4. Serve the coffee [after 3]\n"
        "A strong pot of coffee needs a coarse grind and hot water.\n"
    ),
    "omelet": (
        "Task: Cook an omelet\n"
        "1. Crack the eggs\n"
        "2. Whisk the eggs [after 1]\n"
        "3. Fry the omelet [after 2] :: Keep the pan on medium heat.\n"
        "4. Fold and plate [after 3]\n"
        "A fluffy omelet for breakfast comes from whisking air into the eggs.\n"
    ),
    "table": (
        "Task: Assemble a side table\n"
        "1. Lay out parts\n"
        "2. Attach legs [after 1]\n"
        "3. Mount shelf [after 2]\n"
        "4. Fit drawer [after 3]\n"
        "5. Tighten screws [after 4]\n"
        "6. Check stability [after 5]\n"
        "Assemble the side table on a soft surface to avoid scratches.\n"
    ),
    "tea": (
        "Task: Brew tea\n"
        "1. Measure water\n"
        "2. Boil water [after 1]\n"
        "3. Add tea bag\n"
        "4. Pour water [after 2, 3] :: Fill the cup close to the rim.\n"
        "5. Steep tea [after 4]\n"
        "6. Serve tea [after 5]\n"
        "To brew a good cup of tea, let the tea steep without stirring.\n"
    ),
}


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for doc_id, text in CORPUS_DOCS.items():
        (root / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    return root
