"""Shared pieces of the benchmark: session scripts, configs, statistics, processes."""
from __future__ import annotations

import dataclasses
import os
import select
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stepassist.harness.config import DetectorSpec, PipelineConfig, ReasonerSpec
from stepassist.motion import FlowConfig
from stepassist.perception import SamplerConfig
from stepassist.trace.synthetic import HandMove, SyntheticScript, standard_script

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

# the test fixture's settings: one 4 Hz gyro sample per smoothing window,
# and a search radius that holds the scripted 12 px moves
SMOOTHING_WINDOW = 0.25
SEARCH_RADIUS = 15


@dataclass
class Result:
    """What one workload run measured; ``metrics`` maps name to (value, unit)."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


# -- sessions and configs -------------------------------------------------


def fixture_config(**overrides) -> PipelineConfig:
    return PipelineConfig(
        sampler=SamplerConfig(smoothing_window=SMOOTHING_WINDOW),
        flow=FlowConfig(search_radius=SEARCH_RADIUS),
        **overrides,
    )


def null_detector_config() -> PipelineConfig:
    return fixture_config(detector=DetectorSpec(kind="null"))


def remote_config(endpoint: str) -> PipelineConfig:
    return fixture_config(reasoner=ReasonerSpec(kind="remote", endpoint=endpoint))


def serve_flags(endpoint: str) -> list[str]:
    """``stepassist serve`` flags that give the same config as ``remote_config``."""
    return [
        "--host", "127.0.0.1", "--port", "0",
        "--smoothing-window", str(SMOOTHING_WINDOW),
        "--search-radius", str(SEARCH_RADIUS),
        "--reasoner", "remote", "--endpoint", endpoint,
    ]


def hands_script(seed: int) -> SyntheticScript:
    """The six-step kitchen session at 120x96 with a 4 Hz gyro."""
    return standard_script(seed=seed)


def scene_script(seed: int) -> SyntheticScript:
    """One kitchen step at 320x240, no hands; the camera pans 12 px per pair
    through the step's active phases (all but the closing transition)."""
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


def live_script(seed: int, n_steps: int) -> SyntheticScript:
    """The kitchen script cycled for ``n_steps`` steps, at 320x240 with a 200 Hz gyro."""
    kitchen = standard_script(seed=seed)
    steps = tuple(kitchen.steps[k % len(kitchen.steps)] for k in range(n_steps))
    step_len = steps[0].duration
    left, right = kitchen.hands
    return dataclasses.replace(
        kitchen,
        steps=steps,
        burst_windows=tuple((step_len * k - 1.0, step_len * k + 1.0) for k in range(1, n_steps)),
        hands=(
            dataclasses.replace(left, moves=tuple(
                HandMove(step_len * k, step_len * k + 11.0, 12, 0) for k in range(n_steps))),
            dataclasses.replace(right, moves=tuple(
                HandMove(step_len * k + 2.0, step_len * k + 9.0, 0, 12) for k in range(n_steps))),
        ),
        width=320,
        height=240,
        imu_period=0.005,
    )


def stamp_frames(trace):
    """Write each slot-b frame's pair number into four pixels of its bottom row.

    Synthetic backgrounds repeat exactly, so without a stamp the reasoner
    would see the same image again and again and a reply that is a function
    of the request would repeat too. The stamped pixels lie outside every
    hand box's flow search window, so flow, gating and scores do not change.
    """
    for frame in trace.frames:
        if frame.slot == "b":
            frame.image[-1, :4] = np.frombuffer(frame.pair_id.to_bytes(4, "little"), np.uint8)
    return trace


def scores_perfect(m) -> bool:
    """Noiseless oracle scores: every moment right, nothing missed or false."""
    return (
        m.step_acc == 1.0 and m.status_acc == 1.0 and m.acc_p == 1.0
        and m.md == 0.0 and m.fd == 0.0 and m.sts == 1.0
    )


# -- statistics ---------------------------------------------------------------


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return pct(values, 50)


# -- processes ----------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_listening(argv: list[str], timeout: float = 60.0) -> tuple[subprocess.Popen, str]:
    """Start a child that prints a ``listening on ...`` line; return it and that line."""
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
    )
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline().decode("utf-8").strip() if ready else ""
    if not line.startswith("listening on"):
        stop(proc)
        raise RuntimeError(f"{argv[0]} did not start: {line!r}")
    return proc, line


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """SIGINT, wait, and kill if it lingers."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def cpu_seconds(pid: int | str) -> float:
    """User plus system CPU time of a process, from /proc/<pid>/stat."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mib(pid: int | str) -> float:
    """VmHWM of a process in MiB, from /proc/<pid>/status."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
