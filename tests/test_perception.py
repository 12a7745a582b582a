import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepassist.motion import FlowConfig, HandBox
from stepassist.perception import (
    MODE_BURST,
    MODE_NORMAL,
    KeyMomentConfig,
    SamplerConfig,
    SamplerState,
    bind_pair,
    head_motion,
    schedule_next_pair,
    select_key_moment,
)
from stepassist.trace.synthetic import generate_synthetic, standard_script
from stepassist.trace.types import FramePair, FrameRecord, ImuSample

from conftest import FIXTURE_RADIUS, FIXTURE_SMOOTHING
from oracles import run_sampler, trace_pairs


def imu_stream(magnitudes, period=0.25):
    return [ImuSample(i * period, m, 0.0, 0.0) for i, m in enumerate(magnitudes)]


# -- head motion -------------------------------------------------------------


def test_head_motion_averages_the_window():
    imu = imu_stream([1, 2, 3, 4, 5])
    cfg = SamplerConfig(smoothing_window=0.6)
    assert head_motion(imu, 1.0, cfg) == pytest.approx((3 + 4 + 5) / 3)


def test_head_motion_window_is_open_at_the_lower_edge():
    imu = imu_stream([1, 2, 3, 4, 5])
    cfg = SamplerConfig(smoothing_window=0.5)
    # (0.5, 1.0] keeps the samples at 0.75 and 1.0 only
    assert head_motion(imu, 1.0, cfg) == pytest.approx(4.5)


def test_head_motion_falls_back_to_latest_sample():
    imu = imu_stream([1, 2, 3, 4, 5])
    cfg = SamplerConfig(smoothing_window=0.05)
    assert head_motion(imu, 0.9, cfg) == pytest.approx(4.0)


def test_head_motion_uses_full_vector_norm():
    imu = [ImuSample(0.0, 3.0, 4.0, 0.0)]
    assert head_motion(imu, 0.0, SamplerConfig()) == pytest.approx(5.0)


def test_head_motion_rejects_bad_queries():
    with pytest.raises(ValueError):
        head_motion([], 0.0, SamplerConfig())
    with pytest.raises(ValueError):
        head_motion(imu_stream([1, 2]), -0.1, SamplerConfig())


def test_head_motion_ignores_samples_outside_the_window():
    cfg = SamplerConfig(smoothing_window=FIXTURE_SMOOTHING)
    base = imu_stream([1, 2, 3, 4, 5, 6, 7])
    want = head_motion(base, 1.0, cfg)
    assert want == pytest.approx(5.0)  # only the sample at t=1.0
    perturbed = list(base)
    perturbed[3] = ImuSample(0.75, 99.0, 0.0, 0.0)  # sits exactly at t - w
    perturbed[5] = ImuSample(1.25, 99.0, 0.0, 0.0)
    assert head_motion(perturbed, 1.0, cfg) == want


def linear_head_motion(imu, t, window):
    """Oracle: the head-motion rule by one scan over every sample."""
    seen = [s for s in imu if s.timestamp <= t]
    if not seen:
        raise ValueError("no imu sample at or before t")
    inside = [s for s in seen if s.timestamp > t - window]
    if not inside:
        return seen[-1].magnitude()
    return sum(s.magnitude() for s in inside) / len(inside)


# timestamps on a 1/8 s grid so that ties and exact window edges are common
grid = st.integers(min_value=-2, max_value=40).map(lambda k: k / 8)
samples = st.lists(
    st.tuples(grid, st.floats(min_value=0.0, max_value=10.0)), max_size=25
).map(lambda rows: [ImuSample(ts, g, 0.0, 0.0) for ts, g in sorted(rows)])


@settings(max_examples=300, deadline=None)
@given(
    imu=samples,
    t=st.one_of(grid, st.floats(min_value=-1.0, max_value=6.0)),
    window=st.one_of(st.sampled_from([0.05, 0.125, 0.25, 0.5, 1.0]), st.floats(0.01, 1.0)),
)
def test_head_motion_matches_a_linear_scan(imu, t, window):
    cfg = SamplerConfig(smoothing_window=window)
    try:
        want = linear_head_motion(imu, t, window)
    except ValueError:
        with pytest.raises(ValueError):
            head_motion(imu, t, cfg)
        return
    assert head_motion(imu, t, cfg) == want


# -- scheduling --------------------------------------------------------------


def test_schedule_uses_normal_interval_below_threshold():
    state = schedule_next_pair(SamplerState(MODE_BURST, 5.0), 0.2, SamplerConfig())
    assert state == SamplerState(MODE_NORMAL, 6.0)


def test_schedule_uses_burst_interval_above_threshold():
    state = schedule_next_pair(SamplerState(MODE_NORMAL, 5.0), 0.35, SamplerConfig())
    assert state == SamplerState(MODE_BURST, 5.5)


def test_schedule_threshold_is_strict():
    cfg = SamplerConfig()
    state = schedule_next_pair(SamplerState(), cfg.tau_s, cfg)
    assert state.mode == MODE_NORMAL
    assert state.next_pair_time == 1.0


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(burst_interval=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(smoothing_window=2.0)
    with pytest.raises(ValueError):
        SamplerConfig(tau_s=0.0)
    with pytest.raises(ValueError):
        KeyMomentConfig(tau_f=1.0, stationary_threshold=1.0)


# -- pair binding ------------------------------------------------------------


def test_bind_pair_exact_and_nearest():
    times = [0.0, 0.5, 1.0]
    assert bind_pair(times, 0.5, 0.05) == 1
    assert bind_pair(times, 0.52, 0.05) == 1
    assert bind_pair(times, 0.74, 0.05) is None


def test_bind_pair_tie_goes_to_the_earlier_pair():
    assert bind_pair([1.0, 2.0], 1.5, 0.6) == 0


def test_bind_pair_boundary_error_still_binds():
    assert bind_pair([0.0], 0.05, 0.05) == 0
    assert bind_pair([0.0], 0.0500001, 0.05) is None


def test_bind_pair_empty_stream_misses():
    assert bind_pair([], 1.0, 0.5) is None


# -- full sampler walk -------------------------------------------------------


def scripted_gap(t, windows):
    return 0.5 if any(w0 <= t < w1 for w0, w1 in windows) else 1.0


def test_sampler_walk_matches_scripted_burst_windows(standard_trace, base_config):
    windows = standard_script(seed=0).burst_windows
    samples = run_sampler(standard_trace, base_config.sampler)

    expected = []
    t = 0.0
    while t <= standard_trace.duration:
        expected.append(t)
        t += scripted_gap(t, windows)
    assert [s.scheduled_t for s in samples] == expected
    assert len(samples) == 83

    for s in samples:
        inside = any(w0 <= s.scheduled_t < w1 for w0, w1 in windows)
        assert s.mode == (MODE_BURST if inside else MODE_NORMAL)
        assert s.pair is not None
        assert s.pair.t == s.scheduled_t  # dyadic grid binds exactly


def test_sampler_walk_stays_normal_without_bursts(steady_trace, base_config):
    samples = run_sampler(steady_trace, base_config.sampler)
    assert [s.scheduled_t for s in samples] == [float(k) for k in range(73)]
    assert all(s.mode == MODE_NORMAL for s in samples)


def test_sampler_reports_misses_for_absent_pairs(base_config):
    trace = generate_synthetic(standard_script(seed=0))
    trace.frames = [f for f in trace.frames if f.pair_id != 10]  # drop t=5.0
    by_t = {s.scheduled_t: s for s in run_sampler(trace, base_config.sampler)}
    assert by_t[5.0].pair is None
    assert by_t[4.0].pair is not None
    assert by_t[6.0].pair is not None


# -- key moment selection ----------------------------------------------------


def patch_pair(dx, dy, seed=0):
    """A pair whose only motion is one bright hand patch translating (dx, dy)."""
    rng = np.random.default_rng(seed)
    background = rng.integers(20, 121, size=(96, 120), dtype=np.uint8)
    texture = rng.integers(160, 256, size=(24, 24), dtype=np.uint8)
    img_a = background.copy()
    img_a[28:52, 12:36] = texture
    img_b = background.copy()
    img_b[28 + dy : 52 + dy, 12 + dx : 36 + dx] = texture
    pair = FramePair(4, 2.0, FrameRecord(2.0, 4, "a", img_a), FrameRecord(2.1, 4, "b", img_b))
    return pair, HandBox("left", 12, 28, 24, 24)


def fixture_flow():
    return FlowConfig(search_radius=FIXTURE_RADIUS)


def test_small_hand_motion_is_not_a_key_moment():
    pair, box = patch_pair(4, 3)
    assert select_key_moment(pair, [box], KeyMomentConfig(), fixture_flow()) is None


def test_threshold_boundary_keeps_the_moment():
    pair, box = patch_pair(6, 8)  # magnitude exactly 10.0
    moment = select_key_moment(pair, [box], KeyMomentConfig(), fixture_flow())
    assert moment is not None
    assert moment.trigger_magnitude == 10.0
    assert list(moment.flows) == ["left"]
    assert moment.flows["left"].dx == 6.0
    assert moment.flows["left"].dy == 8.0
    assert (moment.t, moment.pair_id) == (2.0, 4)


def test_stationary_hand_is_not_a_key_moment():
    pair, box = patch_pair(0, 0)
    assert select_key_moment(pair, [box], KeyMomentConfig(), fixture_flow()) is None


def test_trigger_is_the_largest_hand_magnitude(standard_trace):
    # at t=4.5 the left hand moves (12, 0) and the right hand (0, 12)
    pair = trace_pairs(standard_trace)[9]
    boxes = [
        HandBox(str(b["side"]), int(b["x"]), int(b["y"]), int(b["w"]), int(b["h"]))
        for b in standard_trace.hand_boxes[pair.pair_id]
    ]
    moment = select_key_moment(pair, boxes, KeyMomentConfig(), fixture_flow())
    assert moment is not None
    assert set(moment.flows) == {"left", "right"}
    assert moment.flows["left"].magnitude == 12.0
    assert moment.flows["right"].magnitude == 12.0
    assert moment.trigger_magnitude == 12.0


def test_scene_flow_stands_in_when_no_hands_are_tracked():
    rng = np.random.default_rng(9)
    master = rng.integers(0, 256, size=(126, 94), dtype=np.uint8)
    img_a = master[15:111, 15:79].copy()
    img_b = master[3:99, 15:79].copy()  # scene content moved down 12 px
    pair = FramePair(0, 0.0, FrameRecord(0.0, 0, "a", img_a), FrameRecord(0.1, 0, "b", img_b))
    moment = select_key_moment(pair, [], KeyMomentConfig(tau_f=5.0), fixture_flow())
    assert moment is not None
    assert list(moment.flows) == ["scene"]
    scene = moment.flows["scene"]
    assert moment.trigger_magnitude == scene.magnitude
    # trailing-edge blocks lose their content off-frame, so the full-frame
    # mean underestimates the scripted 12 px; direction must still dominate
    assert 6.0 <= scene.dy <= 12.0
    assert abs(scene.dx) <= 1.0
    assert moment.trigger_magnitude >= 6.0


def test_static_scene_without_hands_is_not_a_key_moment():
    rng = np.random.default_rng(10)
    img = rng.integers(0, 256, size=(96, 120), dtype=np.uint8)
    pair = FramePair(0, 0.0, FrameRecord(0.0, 0, "a", img), FrameRecord(0.1, 0, "b", img.copy()))
    assert select_key_moment(pair, [], KeyMomentConfig(), fixture_flow()) is None
