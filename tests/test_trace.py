import dataclasses
import json
import math
import os
import re
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepassist.trace import io as trace_io
from stepassist.trace.io import (
    SessionFormatError,
    annotations_from_obj,
    annotations_to_obj,
    frame_file_name,
    load_session,
    validate_session,
    write_session,
)
from stepassist.trace.pgm import read_pgm, write_pgm
from stepassist.trace.synthetic import (
    BASE_MOTION,
    BURST_MOTION,
    HandMove,
    HandTrack,
    PhaseSpec,
    ScriptError,
    StepPlan,
    SyntheticScript,
    generate_synthetic,
    standard_script,
)
from stepassist.trace.types import (
    ExecutionStatus,
    FrameRecord,
    ImuSample,
    ProactiveInterval,
    SessionTrace,
    StepSegment,
)

from oracles import steady_script, too_deep, trace_pairs


def small_script(**overrides):
    """Two-step script small enough to mutate freely in tests."""
    phases = (
        PhaseSpec(ExecutionStatus.JUST_START, 1.0),
        PhaseSpec(ExecutionStatus.IN_PROGRESS, 2.0),
        PhaseSpec(ExecutionStatus.ABOUT_TO_FINISH, 1.0),
    )
    kwargs = dict(
        steps=(
            StepPlan(step="Fill kettle", phases=phases, proactive=((0.0, 1.0),)),
            StepPlan(step="Heat kettle", phases=phases, proactive=((0.0, 1.0),)),
        ),
        hands=(HandTrack(side="left", x=20, y=20, moves=(HandMove(0.0, 8.0, 6, 0),)),),
        seed=3,
    )
    kwargs.update(overrides)
    return SyntheticScript(**kwargs)


# -- PGM ------------------------------------------------------------------


def test_pgm_round_trip():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(17, 23), dtype=np.uint8)
    assert np.array_equal(read_pgm(write_pgm(img)), img)


def test_pgm_image_is_a_read_only_view_without_the_trailing_bytes():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    image = read_pgm(write_pgm(img) + bytes(1 << 20))
    assert np.array_equal(image, img) and not image.flags.writeable
    owner = image
    while not isinstance(owner, bytes):
        owner = owner.base
    assert len(owner) == len(write_pgm(img))  # the megabyte after the raster is not held


def test_pgm_refuses_ascii_p2():
    with pytest.raises(ValueError, match="not a PGM image"):
        read_pgm(b"P2\n# a comment\n3 2\n255\n0 10 20\n30 40 255\n")


def test_pgm_reads_header_comments():
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    data = b"P5\n# a comment\n3 2\n# another\n255\n" + img.tobytes()
    assert np.array_equal(read_pgm(data), img)


def test_pgm_rejects_bad_magic_and_truncation():
    with pytest.raises(ValueError):
        read_pgm(b"P6\n2 2\n255\n" + bytes(4))
    good = write_pgm(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        read_pgm(good[:-3])


def test_pgm_rejects_wrong_maxval():
    with pytest.raises(ValueError):
        read_pgm(b"P5\n2 2\n65535\n" + bytes(8))


@st.composite
def damaged_pgm(draw):
    """A valid P5 image with a few bytes overwritten, inserted or deleted."""
    image = np.arange(12, dtype=np.uint8).reshape(3, 4)
    data = bytearray(b"P5\n# c\n4 3\n255\n" + image.tobytes())
    noise = st.binary(min_size=1, max_size=3)
    # digits, separators and comment marks reach the header parser more often than noise
    tokens = st.text("0123456789 #\n-", min_size=1, max_size=24).map(str.encode)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        data[i:i + draw(st.integers(0, 2))] = draw(st.one_of(noise, tokens))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@example(b"P2 2 1 255 1 99999999999999999999")
@given(st.one_of(st.binary(max_size=64), damaged_pgm()))
def test_read_pgm_returns_an_image_or_raises_value_error(data):
    try:
        image = read_pgm(data)
    except ValueError:
        return
    assert image.ndim == 2 and image.dtype == np.uint8


# -- session round trip ----------------------------------------------------


def test_write_then_load_round_trips(tmp_path, standard_trace):
    root = write_session(standard_trace, tmp_path / "sess")
    loaded = load_session(root)
    assert loaded.instruction == standard_trace.instruction
    assert loaded.width == standard_trace.width
    assert loaded.pair_gap == standard_trace.pair_gap
    assert len(loaded.frames) == len(standard_trace.frames)
    for got, want in zip(loaded.frames, standard_trace.frames):
        assert (got.timestamp, got.pair_id, got.slot) == (
            want.timestamp,
            want.pair_id,
            want.slot,
        )
        assert np.array_equal(got.image, want.image)
    assert loaded.imu == standard_trace.imu
    assert loaded.segments == standard_trace.segments
    assert loaded.proactive_intervals == standard_trace.proactive_intervals
    assert loaded.hand_boxes == standard_trace.hand_boxes


def test_annotation_codec_round_trips(standard_trace):
    obj = json.loads(json.dumps(annotations_to_obj(standard_trace)))
    annotations = annotations_from_obj(obj)
    assert annotations["segments"] == standard_trace.segments
    assert annotations["proactive_intervals"] == standard_trace.proactive_intervals
    hand_boxes = annotations["hand_boxes"]
    assert hand_boxes and hand_boxes == standard_trace.hand_boxes
    assert all(isinstance(pid, int) for pid in hand_boxes)


def test_load_names_the_malformed_annotation_segment(tmp_path):
    root = write_session(generate_synthetic(small_script()), tmp_path / "sess")
    ann_path = root / "annotations.json"
    ann = json.loads(ann_path.read_text())
    ann["segments"][1]["status"] = "half_done"
    ann_path.write_text(json.dumps(ann))
    with pytest.raises(SessionFormatError) as err:
        load_session(root)
    assert "annotations.json: segment 1:" in str(err.value)


def test_frame_file_name_padding():
    assert frame_file_name(7, "a") == "000007_a.pgm"
    assert frame_file_name(123456, "b") == "123456_b.pgm"


def damage(root, case):
    """Break one piece of a written session directory; returns the path to load."""
    manifest = json.loads((root / "manifest.json").read_text())
    imu_rows = (root / "imu.csv").read_text().splitlines()
    if case == "no-directory":
        return root / "absent"
    if case == "manifest-json":
        (root / "manifest.json").write_text('{\n  "instruction": ')
    elif case == "manifest-array":
        (root / "manifest.json").write_text("[]")
    elif case == "manifest-key":
        del manifest["pair_gap"]
    elif case == "frame-entry-key":
        del manifest["frames"][1]["slot"]
    elif case == "frames-number":
        manifest["frames"] = 5
    elif case == "frame-entry-number":
        manifest["frames"][1] = 5
    elif case == "frame-file-number":
        manifest["frames"][1]["file"] = 5
    elif case == "frame-slot-c":
        manifest["frames"][0]["slot"] = "c"
    elif case == "frame-not-pgm":
        (root / "frames" / frame_file_name(0, "b")).write_bytes(b"GIF89a")
    elif case == "frame-pgm-width-0":
        (root / "frames" / frame_file_name(0, "b")).write_bytes(b"P5\n0 4\n255\n")
    elif case == "frame-file-nul":
        manifest["frames"][0]["file"] = "frames/000000_a\x00.pgm"
    elif case == "imu-header":
        imu_rows[0] = "t,gx,gy,gz"
    elif case == "imu-row-fields":
        imu_rows[2] = "0.5,0.0,0.0"
    elif case == "non-numeric-field":
        imu_rows[2] = "0.5,not_a_number,0.0,0.0"
    elif case == "annotations-not-object":
        (root / "annotations.json").write_text("[]")
    elif case in HEADER_DAMAGE:
        key, value = HEADER_DAMAGE[case]
        manifest[key] = value
    elif case in HAND_BOX_DAMAGE:
        ann = json.loads((root / "annotations.json").read_text())
        key, value = HAND_BOX_DAMAGE[case]
        box = ann["hand_boxes"]["0"][0]
        del box[key]
        if value != "<missing>":
            box[key] = value
        (root / "annotations.json").write_text(json.dumps(ann))
    elif case in HAND_BOX_KEY_DAMAGE:
        ann = json.loads((root / "annotations.json").read_text())
        ann["hand_boxes"][HAND_BOX_KEY_DAMAGE[case]] = ann["hand_boxes"].pop("0")
        (root / "annotations.json").write_text(json.dumps(ann))
    elif case == "empty-step":
        ann = json.loads((root / "annotations.json").read_text())
        ann["segments"][4]["step"] = "  "
        (root / "annotations.json").write_text(json.dumps(ann))
    elif case in ANNOTATION_DAMAGE:
        ann = json.loads((root / "annotations.json").read_text())
        key, value = ANNOTATION_DAMAGE[case]
        ann[key] = value
        (root / "annotations.json").write_text(json.dumps(ann))
    if case in MANIFEST_DAMAGE or case in HEADER_DAMAGE:
        (root / "manifest.json").write_text(json.dumps(manifest))
    if case.startswith(("imu", "non-numeric")):
        (root / "imu.csv").write_text("\n".join(imu_rows) + "\n")
    return root


MANIFEST_DAMAGE = (
    "manifest-key", "frame-entry-key", "frames-number", "frame-entry-number", "frame-file-number",
    "frame-slot-c", "frame-file-nul",
)


# what each damage does to load_session's message: the file, and the line where one applies
LOAD_REFUSALS = {
    "no-directory": "absent: missing session directory",
    "manifest-json": "manifest.json:2: invalid JSON",
    "manifest-array": "manifest.json: header must be a JSON object",
    "manifest-key": "manifest.json: missing key 'pair_gap'",
    "frame-entry-key": "manifest.json: frame entry 1 missing key 'slot'",
    "frame-slot-c": "manifest.json: frame entry 0: frame slot must be 'a' or 'b', got 'c'",
    "frame-not-pgm": "sess: frame file 'frames/000000_b.pgm': not a PGM image",
    "frame-pgm-width-0": "sess: frame file 'frames/000000_b.pgm': bad PGM dimensions 0x4",
    # a name the system cannot open (os.open's ValueError) is a missing file too
    "frame-file-nul": "sess: frame file 'frames/000000_a\\x00.pgm': missing file",
    "imu-header": "imu.csv:1: bad header",
    "imu-row-fields": "imu.csv:3: expected 4 fields, got 3",
    "non-numeric-field": "imu.csv:3: non-numeric field",
    "annotations-not-object": "annotations.json: annotations must be a JSON object",
    "instruction-null": "manifest.json: instruction must be a string, got None",
    "width-text": "manifest.json: width must be an integer, got 'abc'",
    "width-null": "manifest.json: width must be an integer, got None",
    "width-fraction": "manifest.json: width must be an integer, got 320.9",
    "height-bool": "manifest.json: height must be an integer, got True",
    "pair-gap-text": "manifest.json: pair_gap must be a number, got 'x'",
    "pair-gap-number-text": "manifest.json: pair_gap must be a number, got '0.1'",
    # the rules that need no record are checked over the header and annotations together
    "pair-gap-nan": "sess: session failed validation\n[bad_pair_gap] pair gap nan is not positive",
    "hand-box-x-null": "annotations.json: hand_boxes['0']: x must be an integer, got None",
    "hand-box-x-text": "annotations.json: hand_boxes['0']: x must be an integer, got 'abc'",
    "hand-box-x-fraction": "annotations.json: hand_boxes['0']: x must be an integer, got 1.9",
    # a hand box is read whole: every key, and a side of HAND_SIDES
    "hand-box-no-h": "annotations.json: hand_boxes['0'] missing key 'h'",
    "hand-box-side-up": "annotations.json: hand_boxes['0']: side must be left/right/unknown, "
                        "got 'up'",
    "hand-box-key-space": "annotations.json: hand_boxes[' 0']: the key is not a pair id",
    # more digits than int() reads; the key is cut as jsontext.field cuts a value
    "hand-box-key-digits": f"annotations.json: hand_boxes['{'1' * 39}]: the key is not a pair id",
    "frames-number": "manifest.json: frames must be a JSON array",
    "frame-entry-number": "manifest.json: frame entry 1 must be a JSON object",
    "frame-file-number": "manifest.json: frame entry 1: file must be a string",
    "segments-number": "annotations.json: segments must be a JSON array",
    "intervals-number": "annotations.json: proactive_intervals must be a JSON array",
    "hand-boxes-number": "annotations.json: hand_boxes must be a JSON object",
    "hand-boxes-array": "annotations.json: hand_boxes must be a JSON object",
    "empty-step": "[empty_step] segment 4 names an empty step",
}
HEADER_DAMAGE = {
    "instruction-null": ("instruction", None),
    "width-text": ("width", "abc"),
    "width-null": ("width", None),
    "width-fraction": ("width", 320.9),
    "height-bool": ("height", True),
    "pair-gap-text": ("pair_gap", "x"),
    "pair-gap-number-text": ("pair_gap", "0.1"),
    "pair-gap-nan": ("pair_gap", math.nan),
}
HAND_BOX_DAMAGE = {
    "hand-box-x-null": ("x", None),
    "hand-box-x-text": ("x", "abc"),
    "hand-box-x-fraction": ("x", 1.9),
    "hand-box-no-h": ("h", "<missing>"),
    "hand-box-side-up": ("side", "up"),
}
HAND_BOX_KEY_DAMAGE = {"hand-box-key-space": " 0", "hand-box-key-digits": "1" * 5000}
ANNOTATION_DAMAGE = {
    "segments-number": ("segments", 5),
    "intervals-number": ("proactive_intervals", 5),
    "hand-boxes-number": ("hand_boxes", 5),
    "hand-boxes-array": ("hand_boxes", [1]),
}


@pytest.mark.parametrize("case", LOAD_REFUSALS)
def test_load_names_the_file_it_refuses(tmp_path, case):
    root = write_session(generate_synthetic(small_script()), tmp_path / "sess")
    with pytest.raises(SessionFormatError) as err:
        load_session(damage(root, case))
    assert LOAD_REFUSALS[case] in str(err.value)


@pytest.mark.parametrize(
    "value, message",
    [
        (b"1" * 5000, "manifest.json: invalid JSON (Exceeds the limit (4300 digits)"),
        (too_deep().encode(), "manifest.json: invalid JSON (JSON nested too deeply"),
        (b'"\xff"', "manifest.json: invalid JSON ('utf-8' codec can't decode"),
    ],
    ids=["digits", "nesting", "not-utf-8"],
)
def test_load_refuses_a_manifest_that_does_not_decode(tmp_path, value, message):
    root = write_session(generate_synthetic(small_script()), tmp_path / "sess")
    text = (root / "manifest.json").read_bytes()
    width = json.loads(text)["width"]
    (root / "manifest.json").write_bytes(text.replace(b'"width": %d' % width, b'"width": ' + value))
    with pytest.raises(SessionFormatError) as err:
        load_session(root)
    assert message in str(err.value)


def test_load_reads_the_guideline_doc_id_as_a_string(tmp_path):
    trace = dataclasses.replace(generate_synthetic(small_script()), guideline_doc_id="tea")
    root = write_session(trace, tmp_path / "sess")
    assert load_session(root).guideline_doc_id == "tea"
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["guideline_doc_id"] = 5
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SessionFormatError, match="manifest.json: guideline_doc_id must be a "
                       "string, got 5"):
        load_session(root)


def test_load_skips_blank_imu_rows(tmp_path, standard_trace):
    root = write_session(standard_trace, tmp_path / "sess")
    rows = (root / "imu.csv").read_text().splitlines()
    (root / "imu.csv").write_text("\n\n".join(rows) + "\n\n")  # a blank row after each
    loaded = load_session(root)
    assert len(loaded.imu) == len(standard_trace.imu) == 290
    assert loaded.imu == standard_trace.imu


def test_load_rejects_missing_frame_file(tmp_path):
    trace = generate_synthetic(small_script())
    root = write_session(trace, tmp_path / "sess")
    victim = next((root / "frames").iterdir())
    victim.unlink()
    with pytest.raises(SessionFormatError):
        load_session(root)


def test_loaded_frames_are_read_only(tmp_path):
    root = write_session(generate_synthetic(small_script()), tmp_path / "sess")
    image = load_session(root).frames[0].image
    assert not image.flags.writeable
    with pytest.raises(ValueError):
        image[0, 0] = 1


@pytest.mark.parametrize("shrink", [lambda size: size // 2, lambda size: 0], ids=["half", "zero"])
def test_a_frame_file_is_read_to_its_end(tmp_path, monkeypatch, shrink):
    # a file that grew after its fstat, or a short read, must not be cut off
    root = write_session(generate_synthetic(small_script()), tmp_path / "sess")
    want = load_session(root)
    fstat, calls = os.fstat, []

    def under_reported(fd):
        st = fstat(fd)
        calls.append(fd)
        return types.SimpleNamespace(st_mode=st.st_mode, st_size=shrink(st.st_size))

    with monkeypatch.context() as patch:
        patch.setattr(trace_io.os, "fstat", under_reported)
        got = load_session(root)
    assert len(calls) == len(want.frames) + 3  # and manifest.json, annotations.json, imu.csv
    assert [(fr.timestamp, fr.pair_id, fr.slot) for fr in got.frames] == [
        (fr.timestamp, fr.pair_id, fr.slot) for fr in want.frames]
    for a, b in zip(got.frames, want.frames):
        assert a.image.shape == b.image.shape and np.array_equal(a.image, b.image)


def test_a_load_reads_each_file_once(tmp_path, monkeypatch):
    # a first read that returns the fstat size, asked for one byte more, met the end
    root = write_session(generate_synthetic(small_script()), tmp_path / "sess")
    want = load_session(root)
    read, calls = os.read, []

    def counted(fd, size):
        calls.append(fd)
        return read(fd, size)

    with monkeypatch.context() as patch:
        patch.setattr(trace_io.os, "read", counted)
        got = load_session(root)
    assert len(calls) == len(want.frames) + 3  # and manifest.json, annotations.json, imu.csv
    for a, b in zip(got.frames, want.frames):
        assert np.array_equal(a.image, b.image)


def test_an_empty_frame_file_is_not_a_pgm_image(tmp_path):
    root = write_session(generate_synthetic(small_script()), tmp_path / "sess")
    name = f"frames/{frame_file_name(0, 'a')}"
    (root / name).write_bytes(b"")
    with pytest.raises(SessionFormatError) as err:
        load_session(root)
    assert str(err.value) == f"{root}: frame file {name!r}: not a PGM image (expected P5 magic)"


def test_read_pgm_is_called_once_per_loaded_frame(tmp_path, monkeypatch, standard_trace):
    # trace.io's read_pgm is a layer the benchmark's tracer counts
    root = write_session(standard_trace, tmp_path / "sess")
    calls = []

    def counted(data):
        calls.append(len(data))
        return read_pgm(data)

    monkeypatch.setattr(trace_io, "read_pgm", counted)
    trace = load_session(root)
    assert len(calls) == len(trace.frames) == len(standard_trace.frames)


@pytest.mark.parametrize("kind", ["directory", "under-a-file", "fifo", "device"])
def test_a_frame_path_that_is_not_a_regular_file_is_missing(tmp_path, kind):
    # refused as it is named, without blocking on a FIFO or reading a device on without end
    root = write_session(generate_synthetic(small_script()), tmp_path / "sess")
    manifest = json.loads((root / "manifest.json").read_text())
    name = {"directory": "frames", "under-a-file": "imu.csv/x.pgm", "fifo": "fifo.pgm",
            "device": "/dev/zero"}[kind]
    if kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        os.mkfifo(root / name)
    elif kind == "device" and not os.path.exists(name):
        pytest.skip("no /dev/zero on this platform")
    manifest["frames"][0]["file"] = name
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SessionFormatError) as err:
        load_session(root)
    assert str(err.value) == f"{root}: frame file {name!r}: missing file"


# -- validation ------------------------------------------------------------


def valid_trace() -> SessionTrace:
    return generate_synthetic(small_script())


def kinds(trace) -> set[str]:
    return {v.kind for v in validate_session(trace).violations}


def test_valid_synthetic_traces_pass(standard_trace, steady_trace):
    assert validate_session(standard_trace).ok
    assert validate_session(steady_trace).ok
    assert validate_session(valid_trace()).ok


def test_empty_instruction_flagged():
    tr = valid_trace()
    tr.instruction = "   "
    assert "empty_instruction" in kinds(tr)


def test_missing_streams_flagged():
    tr = valid_trace()
    tr.imu = []
    assert "empty_stream" in kinds(tr)
    tr = valid_trace()
    tr.frames = []
    assert "empty_stream" in kinds(tr)


def test_frame_geometry_mismatch_flagged():
    tr = valid_trace()
    bad = FrameRecord(
        tr.frames[0].timestamp,
        tr.frames[0].pair_id,
        "a",
        np.zeros((10, 10), dtype=np.uint8),
    )
    tr.frames[0] = bad
    assert "frame_geometry" in kinds(tr)


def test_frame_order_and_duplicates_flagged():
    tr = valid_trace()
    tr.frames[1], tr.frames[2] = tr.frames[2], tr.frames[1]
    found = kinds(tr)
    assert "frame_order" in found

    tr = valid_trace()
    f0 = tr.frames[0]
    tr.frames[1] = FrameRecord(f0.timestamp + 1e-4, f0.pair_id, "a", f0.image)
    assert "duplicate_frame" in kinds(tr)


def test_non_finite_frame_timestamp_flagged():
    tr = valid_trace()
    f = tr.frames[2]
    tr.frames[2] = FrameRecord(math.nan, f.pair_id, f.slot, f.image)
    # NaN slips past every ordering and gap comparison, so only this check sees it
    assert kinds(tr) == {"frame_nonfinite"}


def test_incomplete_pair_flagged():
    tr = valid_trace()
    tr.frames = [f for f in tr.frames if not (f.pair_id == 1 and f.slot == "b")]
    assert "incomplete_pair" in kinds(tr)


def test_pair_gap_drift_flagged():
    tr = valid_trace()
    f = tr.frames[1]
    assert f.slot == "b"
    tr.frames[1] = FrameRecord(f.timestamp + 0.01, f.pair_id, "b", f.image)
    assert "pair_gap" in kinds(tr)


def test_imu_problems_flagged():
    tr = valid_trace()
    tr.imu[3] = ImuSample(tr.imu[3].timestamp, math.nan, 0.0, 0.0)
    assert "imu_nonfinite" in kinds(tr)

    tr = valid_trace()
    tr.imu[3] = ImuSample(tr.imu[2].timestamp - 0.5, 0.0, 0.0, 0.0)
    assert "imu_order" in kinds(tr)

    # the schedule starts at t = 0, so the gyro must too
    tr = valid_trace()
    tr.imu = [dataclasses.replace(s, timestamp=s.timestamp + 0.01) for s in tr.imu]
    assert kinds(tr) == {"imu_start"}


def test_record_gap_flagged():
    # a record may follow the last of its stream, or t = 0, by at most a minute
    tr = valid_trace()
    tr.imu.append(ImuSample(tr.imu[-1].timestamp + 60.5, 0.0, 0.0, 0.0))
    assert kinds(tr) == {"record_gap"}

    tr = valid_trace()
    f = tr.frames[0]
    tr.frames[0] = FrameRecord(60.5, f.pair_id, f.slot, f.image)
    assert "record_gap" in kinds(tr)


def test_segment_overlap_names_both_segments():
    tr = valid_trace()
    s0, s1 = tr.segments[0], tr.segments[1]
    tr.segments[1] = StepSegment(s0.end - 0.5, s1.end, s1.step, s1.status)
    report = validate_session(tr)
    overlaps = [v for v in report.violations if v.kind == "segment_overlap"]
    assert len(overlaps) == 1
    assert "0" in overlaps[0].message and "1" in overlaps[0].message


def test_segment_bounds_flagged():
    tr = valid_trace()
    last = tr.segments[-1]
    tr.segments[-1] = StepSegment(last.start, tr.duration + 5.0, last.step, last.status)
    assert "segment_bounds" in kinds(tr)


def test_interval_with_unknown_step_flagged():
    tr = valid_trace()
    tr.proactive_intervals.append(ProactiveInterval(0.0, 1.0, "Paint the fence"))
    assert "interval_step" in kinds(tr)


def test_interval_outside_step_segments_flagged():
    tr = valid_trace()
    # names a real step but lies over the other step's span
    step0 = tr.segments[0].step
    tr.proactive_intervals.append(ProactiveInterval(5.0, 6.0, step0))
    assert "interval_coverage" in kinds(tr)


def test_hand_box_problems_flagged():
    # a missing key and an unknown side are the codec's (LOAD_REFUSALS)
    tr = valid_trace()
    tr.hand_boxes[9999] = [{"side": "left", "x": 0, "y": 0, "w": 4, "h": 4}]
    assert "hand_box_pair" in kinds(tr)

    tr = valid_trace()
    pid = next(iter(tr.hand_boxes))
    tr.hand_boxes[pid] = [{"side": "left", "x": -2, "y": 0, "w": 4, "h": 4}]
    assert "hand_box_bounds" in kinds(tr)


# -- synthetic generator ----------------------------------------------------


def test_generation_is_deterministic():
    a = generate_synthetic(standard_script(seed=0))
    b = generate_synthetic(standard_script(seed=0))
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.image, fb.image)
    assert a.imu == b.imu
    assert a.segments == b.segments
    assert a.hand_boxes == b.hand_boxes


def test_different_seeds_differ():
    a = generate_synthetic(standard_script(seed=0))
    b = generate_synthetic(standard_script(seed=1))
    assert any(
        not np.array_equal(fa.image, fb.image) for fa, fb in zip(a.frames, b.frames)
    )


def test_standard_trace_shape(standard_trace):
    assert len(standard_trace.frames) == 290  # 145 pairs
    assert standard_trace.duration == pytest.approx(72.1)
    assert len(standard_trace.segments) == 24  # 6 steps x 4 phases
    assert len(standard_trace.proactive_intervals) == 12
    # every pair carries both scripted hand boxes
    assert set(standard_trace.hand_boxes) == {p.pair_id for p in trace_pairs(standard_trace)}
    assert all(len(boxes) == 2 for boxes in standard_trace.hand_boxes.values())


def test_imu_magnitude_tracks_burst_windows(standard_trace):
    script = standard_script(seed=0)
    for s in standard_trace.imu:
        inside = any(w0 <= s.timestamp < w1 for w0, w1 in script.burst_windows)
        expected = BURST_MOTION if inside else BASE_MOTION
        assert s.magnitude() == pytest.approx(expected)


def test_segments_tile_the_session(steady_trace):
    cursor = 0.0
    for seg in steady_trace.segments:
        assert seg.start == pytest.approx(cursor)
        cursor = seg.end
    assert cursor == pytest.approx(72.0)


def test_segment_lookup_half_open(standard_trace):
    seg = standard_trace.segment_at(12.0)
    assert seg is not None and seg.step == "Boil water"
    before = standard_trace.segment_at(12.0 - 1e-9)
    assert before is not None and before.step == "Measure water"
    assert standard_trace.segment_at(72.05) is None


JS = ExecutionStatus.JUST_START
LEFT = HandTrack(side="left", x=20, y=20)
# (dataclasses.replace arguments on small_script(), the refusal), one row per rule
SCRIPT_REFUSALS = [
    (dict(steps=()), "script declares no steps"),
    (dict(steps=(StepPlan(" ", (PhaseSpec(JS, 1.0),)),)), "step label is empty"),
    (dict(steps=(StepPlan("Fill kettle", ()),)), "step 'Fill kettle' has no phases"),
    (dict(steps=(StepPlan("Fill kettle", (PhaseSpec(JS, 0.0),)),)),
     "step 'Fill kettle' has a non-positive phase duration"),
    (dict(steps=(StepPlan("Fill kettle", (PhaseSpec(JS, 4.0),), proactive=((3.0, 9.0),)),)),
     "step 'Fill kettle' proactive window (3.0, 9.0) leaves the step [0, 4.0]"),
    (dict(steps=(StepPlan("Fill kettle", (PhaseSpec(JS, 0.75),)),)),
     "total duration 0.75 is not a multiple of frame grid 0.5"),
    (dict(pair_gap=0.5), "frame grid must exceed the intra-pair gap"),
    (dict(imu_period=0.0), "imu period must be positive"),
    (dict(burst_windows=((7.0, 9.0),)), "burst window (7.0, 9.0) leaves [0, 8.0]"),
    (dict(global_moves=(HandMove(0.0, 8.0, 2, 0),)),
     "global camera moves and hand tracks are mutually exclusive"),
    (dict(hands=(LEFT,) * 3), "at most two hand tracks"),
    (dict(hands=(LEFT, LEFT)), "hand sides must be unique left/right, got ['left', 'left']"),
    (dict(hands=(HandTrack("middle", 20, 20),)),
     "hand sides must be unique left/right, got ['middle']"),
    (dict(hands=(HandTrack("left", 20, 20, (HandMove(0.0, 8.0, 99, 0),)),)),
     "left hand move (99, 0) exceeds flow search radius 15"),
    (dict(hands=(HandTrack("left", 20, 60, (HandMove(0.0, 8.0, 0, 15),)),)),
     "left hand patch leaves the frame at (20, 75)"),
    (dict(hands=(HandTrack("left", 100, 20),)), "left hand patch leaves the frame at (100, 20)"),
    (dict(hands=(), global_moves=(HandMove(0.0, 8.0, 16, 0),)),
     "global move (16, 0) exceeds flow search radius 15"),
    (dict(hands=(HandTrack("left", 20, 0, (HandMove(0.0, 8.0, 15, 0),)),
                 HandTrack("right", 50, 0))),
     "hand patches overlap in the second frame at t=0.0"),
    # the moves keep the hands apart at every pair time, so only the first frames meet
    (dict(steps=(StepPlan("Fill kettle", (PhaseSpec(JS, 1.0),)),),
          hands=(HandTrack("left", 20, 0, (HandMove(0.0, 2.0, -15, 0),)),
                 HandTrack("right", 30, 0))),
     "hand patches overlap in the first frame"),
]


def test_script_validation_errors():
    # the script checks itself when it is built, by replace() too
    for changes, message in SCRIPT_REFUSALS:
        with pytest.raises(ScriptError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(small_script(), **changes)


def test_iter_sensor_records_orders_imu_before_frames(standard_trace):
    records = list(standard_trace.iter_sensor_records())
    times = [r.timestamp for r in records]
    assert times == sorted(times)
    by_time_zero = [type(r).__name__ for r in records if r.timestamp == 0.0]
    assert by_time_zero == ["ImuSample", "FrameRecord"]
