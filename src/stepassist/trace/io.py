"""Session directory loading, validation, and writing.

On disk a session is a directory::

    manifest.json      instruction, frame geometry, pair gap, frame index
    frames/            one binary PGM per frame, named <pair>_<slot>.pgm
    imu.csv            timestamp,gx,gy,gz rows, header included
    annotations.json   step segments, proactive intervals, optional hand boxes

Timestamps are float seconds from session start. ``load_session`` reads each
file by ``_read_file``, text as UTF-8, and ends every fault in a
``SessionFormatError`` naming the file; ``validate_session`` reports every
violation it can find instead of stopping at the first. The header and
annotation codecs serve the wire's ``session_start`` too. JSON fields are read by
``jsontext.field``; only the text cells of ``imu.csv`` are parsed as numbers.
A loaded frame is a read-only view of its file's bytes.
"""
from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
import stat
from pathlib import Path
from typing import Any, NoReturn

from ..jsontext import field, fields, loads, shown
from .pgm import read_pgm, write_pgm
from .types import (
    HAND_SIDES,
    ExecutionStatus,
    FrameRecord,
    ImuSample,
    ProactiveInterval,
    Session,
    SessionTrace,
    StepSegment,
    ValidationReport,
)

# tolerance on the recorded intra-pair gap
PAIR_GAP_TOL = 1e-3
# most seconds a record may follow the last of its stream (or t = 0): one record decides
# at most MAX_RECORD_GAP / burst_interval scheduled times
MAX_RECORD_GAP = 60.0

HAND_BOX_FIELDS = {"side": str, "x": int, "y": int, "w": int, "h": int}


class StreamCheck:
    """Every session rule, checked as the session goes.

    The constructor checks the header and annotations; ``imu`` and ``frame``
    check the sensor streams one record at a time; ``end`` checks the whole
    recording against the annotations. Each broken rule is added to ``report``.
    ``validate_session``, the engine and so the wire all run one, so they
    refuse the same sessions. Hand boxes are taken as the annotation codec
    reads them: whole, with a known side.
    """

    def __init__(self, session: Session):
        self.report = ValidationReport()
        self.waiting: FrameRecord | None = None  # the slot a whose slot b is due next
        self.last_frame_t: float | None = None
        self._session = session  # its annotations, checked again at the end
        self._unnamed = set(session.hand_boxes)  # annotated pair ids no frame has named yet
        self._shape = (session.height, session.width)
        self._pair_gap = session.pair_gap
        self._pair_id: int | None = None
        self._imu_t: float | None = None

        add = self.report.add
        if not session.instruction.strip():
            add("empty_instruction", "session instruction is empty")
        for i, seg in enumerate(session.segments):
            if not seg.step.strip():
                add("empty_step", f"segment {i} names an empty step")
        if session.width <= 0 or session.height <= 0:
            add("bad_geometry", f"frame geometry {shown(session.width)}x{shown(session.height)} "
                "is not positive")
        if not (math.isfinite(session.pair_gap) and session.pair_gap > 0):
            add("bad_pair_gap", f"pair gap {session.pair_gap} is not positive")

        segments = session.segments
        ordered = sorted(range(len(segments)), key=lambda i: segments[i].start)
        for a, b in zip(ordered, ordered[1:]):
            if segments[a].end > segments[b].start:
                add(
                    "segment_overlap",
                    f"segments {a} and {b} overlap: "
                    f"[{segments[a].start}, {segments[a].end}) and "
                    f"[{segments[b].start}, {segments[b].end})",
                )
        if [segments[i] for i in ordered] != segments:
            add("segment_order", "segments are not sorted by start time")

        steps = {seg.step for seg in segments}
        for i, iv in enumerate(session.proactive_intervals):
            if iv.step not in steps:
                add("interval_step",
                    f"proactive interval {i} names step {shown(iv.step)} absent from segments")
            elif not _covered(iv, [s for s in segments if s.step == iv.step]):
                add("interval_coverage", f"proactive interval {i} [{iv.start}, {iv.end}] is not "
                    f"inside the segments of step {shown(iv.step)}")

        for pid, boxes in session.hand_boxes.items():
            for j, box in enumerate(boxes):
                x, y, w, h = box["x"], box["y"], box["w"], box["h"]
                if (w <= 0 or h <= 0 or x < 0 or y < 0
                        or x + w > session.width or y + h > session.height):
                    add("hand_box_bounds",
                        f"hand box {j} of pair {shown(pid)} {shown((x, y, w, h))} leaves the frame")

    def imu(self, s: ImuSample) -> None:
        add, t, last = self.report.add, s.timestamp, self._imu_t
        self._imu_t = t
        if not (math.isfinite(t) and math.isfinite(s.gx)
                and math.isfinite(s.gy) and math.isfinite(s.gz)):
            add("imu_nonfinite", f"imu sample at t={t} has a non-finite field")
        if t - (last or 0.0) > MAX_RECORD_GAP:
            add("record_gap", f"imu sample at t={t} is over {MAX_RECORD_GAP}s after t={last or 0.0}")
        if t < 0:
            add("negative_timestamp", f"imu sample at t={t} before session start")
        if last is None and t > 0:
            # the sampler's schedule starts at t = 0 and needs a sample at or before it
            add("imu_start", f"first imu sample at t={t} is after t=0")
        elif last is not None and t < last:
            add("imu_order", f"imu sample at t={t} is out of timestamp order")

    def frame(self, fr: FrameRecord) -> None:
        add, t, last = self.report.add, fr.timestamp, self.last_frame_t
        self.last_frame_t = t
        if fr.image.shape != self._shape:
            add("frame_geometry",
                f"{_name(fr)} has geometry {fr.image.shape}, not {shown(self._shape)}")
        if not math.isfinite(t):
            add("frame_nonfinite", f"{_name(fr)} has a non-finite timestamp")
        if t - (last or 0.0) > MAX_RECORD_GAP:
            add("record_gap", f"{_name(fr)} is over {MAX_RECORD_GAP}s after t={last or 0.0}")
        if t < 0:
            add("negative_timestamp", f"{_name(fr)} is before session start")
        if last is not None and t <= last:
            add("frame_order", f"{_name(fr)} is not strictly increasing past t={last}")

        # a pair is a slot a followed directly by its slot b, pair ids increasing
        self._unnamed.discard(fr.pair_id)
        first, self.waiting = self.waiting, None
        if first is not None and (fr.slot == "a" or fr.pair_id != first.pair_id):
            add("incomplete_pair", f"pair {shown(first.pair_id)} has no slot b")
        if fr.slot == "a":
            if self._pair_id is not None and fr.pair_id <= self._pair_id:
                add("duplicate_frame",
                    f"{_name(fr)} has a pair id not above {shown(self._pair_id)}")
            self._pair_id, self.waiting = fr.pair_id, fr
        elif first is None or first.pair_id != fr.pair_id:
            add("incomplete_pair", f"{_name(fr)} got slot b before slot a, or not right after it")
        elif abs(t - first.timestamp - self._pair_gap) > PAIR_GAP_TOL:
            gap = t - first.timestamp
            add("pair_gap", f"{_name(fr)} is {gap:.6f}s after its slot a, not the pair gap "
                f"{self._pair_gap}s (+/- {PAIR_GAP_TOL}s)")

    def end(self) -> None:
        """No record follows: check a waiting slot a, and the recording as a whole."""
        add, session = self.report.add, self._session
        if self.waiting is not None:
            add("incomplete_pair", f"pair {shown(self.waiting.pair_id)} has no slot b")
        if self.last_frame_t is None:
            add("empty_stream", "session has no frames")
        if self._imu_t is None:
            add("empty_stream", "session has no imu samples")
        horizon = 0.0 if self.last_frame_t is None else self.last_frame_t
        for i, seg in enumerate(session.segments):
            if seg.start < 0 or seg.end > horizon:
                add("segment_bounds",
                    f"segment {i} [{seg.start}, {seg.end}) leaves [0, {horizon}]")
        for i, iv in enumerate(session.proactive_intervals):
            if iv.start < 0 or iv.end > horizon:
                add("interval_bounds",
                    f"proactive interval {i} [{iv.start}, {iv.end}] leaves [0, {horizon}]")
        for pid in session.hand_boxes:
            if pid in self._unnamed:
                add("hand_box_pair", f"hand boxes recorded for unknown pair {shown(pid)}")


def _name(fr: FrameRecord) -> str:
    """How a broken rule names its frame; written only for a fault."""
    return f"frame {shown(fr.pair_id)}{fr.slot} at t={fr.timestamp}"


class SessionFormatError(ValueError):
    """A session directory is missing pieces, malformed, or inconsistent."""


def _fail(path: Path | str, reason: str, line: int | None = None) -> NoReturn:
    where = str(path) if line is None else f"{path}:{line}"
    raise SessionFormatError(f"{where}: {reason}")


# open errors that Path.is_file reads as "no file there"
_NO_FILE = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP)


def _read_file(path: Path | str) -> bytes:
    """The bytes of the regular file at ``path``, or a SessionFormatError naming it.

    One open, and the file's type read from it: no second look-up of the
    path, and a FIFO or a device is a missing file, refused without blocking
    or reading on without end. The first ``os.read`` asks for one byte more
    than the ``fstat`` size; when it returns that size exactly, it met the
    end, and the file took one read. Any other count reads on up to the end,
    so a file that grew after the ``fstat``, or a short read, is never cut off.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # a FIFO opens without a writer
    except OSError as exc:
        _fail(path, "missing file" if exc.errno in _NO_FILE else exc.strerror)
    except ValueError:  # a name the system cannot take
        _fail(path, "missing file")
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            _fail(path, "missing file")
        data = os.read(fd, st.st_size + 1)
        if len(data) == st.st_size:  # the size fstat gave, and no byte past it
            return data
        # one byte finds the end without a buffer the size of the file; past the
        # size, each read asks for as much again as is held, so growth costs linear time
        size = 1
        while more := os.read(fd, size):
            data += more
            size = len(data)
        return data
    finally:
        os.close(fd)


def _load_json(path: Path) -> Any:
    data = _read_file(path)
    try:  # a byte that is not UTF-8 is invalid JSON too
        return loads(data.decode("utf-8"))
    except json.JSONDecodeError as exc:
        _fail(path, f"invalid JSON ({exc.msg})", line=exc.lineno)
    except ValueError as exc:  # too deep, or a number too long to decode
        _fail(path, f"invalid JSON ({exc})")


HEADER_FIELDS = {"instruction": str, "width": int, "height": int, "pair_gap": float}
FRAME_FIELDS = {"t": float, "pair": int, "slot": str, "file": str}
SEGMENT_FIELDS = {"start": float, "end": float, "step": str, "status": str}
INTERVAL_FIELDS = {"start": float, "end": float, "step": str}
IMU_HEADER = ["timestamp", "gx", "gy", "gz"]


def header_to_obj(session: Session) -> dict[str, Any]:
    """JSON form of a session's header, as in manifest.json and session_start."""
    return {key: getattr(session, key) for key in HEADER_FIELDS}


def header_from_obj(obj: Any) -> dict[str, Any]:
    """Inverse of header_to_obj, as Session keyword arguments.

    Raises ValueError naming a missing field or one not of its HEADER_FIELDS
    type, e.g. ``width must be an integer, got 320.9``. Other keys are ignored.
    """
    if not isinstance(obj, dict):
        raise ValueError("header must be a JSON object")
    return dict(zip(HEADER_FIELDS, fields(obj, HEADER_FIELDS)))


def annotations_to_obj(session: Session) -> dict[str, Any]:
    """JSON form of a session's annotations, as in annotations.json and session_start."""
    return {
        "segments": [
            {"start": s.start, "end": s.end, "step": s.step, "status": s.status.value}
            for s in session.segments
        ],
        "proactive_intervals": [
            {"start": iv.start, "end": iv.end, "step": iv.step}
            for iv in session.proactive_intervals
        ],
        "hand_boxes": {str(pid): boxes for pid, boxes in sorted(session.hand_boxes.items())},
    }


def annotations_from_obj(obj: Any) -> dict[str, Any]:
    """Inverse of annotations_to_obj, as Session keyword arguments.

    Fields are read as ``header_from_obj`` reads them; a ``hand_boxes`` key
    must be written as annotations_to_obj writes it, and a hand box is read
    whole: all of HAND_BOX_FIELDS, other keys dropped, its side one of
    HAND_SIDES. Raises ValueError naming the malformed entry, e.g.
    ``segment 2: ...`` or ``hand_boxes['0'] missing key 'h'``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"annotations must be a JSON object, got {shown(obj)}")
    segments: list[StepSegment] = []
    for i, entry in enumerate(field(obj, "segments", list, default=[])):
        start, end, step, status = fields(entry, SEGMENT_FIELDS, f"segment {i}")
        try:
            segments.append(StepSegment(start, end, step, ExecutionStatus.parse(status)))
        except ValueError as exc:
            raise ValueError(f"segment {i}: {exc}") from None
    intervals: list[ProactiveInterval] = []
    for i, entry in enumerate(field(obj, "proactive_intervals", list, default=[])):
        start, end, step = fields(entry, INTERVAL_FIELDS, f"proactive interval {i}")
        try:
            intervals.append(ProactiveInterval(start, end, step))
        except ValueError as exc:
            raise ValueError(f"proactive interval {i}: {exc}") from None
    hand_boxes: dict[int, list[dict[str, Any]]] = {}
    for key, boxes in field(obj, "hand_boxes", dict, default={}).items():
        # int() refuses more than 4300 digits, and no pair id is that long
        if not (key.isascii() and key.removeprefix("-").isdigit() and len(key) <= 4300
                and str(pid := int(key)) == key):
            raise ValueError(f"hand_boxes[{shown(key)}]: the key is not a pair id")
        if not (isinstance(boxes, list) and all(isinstance(box, dict) for box in boxes)):
            raise ValueError(f"hand_boxes[{shown(key)}] must be a JSON array of JSON objects")
        hand_boxes[pid] = [{k: v if type(v := box.get(k)) is tp
                            else field(box, k, tp, f"hand_boxes[{shown(key)}]")
                            for k, tp in HAND_BOX_FIELDS.items()} for box in boxes]
        if bad := [box["side"] for box in hand_boxes[pid] if box["side"] not in HAND_SIDES]:
            raise ValueError(f"hand_boxes[{shown(key)}]: side must be {'/'.join(HAND_SIDES)}, "
                             f"got {shown(bad[0])}")
    return {"segments": segments, "proactive_intervals": intervals, "hand_boxes": hand_boxes}


def load_session(path: str | Path) -> SessionTrace:
    """Load and validate a session directory.

    Raises SessionFormatError naming the offending file (and line, where it
    makes sense) for structural problems, or summarizing the validation
    report when the data is well-formed but inconsistent.
    """
    root = Path(path)
    if not root.is_dir():
        _fail(root, "missing session directory")

    manifest_path = root / "manifest.json"
    manifest = _load_json(manifest_path)
    try:
        header = header_from_obj(manifest)
        entries = field(manifest, "frames", list)
        doc_id = field(manifest, "guideline_doc_id", str, default=None)
    except ValueError as exc:
        _fail(manifest_path, str(exc))
    ann_path = root / "annotations.json"
    ann = _load_json(ann_path)
    try:
        annotations = annotations_from_obj(ann)
    except ValueError as exc:
        _fail(ann_path, str(exc))
    # as a session_start is read: both codecs, then every rule that needs no record, the
    # annotations' too, before any frame; the engine's refusal is the first of them
    if not (report := StreamCheck(Session(**header, **annotations)).report).ok:
        raise SessionFormatError(f"{root}: session failed validation\n{report}")

    frames: list[FrameRecord] = []
    prefix = os.path.join(root, "")
    for i, entry in enumerate(entries):
        try:
            t, pair_id, slot, file = fields(entry, FRAME_FIELDS)
        except ValueError:  # read again, naming the entry: its name is written only for a fault
            try:
                fields(entry, FRAME_FIELDS, f"frame entry {i}")
            except ValueError as exc:
                _fail(manifest_path, str(exc))
        # os.path.join's rule: an absolute name replaces the root
        at = file if file.startswith("/") else prefix + file
        try:
            image = read_pgm(_read_file(at))
        except ValueError as exc:  # _read_file's, naming ``at`` whole, or read_pgm's
            _fail(root, f"frame file {shown(file)}: {str(exc).removeprefix(f'{at}: ')}")
        try:
            frames.append(FrameRecord(t, pair_id, slot, image))
        except ValueError as exc:
            _fail(manifest_path, f"frame entry {i}: {exc}")

    imu_path = root / "imu.csv"
    data = _read_file(imu_path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        _fail(imu_path, f"not UTF-8 ({exc})", line=data.count(b"\n", 0, exc.start) + 1)
    rows = csv.reader(io.StringIO(text, newline=""))
    imu: list[ImuSample] = []
    try:
        if (names := next(rows, None)) is not None and names != IMU_HEADER:
            _fail(imu_path, f"bad header {shown(names)}", line=1)
        for lineno, row in enumerate(rows, start=2):
            try:
                t, gx, gy, gz = map(float, row)
            except ValueError:  # a blank row, a wrong count or a non-number, told apart here
                if not row:
                    continue
                if len(row) != 4:
                    _fail(imu_path, f"expected 4 fields, got {len(row)}", line=lineno)
                _fail(imu_path, f"non-numeric field in {shown(row)}", line=lineno)
            imu.append(ImuSample(t, gx, gy, gz))
    except csv.Error as exc:  # a field over csv's size limit, or (before 3.11) a NUL byte
        _fail(imu_path, f"bad CSV row ({exc})", line=rows.line_num)

    trace = SessionTrace(
        **header,
        **annotations,
        frames=frames,
        imu=imu,
        guideline_doc_id=doc_id,
    )
    report = validate_session(trace)
    if not report.ok:
        raise SessionFormatError(f"{root}: session failed validation\n{report}")
    return trace


def validate_session(trace: SessionTrace) -> ValidationReport:
    """Every broken session rule: one StreamCheck fed the whole trace, the imu stream first."""
    check = StreamCheck(trace)
    for s in trace.imu:
        check.imu(s)
    for fr in trace.frames:
        check.frame(fr)
    check.end()
    return check.report


def _covered(iv: ProactiveInterval, segs: list[StepSegment]) -> bool:
    """True if [iv.start, iv.end] is inside the union of the given segments."""
    cursor = iv.start
    for lo, hi in sorted((s.start, s.end) for s in segs):
        if lo > cursor:
            break
        cursor = max(cursor, hi)
    return cursor >= iv.end


def frame_file_name(pair_id: int, slot: str) -> str:
    return f"{pair_id:06d}_{slot}.pgm"


def write_session(trace: SessionTrace, path: str | Path) -> Path:
    """Write a session directory; the inverse of load_session."""
    root = Path(path)
    (root / "frames").mkdir(parents=True, exist_ok=True)

    entries = []
    for fr in trace.frames:
        name = frame_file_name(fr.pair_id, fr.slot)
        (root / "frames" / name).write_bytes(write_pgm(fr.image))
        entries.append(
            {"t": fr.timestamp, "pair": fr.pair_id, "slot": fr.slot, "file": f"frames/{name}"}
        )
    manifest = {
        **header_to_obj(trace),
        "guideline_doc_id": trace.guideline_doc_id,
        "frames": entries,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    with (root / "imu.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(IMU_HEADER)
        for s in trace.imu:
            writer.writerow([repr(s.timestamp), repr(s.gx), repr(s.gy), repr(s.gz)])

    ann = annotations_to_obj(trace)
    (root / "annotations.json").write_text(json.dumps(ann, indent=2) + "\n", encoding="utf-8")
    return root
