"""Session directory loading, validation, and writing.

On disk a session is a directory::

    manifest.json      instruction, frame geometry, pair gap, frame index
    frames/            one binary PGM per frame, named <pair>_<slot>.pgm
    imu.csv            timestamp,gx,gy,gz rows, header included
    annotations.json   step segments, proactive intervals, optional hand boxes

Timestamps are float seconds from session start. ``load_session`` refuses a
directory that fails validation; ``validate_session`` reports every violation
it can find instead of stopping at the first.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any

from .pgm import read_pgm, write_pgm
from .types import (
    ExecutionStatus,
    FrameRecord,
    ImuSample,
    ProactiveInterval,
    SessionTrace,
    StepSegment,
    ValidationReport,
)

# tolerance on the recorded intra-pair gap
PAIR_GAP_TOL = 1e-3

HAND_BOX_KEYS = {"side", "x", "y", "w", "h"}
HAND_SIDES = ("left", "right", "unknown")


class SessionFormatError(ValueError):
    """A session directory is missing pieces, malformed, or inconsistent."""


def _fail(path: Path | str, reason: str, line: int | None = None) -> None:
    where = str(path) if line is None else f"{path}:{line}"
    raise SessionFormatError(f"{where}: {reason}")


def _load_json(path: Path) -> Any:
    if not path.is_file():
        _fail(path, "missing file")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        _fail(path, f"invalid JSON ({exc.msg})", line=exc.lineno)


def annotations_to_obj(trace: SessionTrace) -> dict[str, Any]:
    """JSON form of a session's annotations, as in annotations.json and session_start."""
    return {
        "segments": [
            {"start": s.start, "end": s.end, "step": s.step, "status": s.status.value}
            for s in trace.segments
        ],
        "proactive_intervals": [
            {"start": iv.start, "end": iv.end, "step": iv.step}
            for iv in trace.proactive_intervals
        ],
        "hand_boxes": {str(pid): boxes for pid, boxes in sorted(trace.hand_boxes.items())},
    }


def annotations_from_obj(
    obj: Any,
) -> tuple[list[StepSegment], list[ProactiveInterval], dict[int, list[dict[str, Any]]]]:
    """Inverse of annotations_to_obj: (segments, proactive intervals, hand boxes).

    Raises SessionFormatError naming the malformed entry, e.g. ``segment 2: ...``.
    """
    if not isinstance(obj, dict):
        raise SessionFormatError("annotations must be a JSON object")
    segments: list[StepSegment] = []
    for i, entry in enumerate(obj.get("segments") or []):
        try:
            segments.append(
                StepSegment(
                    start=float(entry["start"]),
                    end=float(entry["end"]),
                    step=str(entry["step"]),
                    status=ExecutionStatus.parse(entry["status"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SessionFormatError(f"segment {i}: {exc}") from None
    intervals: list[ProactiveInterval] = []
    for i, entry in enumerate(obj.get("proactive_intervals") or []):
        try:
            intervals.append(
                ProactiveInterval(
                    start=float(entry["start"]),
                    end=float(entry["end"]),
                    step=str(entry["step"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SessionFormatError(f"proactive interval {i}: {exc}") from None
    hand_boxes: dict[int, list[dict[str, Any]]] = {}
    for key, boxes in (obj.get("hand_boxes") or {}).items():
        try:
            hand_boxes[int(key)] = [dict(b) for b in boxes]
        except (TypeError, ValueError) as exc:
            raise SessionFormatError(f"hand_boxes[{key!r}]: {exc}") from None
    return segments, intervals, hand_boxes


def load_session(path: str | Path) -> SessionTrace:
    """Load and validate a session directory.

    Raises SessionFormatError naming the offending file (and line, where it
    makes sense) for structural problems, or summarizing the validation
    report when the data is well-formed but inconsistent.
    """
    root = Path(path)
    if not root.is_dir():
        _fail(root, "missing session directory")

    manifest = _load_json(root / "manifest.json")
    for key in ("instruction", "width", "height", "pair_gap", "frames"):
        if key not in manifest:
            _fail(root / "manifest.json", f"missing key {key!r}")

    frames: list[FrameRecord] = []
    for i, entry in enumerate(manifest["frames"]):
        for key in ("t", "pair", "slot", "file"):
            if key not in entry:
                _fail(root / "manifest.json", f"frame entry {i} missing key {key!r}")
        frame_path = root / entry["file"]
        if not frame_path.is_file():
            _fail(frame_path, "missing file")
        try:
            image = read_pgm(frame_path.read_bytes())
        except ValueError as exc:
            _fail(frame_path, str(exc))
        try:
            frames.append(
                FrameRecord(
                    timestamp=float(entry["t"]),
                    pair_id=int(entry["pair"]),
                    slot=str(entry["slot"]),
                    image=image,
                )
            )
        except (TypeError, ValueError) as exc:
            _fail(root / "manifest.json", f"frame entry {i}: {exc}")

    imu_path = root / "imu.csv"
    if not imu_path.is_file():
        _fail(imu_path, "missing file")
    imu: list[ImuSample] = []
    with imu_path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                if row != ["timestamp", "gx", "gy", "gz"]:
                    _fail(imu_path, f"bad header {row!r}", line=1)
                continue
            if not row:
                continue
            if len(row) != 4:
                _fail(imu_path, f"expected 4 fields, got {len(row)}", line=lineno)
            try:
                t, gx, gy, gz = (float(v) for v in row)
            except ValueError:
                _fail(imu_path, f"non-numeric field in {row!r}", line=lineno)
            imu.append(ImuSample(t, gx, gy, gz))

    ann_path = root / "annotations.json"
    try:
        segments, intervals, hand_boxes = annotations_from_obj(_load_json(ann_path))
    except SessionFormatError as exc:
        _fail(ann_path, str(exc))

    trace = SessionTrace(
        instruction=str(manifest["instruction"]),
        width=int(manifest["width"]),
        height=int(manifest["height"]),
        pair_gap=float(manifest["pair_gap"]),
        frames=frames,
        imu=imu,
        segments=segments,
        proactive_intervals=intervals,
        hand_boxes=hand_boxes,
        guideline_doc_id=manifest.get("guideline_doc_id"),
    )
    report = validate_session(trace)
    if not report.ok:
        raise SessionFormatError(f"{root}: session failed validation\n{report}")
    return trace


def validate_session(trace: SessionTrace) -> ValidationReport:
    """Check every session invariant and report all violations found."""
    rep = ValidationReport()

    if not trace.instruction.strip():
        rep.add("empty_instruction", "session instruction is empty")
    if trace.width <= 0 or trace.height <= 0:
        rep.add("bad_geometry", f"frame geometry {trace.width}x{trace.height} is not positive")
    if trace.pair_gap <= 0:
        rep.add("bad_pair_gap", f"pair gap {trace.pair_gap} is not positive")

    if not trace.frames:
        rep.add("empty_stream", "session has no frames")
    if not trace.imu:
        rep.add("empty_stream", "session has no imu samples")

    prev_t = None
    for i, fr in enumerate(trace.frames):
        if fr.image.shape != (trace.height, trace.width):
            rep.add(
                "frame_geometry",
                f"frame {i} (pair {fr.pair_id}{fr.slot}) has shape "
                f"{fr.image.shape[::-1]}, manifest says {trace.width}x{trace.height}",
            )
        if not math.isfinite(fr.timestamp):
            rep.add("frame_nonfinite", f"frame {i} has non-finite timestamp {fr.timestamp}")
        if fr.timestamp < 0:
            rep.add("negative_timestamp", f"frame {i} at t={fr.timestamp} before session start")
        if prev_t is not None and fr.timestamp <= prev_t:
            rep.add(
                "frame_order",
                f"frame {i} timestamp {fr.timestamp} does not increase past {prev_t}",
            )
        prev_t = fr.timestamp

    by_pair: dict[int, dict[str, FrameRecord]] = {}
    for fr in trace.frames:
        slots = by_pair.setdefault(fr.pair_id, {})
        if fr.slot in slots:
            rep.add("duplicate_frame", f"pair {fr.pair_id} has two '{fr.slot}' frames")
        slots[fr.slot] = fr
    for pid in sorted(by_pair):
        slots = by_pair[pid]
        if set(slots) != {"a", "b"}:
            rep.add("incomplete_pair", f"pair {pid} has slots {sorted(slots)}, expected a and b")
            continue
        gap = slots["b"].timestamp - slots["a"].timestamp
        if abs(gap - trace.pair_gap) > PAIR_GAP_TOL:
            rep.add(
                "pair_gap",
                f"pair {pid} frames are {gap:.6f}s apart, expected {trace.pair_gap}s "
                f"(+/- {PAIR_GAP_TOL}s)",
            )

    prev_t = None
    for i, s in enumerate(trace.imu):
        if not all(math.isfinite(v) for v in (s.timestamp, s.gx, s.gy, s.gz)):
            rep.add("imu_nonfinite", f"imu sample {i} has a non-finite field")
        if s.timestamp < 0:
            rep.add("negative_timestamp", f"imu sample {i} at t={s.timestamp} before start")
        if prev_t is not None and s.timestamp < prev_t:
            rep.add("imu_order", f"imu sample {i} timestamp {s.timestamp} decreases past {prev_t}")
        prev_t = s.timestamp
    if trace.imu and trace.imu[0].timestamp > 0:
        # the sampler's schedule starts at t = 0 and needs a sample at or before it
        rep.add("imu_start", f"first imu sample at t={trace.imu[0].timestamp} is after t=0")

    ordered = sorted(range(len(trace.segments)), key=lambda i: trace.segments[i].start)
    for a, b in zip(ordered, ordered[1:]):
        if trace.segments[a].end > trace.segments[b].start:
            rep.add(
                "segment_overlap",
                f"segments {a} and {b} overlap: "
                f"[{trace.segments[a].start}, {trace.segments[a].end}) and "
                f"[{trace.segments[b].start}, {trace.segments[b].end})",
            )
    if [trace.segments[i] for i in ordered] != trace.segments:
        rep.add("segment_order", "segments are not sorted by start time")

    horizon = trace.duration
    for i, seg in enumerate(trace.segments):
        if seg.start < 0 or seg.end > horizon:
            rep.add(
                "segment_bounds",
                f"segment {i} [{seg.start}, {seg.end}) leaves [0, {horizon}]",
            )

    steps = {seg.step for seg in trace.segments}
    for i, iv in enumerate(trace.proactive_intervals):
        if iv.step not in steps:
            rep.add(
                "interval_step",
                f"proactive interval {i} names step {iv.step!r} absent from segments",
            )
            continue
        if iv.start < 0 or iv.end > horizon:
            rep.add(
                "interval_bounds",
                f"proactive interval {i} [{iv.start}, {iv.end}] leaves [0, {horizon}]",
            )
        if not _covered(iv, [s for s in trace.segments if s.step == iv.step]):
            rep.add(
                "interval_coverage",
                f"proactive interval {i} [{iv.start}, {iv.end}] is not inside "
                f"the segments of step {iv.step!r}",
            )

    for pid, boxes in trace.hand_boxes.items():
        if pid not in by_pair:
            rep.add("hand_box_pair", f"hand boxes recorded for unknown pair {pid}")
        for j, box in enumerate(boxes):
            if not HAND_BOX_KEYS.issubset(box):
                rep.add("hand_box_keys", f"hand box {j} of pair {pid} missing keys")
                continue
            if box["side"] not in HAND_SIDES:
                rep.add("hand_box_side", f"hand box {j} of pair {pid} has side {box['side']!r}")
            x, y, w, h = (int(box[k]) for k in ("x", "y", "w", "h"))
            if w <= 0 or h <= 0 or x < 0 or y < 0 or x + w > trace.width or y + h > trace.height:
                rep.add(
                    "hand_box_bounds",
                    f"hand box {j} of pair {pid} ({x},{y},{w},{h}) leaves the frame",
                )

    return rep


def _covered(iv: ProactiveInterval, segs: list[StepSegment]) -> bool:
    """True if [iv.start, iv.end] is inside the union of the given segments."""
    spans = sorted((s.start, s.end) for s in segs)
    cursor = iv.start
    for lo, hi in spans:
        if lo > cursor:
            break
        cursor = max(cursor, hi)
        if cursor >= iv.end:
            return True
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
        "instruction": trace.instruction,
        "width": trace.width,
        "height": trace.height,
        "pair_gap": trace.pair_gap,
        "guideline_doc_id": trace.guideline_doc_id,
        "frames": entries,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")

    with (root / "imu.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "gx", "gy", "gz"])
        for s in trace.imu:
            writer.writerow([repr(s.timestamp), repr(s.gx), repr(s.gy), repr(s.gz)])

    ann = annotations_to_obj(trace)
    (root / "annotations.json").write_text(json.dumps(ann, indent=2) + "\n", encoding="utf-8")
    return root
