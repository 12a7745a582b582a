"""A session directory damaged byte by byte: ``load_session`` has one error type.

A small generated session is written once; each example copies it to a fresh
directory and applies one to three damages to its files (a cut, an insert or
a replace at a drawn offset). ``load_session`` must then return a trace that
``validate_session`` passes, or raise ``SessionFormatError`` naming a file or
the session directory first. No other exception may leave it, and no line of
its message after the session directory may pass 1 000 characters: a value
from the files, a frame name too, is shown cut to 40.
"""
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stepassist.trace.io import SessionFormatError, load_session, validate_session, write_session

from test_entry_points import TRACE

with tempfile.TemporaryDirectory() as _tmp:
    _root = write_session(TRACE, Path(_tmp) / "session")
    # every file of the session, by its name in the directory
    FILES = {p.relative_to(_root).as_posix(): p.read_bytes()
             for p in sorted(_root.rglob("*")) if p.is_file()}

# where the manifest names the first frame's file, and the annotations a status
FRAME_NAME_AT = FILES["manifest.json"].index(b"000000_a.pgm")
STATUS_AT = FILES["annotations.json"].index(b"just_start")

# bytes each of the session's readers treats with care
CHUNKS = {
    "ff": b"\xff",  # never UTF-8
    "nul": b"\x00",
    "comma": b",",
    "newline": b"\n",
    "quote": b'"',
    "brace": b"{",
    "huge": b"1e999",
    "nan": b"nan",
    "digits": b"7" * 200_000,  # over csv's field limit and int()'s digit limit
    "letters": b"x" * 100_000,  # under csv's field limit: an imu.csv row keeps it whole
    "pgm": b"P5\n40 24\n255\n",
}

# (kind, file, offset, length or chunk): plain tuples, so a failing list can be pinned;
# an offset is taken modulo the file's length plus one
DAMAGES = st.tuples(st.just("cut"), st.sampled_from(sorted(FILES)), st.integers(0, 1 << 16),
                    st.integers(1, 64)) | st.tuples(
    st.sampled_from(["insert", "replace"]), st.sampled_from(sorted(FILES)),
    st.integers(0, 1 << 16), st.sampled_from(sorted(CHUNKS)))


def damaged(damages) -> dict[str, bytes]:
    files = dict(FILES)
    for kind, name, offset, arg in damages:
        data = files[name]
        at = offset % (len(data) + 1)
        if kind == "cut":
            files[name] = data[:at] + data[at + arg:]
        elif kind == "insert":
            files[name] = data[:at] + CHUNKS[arg] + data[at:]
        else:
            files[name] = data[:at] + CHUNKS[arg] + data[at + len(CHUNKS[arg]):]
    return files


def check_one_error_type(damages) -> None:
    files = damaged(damages)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "session"
        for name, data in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
        try:
            trace = load_session(root)
        except SessionFormatError as exc:
            message = str(exc)
        else:
            assert validate_session(trace).ok
            return
    # "<path>: ..." or "<path>:<line>: ...": the path is the session's directory or one of
    # its files, and a frame name the manifest gives follows the directory, shown
    where = re.match(r"(.*?)(:\d+)?: ", message)
    assert where is not None, message[:1000]
    assert where[1] == str(root) or where[1].startswith(f"{root}/"), message[:1000]
    assert max(map(len, message[len(str(root)):].splitlines()), default=0) <= 1000, \
        message[:1000]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(damages=st.lists(DAMAGES, min_size=1, max_size=3))
# imu.csv was read by csv from a text-mode file: a field over csv's 131 072-character
# limit raised _csv.Error, a byte that is not UTF-8 a bare UnicodeDecodeError, and
# (before Python 3.11) a NUL byte _csv.Error
@example(damages=[("insert", "imu.csv", 40, "digits")])
@example(damages=[("insert", "imu.csv", 40, "ff")])
@example(damages=[("insert", "imu.csv", 40, "nul")])
# a frame name too long for the system raised OSError from the open, and was then named whole
@example(damages=[("insert", "manifest.json", FRAME_NAME_AT, "digits")])
# an unknown status, and an imu.csv header or row, were named whole
@example(damages=[("insert", "annotations.json", STATUS_AT, "digits")])
@example(damages=[("insert", "imu.csv", 0, "letters")])
@example(damages=[("insert", "imu.csv", 40, "letters")])
def test_load_session_raises_only_session_format_error(damages):
    check_one_error_type(damages)


def test_the_undamaged_session_loads():
    check_one_error_type([])


@pytest.mark.parametrize("chunk, reason", [
    ("ff", "not UTF-8 ('utf-8' codec can't decode byte 0xff in position 40: invalid start byte)"),
    ("digits", "bad CSV row (field larger than field limit (131072))"),
])
def test_imu_csv_faults_name_the_file_and_line(tmp_path, chunk, reason):
    root = write_session(TRACE, tmp_path / "session")
    data = (root / "imu.csv").read_bytes()
    (root / "imu.csv").write_bytes(data[:40] + CHUNKS[chunk] + data[40:])
    line = data.count(b"\n", 0, 40) + 1
    with pytest.raises(SessionFormatError) as err:
        load_session(root)
    assert str(err.value) == f"{root / 'imu.csv'}:{line}: {reason}"
