"""Minimal 8-bit grayscale PGM reader/writer.

Frames are stored as binary PGM (P5) with maxval 255, the only form the
reader accepts.
"""
from __future__ import annotations

import re

import numpy as np

from ..jsontext import shown

# magic, width, height and maxval, separated by whitespace and '#' comments
# that run to the end of their line, then one whitespace byte before the raster
_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def write_pgm(image: np.ndarray) -> bytes:
    """Encode a (height, width) uint8 array as binary PGM."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("PGM writer expects a 2-d uint8 array")
    h, w = image.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + image.tobytes()


def read_pgm(data: bytes) -> np.ndarray:
    """Decode binary PGM (P5) bytes into a (height, width) uint8 array.

    The array is a view of ``data``, read-only when ``data`` is ``bytes``:
    the raster is not copied, and a write to a loaded frame raises.
    """
    if data[:2] != b"P5":
        raise ValueError("not a PGM image (expected P5 magic)")
    header = _HEADER.match(data)
    if header is None:
        raise ValueError("malformed PGM header")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise ValueError(f"unsupported PGM maxval {shown(maxval)} (expected 255)")
    if w <= 0 or h <= 0:
        raise ValueError(f"bad PGM dimensions {w}x{h}")
    end = header.end() + w * h
    if len(data) < end:
        raise ValueError("PGM raster shorter than header promises")
    if len(data) > end:
        data = data[:end]  # the view would keep trailing bytes alive with the frame
    return np.frombuffer(data, np.uint8, count=w * h, offset=header.end()).reshape(h, w)
