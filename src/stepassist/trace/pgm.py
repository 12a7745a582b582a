"""Minimal 8-bit grayscale PGM reader/writer.

Frames are stored as binary PGM (P5) with maxval 255. The reader also accepts
ASCII PGM (P2) so small fixtures can be written by hand.
"""
from __future__ import annotations

import numpy as np


def write_pgm(image: np.ndarray) -> bytes:
    """Encode a (height, width) uint8 array as binary PGM."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("PGM writer expects a 2-d uint8 array")
    h, w = image.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + image.tobytes()


def read_pgm(data: bytes) -> np.ndarray:
    """Decode P5 or P2 PGM bytes into a (height, width) uint8 array."""
    if data[:2] not in (b"P5", b"P2"):
        raise ValueError("not a PGM image (expected P5 or P2 magic)")
    magic = data[:2]

    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed through end of line
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(data):
            raise ValueError("truncated PGM header")
        c = data[pos : pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise ValueError("malformed PGM header") from None
    if maxval != 255:
        raise ValueError(f"unsupported PGM maxval {maxval} (expected 255)")
    if w <= 0 or h <= 0:
        raise ValueError(f"bad PGM dimensions {w}x{h}")

    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        raster = data[pos : pos + w * h]
        if len(raster) != w * h:
            raise ValueError("PGM raster shorter than header promises")
        return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()

    values = data[pos:].split()
    if len(values) != w * h:
        raise ValueError("PGM raster shorter than header promises")
    samples = [int(v) for v in values]
    if min(samples) < 0 or max(samples) > 255:
        raise ValueError("PGM sample out of range")
    return np.array(samples, dtype=np.uint8).reshape(h, w)
