"""Binary netpbm I/O: P5 masks (class codes as gray values) and P6 overlays."""
from __future__ import annotations

import os
from typing import BinaryIO

import numpy as np

from .core import SegmentationMask


class PnmError(ValueError):
    """Malformed or unsupported netpbm content."""


def _read_token(f: BinaryIO) -> bytes:
    # Tokens are separated by whitespace; '#' starts a comment through end of line.
    tok = b""
    while True:
        c = f.read(1)
        if c == b"":
            if tok:
                return tok
            raise PnmError("truncated header")
        if c == b"#":
            while c not in (b"", b"\n", b"\r"):
                c = f.read(1)
            continue
        if c.isspace():
            if tok:
                return tok
            continue
        tok += c


def _read_header(f: BinaryIO, magic: bytes) -> tuple[int, int, int]:
    got = f.read(2)
    if got != magic:
        raise PnmError(f"bad magic {got!r}, expected {magic!r}")
    fields = []
    for _ in range(3):
        tok = _read_token(f)
        if not tok.isdigit():
            raise PnmError(f"non-numeric header field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmError(f"invalid dimensions {width}x{height}")
    return width, height, maxval


def read_mask(path: str | os.PathLike) -> SegmentationMask:
    """Read a P5 mask of valid class codes, maxval 255; a refusal names the file."""
    try:
        with open(path, "rb") as f:
            width, height, maxval = _read_header(f, b"P5")
            if maxval != 255:
                raise PnmError(f"mask maxval must be 255, got {maxval}")
            raw = f.read(width * height)
        if len(raw) != width * height:
            raise PnmError(
                f"truncated pixel data: expected {width * height} bytes, got {len(raw)}"
            )
        data = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
        return SegmentationMask(data)
    except ValueError as e:  # PnmError, and SegmentationMask's class-code check
        raise PnmError(f"{path}: {e}") from None


def write_mask(path: str | os.PathLike, mask: SegmentationMask) -> None:
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (mask.width, mask.height))
        f.write(mask.data.tobytes())


def write_rgb(path: str | os.PathLike, image: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as binary P6."""
    img = np.ascontiguousarray(image, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise PnmError(f"overlay must have shape (h, w, 3), got {img.shape}")
    h, w = img.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(img.tobytes())
