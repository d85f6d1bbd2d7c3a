"""Shared data model: pixel classes, road classes, segmentation masks."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np


class ClassId(IntEnum):
    """Per-pixel semantic class. Codes are part of the mask file and wire formats."""

    BACKGROUND = 0
    EGO_LANE = 1
    OTHER_LANES = 2


class RoadClass(IntEnum):
    """Scene-level road type. UNKNOWN means no classifier output accompanied the mask."""

    RESIDENTIAL = 0
    HIGHWAY = 1
    CITY_STREET = 2
    OTHERS = 3
    UNKNOWN = 255


def road_class_name(rc: RoadClass) -> str:
    """The member name in lower case, as documents and sidecar files spell it."""
    return RoadClass(rc).name.lower()


_ROAD_CLASS_BY_NAME = {road_class_name(rc): rc for rc in RoadClass}


def road_class_from_name(name: str) -> RoadClass:
    try:
        return _ROAD_CLASS_BY_NAME[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown road class name: {name!r}") from None


def _memory_owner(a: np.ndarray) -> object:
    """The object at the end of an array's base chain, past a memoryview."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


@dataclass(frozen=True)
class SegmentationMask:
    """Dense per-pixel class grid, row-major, origin at the top-left corner.

    x indexes columns, y indexes rows; every module shares this convention.
    """

    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        # The mask's bytes in raster order, which nothing else may write: an
        # array over an immutable bytes object is kept as it is, anything else
        # is copied, which leaves the caller's array writable.
        d = self.data
        if not (
            isinstance(d, np.ndarray)
            and d.dtype == np.uint8
            and d.flags.c_contiguous
            and isinstance(_memory_owner(d), bytes)
        ):
            d = np.array(d, dtype=np.uint8, order="C")
        if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 1:
            raise ValueError(f"mask must be a 2-D grid, got shape {d.shape}")
        if d.max(initial=0) > max(ClassId):
            bad = int(d.max())
            raise ValueError(f"mask contains invalid class code {bad}")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SegmentationMask):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.all(self.data == other.data)
        )
