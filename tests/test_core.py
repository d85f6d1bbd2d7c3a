import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanespace.core import (
    ClassId,
    RoadClass,
    SegmentationMask,
    road_class_from_name,
    road_class_name,
)
from oracles import downsample, extract_points

mask_grids = st.integers(1, 12).flatmap(
    lambda h: st.integers(1, 12).flatmap(
        lambda w: st.lists(
            st.integers(0, 2), min_size=h * w, max_size=h * w
        ).map(lambda v: np.array(v, dtype=np.uint8).reshape(h, w))
    )
)


def test_class_codes_are_stable():
    assert int(ClassId.BACKGROUND) == 0
    assert int(ClassId.EGO_LANE) == 1
    assert int(ClassId.OTHER_LANES) == 2
    assert [int(rc) for rc in RoadClass] == [0, 1, 2, 3, 255]


def test_road_class_names_round_trip():
    for rc in RoadClass:
        assert road_class_from_name(road_class_name(rc)) == rc
    assert road_class_from_name(" Highway ") == RoadClass.HIGHWAY
    with pytest.raises(ValueError):
        road_class_from_name("motorway")


def test_mask_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        SegmentationMask(np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        SegmentationMask(np.zeros((0, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        SegmentationMask(np.full((2, 2), 3, dtype=np.uint8))


def test_mask_is_immutable():
    m = SegmentationMask(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        m.data[0, 0] = 1


def test_mask_leaves_the_callers_array_writable():
    grid = np.zeros((2, 2), dtype=np.uint8)
    m = SegmentationMask(grid)
    assert grid.flags.writeable
    grid[0, 0] = 2
    assert m.data[0, 0] == 0


def test_a_mask_over_bytes_keeps_their_memory_read_only():
    raw = b"head" + bytes([0, 1, 2, 2, 1, 0])
    source = np.frombuffer(raw, dtype=np.uint8)
    for data in (
        source[4:].reshape(2, 3),
        np.frombuffer(memoryview(raw)[4:], dtype=np.uint8).reshape(2, 3),
    ):
        m = SegmentationMask(data)
        assert np.shares_memory(m.data, source)
        assert not m.data.flags.writeable
        with pytest.raises(ValueError):
            m.data[0, 0] = 1


def test_a_mask_copies_a_read_only_view_of_a_bytearray():
    source = bytearray([0, 1, 2, 2, 1, 0])
    view = np.frombuffer(source, dtype=np.uint8).reshape(2, 3)
    view.setflags(write=False)
    m = SegmentationMask(view)
    assert not np.shares_memory(m.data, view)
    source[0] = 2
    assert m.data[0, 0] == 0


def test_a_mask_copies_a_non_contiguous_view_of_bytes():
    view = np.frombuffer(bytes(range(3)) * 4, dtype=np.uint8).reshape(3, 4)[:, ::2]
    m = SegmentationMask(view)
    assert not np.shares_memory(m.data, view)
    assert m.data.flags.c_contiguous and np.array_equal(m.data, view)


def test_extract_points_empty_and_single():
    empty = SegmentationMask(np.zeros((4, 4), dtype=np.uint8))
    assert extract_points(empty, ClassId.EGO_LANE).shape == (0, 2)
    grid = np.zeros((2, 2), dtype=np.uint8)
    grid[0, 0] = 1
    pts = extract_points(SegmentationMask(grid), ClassId.EGO_LANE)
    assert pts.tolist() == [[0.0, 0.0]]


@given(mask_grids)
def test_extract_points_matches_double_loop(grid):
    mask = SegmentationMask(grid)
    for cls in ClassId:
        naive = [
            (float(x), float(y))
            for y in range(mask.height)
            for x in range(mask.width)
            if grid[y, x] == int(cls)
        ]
        got = [tuple(p) for p in extract_points(mask, cls)]
        assert got == naive  # row-major order, not just set equality


@given(mask_grids)
def test_extract_points_lengths_partition_the_mask(grid):
    mask = SegmentationMask(grid)
    total = sum(len(extract_points(mask, cls)) for cls in ClassId)
    assert total == mask.width * mask.height


def test_downsample_identity_and_constant():
    grid = np.random.default_rng(1).integers(0, 3, (8, 8)).astype(np.uint8)
    mask = SegmentationMask(grid)
    assert downsample(mask, 1) == mask
    ones = SegmentationMask(np.ones((8, 8), dtype=np.uint8))
    out = downsample(ones, 4)
    assert (out.width, out.height) == (2, 2)
    assert np.all(out.data == 1)


def test_downsample_checkerboard_keeps_even_parity():
    grid = np.indices((4, 4)).sum(axis=0) % 2
    mask = SegmentationMask(grid.astype(np.uint8))
    out = downsample(mask, 2)
    assert np.all(out.data == grid[0, 0])


def test_downsample_dims_are_ceil():
    mask = SegmentationMask(np.zeros((5, 7), dtype=np.uint8))
    out = downsample(mask, 4)
    assert (out.height, out.width) == (2, 2)


@given(mask_grids, st.integers(1, 3), st.integers(1, 3))
def test_downsample_composes_multiplicatively(grid, a, b):
    mask = SegmentationMask(grid)
    assert downsample(downsample(mask, a), b) == downsample(mask, a * b)


def test_downsample_rejects_bad_factor():
    mask = SegmentationMask(np.zeros((2, 2), dtype=np.uint8))
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            downsample(mask, bad)
