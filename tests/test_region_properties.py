"""Properties of extracted regions over arbitrary block masks.

Each property holds for any output of `extract_regions`, whether a region is
one piece or several, so these tests survive a change of how pieces are
built. Masks are overlapping blocks of both lane classes, 8-80 px a side,
extracted at downsample 1-4 with `min_region_area` 0 and the default; blocks
of both classes that overlap reach the cutting path of `resolve_overlaps`.
"""
import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from lanespace.core import ClassId, RoadClass, SegmentationMask
from lanespace.geometry import EPS_AREA
from lanespace.pipeline import SourceFrame, frame_document
from lanespace.regions import LANE_EGO, ExtractionConfig, document_bytes, extract_regions
from oracles import (
    clip_intersection,
    convex_hull,
    is_convex_ccw,
    point_in_convex,
    roll_area,
    roll_moments,
)


@st.composite
def block_masks(draw) -> SegmentationMask:
    width, height = draw(st.integers(8, 80)), draw(st.integers(8, 80))
    grid = np.zeros((height, width), dtype=np.uint8)
    for _ in range(draw(st.integers(1, 8))):
        x0, y0 = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        x1, y1 = draw(st.integers(x0 + 1, width)), draw(st.integers(y0 + 1, height))
        grid[y0:y1, x0:x1] = draw(st.sampled_from([ClassId.EGO_LANE, ClassId.OTHER_LANES]))
    return SegmentationMask(grid)


configs = st.builds(
    ExtractionConfig,
    downsample_factor=st.integers(1, 4),
    min_region_area=st.sampled_from([0.0, ExtractionConfig().min_region_area]),
)


@given(block_masks(), configs)
def test_pieces_of_different_regions_are_disjoint(mask, cfg):
    regions = extract_regions(mask, cfg).present()
    for i, a in enumerate(regions):
        for b in regions[i + 1 :]:
            overlap = 0.0
            for pa in a.pieces:
                for pb in b.pieces:
                    inter = clip_intersection(pa, pb)
                    if inter is not None:
                        overlap += roll_area(inter)
            assert overlap <= 1e-6 * min(a.area, b.area)


@given(block_masks(), configs)
def test_every_piece_is_a_convex_ccw_ring_with_area(mask, cfg):
    for region in extract_regions(mask, cfg).present():
        assert region.pieces
        for piece in region.pieces:
            assert is_convex_ccw(piece)
            assert roll_moments(piece)[0] > EPS_AREA


@given(block_masks(), configs)
def test_every_vertex_lies_in_the_image(mask, cfg):
    for region in extract_regions(mask, cfg).present():
        for piece in region.pieces:
            assert (piece >= 0).all()
            assert (piece[:, 0] <= mask.width - 1).all()
            assert (piece[:, 1] <= mask.height - 1).all()


@given(block_masks(), configs)
def test_a_region_has_the_area_and_centroid_of_its_pieces(mask, cfg):
    for region in extract_regions(mask, cfg).present():
        moments = [roll_moments(piece) for piece in region.pieces]
        area = sum(a for a, _ in moments)
        centroid = sum(a * c for a, c in moments) / area
        assert np.isclose(region.area, area, rtol=1e-9, atol=0.0)
        assert np.allclose(region.centroid, centroid, rtol=1e-9, atol=1e-9)


@given(block_masks(), configs)
def test_every_piece_lies_inside_the_hull_of_its_class(mask, cfg):
    for region in extract_regions(mask, cfg).present():
        cls = ClassId.EGO_LANE if region.lane == LANE_EGO else ClassId.OTHER_LANES
        ys, xs = np.nonzero(mask.data == cls)
        hull = convex_hull(np.column_stack([xs, ys]))
        assert hull is not None
        for piece in region.pieces:
            assert all(point_in_convex(hull, vertex) for vertex in piece)


@given(block_masks(), configs)
def test_left_lies_left_of_the_ego_and_right_not_left_of_it(mask, cfg):
    found = extract_regions(mask, cfg)
    if found.ego is None:
        assert found.left is None and found.right is None
        return
    assert found.unassigned == ()
    if found.left is not None:
        assert found.left.centroid[0] < found.ego.centroid[0]
    if found.right is not None:
        assert found.ego.centroid[0] <= found.right.centroid[0]


@given(block_masks(), configs, st.sampled_from(list(RoadClass)), st.integers(0, 2**32 - 1))
def test_the_document_survives_json_and_a_second_extraction(mask, cfg, road_class, frame_id):
    frame = SourceFrame(frame_id, road_class, mask)
    _, document = frame_document(frame, cfg)
    assert document_bytes(json.loads(document)) == document
    assert frame_document(frame, cfg)[1] == document
