import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lanespace import geometry, regions
from lanespace.clustering import ClusterParams, Spans
from lanespace.core import ClassId, RoadClass, SegmentationMask, downsample
from lanespace.geometry import (
    convex_intersection,
    pieces_area,
    polygon_area,
)
from lanespace.policy import advise
from lanespace.regions import (
    LANE_EGO,
    LANE_LEFT,
    LANE_RIGHT,
    LANE_UNASSIGNED,
    DrivableRegion,
    ExtractionConfig,
    RegionSet,
    assign_sides,
    build_document,
    document_bytes,
    extract_regions,
    resolve_overlaps,
)
from lanespace.scenes import generate, sample_spec
from oracles import clip_intersection, convex_hull, dbscan, extract_points, stack_spans


def square(x0, y0, side):
    return np.array(
        [[x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side]],
        dtype=np.float64,
    )


def region_at(x, area_side=1.0, lane=LANE_UNASSIGNED):
    return DrivableRegion.from_pieces(lane, [square(x, 0.0, area_side)])


def paint(grid, x0, x1, y0, y1, value):
    grid[y0:y1, x0:x1] = value


# --- resolve_overlaps -------------------------------------------------------


def test_disjoint_regions_pass_through():
    regions = [
        (ClassId.EGO_LANE, [square(0, 0, 2)]),
        (ClassId.OTHER_LANES, [square(10, 0, 2)]),
    ]
    out = resolve_overlaps(regions)
    assert len(out) == 2
    for (_, before), (_, after) in zip(regions, out):
        assert len(after) == 1
        assert np.allclose(before[0], after[0])


def test_ego_always_cedes_the_intersection():
    ego = square(0, 0, 2)  # area 4
    other = square(1.5, 0, 1)  # area 1, overlap 0.5x1
    out = resolve_overlaps(
        [(ClassId.EGO_LANE, [ego]), (ClassId.OTHER_LANES, [other])]
    )
    ego_area = pieces_area(out[0][1])
    other_area = pieces_area(out[1][1])
    assert abs(ego_area - 3.5) <= 1e-9  # ego lost despite being bigger
    assert abs(other_area - 1.0) <= 1e-9
    assert np.allclose(out[1][1][0], other)


def test_smaller_region_cedes_between_same_class():
    small = square(0, 0, 2)  # area 4
    big = square(1, 0, 3)  # area 9, overlap 1x2
    out = resolve_overlaps(
        [(ClassId.OTHER_LANES, [big]), (ClassId.OTHER_LANES, [small])]
    )
    assert abs(pieces_area(out[0][1]) - 9.0) <= 1e-9
    assert abs(pieces_area(out[1][1]) - 2.0) <= 1e-9


def test_equal_area_tie_goes_against_the_later_entry():
    a = square(0, 0, 2)
    b = square(1, 0, 2)
    out = resolve_overlaps([(ClassId.OTHER_LANES, [a]), (ClassId.OTHER_LANES, [b])])
    assert abs(pieces_area(out[0][1]) - 4.0) <= 1e-9
    assert abs(pieces_area(out[1][1]) - 2.0) <= 1e-9


def test_two_ego_regions_use_the_area_rule():
    out = resolve_overlaps(
        [(ClassId.EGO_LANE, [square(0, 0, 3)]), (ClassId.EGO_LANE, [square(2, 0, 2)])]
    )
    assert abs(pieces_area(out[0][1]) - 9.0) <= 1e-9
    assert abs(pieces_area(out[1][1]) - 2.0) <= 1e-9


def test_output_regions_are_pairwise_disjoint():
    rng = np.random.default_rng(8)
    regions = []
    for i in range(5):
        x, y = rng.uniform(0, 6, 2)
        cls = ClassId.EGO_LANE if i == 0 else ClassId.OTHER_LANES
        regions.append((cls, [square(x, y, rng.uniform(1, 4))]))
    out = resolve_overlaps(regions)
    flat = [(i, p) for i, (_, pieces) in enumerate(out) for p in pieces]
    for i, (ia, pa) in enumerate(flat):
        for ib, pb in flat[i + 1 :]:
            if ia == ib:
                continue
            inter = convex_intersection(pa, pb)
            assert inter is None or polygon_area(inter) <= 1e-6


def test_overlap_scan_never_goes_back(monkeypatch):
    # Ten squares of one class, each overlapping the next three: a scan that
    # restarts after every cut re-tests the disjoint pairs before it.
    calls = {"scan": 0, "subtract": 0}

    def counted(key):
        def call(a, b):
            calls[key] += 1
            return convex_intersection(a, b)

        return call

    monkeypatch.setattr(regions, "convex_intersection", counted("scan"))
    # convex_subtract is handed the scan's intersection and clips it no more.
    monkeypatch.setattr(geometry, "convex_intersection", counted("subtract"))
    stair = [(ClassId.OTHER_LANES, [square(x, 0, 4)]) for x in range(10)]
    out = resolve_overlaps(stair)
    assert calls["scan"] <= 45  # one call per region pair
    assert calls["subtract"] == 0
    assert [len(pieces) for _, pieces in stair] == [1] * 10  # input lists untouched
    assert abs(sum(pieces_area(p) for _, p in out) - 4 * 13) <= 1e-9


# --- assign_sides -----------------------------------------------------------


def test_sides_split_on_centroid_x():
    ego = region_at(10.0, lane=LANE_EGO)
    west = region_at(2.0)
    east = region_at(20.0)
    left, right, unassigned = assign_sides([west, east], ego)
    assert left is not None and left.lane == LANE_LEFT
    assert right is not None and right.lane == LANE_RIGHT
    assert np.allclose(left.centroid, west.centroid)
    assert np.allclose(right.centroid, east.centroid)
    assert unassigned == ()


def test_equal_centroid_x_goes_right():
    ego = region_at(10.0, lane=LANE_EGO)
    twin = region_at(10.0)
    left, right, _ = assign_sides([twin], ego)
    assert left is None
    assert right is not None


def test_biggest_region_wins_the_side():
    ego = region_at(0.0, lane=LANE_EGO)
    small = region_at(5.0, area_side=1.0)
    big = region_at(9.0, area_side=3.0)
    left, right, unassigned = assign_sides([small, big], ego)
    assert left is None
    assert right is not None and abs(right.area - 9.0) <= 1e-9
    assert unassigned == ()  # the loser is discarded, not kept


def test_without_ego_everything_is_unassigned():
    west = region_at(2.0)
    east = region_at(20.0)
    left, right, unassigned = assign_sides([west, east], None)
    assert left is None and right is None
    assert [r.lane for r in unassigned] == [LANE_UNASSIGNED, LANE_UNASSIGNED]


# --- extract_regions --------------------------------------------------------


def three_lane_mask(width=640, height=480):
    grid = np.zeros((height, width), dtype=np.uint8)
    paint(grid, 40, 180, 200, 480, int(ClassId.OTHER_LANES))
    paint(grid, 240, 400, 200, 480, int(ClassId.EGO_LANE))
    paint(grid, 460, 600, 200, 480, int(ClassId.OTHER_LANES))
    return SegmentationMask(grid)


def test_all_background_mask_yields_absent_regions():
    rs = extract_regions(SegmentationMask(np.zeros((64, 64), dtype=np.uint8)))
    assert rs.ego is None and rs.left is None and rs.right is None
    assert rs.unassigned == ()


def test_three_lane_mask_recovers_all_sides():
    rs = extract_regions(three_lane_mask())
    assert rs.ego is not None and rs.left is not None and rs.right is not None
    assert rs.left.centroid[0] < rs.ego.centroid[0] < rs.right.centroid[0]
    assert rs.ego.lane == LANE_EGO


def sample_masks():
    yield three_lane_mask()
    for seed in range(3):
        yield generate(sample_spec(seed, width=320, height=240, noise_rate=0.01))[0]


def frame_document(mask):
    rs = extract_regions(mask, ExtractionConfig(downsample_factor=2))
    advice = advise(RoadClass.HIGHWAY, rs)
    return document_bytes(build_document(3, RoadClass.HIGHWAY, rs, advice.as_dict()))


@pytest.mark.parametrize("factor", [1, 2, 4])
def test_regions_of_the_strided_sample_equal_those_of_a_downsampled_copy(monkeypatch, factor):
    # extract_regions hands dbscan_lattice a strided view of the mask and the
    # class codes; clustering the bool stack of a downsampled copy instead
    # must give the same document.
    cfg = ExtractionConfig(downsample_factor=factor)
    lattice = regions.dbscan_lattice
    for mask in sample_masks():
        rs = extract_regions(mask, cfg)
        want = document_bytes(build_document(0, RoadClass.HIGHWAY, rs, {}))

        def via_a_copy(grid, params, codes):
            copy = downsample(mask, factor).data
            assert np.array_equal(grid, copy)
            return lattice(copy == codes[:, None, None], params)

        with monkeypatch.context() as patched:
            patched.setattr(regions, "dbscan_lattice", via_a_copy)
            rs = extract_regions(mask, cfg)
        assert rs.ego is not None or rs.left is not None or rs.unassigned
        assert document_bytes(build_document(0, RoadClass.HIGHWAY, rs, {})) == want


@pytest.mark.parametrize("eps", [1.5, 2.5, 3.0])
def test_default_hulls_equal_convex_hull_of_each_dbscan_cluster(eps):
    cfg = ExtractionConfig(cluster=ClusterParams(eps=eps))
    min_area = cfg.min_region_area / cfg.downsample_factor**2
    classes = (ClassId.EGO_LANE, ClassId.OTHER_LANES)
    for mask in sample_masks():
        small = downsample(mask, cfg.downsample_factor)
        expected = []
        for cls in classes:
            points = extract_points(small, cls)
            labels = dbscan(points, cfg.cluster)
            for k in range(labels.max() + 1):
                hull = convex_hull(points[labels == k])
                if hull is not None and polygon_area(hull) >= min_area:
                    expected.append((cls, hull))
        stack = np.stack([small.data == int(cls) for cls in classes])
        owner, hulls, areas = regions._cluster_hulls(
            regions.dbscan_lattice(stack, cfg.cluster), small.height
        )
        got = [
            (classes[i], hull)
            for i, hull, area in zip(owner, hulls, areas)
            if hull is not None and area >= min_area
        ]
        assert len(got) == len(expected) > 0
        for (gc, g), (ec, e) in zip(got, expected):
            assert gc == ec and np.array_equal(g, e)


def all_row_extremes(spans):
    """Each cluster's leftmost and rightmost pixel per row, found by a loop."""
    rows = {}
    for label, y, first, last in zip(*(v.tolist() for v in spans)):
        lo, hi = rows.setdefault(label, {}).get(y, (first, last))
        rows[label][y] = (min(lo, first), max(hi, last))
    return [
        np.array([(x, y) for y, ends in sorted(by_row.items()) for x in ends], dtype=np.float64)
        for _, by_row in sorted(rows.items())
    ]


def assert_hulls_match_the_oracle(*classes):
    """Each class's clusters in turn, stacked as one frame's: the one-pass
    hulls and the oracle hulls of all row extremes are byte-equal, None
    included, and so are the areas."""
    height = 1 + max((int(spans.y.max()) for spans in classes if len(spans.y)), default=0)
    owner, hulls, areas = regions._cluster_hulls(stack_spans(list(classes), height), height)
    labelled = [(i, points) for i, spans in enumerate(classes) for points in all_row_extremes(spans)]
    assert owner.tolist() == [i for i, _ in labelled]
    full = [points for _, points in labelled]
    assert len(hulls) == len(full)
    for hull, area, points in zip(hulls, areas, full):
        expected = convex_hull(points)
        assert (hull is None) == (expected is None)
        if hull is not None:
            assert hull.shape == expected.shape and hull.tobytes() == expected.tobytes()
            assert area == polygon_area(expected)
    return hulls, full


def spans_of(*clusters):
    """Spans of hand-made clusters, each a list of (y, first, last) rows."""
    rows = [(label, *row) for label, cluster in enumerate(clusters) for row in cluster]
    return Spans(*(np.array(v, dtype=np.int64) for v in zip(*rows)))


@pytest.mark.parametrize("factor", [1, 2, 4])
def test_pruned_row_extremes_give_the_hulls_of_all_row_extremes(factor):
    rng = np.random.default_rng(factor)
    masks = []
    for _ in range(6):
        # Blocks of 8x8 pixels with a tenth of the pixels redrawn: large
        # irregular clusters with ragged edges, holes and noise pixels.
        grid = np.kron(rng.choice(3, size=(12, 16)), np.ones((8, 8), dtype=np.int64))
        noisy = rng.random(grid.shape) < 0.1
        grid[noisy] = rng.choice(3, size=int(noisy.sum()))
        masks.append(SegmentationMask(grid.astype(np.uint8)))
    masks += [
        generate(sample_spec(seed, width=320, height=240, noise_rate=0.02))[0]
        for seed in range(4)
    ]
    for mask in masks:
        small = downsample(mask, factor)
        assert_hulls_match_the_oracle(
            *(
                regions.dbscan_lattice(small.data == int(cls), ClusterParams())
                for cls in (ClassId.EGO_LANE, ClassId.OTHER_LANES)
            )
        )


def test_pruning_keeps_the_hulls_of_hand_made_clusters():
    one_row = [(3, 2, 9)]
    single_pixel_rows = [(0, 3, 3), (1, 2, 4), (2, 1, 5), (3, 2, 4), (4, 3, 3), (5, 3, 3)]
    diagonal = [(y, y, y + 3) for y in range(20)]
    # Its left chain needs 18 pruning passes, the last removing nothing.
    wave = [math.floor(200 * math.sin(y / 40)) for y in range(480)]
    sine = [(y, 200 + x, 205 + x) for y, x in enumerate(wave)]
    top_apex = [(0, 5, 5), (1, 3, 7), (2, 1, 9), (3, 1, 9)]
    bottom_apex = [(3 - y, first, last) for y, first, last in top_apex]
    # Rows 2-4 share the least x: the ring starts at the top one, (0, 2).
    left_wall = [(0, 4, 6), (1, 2, 8), (2, 0, 9), (3, 0, 9), (4, 0, 9), (5, 2, 8), (6, 4, 6)]
    column = [(y, 7, 7) for y in range(6)]
    hulls, _ = assert_hulls_match_the_oracle(
        spans_of(one_row, single_pixel_rows, diagonal, sine, top_apex, bottom_apex),
        spans_of(left_wall, column, [(4, 4, 4)]),
    )
    assert hulls[0] is None  # one row has no area
    assert hulls[2].tolist() == [[0, 0], [3, 0], [22, 19], [19, 19]]
    assert hulls[4].tolist() == [[1, 2], [5, 0], [9, 2], [9, 3], [1, 3]]
    assert hulls[5].tolist() == [[1, 0], [9, 0], [9, 1], [5, 3], [1, 1]]
    assert hulls[6][0].tolist() == [0, 2] and len(hulls[6]) == 10
    assert hulls[7] is None and hulls[8] is None  # a column, a pixel


def test_pruning_leaves_few_of_a_trapezoids_row_extremes():
    trapezoid = [(y, 100 - y // 2, 300 + y // 3) for y in range(200)]
    hulls, full = assert_hulls_match_the_oracle(spans_of(trapezoid))
    assert len(full[0]) == 400
    assert len(hulls[0]) <= 6


def test_frame_with_no_clusters_has_no_hulls():
    none = Spans(*[np.empty(0, dtype=np.int64)] * 4)
    owner, hulls, areas = regions._cluster_hulls(none, 8)
    assert owner.tolist() == [] and hulls == [] and areas.tolist() == []


@pytest.mark.parametrize(
    "min_region_area, kept", [(64.0, False), (63.5, True)], ids=["under", "at"]
)
def test_a_cluster_just_under_min_region_area_is_dropped(min_region_area, kept):
    # A 9x9 block less one corner pixel: its hull has area 8 * 8 - 0.5.
    grid = np.zeros((16, 16), dtype=np.uint8)
    paint(grid, 3, 12, 3, 12, int(ClassId.EGO_LANE))
    grid[3, 3] = 0
    cfg = ExtractionConfig(downsample_factor=1, min_region_area=min_region_area)
    ego = extract_regions(SegmentationMask(grid), cfg).ego
    assert (ego is not None) == kept
    if kept:
        assert ego.area == 63.5


def test_documents_are_byte_identical_across_runs():
    for mask in sample_masks():
        docs = [frame_document(mask) for _ in range(3)]
        assert docs[0] == docs[1] == docs[2]


def test_eps_picks_the_clustering_path(monkeypatch):
    # Every eps takes the one path, and the wider stencils still give three
    # disjoint sides.
    calls, prunes = [], []
    original, prune = regions.dbscan_lattice, regions._convex_chains
    monkeypatch.setattr(regions, "dbscan_lattice", lambda *a: calls.append(a) or original(*a))
    monkeypatch.setattr(regions, "_convex_chains", lambda *a: prunes.append(a) or prune(*a))
    for eps in (1.5, 2.5, 3.0):
        calls.clear()
        prunes.clear()
        rs = extract_regions(three_lane_mask(), ExtractionConfig(cluster=ClusterParams(eps=eps)))
        assert len(calls) == 1  # one call for both classes
        assert len(prunes) == 1  # one pruning call for the frame
        assert rs.ego is not None and rs.left is not None and rs.right is not None
        pieces = [p for region in rs.present() for p in region.pieces]
        for piece in pieces:
            assert polygon_area(piece) > 0
        for i, a in enumerate(pieces):
            for b in pieces[i + 1 :]:
                inter = convex_intersection(a, b)
                assert inter is None or polygon_area(inter) < 1e-6


def test_default_path_loads_no_scipy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import lanespace.cli\n"
        "import lanespace.pipeline\n"
        "from lanespace.core import SegmentationMask\n"
        "from lanespace.regions import extract_regions\n"
        "grid = np.zeros((64, 64), dtype=np.uint8)\n"
        "grid[8:60, 8:30] = 1\n"
        "grid[8:60, 34:56] = 2\n"
        "assert extract_regions(SegmentationMask(grid)).ego is not None\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(regions.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_vertices_scale_back_into_image_bounds():
    mask = three_lane_mask()
    cfg = ExtractionConfig()
    small = downsample(mask, cfg.downsample_factor)
    rs = extract_regions(mask, cfg)
    for region in rs.present():
        for piece in region.pieces:
            scaled = piece / cfg.downsample_factor
            assert (scaled[:, 0] >= 0).all() and (scaled[:, 0] <= small.width - 1).all()
            assert (scaled[:, 1] >= 0).all() and (scaled[:, 1] <= small.height - 1).all()


def test_min_region_area_drops_small_clusters():
    grid = np.zeros((64, 64), dtype=np.uint8)
    paint(grid, 8, 40, 8, 40, int(ClassId.EGO_LANE))
    mask = SegmentationMask(grid)
    assert extract_regions(mask).ego is not None
    starved = ExtractionConfig(min_region_area=1e6)
    assert extract_regions(mask, starved).ego is None


def test_ego_never_gains_area():
    mask = u_shaped_overlap_mask()
    cfg = ExtractionConfig()
    rs = extract_regions(mask, cfg)
    small = downsample(mask, cfg.downsample_factor)
    naive_hull = convex_hull(extract_points(small, ClassId.EGO_LANE))
    assert naive_hull is not None
    upper_bound = polygon_area(naive_hull) * cfg.downsample_factor**2
    assert rs.ego is not None
    assert rs.ego.area <= upper_bound + 1e-6


def u_shaped_overlap_mask(width=640, height=480):
    """Ego pixels form a U whose hull covers an island of other-lane pixels."""
    grid = np.zeros((height, width), dtype=np.uint8)
    paint(grid, 0, 60, 240, 480, int(ClassId.EGO_LANE))
    paint(grid, 240, 300, 240, 480, int(ClassId.EGO_LANE))
    paint(grid, 0, 300, 240, 264, int(ClassId.EGO_LANE))
    paint(grid, 120, 184, 300, 424, int(ClassId.OTHER_LANES))
    return SegmentationMask(grid)


def test_hull_overlap_is_removed_from_the_ego_region():
    mask = u_shaped_overlap_mask()
    cfg = ExtractionConfig()
    rs = extract_regions(mask, cfg)
    assert rs.ego is not None
    small = downsample(mask, cfg.downsample_factor)
    f2 = cfg.downsample_factor**2
    ego_hull = convex_hull(extract_points(small, ClassId.EGO_LANE))
    other_hull = convex_hull(extract_points(small, ClassId.OTHER_LANES))
    overlap = convex_intersection(ego_hull, other_hull)
    assert overlap is not None and polygon_area(overlap) > 0
    expected = (polygon_area(ego_hull) - polygon_area(overlap)) * f2
    assert abs(rs.ego.area - expected) <= 1e-6 * polygon_area(ego_hull) * f2
    # The other-lane region keeps its full hull.
    other = rs.right if rs.right is not None else rs.left
    assert other is not None
    assert abs(other.area - polygon_area(other_hull) * f2) <= 1e-9


# --- document ---------------------------------------------------------------


def test_document_key_order_and_rounding():
    rs = extract_regions(three_lane_mask())
    advice = advise(RoadClass.RESIDENTIAL, rs)
    doc = build_document(9, RoadClass.RESIDENTIAL, rs, advice.as_dict())
    assert list(doc.keys()) == ["frame_id", "road_class", "regions", "advice"]
    assert doc["road_class"] == "residential"
    lanes = [r["lane"] for r in doc["regions"]]
    assert lanes == [LANE_EGO, LANE_LEFT, LANE_RIGHT]
    for region in doc["regions"]:
        assert list(region.keys()) == ["lane", "area", "centroid", "pieces"]
        for piece in region["pieces"]:
            for x, y in piece:
                assert x == round(x, 6) and y == round(y, 6)
    raw = document_bytes(doc)
    assert json.loads(raw) == doc
    assert b" " not in raw.split(b'"advice"')[0]  # compact separators


def test_document_for_empty_mask():
    rs = extract_regions(SegmentationMask(np.zeros((16, 16), dtype=np.uint8)))
    advice = advise(RoadClass.UNKNOWN, rs)
    doc = build_document(0, RoadClass.UNKNOWN, rs, advice.as_dict())
    assert doc["regions"] == []
    assert doc["advice"]["usable_lanes"] == []


def test_region_set_rejects_nothing_but_regions_validate():
    with pytest.raises(ValueError):
        DrivableRegion.from_pieces(LANE_EGO, [])
    rs = RegionSet()
    assert rs.present() == []
