import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lanespace import geometry
from lanespace.geometry import (
    EPS_AREA,
    EPS_GEOM,
    convex_intersection,
    convex_subtract,
    pieces_area,
    polygon_area,
    polygon_moments,
    rasterize_pieces,
)
from lanespace.regions import LANE_EGO, DrivableRegion
from oracles import (
    clip_intersection,
    convex_hull,
    is_convex_ccw,
    point_in_convex,
    roll_area,
    roll_edge_sides,
    roll_moments,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def square(x0, y0, side):
    return np.array(
        [[x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side]],
        dtype=np.float64,
    )


def brute_hull_vertices(pts: np.ndarray) -> set[tuple[float, float]]:
    """A point is a hull vertex unless strictly inside a triangle of others."""
    n = len(pts)
    keep: set[tuple[float, float]] = set()
    triangles = np.array(list(itertools.combinations(range(n), 3)))
    for i in range(n):
        tri = triangles[(triangles != i).all(axis=1)]
        a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
        p = pts[i]
        s1 = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (p[0] - a[:, 0])
        s2 = (c[:, 0] - b[:, 0]) * (p[1] - b[:, 1]) - (c[:, 1] - b[:, 1]) * (p[0] - b[:, 0])
        s3 = (a[:, 0] - c[:, 0]) * (p[1] - c[:, 1]) - (a[:, 1] - c[:, 1]) * (p[0] - c[:, 0])
        strictly_inside = ((s1 > 0) & (s2 > 0) & (s3 > 0)) | (
            (s1 < 0) & (s2 < 0) & (s3 < 0)
        )
        if not strictly_inside.any():
            keep.add((float(p[0]), float(p[1])))
    return keep


def random_convex(rng: np.random.Generator, n: int = 10, scale: float = 20.0, shift=(0.0, 0.0)):
    while True:
        pts = rng.uniform(0, scale, (n, 2)) + np.asarray(shift)
        hull = convex_hull(pts)
        if hull is not None:
            return hull


finite_points = st.lists(
    st.tuples(
        st.floats(-50, 50, allow_nan=False, allow_infinity=False),
        st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    ),
    min_size=3,
    max_size=25,
).map(np.array)


# --- hull -------------------------------------------------------------------


def test_hull_drops_interior_point():
    pts = np.vstack([UNIT_SQUARE, [[0.5, 0.5]]])
    hull = convex_hull(pts)
    assert hull is not None
    assert {tuple(v) for v in hull} == {tuple(v) for v in UNIT_SQUARE}


def test_hull_degenerate_cases():
    assert convex_hull(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])) is None
    assert convex_hull(np.array([[0.0, 0.0], [1.0, 1.0]])) is None
    assert convex_hull(np.empty((0, 2))) is None
    assert convex_hull(np.array([[2.0, 3.0]] * 5)) is None


def test_hull_matches_brute_force_on_seeded_sets():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 100, (int(rng.integers(4, 31)), 2))
        hull = convex_hull(pts)
        assert hull is not None
        assert {tuple(v) for v in hull} == brute_hull_vertices(pts)


def test_hull_prefilter_path_on_dense_lattice():
    # 2,000 points on a 120x90 lattice: many duplicates and long collinear
    # rows. Check the result against an independent hull implementation and
    # containment.
    from scipy.spatial import ConvexHull as SciHull

    rng = np.random.default_rng(3)
    pts = np.column_stack(
        [rng.integers(0, 120, 2000), rng.integers(0, 90, 2000)]
    ).astype(np.float64)
    hull = convex_hull(pts)
    assert hull is not None
    assert abs(polygon_area(hull) - SciHull(pts).volume) <= 1e-9
    for p in pts:
        assert point_in_convex(hull, p, tol=1e-7)


@given(finite_points)
def test_hull_contains_every_input_point(pts):
    hull = convex_hull(pts)
    assume(hull is not None)
    for p in pts:
        assert point_in_convex(hull, p, tol=1e-7)


@given(finite_points)
def test_hull_is_idempotent_and_convex(pts):
    hull = convex_hull(pts)
    assume(hull is not None)
    assert is_convex_ccw(hull, tol=0.0)
    again = convex_hull(hull)
    assert again is not None
    assert {tuple(v) for v in again} == {tuple(v) for v in hull}


def test_hull_orientation_is_positive():
    rng = np.random.default_rng(11)
    for _ in range(20):
        hull = random_convex(rng)
        assert polygon_moments(hull)[0] > 0


# --- area and centroid ------------------------------------------------------


@st.composite
def convex_rings(draw):
    """Hulls of random points, of pixel coordinates or not, scaled and shifted
    as pieces are, in either orientation."""
    pts = draw(finite_points)
    if draw(st.booleans()):
        pts = np.floor(pts)
    pts = pts * draw(st.sampled_from([1.0, 4.0, 0.1, 1e3])) + draw(
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    )
    hull = convex_hull(pts)
    assume(hull is not None)
    return hull[::-1] if draw(st.booleans()) else hull


@given(convex_rings(), convex_rings())
def test_measures_and_edge_sides_equal_their_roll_forms_bit_for_bit(a, b):
    assert polygon_area(a).hex() == roll_area(a).hex()
    area, centroid = polygon_moments(a)
    want_area, want_centroid = roll_moments(a)
    assert area.hex() == want_area.hex()
    assert centroid.tobytes() == want_centroid.tobytes()
    assert geometry._edge_sides(a, b).tobytes() == roll_edge_sides(a, b).tobytes()


def test_area_examples():
    assert polygon_area(UNIT_SQUARE) == 1.0
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    assert polygon_area(tri) == 6.0


def test_area_matches_monte_carlo():
    rng = np.random.default_rng(12)
    poly = random_convex(rng, n=12, scale=50.0)
    x0, y0 = poly.min(axis=0)
    x1, y1 = poly.max(axis=0)
    samples = rng.uniform((x0, y0), (x1, y1), (1_000_000, 2))
    edges = np.roll(poly, -1, axis=0) - poly
    d = (
        edges[None, :, 0] * (samples[:, None, 1] - poly[None, :, 1])
        - edges[None, :, 1] * (samples[:, None, 0] - poly[None, :, 0])
    )
    inside = (d >= 0).all(axis=1)
    estimate = inside.mean() * (x1 - x0) * (y1 - y0)
    assert abs(estimate - polygon_area(poly)) <= 0.01 * polygon_area(poly)


def test_centroid_examples():
    area, centroid = polygon_moments(UNIT_SQUARE)
    assert area == 1.0
    assert np.allclose(centroid, [0.5, 0.5])
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    area, centroid = polygon_moments(tri)
    assert area == 6.0
    assert np.allclose(centroid, [4.0 / 3.0, 1.0])


def test_moments_of_a_clockwise_ring():
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    area, centroid = polygon_moments(tri[::-1])
    assert area == -6.0
    assert np.allclose(centroid, [4.0 / 3.0, 1.0])
    region = DrivableRegion.from_pieces(LANE_EGO, [tri[::-1], square(10.0, 0.0, 2.0)])
    assert region.area == 10.0
    assert np.allclose(region.centroid, (6.0 * np.array([4.0 / 3.0, 1.0]) + [44.0, 4.0]) / 10.0)


def test_moments_area_equals_polygon_area():
    rng = np.random.default_rng(13)
    for _ in range(50):
        poly = random_convex(rng, n=int(rng.integers(3, 12)), scale=40.0)
        assert polygon_moments(poly)[0] == polygon_area(poly)


def test_centroid_ignores_edge_subdivision():
    subdivided = np.array(
        [[0.0, 0.0], [0.25, 0.0], [0.7, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    )
    assert np.allclose(polygon_moments(subdivided)[1], polygon_moments(UNIT_SQUARE)[1])


def test_centroid_rejects_zero_area():
    line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        polygon_moments(line)
    with pytest.raises(ValueError):
        DrivableRegion.from_pieces(LANE_EGO, [line])


# --- intersection -----------------------------------------------------------


def test_intersection_identity_and_disjoint():
    self_cut = convex_intersection(UNIT_SQUARE, UNIT_SQUARE)
    assert self_cut is not None
    assert abs(polygon_area(self_cut) - 1.0) <= 1e-9
    assert convex_intersection(square(0, 0, 1), square(5, 0, 1)) is None


def test_intersection_half_overlap():
    out = convex_intersection(square(0, 0, 1), square(0.5, 0, 1))
    assert out is not None
    assert abs(polygon_area(out) - 0.5) <= 1e-9


def test_intersection_area_is_commutative_seeded():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_convex(rng, n=8)
        b = random_convex(rng, n=8, shift=rng.uniform(-10, 10, 2))
        ab = convex_intersection(a, b)
        ba = convex_intersection(b, a)
        area_ab = polygon_area(ab) if ab is not None else 0.0
        area_ba = polygon_area(ba) if ba is not None else 0.0
        assert abs(area_ab - area_ba) <= 1e-6


def test_intersection_result_is_convex():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = random_convex(rng, n=7)
        b = random_convex(rng, n=7, shift=(5.0, 3.0))
        out = convex_intersection(a, b)
        if out is not None:
            assert is_convex_ccw(out, tol=0.0)


def contact_pairs(rng):
    """Convex pairs that lie apart, touch at a vertex, share an edge, or sit
    a few EPS_GEOM either side of touching; each pair also scaled by 1/3.

    A gap is in the units of `_split`'s d against the shared edge. Overlaps
    of 1e-7 to 1e-3 straddle EPS_AREA, where the clip path stops giving None.
    """
    gaps = [t * EPS_GEOM for t in (-2, -1, -0.5, 0, 0.5, 1, 2)] + [-1e-7, -1e-5, -1e-3]
    for trial in range(60):
        a = random_convex(rng, n=int(rng.integers(3, 9)))
        if trial % 2:
            a = convex_hull(np.round(a))
            if a is None:
                continue
        k = int(rng.integers(len(a)))
        v, w = a[k], a[(k + 1) % len(a)]
        edge = w - v
        out = np.array([edge[1], -edge[0]]) / np.hypot(*edge)
        touching = 2 * v - a  # a turned half a turn about its vertex v
        # a mirrored across its edge v-w, reversed to stay counter-clockwise.
        mirrored = (a - 2 * ((a - v) @ out)[:, None] * out)[::-1]
        apart = a + out * rng.uniform(30, 60)  # past the 20 * sqrt(2) diameter
        for b in (touching, mirrored, apart):
            for gap in gaps:
                shifted = b + gap / np.hypot(*edge) * out
                for scale in (1.0, 1 / 3):
                    yield a * scale, shifted * scale


def test_intersection_equals_the_clip_only_path(monkeypatch):
    clips = []
    split = geometry._split
    monkeypatch.setattr(geometry, "_split", lambda *a: clips.append(1) or split(*a))
    rng = np.random.default_rng(12)
    pairs = skipped = 0
    for a, b in contact_pairs(rng):
        for p, q in ((a, b), (b, a)):
            before = len(clips)
            got, want = convex_intersection(p, q), clip_intersection(p, q)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            pairs += 1
            skipped += len(clips) == before
    # The separating-edge test settles a share of the pairs with no clip.
    assert 0 < skipped < pairs


# --- subtraction ------------------------------------------------------------


def test_subtract_trivial_cases():
    assert convex_subtract(UNIT_SQUARE, None) == [UNIT_SQUARE]
    assert convex_subtract(UNIT_SQUARE, UNIT_SQUARE) == []


def test_subtract_right_half():
    right = np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0]])
    pieces = convex_subtract(UNIT_SQUARE, right)
    assert abs(pieces_area(pieces) - 0.5) <= 1e-9
    region = DrivableRegion.from_pieces(LANE_EGO, pieces)
    assert abs(region.area - 0.5) <= 1e-9
    assert np.allclose(region.centroid, [0.25, 0.5])


def test_subtract_conserves_area_on_seeded_pairs():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a = random_convex(rng, n=9, scale=30.0)
        b = random_convex(rng, n=9, scale=30.0, shift=rng.uniform(-15, 15, 2))
        inner = convex_intersection(a, b)
        pieces = convex_subtract(a, inner)
        want = polygon_area(a) - (polygon_area(inner) if inner is not None else 0.0)
        assert abs(pieces_area(pieces) - want) <= 1e-6 * polygon_area(a)


def test_subtract_pieces_are_pairwise_disjoint():
    rng = np.random.default_rng(10)
    for _ in range(40):
        a = random_convex(rng, n=9, scale=30.0)
        b = random_convex(rng, n=5, scale=12.0, shift=(8.0, 8.0))
        inner = convex_intersection(a, b)
        pieces = convex_subtract(a, inner)
        for p, q in itertools.combinations(pieces, 2):
            overlap = convex_intersection(p, q)
            assert overlap is None or polygon_area(overlap) <= EPS_AREA


# --- rasterization ----------------------------------------------------------


def test_rasterize_counts_lattice_points():
    grid = rasterize_pieces([square(0, 0, 2)], 10, 10)
    assert grid.sum() == 9  # x, y in {0, 1, 2}
    assert grid[:3, :3].all()


def test_rasterize_clips_to_image():
    grid = rasterize_pieces([square(-5, -5, 100)], 4, 3)
    assert grid.all()
