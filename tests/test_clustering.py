import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanespace.clustering import NOISE, ClusterParams, _sparse_flatnonzero, dbscan_lattice
from lanespace.core import ClassId, downsample
from lanespace.scenes import generate, sample_spec
from oracles import dbscan, dbscan_bruteforce, oracle_labels, stack_spans


def partition_of(labels: np.ndarray) -> tuple[frozenset, frozenset]:
    """(noise index set, set of cluster index sets) ignoring label numbering."""
    noise = frozenset(np.flatnonzero(labels == NOISE).tolist())
    clusters = frozenset(
        frozenset(np.flatnonzero(labels == c).tolist())
        for c in range(int(labels.max()) + 1 if len(labels) else 0)
    )
    return noise, clusters


def random_points(rng: np.random.Generator, n: int) -> np.ndarray:
    pts = np.column_stack([rng.uniform(0, 160, n), rng.uniform(0, 120, n)])
    if rng.random() < 0.5:
        pts = np.floor(pts)  # integer grids bring duplicates and exact ties
    return pts


def test_params_validation():
    with pytest.raises(ValueError):
        ClusterParams(eps=0.0)
    with pytest.raises(ValueError):
        ClusterParams(min_pts=0)
    with pytest.raises(ValueError):
        ClusterParams(min_cluster_size=2)
    p = ClusterParams()
    assert (p.eps, p.min_pts, p.min_cluster_size) == (1.5, 4, 12)


def test_empty_input():
    params = ClusterParams()
    assert dbscan(np.empty((0, 2)), params).tolist() == []
    assert dbscan_bruteforce(np.empty((0, 2)), params).tolist() == []


def test_single_point_is_noise_with_min_cluster_size():
    params = ClusterParams(eps=1.0, min_pts=1, min_cluster_size=3)
    for fn in (dbscan, dbscan_bruteforce):
        assert fn(np.array([[5.0, 5.0]]), params).tolist() == [NOISE]


def test_block_of_nine_forms_one_cluster():
    ys, xs = np.mgrid[0:3, 0:3]
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    params = ClusterParams(eps=1.5, min_pts=4, min_cluster_size=3)
    for fn in (dbscan, dbscan_bruteforce):
        labels = fn(pts, params)
        assert labels.tolist() == [0] * 9


def test_two_blocks_and_an_isolated_point():
    ys, xs = np.mgrid[0:3, 0:3]
    block = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    pts = np.vstack([block, block + [10.0, 0.0], [[50.0, 50.0]]])
    params = ClusterParams(eps=1.5, min_pts=4, min_cluster_size=3)
    for fn in (dbscan, dbscan_bruteforce):
        labels = fn(pts, params)
        assert labels[:9].tolist() == [0] * 9
        assert labels[9:18].tolist() == [1] * 9
        assert labels[18] == NOISE


def test_size_filter_relabels_survivors_contiguously():
    # Two dense 3x3 blocks and one sparse pair; the pair dies, blocks stay 0/1.
    ys, xs = np.mgrid[0:3, 0:3]
    block = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    pts = np.vstack([block, [[20.0, 0.0], [20.0, 1.0], [20.0, 2.0]], block + [40.0, 0.0]])
    params = ClusterParams(eps=1.5, min_pts=2, min_cluster_size=4)
    for fn in (dbscan, dbscan_bruteforce):
        labels = fn(pts, params)
        assert labels[:9].tolist() == [0] * 9
        assert labels[9:12].tolist() == [NOISE] * 3
        assert labels[12:].tolist() == [1] * 9


def test_grid_matches_brute_force_on_seeded_sets():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(0, 501))
        pts = random_points(rng, n)
        params = ClusterParams(
            eps=float(rng.uniform(0.8, 6.0)),
            min_pts=int(rng.integers(1, 8)),
            min_cluster_size=int(rng.integers(3, 15)),
        )
        fast = dbscan(pts, params)
        brute = dbscan_bruteforce(pts, params)
        assert np.array_equal(fast, brute)


def test_labels_are_contiguous_from_zero():
    rng = np.random.default_rng(77)
    pts = random_points(rng, 400)
    labels = dbscan(pts, ClusterParams(eps=4.0, min_pts=3, min_cluster_size=5))
    seen = sorted(set(labels.tolist()) - {NOISE})
    assert seen == list(range(len(seen)))


def _border_tie_free(pts: np.ndarray, params: ClusterParams) -> bool:
    """True when no non-core point can be claimed by two different clusters."""
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    near = d2 <= params.eps * params.eps
    core = near.sum(axis=1) >= params.min_pts
    labels = dbscan_bruteforce(pts, params)
    for i in np.flatnonzero(~core):
        owners = {
            int(labels[j]) for j in np.flatnonzero(near[i]) if core[j] and labels[j] >= 0
        }
        if len(owners) > 1:
            return False
    return True


def test_partition_is_permutation_invariant_without_border_ties():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 20:
        pts = random_points(rng, int(rng.integers(30, 200)))
        params = ClusterParams(
            eps=float(rng.uniform(1.0, 5.0)),
            min_pts=int(rng.integers(2, 6)),
            min_cluster_size=3,
        )
        if not _border_tie_free(pts, params):
            continue
        base = partition_of(dbscan(pts, params))
        perm = rng.permutation(len(pts))
        shuffled_labels = dbscan(pts[perm], params)
        unshuffled = np.empty(len(pts), dtype=np.int64)
        unshuffled[perm] = shuffled_labels
        assert partition_of(unshuffled) == base
        checked += 1


# --- lattice form -------------------------------------------------------------

# Below 1 a pixel's stencil is the pixel alone; at sqrt(2) it reaches the
# diagonal, at 2 two pixels along a row or column, and an infinite eps
# covers the whole grid. Each boundary is taken from both sides.
LATTICE_EPS = (
    0.5,
    math.nextafter(1.0, 0.0),
    1.0,
    math.nextafter(math.sqrt(2), 0.0),
    math.sqrt(2),
    1.5,
    1.99,
    2.0,
    math.sqrt(5),
    2.5,
    math.sqrt(8),
    3.0,
    9.0,
    math.inf,
)


def lattice_labels(member: np.ndarray, params: ClusterParams) -> np.ndarray:
    """`dbscan_lattice`'s spans painted into a label image (NOISE elsewhere)."""
    image = np.full(member.shape, NOISE, dtype=np.int64)
    for label, y, first, last in zip(*dbscan_lattice(member, params)):
        image[y, first : last + 1] = label
    return image


@st.composite
def lattice_cases(draw):
    h, w = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    density = draw(st.floats(0.05, 0.95))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    member = rng.random((h, w)) < density
    if draw(st.booleans()):
        # A full frame puts core and border pixels on every image edge.
        member[[0, -1], :] = True
        member[:, [0, -1]] = True
    params = ClusterParams(
        eps=draw(st.sampled_from(LATTICE_EPS)),
        min_pts=draw(st.integers(1, 9)),
        min_cluster_size=draw(st.integers(3, 20)),
    )
    return member, params


@given(lattice_cases())
def test_lattice_labels_equal_grid_labels(case):
    member, params = case
    assert np.array_equal(lattice_labels(member, params), oracle_labels(member, params))


def in_raster_order(spans):
    """Spans sorted by label, row and first pixel, which is unique."""
    order = np.lexsort((spans.first, spans.y, spans.label))
    return [field[order] for field in spans]


@st.composite
def stacked_cases(draw):
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = rng.random((2, h, w)) < draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        # Clusters along the last row of grid 0 and the first row of grid 1,
        # which one stencil would join were the grids not kept apart.
        grids[0, -1, :] = True
        grids[1, 0, :] = True
    params = ClusterParams(
        eps=draw(st.sampled_from((0.5, 1.5, 2.5, 3.0))),
        min_pts=draw(st.integers(1, 9)),
        min_cluster_size=draw(st.integers(3, 12)),
    )
    return grids, params


@given(stacked_cases())
def test_a_stack_of_two_grids_gives_the_spans_of_two_calls(case):
    grids, params = case
    apart = stack_spans([dbscan_lattice(g, params) for g in grids], grids.shape[1])
    stacked = dbscan_lattice(grids, params)
    for got, want in zip(in_raster_order(stacked), in_raster_order(apart)):
        assert np.array_equal(got, want)


def test_a_stack_of_one_is_the_grid():
    mask = downsample(generate(sample_spec(5, noise_rate=0.01))[0], 4)
    member = mask.data == int(ClassId.OTHER_LANES)
    want = dbscan_lattice(member, ClusterParams())
    assert len(want.label) > 0
    got = dbscan_lattice(member[None], ClusterParams())
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def class_grids():
    """Blocks of 8x8 pixels with a tenth of the pixels redrawn, and noisy
    generated scenes: class-code grids of every code in 0..2."""
    rng = np.random.default_rng(24)
    grids = []
    for _ in range(4):
        grid = np.kron(rng.choice(3, size=(12, 16)), np.ones((8, 8), dtype=np.int64))
        noisy = rng.random(grid.shape) < 0.1
        grid[noisy] = rng.choice(3, size=int(noisy.sum()))
        grids.append(grid.astype(np.uint8))
    grids += [generate(sample_spec(seed, noise_rate=0.01))[0].data for seed in range(3)]
    return grids


@pytest.mark.parametrize("factor", [1, 2, 4])
@pytest.mark.parametrize("eps", [1.5, 2.5])
def test_class_codes_give_the_spans_of_their_bool_stack(factor, eps):
    params = ClusterParams(eps=eps)
    for data in class_grids():
        grid = data[::factor, ::factor]  # a strided view, as extract_regions passes it
        for codes in ([1, 2], [2, 1], [1]):
            codes = np.array(codes, dtype=np.uint8)
            want = dbscan_lattice(grid == codes[:, None, None], params)
            got = dbscan_lattice(grid, params, codes)
            assert len(want.label) > 0
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("size", [0, 13, 1 << 16, (1 << 16) + 5, 616_323])
def test_sparse_flatnonzero_is_flatnonzero(size):
    rng = np.random.default_rng(size)
    for density in (0.0, 0.001, 0.3, 1.0):
        a = rng.random(size) < density
        assert np.array_equal(_sparse_flatnonzero(a), np.flatnonzero(a))


def test_lattice_border_pixel_takes_the_lowest_adjacent_cluster():
    # Two 2x2 blocks of cores, joined only through the border pixel (2, 2):
    # it neighbours a core of each and goes to cluster 0, the first to reach it.
    member = np.array(
        [
            [1, 1, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 1, 1],
        ],
        dtype=bool,
    )
    params = ClusterParams(eps=1.5, min_pts=4, min_cluster_size=3)
    labels = lattice_labels(member, params)
    assert labels[2, 2] == 0
    assert labels[0, 0] == 0 and labels[4, 4] == 1
    assert np.array_equal(labels, oracle_labels(member, params))


@pytest.mark.parametrize("factor", [4, 1])
def test_lattice_huge_eps_gives_the_spans_of_the_grid_diagonal(factor):
    mask = downsample(generate(sample_spec(3, noise_rate=0.01))[0], factor)
    diagonal = math.hypot(mask.height - 1, mask.width - 1)
    for cls in (ClassId.EGO_LANE, ClassId.OTHER_LANES):
        member = mask.data == int(cls)
        want = dbscan_lattice(member, ClusterParams(eps=diagonal))
        assert len(want.label) > 0
        for eps in (1e9, math.inf):
            got = dbscan_lattice(member, ClusterParams(eps=eps))
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_lattice_of_an_empty_grid_is_all_noise():
    spans = dbscan_lattice(np.zeros((4, 5), dtype=bool), ClusterParams())
    assert all(len(field) == 0 for field in spans)


def test_lattice_below_eps_1_gives_no_cluster():
    # Below 1 the stencil is the pixel alone, even where every pixel is core.
    full = np.ones((5, 6), dtype=bool)
    for eps in (0.5, math.nextafter(1.0, 0.0)):
        spans = dbscan_lattice(full, ClusterParams(eps=eps, min_pts=1, min_cluster_size=3))
        assert all(len(field) == 0 for field in spans)
    one = dbscan_lattice(full, ClusterParams(eps=1.0, min_pts=1, min_cluster_size=3))
    assert set(one.label.tolist()) == {0}


def lattice(rows: list[str]) -> np.ndarray:
    return np.array([[c != "." for c in row] for row in rows], dtype=bool)


# With min_pts=1 every member is core, so the runs are exactly the rows' runs.
EVERY_PIXEL_CORE = ClusterParams(eps=1.5, min_pts=1, min_cluster_size=3)


@pytest.mark.parametrize(
    "rows, expected",
    [
        # Two runs that touch only at a corner join.
        (["xxx...", "...xxx"], ["000...", "...000"]),
        # Two runs one column apart do not join.
        (["xxx....", "....xxx"], ["000....", "....111"]),
        # A U whose arms meet only at the bottom: its right arm holds its first
        # core pixel, so the U is 0 and the block to its right, which starts
        # in the same row but later, is 1.
        (
            ["....xx.xx", "xx..xx.xx", "xx..xx...", "xxxxxx..."],
            ["....00.11", "00..00.11", "00..00...", "000000..."],
        ),
        # A run ending at the right edge does not join a run starting at the
        # left edge of the next row, though they are adjacent in flat order.
        ([".....xxx", "xxx....."], [".....000", "111....."]),
    ],
)
def test_lattice_run_adjacency(rows, expected):
    member = lattice(rows)
    want = np.array(
        [[NOISE if c == "." else int(c) for c in row] for row in expected], dtype=np.int64
    )
    assert np.array_equal(lattice_labels(member, EVERY_PIXEL_CORE), want)
    assert np.array_equal(oracle_labels(member, EVERY_PIXEL_CORE), want)


def test_lattice_wide_stencil_does_not_reach_into_the_next_row():
    # At eps 3 a run's window in its own row reaches three columns past its
    # end. The runs are 7 columns apart in x, so they stay two clusters
    # although the right edge and the next row's left edge are adjacent in
    # flat order.
    member = lattice([".......xxx", "xxx......."])
    params = ClusterParams(eps=3.0, min_pts=1, min_cluster_size=3)
    want = [[NOISE] * 7 + [0] * 3, [1] * 3 + [NOISE] * 7]
    assert lattice_labels(member, params).tolist() == want
    assert oracle_labels(member, params).tolist() == want


def test_lattice_border_pixel_between_two_runs_of_its_row_takes_the_lower():
    # (2, 2) is not core, and in its box only the runs on either side of it in
    # row 2 are. The left run's cluster starts at (1, 2), the right run's at
    # (4, 1), so the right one is cluster 0 and takes the pixel.
    member = lattice(["....x.", "x...x.", "xxxxxx"])
    params = ClusterParams(eps=1.5, min_pts=4, min_cluster_size=3)
    labels = lattice_labels(member, params)
    assert labels.tolist() == [[-1, -1, -1, -1, 0, -1], [1, -1, -1, -1, 0, -1], [1, 1, 0, 0, 0, 0]]
    assert np.array_equal(labels, oracle_labels(member, params))


def test_lattice_border_pixel_of_a_filtered_cluster_stays_noise():
    # The border pixel (1, 2) neighbours the core of the top cluster (0, five
    # pixels with it) and of the bottom one (ten pixels). The size filter
    # removes the top cluster, and the pixel is not handed to the bottom one.
    member = lattice(["xxx", ".x.", ".x.", ".x.", "xxx", "xxx", "xxx"])
    params = ClusterParams(eps=1.5, min_pts=4, min_cluster_size=6)
    labels = lattice_labels(member, params)
    assert (labels[:3] == NOISE).all()
    assert labels[3:].tolist() == [[-1, 0, -1]] + [[0, 0, 0]] * 3
    assert np.array_equal(labels, oracle_labels(member, params))


def test_lattice_border_pixel_needs_a_box_count_of_two():
    # (4, 4)'s box holds one other member, the core corner (3, 3) of the
    # block, so it is claimed; (6, 6) is alone in its box and stays noise.
    member = lattice(["xxxx...", "xxxx...", "xxxx...", "xxxx...", "....x..", ".......", "......x"])
    params = ClusterParams(eps=1.5, min_pts=4, min_cluster_size=3)
    labels = lattice_labels(member, params)
    assert labels[4, 4] == 0 and labels[3, 3] == 0
    assert labels[6, 6] == NOISE
    assert np.array_equal(labels, oracle_labels(member, params))
