import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanespace.clustering import NOISE, ClusterParams, _set_bits, dbscan_lattice
from lanespace.core import ClassId
from lanespace.scenes import generate, sample_spec
from oracles import dbscan, dbscan_bruteforce, downsample, lattice_labels, oracle_labels


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
    1e9,
    math.inf,
)


def stack_labels(images: list[np.ndarray]) -> np.ndarray:
    """Label images of separate grids laid out as `lattice_labels` lays out
    their codes: each grid's labels offset by the clusters of those before it."""
    stacked, offset = [], 0
    for image in images:
        stacked.append(np.where(image == NOISE, NOISE, image + offset))
        offset += int(image.max()) + 1
    return np.concatenate(stacked)


def grid_shapes():
    """Heights and widths up to 32, or widths that span two or three 64-bit
    words of a bit-plane row, on fewer rows."""
    narrow = st.tuples(st.integers(1, 32), st.integers(1, 32))
    return narrow | st.tuples(st.integers(1, 8), st.integers(57, 135))


# Up to a 3x3 box's 9, and above the stencil of any eps up to 3.
MIN_PTS = st.integers(1, 9) | st.integers(10, 40)


@st.composite
def lattice_cases(draw):
    h, w = draw(grid_shapes())
    density = draw(st.floats(0.05, 0.95))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    member = rng.random((h, w)) < density
    if draw(st.booleans()):
        # A full frame puts core and border pixels on every image edge.
        member[[0, -1], :] = True
        member[:, [0, -1]] = True
    params = ClusterParams(
        eps=draw(st.sampled_from(LATTICE_EPS)),
        min_pts=draw(MIN_PTS),
        min_cluster_size=draw(st.integers(3, 20)),
    )
    if draw(st.booleans()):
        return member, params, member, (True,)
    # Code 1 of a grid whose other pixels hold 0 or 2.
    grid = np.where(member, 1, 2 * (rng.random((h, w)) < 0.5)).astype(np.uint8)
    return member, params, grid, (1,)


@given(lattice_cases())
def test_lattice_labels_equal_grid_labels(case):
    member, params, grid, codes = case
    assert np.array_equal(lattice_labels(grid, params, codes), oracle_labels(member, params))


@st.composite
def stacked_cases(draw):
    h, w = draw(grid_shapes())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    member = rng.random((h, w)) < draw(st.floats(0.05, 0.95))
    grid = np.where(member, rng.integers(1, 3, size=(h, w)), 0).astype(np.uint8)
    if draw(st.booleans()):
        # Clusters along the last row of one code and the first row of the
        # other, which one stencil would join were the codes' grids not kept
        # apart: with the first code last, their rows are stacked side by side.
        grid[-1, :], grid[0, :] = draw(st.permutations([1, 2]))
    params = ClusterParams(
        eps=draw(st.sampled_from((0.5, 1.5, 2.5, 3.0, 1e9))),
        min_pts=draw(MIN_PTS),
        min_cluster_size=draw(st.integers(3, 12)),
    )
    return grid, params, draw(st.sampled_from([(1, 2), (2, 1)]))


@given(stacked_cases())
def test_a_stack_of_two_grids_gives_the_spans_of_two_calls(case):
    grid, params, codes = case
    want = stack_labels([oracle_labels(grid == code, params) for code in codes])
    assert np.array_equal(lattice_labels(grid, params, codes), want)


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
        oracle = {code: oracle_labels(grid == code, params) for code in (1, 2)}
        for codes in ([1, 2], [2, 1], [1]):
            got = lattice_labels(grid, params, np.array(codes, dtype=np.uint8))
            assert (got != NOISE).any()
            assert np.array_equal(got, stack_labels([oracle[code] for code in codes]))


@pytest.mark.parametrize(
    "length", [0, 13, 63, 64, 65, 127, 128, 129, 1 << 16, (1 << 16) + 5, 616_323]
)
def test_set_bits_is_flatnonzero_of_the_unpacked_plane(length):
    # `_set_bits` is np.flatnonzero of a plane's bits, for sparse planes: it
    # unpacks only the bytes that hold a set bit.
    rng = np.random.default_rng(length)
    for density in (0.0, 0.001, 0.1, 0.5, 0.9, 1.0):
        bits = np.zeros(-(-length // 64) * 64, dtype=bool)  # whole words
        bits[:length] = rng.random(length) < density
        plane = np.packbits(bits, bitorder="little").view("<u8")
        unpacked = np.unpackbits(plane.view(np.uint8), bitorder="little")
        assert np.array_equal(_set_bits(plane), np.flatnonzero(unpacked))


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
        want = dbscan_lattice(mask.data, ClusterParams(eps=diagonal), (int(cls),))
        assert len(want.label) > 0
        for eps in (1e9, math.inf):
            got = dbscan_lattice(mask.data, ClusterParams(eps=eps), (int(cls),))
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_lattice_of_an_empty_grid_is_all_noise():
    spans = dbscan_lattice(np.zeros((4, 5), dtype=bool), ClusterParams(), (True,))
    assert all(len(field) == 0 for field in spans)


def test_lattice_below_eps_1_gives_no_cluster():
    # Below 1 the stencil is the pixel alone, even where every pixel is core.
    full = np.ones((5, 6), dtype=bool)
    for eps in (0.5, math.nextafter(1.0, 0.0)):
        spans = dbscan_lattice(full, ClusterParams(eps=eps, min_pts=1, min_cluster_size=3), (True,))
        assert all(len(field) == 0 for field in spans)
    one = dbscan_lattice(full, ClusterParams(eps=1.0, min_pts=1, min_cluster_size=3), (True,))
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


@pytest.mark.parametrize("width", [61, 62, 63, 64, 65, 125, 126, 127, 128])
def test_lattice_stencil_counts_no_pixel_of_the_next_row(width):
    # At eps 3 a row's last three pixels and the next row's first three are
    # width - 3 columns apart, so each sees only its own run: three members,
    # one short of core. Rows of whole 64-bit words must keep them apart.
    member = np.zeros((2, width), dtype=bool)
    member[0, -3:] = member[1, :3] = True
    params = ClusterParams(eps=3.0, min_pts=4, min_cluster_size=3)
    assert (lattice_labels(member, params) == NOISE).all()
    assert (oracle_labels(member, params) == NOISE).all()


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
