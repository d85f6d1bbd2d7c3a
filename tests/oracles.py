"""Reference DBSCANs, point extraction, downsampling, hull and clip that the
tests compare the package with.

`dbscan_bruteforce` is the textbook sequential DBSCAN on an all-pairs distance
matrix. `dbscan` is a grid-indexed form for arbitrary 2-D points that gives
the same labels much faster, so it can check larger inputs. Both number
clusters by their lowest-index core point, give a border point reachable from
several clusters to the first cluster that claims it in index order, and
relabel clusters below min_cluster_size to noise, renumbering the survivors
contiguously from 0. For pixels from `extract_points`, index order is
row-major order. `downsample` copies out the stride sample that
`extract_regions` clusters as a view of the mask. `oracle_labels` and
`lattice_labels` lay out an oracle's labels and `dbscan_lattice`'s spans as
label images, so the two compare pixel for pixel.

`stack_spans` lays out the spans of separate grids as those of one stack of
them. `convex_hull` is Andrew's monotone chain over any points,
`hull_vertex_mask` finds its vertices by brute force over every triangle,
`clip_intersection` is `convex_intersection` without its separating-edge test,
and `is_convex_ccw` and `point_in_convex` check the polygons the package makes.
`roll_area`, `roll_moments` and `roll_edge_sides` are the shoelace measures
and the separating-edge matrix in their first `np.roll` form, which the
package's must equal bit for bit. `square` and `random_convex` make test
polygons, and `square_region` and `region_set` regions of one square each.
"""
from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from lanespace.clustering import NOISE, ClusterParams, Spans, _components, dbscan_lattice
from lanespace.core import ClassId, SegmentationMask
from lanespace.geometry import EPS_AREA, EPS_GEOM, _cross, _ring, _split, polygon_area
from lanespace.regions import LANE_EGO, LANE_LEFT, LANE_RIGHT, DrivableRegion, RegionSet


def extract_points(mask: SegmentationMask, class_id: ClassId | int) -> np.ndarray:
    """Coordinates (x, y) of every pixel equal to class_id, in row-major order.

    Returns a float64 array of shape (n, 2).
    """
    ys, xs = np.nonzero(mask.data == int(class_id))
    return np.column_stack([xs, ys]).astype(np.float64)


def downsample(mask: SegmentationMask, factor: int) -> SegmentationMask:
    """Stride sampling: output pixel (i, j) = input pixel (i*factor, j*factor)."""
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"downsample factor must be a positive integer, got {factor!r}")
    if factor == 1:
        return mask
    return SegmentationMask(mask.data[::factor, ::factor])


def _size_filter(labels: np.ndarray, n_clusters: int, min_size: int) -> np.ndarray:
    if n_clusters == 0:
        return labels
    keep = np.bincount(labels[labels >= 0], minlength=n_clusters) >= min_size
    mapping = np.where(keep, np.cumsum(keep) - 1, NOISE)
    assigned = labels >= 0
    labels[assigned] = mapping[labels[assigned]]
    return labels


def _grid_pairs(pts: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """All ordered pairs (i, j) with |pts[i] - pts[j]| <= eps, i = j included.

    Cells have side eps, so every neighbor lies in one of the 9 cells around a
    point's own cell.
    """
    n = len(pts)
    cx = np.floor(pts[:, 0] / eps).astype(np.int64)
    cy = np.floor(pts[:, 1] / eps).astype(np.int64)
    cx -= cx.min()
    cy -= cy.min()
    stride = cy.max() + 3
    key = cx * stride + cy
    order = np.argsort(key, kind="stable")
    uniq, start, count = np.unique(key[order], return_index=True, return_counts=True)
    eps2 = eps * eps
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            qkey = key + dx * stride + dy
            pos = np.minimum(np.searchsorted(uniq, qkey), len(uniq) - 1)
            lens = np.where(uniq[pos] == qkey, count[pos], 0)
            total = int(lens.sum())
            if total == 0:
                continue
            pi = np.repeat(np.arange(n), lens)
            first = np.cumsum(lens) - lens
            offsets = np.arange(total) - np.repeat(first, lens)
            pj = order[np.repeat(start[pos], lens) + offsets]
            d2 = (pts[pi, 0] - pts[pj, 0]) ** 2 + (pts[pi, 1] - pts[pj, 1]) ** 2
            near = d2 <= eps2
            out_i.append(pi[near])
            out_j.append(pj[near])
    if not out_i:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(out_i), np.concatenate(out_j)


def dbscan(points: np.ndarray, params: ClusterParams) -> np.ndarray:
    """Grid-indexed DBSCAN; returns one label per point (NOISE or 0..k-1)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    pi, pj = _grid_pairs(pts, params.eps)
    core = np.bincount(pi, minlength=n) >= params.min_pts
    # Clusters are the connected components of the core-core pairs, numbered
    # by their lowest member index to match the sequential expansion order.
    # Core points keep their order when renumbered among themselves.
    core_idx = np.flatnonzero(core)
    rank = np.cumsum(core) - 1
    cc = core[pi] & core[pj] & (pi < pj)
    comp, n_clusters = _components(len(core_idx), rank[pi[cc]], rank[pj[cc]])
    labels = np.full(n, NOISE, dtype=np.int64)
    labels[core_idx] = comp
    # A border point goes to the lowest-numbered adjacent cluster: that is
    # the cluster whose expansion reaches it first.
    bc = ~core[pi] & core[pj]
    if bc.any():
        best = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, pi[bc], labels[pj[bc]])
        claimed = ~core & (best < np.iinfo(np.int64).max)
        labels[claimed] = best[claimed]
    return _size_filter(labels, n_clusters, params.min_cluster_size)


def dbscan_bruteforce(points: np.ndarray, params: ClusterParams) -> np.ndarray:
    """Textbook sequential DBSCAN on an all-pairs distance matrix."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    near = d2 <= params.eps * params.eps
    core = near.sum(axis=1) >= params.min_pts
    UNVISITED = -2
    labels = np.full(n, UNVISITED, dtype=np.int64)
    cluster = 0
    for seed in range(n):
        if labels[seed] != UNVISITED:
            continue
        if not core[seed]:
            labels[seed] = NOISE
            continue
        labels[seed] = cluster
        queue = deque(np.flatnonzero(near[seed]))
        while queue:
            q = queue.popleft()
            if labels[q] == NOISE:
                labels[q] = cluster
            if labels[q] != UNVISITED:
                continue
            labels[q] = cluster
            if core[q]:
                queue.extend(np.flatnonzero(near[q]))
        cluster += 1
    return _size_filter(labels, cluster, params.min_cluster_size)


def oracle_labels(member: np.ndarray, params: ClusterParams, fn=dbscan) -> np.ndarray:
    """`fn` over the True pixels of a boolean grid in row-major order, laid out
    as a label image (NOISE elsewhere)."""
    points = extract_points(SegmentationMask(member.astype(np.uint8)), 1)
    image = np.full(member.shape, NOISE, dtype=np.int64)
    image[points[:, 1].astype(int), points[:, 0].astype(int)] = fn(points, params)
    return image


def lattice_labels(grid: np.ndarray, params: ClusterParams, codes=(True,)) -> np.ndarray:
    """`dbscan_lattice`'s spans painted into a label image (NOISE elsewhere),
    code g's grid as rows g * H to g * H + H - 1; a boolean grid by default."""
    image = np.full((len(codes) * len(grid), grid.shape[1]), NOISE, dtype=np.int64)
    for label, y, first, last in zip(*dbscan_lattice(grid, params, codes)):
        image[y, first : last + 1] = label
    return image


def convex_hull(points: np.ndarray) -> np.ndarray | None:
    """Andrew monotone-chain hull; None when collinear or fewer than 3 points."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    fresh = np.ones(len(pts), dtype=bool)
    fresh[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[fresh].tolist()
    if len(pts) < 3:
        return None
    # Pop on cross <= 0 exactly: an epsilon here would truncate needle-shaped
    # hulls, whose corners have tiny cross area but stick out arbitrarily far.
    lower: list[list[float]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[list[float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3 or polygon_area(hull) <= EPS_AREA:
        return None
    return hull


def hull_vertex_mask(pts: np.ndarray) -> np.ndarray:
    """True where a point is a hull vertex: not strictly inside any triangle."""
    n = len(pts)
    if n < 3:
        return np.ones(n, dtype=bool)
    tri = np.array(list(itertools.combinations(range(n), 3)))
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]

    def cross(o, d):
        return (d[:, 0, None] - o[:, 0, None]) * (pts[None, :, 1] - o[:, 1, None]) - (
            d[:, 1, None] - o[:, 1, None]
        ) * (pts[None, :, 0] - o[:, 0, None])

    c1, c2, c3 = cross(a, b), cross(b, c), cross(c, a)
    inside = ((c1 > 0) & (c2 > 0) & (c3 > 0)) | ((c1 < 0) & (c2 < 0) & (c3 < 0))
    return ~inside.any(axis=0)


def random_convex(rng: np.random.Generator, n: int = 10, scale: float = 20.0, shift=(0.0, 0.0)):
    """The hull of n points drawn uniformly from [0, scale)^2 and shifted,
    drawn again until the hull has area."""
    while True:
        hull = convex_hull(rng.uniform(0, scale, (n, 2)) + np.asarray(shift))
        if hull is not None:
            return hull


def square(x0, y0, side):
    """The counter-clockwise square with lower corner (x0, y0)."""
    return np.array(
        [[x0, y0], [x0 + side, y0], [x0 + side, y0 + side], [x0, y0 + side]],
        dtype=np.float64,
    )


def square_region(lane: str, x: float, side: float = 1.0) -> DrivableRegion:
    """A region of one square piece with lower corner (x, 0)."""
    return DrivableRegion.from_pieces(lane, [square(x, 0.0, side)])


def region_set(ego=False, left=False, right=False) -> RegionSet:
    """The sides asked for, as squares of side 2 at x 0 (left), 10 (ego) and
    20 (right)."""
    return RegionSet(
        ego=square_region(LANE_EGO, 10.0, 2.0) if ego else None,
        left=square_region(LANE_LEFT, 0.0, 2.0) if left else None,
        right=square_region(LANE_RIGHT, 20.0, 2.0) if right else None,
    )


def clip_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Clip a against every edge of b, with no early exit before the clips."""
    result: np.ndarray | None = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    for k in range(len(bv)):
        result = _split(result, bv[k], bv[(k + 1) % len(bv)])[0]
        if result is None:
            return None
    return _ring(result)


def is_convex_ccw(vertices: np.ndarray, tol: float = EPS_GEOM) -> bool:
    """True when every consecutive turn is strictly counter-clockwise."""
    v = np.asarray(vertices, dtype=np.float64)
    if v.ndim != 2 or len(v) < 3 or v.shape[1] != 2 or not np.isfinite(v).all():
        return False
    a = np.roll(v, -1, axis=0) - v
    b = np.roll(a, -1, axis=0)
    turns = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return bool(np.all(turns > tol))


def point_in_convex(vertices: np.ndarray, point, tol: float = EPS_GEOM) -> bool:
    """True when the point is inside or within tol px of the boundary."""
    v = np.asarray(vertices, dtype=np.float64)
    e = np.roll(v, -1, axis=0) - v
    d = np.asarray(point, dtype=np.float64) - v
    cross = e[:, 0] * d[:, 1] - e[:, 1] * d[:, 0]
    # cross / |edge| is the signed distance to the edge line.
    return bool(np.all(cross >= -tol * np.hypot(e[:, 0], e[:, 1])))


def stack_spans(grids: list[Spans], height: int) -> Spans:
    """The spans of separate grids `height` rows each as those of their stack:
    each grid's labels offset by the clusters of the grids before it, its rows
    by their rows."""
    counts = [int(s.label.max()) + 1 if len(s.label) else 0 for s in grids]
    offsets = np.cumsum(counts) - counts
    return Spans(
        np.concatenate([s.label + o for s, o in zip(grids, offsets)]),
        np.concatenate([s.y + g * height for g, s in enumerate(grids)]),
        np.concatenate([s.first for s in grids]),
        np.concatenate([s.last for s in grids]),
    )


def roll_area(vertices: np.ndarray) -> float:
    """`polygon_area` with np.roll for each next vertex."""
    v = np.asarray(vertices, dtype=np.float64)
    x, y = v[:, 0], v[:, 1]
    return abs(0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def roll_moments(vertices: np.ndarray) -> tuple[float, np.ndarray]:
    """`polygon_moments` with np.roll for each next vertex."""
    v = np.asarray(vertices, dtype=np.float64)
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * float(np.sum(cross))
    cx = float(np.sum((x + xn) * cross)) / (6.0 * a)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * a)
    return a, np.array([cx, cy])


def roll_edge_sides(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`convex_intersection`'s separating-edge matrix with np.roll for each
    edge of b."""
    e = np.roll(b, -1, axis=0) - b
    return e[:, :1] * (a[:, 1] - b[:, 1:]) - e[:, 1:] * (a[:, 0] - b[:, :1])
