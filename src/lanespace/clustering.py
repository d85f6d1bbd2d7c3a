"""DBSCAN: a lattice form for pixel grids, a grid-indexed form for arbitrary
2-D points, and an O(n^2) reference.

All three produce the classic sequential labeling: clusters are numbered by
the lowest-index core point they contain, a border point reachable from
several clusters belongs to the first cluster that claimed it in index order,
and clusters below min_cluster_size are relabeled to noise with the survivors
renumbered contiguously from 0. For pixels, index order is row-major order.

`dbscan_lattice` is exact on pixel grids when sqrt(2) <= eps < 2, where the
eps-neighbourhood of a pixel is its 3x3 box. It joins runs of core pixels
rather than pixels and returns each cluster as row spans. Both fast forms
join core points with one min-root union-find, whose root is a component's
lowest member, and need NumPy only.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

NOISE = -1


@dataclass(frozen=True)
class ClusterParams:
    eps: float = 1.5
    min_pts: int = 4
    min_cluster_size: int = 12

    def __post_init__(self) -> None:
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {self.min_pts}")
        if self.min_cluster_size < 3:
            raise ValueError(
                f"min_cluster_size must be >= 3, got {self.min_cluster_size}"
            )


class Spans(NamedTuple):
    """Clustered pixels as row spans: pixels first..last (inclusive) of row y
    belong to cluster `label`. Spans of one cluster and row do not overlap."""

    label: np.ndarray
    y: np.ndarray
    first: np.ndarray
    last: np.ndarray


def _renumber(sizes: np.ndarray, min_size: int) -> np.ndarray:
    """Old cluster number -> new: survivors count up from 0, the rest NOISE."""
    keep = sizes >= min_size
    return np.where(keep, np.cumsum(keep) - 1, NOISE)


def _size_filter(labels: np.ndarray, n_clusters: int, min_size: int) -> np.ndarray:
    if n_clusters == 0:
        return labels
    mapping = _renumber(np.bincount(labels[labels >= 0], minlength=n_clusters), min_size)
    assigned = labels >= 0
    labels[assigned] = mapping[labels[assigned]]
    return labels


def _components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected components of nodes 0..n-1 under the edges (a[i], b[i]).

    Returns each node's component and the component count. Components are
    numbered in the order of their lowest node, which a min-root union-find
    gives as the root.
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            break
        # Hook every root under the lowest root across its edges. Links only
        # ever point to lower nodes, so they cannot form a cycle.
        low = np.minimum(ra, rb)
        np.minimum.at(root, ra, low)
        np.minimum.at(root, rb, low)
        while True:  # pointer-jump until every node links straight to its root
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    is_root = root == np.arange(n)
    return (np.cumsum(is_root) - 1)[root], int(is_root.sum())


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


def lattice_exact(params: ClusterParams) -> bool:
    """True when eps-neighbourhoods of pixels are exactly their 3x3 boxes.

    That is sqrt(2) <= eps < 2, tested on eps^2 as `dbscan` compares squared
    distances.
    """
    return 2.0 <= params.eps * params.eps < 4.0


def _runs_meeting(
    edges: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The runs that meet each flat window [lo, hi), as index ranges [first, stop).

    `edges` interleaves the runs' starts and exclusive ends in raster order.
    A window meets the runs that end after lo and start before hi; on integers
    "after lo" is "at or after lo + 1", so one searchsorted finds both bounds.
    """
    pos = np.searchsorted(edges, np.concatenate([lo + 1, hi]))
    return pos[: len(lo)] // 2, (pos[len(lo) :] + 1) // 2


def dbscan_lattice(grid: np.ndarray, params: ClusterParams) -> Spans:
    """DBSCAN of the True pixels of a boolean grid, as row spans.

    The spans cover exactly the clustered pixels, each with the label `dbscan`
    gives it over the pixels' (x, y) coordinates in row-major order.
    Requires `lattice_exact(params)`.
    """
    if not lattice_exact(params):
        raise ValueError(f"eps {params.eps} is outside [sqrt(2), 2)")
    member = np.asarray(grid, dtype=bool)
    # The grid framed by one empty pixel on every side. In its flat index a
    # row is w apart, and neither a run nor a 3x3 box wraps into another row.
    framed = np.pad(member.view(np.uint8), 1)
    w = framed.shape[1]
    # Core: the 3x3 box holds at least min_pts members, the pixel included.
    columns = framed[:-2] + framed[1:-1] + framed[2:]
    counts = columns[:, :-2] + columns[:, 1:-1] + columns[:, 2:]
    core = np.zeros(framed.shape, dtype=bool)
    np.logical_and(member, counts >= params.min_pts, out=core[1:-1, 1:-1])
    # Runs of core pixels in raster order: start[i] < end[i] < start[i + 1].
    flat = core.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    start, end = edges[0::2], edges[1::2]
    n = len(start)
    if n == 0:
        none = np.empty(0, dtype=np.int64)
        return Spans(none, none, none, none)
    # Runs of adjacent rows join when they touch, corners included: run b in
    # the next row meets a's columns widened by one on each side.
    first, stop = _runs_meeting(edges, start + w - 1, end + w + 1)
    count = stop - first
    a = np.repeat(np.arange(n), count)
    b = np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count - first, count)
    # Numbering clusters by their lowest run, the one holding their first
    # core pixel, is the sequential scan's numbering.
    cluster, k = _components(n, a, b)
    # A border pixel takes the lowest cluster among the runs meeting its 3x3
    # box, before the size filter. Each of the box's three rows meets at most
    # two runs (runs are apart by a non-core pixel), so the first and last
    # run of each range are all the candidates; k stands for "none".
    border = np.flatnonzero(framed > core)
    # A box count of 1 is the pixel alone: no core pixel to claim it.
    row, col = np.divmod(border, w)
    border = border[counts[row - 1, col - 1] >= 2]
    centres = np.concatenate([border - w, border, border + w])
    first, stop = _runs_meeting(edges, centres - 1, centres + 2)
    candidate = np.append(cluster, k)
    near = np.where(stop > first, np.minimum(candidate[first], candidate[stop - 1]), k)
    best = near.reshape(3, -1).min(axis=0)
    claimed = best < k
    border, owner = border[claimed], best[claimed]
    # Size: run lengths plus claimed border pixels.
    sizes = np.bincount(cluster, weights=end - start, minlength=k)
    sizes += np.bincount(owner, minlength=k)
    label = _renumber(sizes, params.min_cluster_size)[np.concatenate([cluster, owner])]
    kept = label >= 0
    lo = np.concatenate([start, border])[kept]
    hi = np.concatenate([end, border + 1])[kept]
    row = lo // w
    return Spans(label[kept], row - 1, lo - row * w - 1, hi - row * w - 2)


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
