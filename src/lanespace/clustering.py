"""DBSCAN: a lattice form for pixel grids, a grid-indexed form for arbitrary
2-D points, and an O(n^2) reference.

All three produce the classic sequential labeling: clusters are numbered by
the lowest-index core point they contain, a border point reachable from
several clusters belongs to the first cluster that claimed it in index order,
and clusters below min_cluster_size are relabeled to noise with the survivors
renumbered contiguously from 0. For pixels, index order is row-major order.

`dbscan_lattice` is exact on pixel grids when sqrt(2) <= eps < 2, where the
eps-neighbourhood of a pixel is its 3x3 box. It needs only scipy.ndimage;
`dbscan` imports scipy.sparse on first use, so a process on the lattice path
never loads it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

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


def _size_filter(labels: np.ndarray, n_clusters: int, min_size: int) -> np.ndarray:
    if n_clusters == 0:
        return labels
    sizes = np.bincount(labels[labels >= 0], minlength=n_clusters)
    keep = sizes >= min_size
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


def lattice_exact(params: ClusterParams) -> bool:
    """True when eps-neighbourhoods of pixels are exactly their 3x3 boxes.

    That is sqrt(2) <= eps < 2, tested on eps^2 as `dbscan` compares squared
    distances.
    """
    return 2.0 <= params.eps * params.eps < 4.0


_BOX = np.ones((3, 3), dtype=bool)


def dbscan_lattice(grid: np.ndarray, params: ClusterParams) -> np.ndarray:
    """DBSCAN of the True pixels of a boolean grid, as a label image.

    Equals `dbscan` over the pixels' (x, y) coordinates in row-major order,
    laid out on the grid; pixels outside the grid's True set are NOISE.
    Requires `lattice_exact(params)`.
    """
    if not lattice_exact(params):
        raise ValueError(f"eps {params.eps} is outside [sqrt(2), 2)")
    member = np.asarray(grid, dtype=bool)
    h, w = member.shape
    # Core: the 3x3 box holds at least min_pts members, the pixel included;
    # outside the grid counts as empty.
    padded = np.pad(member.view(np.uint8), 1)
    columns = padded[:-2] + padded[1:-1] + padded[2:]
    counts = columns[:, :-2] + columns[:, 1:-1] + columns[:, 2:]
    core = member & (counts >= params.min_pts)
    # Clusters are 8-connected components of the core pixels. Raster order
    # numbers them by their first core pixel, as the sequential scan does.
    labels, n_clusters = ndimage.label(core, structure=_BOX)
    if n_clusters:
        # A border pixel takes the lowest cluster among its core neighbours.
        # Clamping maps an off-grid neighbour onto a pixel of the same box;
        # label 0 (not core) becomes n + 1, above every cluster.
        ys, xs = np.nonzero(member & ~core)
        rows = (np.maximum(ys - 1, 0), ys, np.minimum(ys + 1, h - 1))
        cols = (np.maximum(xs - 1, 0), xs, np.minimum(xs + 1, w - 1))
        near = np.stack([labels[r, c] for r in rows for c in cols])
        best = np.where(near > 0, near, n_clusters + 1).min(axis=0)
        hit = best <= n_clusters
        labels[ys[hit], xs[hit]] = best[hit]
    labels -= 1  # background 0 becomes NOISE, clusters count from 0
    return _size_filter(labels, n_clusters, params.min_cluster_size)


def dbscan(points: np.ndarray, params: ClusterParams) -> np.ndarray:
    """Grid-indexed DBSCAN; returns one label per point (NOISE or 0..k-1)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    pi, pj = _grid_pairs(pts, params.eps)
    core = np.bincount(pi, minlength=n) >= params.min_pts
    labels = np.full(n, NOISE, dtype=np.int64)
    core_idx = np.flatnonzero(core)
    n_clusters = 0
    if len(core_idx):
        # Clusters are the connected components of the core-core adjacency
        # graph, renumbered by their lowest member index to match the
        # sequential expansion order.
        remap = np.full(n, -1, dtype=np.int64)
        remap[core_idx] = np.arange(len(core_idx))
        cc = core[pi] & core[pj]
        graph = csr_matrix(
            (np.ones(int(cc.sum()), dtype=np.int8), (remap[pi[cc]], remap[pj[cc]])),
            shape=(len(core_idx), len(core_idx)),
        )
        n_clusters, comp = connected_components(graph, directed=False)
        first = np.full(n_clusters, n, dtype=np.int64)
        np.minimum.at(first, comp, core_idx)
        renumber = np.empty(n_clusters, dtype=np.int64)
        renumber[np.argsort(first, kind="stable")] = np.arange(n_clusters)
        labels[core_idx] = renumber[comp]
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
