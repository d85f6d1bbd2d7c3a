"""DBSCAN of the pixels of a boolean grid, for any eps.

On a pixel grid every pixel's eps-neighbourhood is one fixed stencil: the
offsets (dx, dy) with dx^2 + dy^2 <= eps^2. `dbscan_lattice` counts class
pixels under that stencil to find the core pixels, then joins runs of core
pixels within a row rather than pixels, with one vectorized min-root
union-find whose root is a component's lowest member, and returns each
cluster as row spans. It needs NumPy only.

It produces the classic sequential labeling over the pixels' (x, y)
coordinates in row-major order: clusters are numbered by the first core
pixel they contain, a border pixel reachable from several clusters belongs
to the first cluster that claimed it, and clusters below min_cluster_size
are relabeled to noise with the survivors renumbered contiguously from 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

NOISE = -1


def check_integer(name: str, value: Any, low: int) -> None:
    """Raise ValueError unless value is an int (a bool is not) of at least low."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class ClusterParams:
    eps: float = 1.5
    min_pts: int = 4
    min_cluster_size: int = 12

    def __post_init__(self) -> None:
        if isinstance(self.eps, bool) or not self.eps > 0:
            raise ValueError(f"eps must be a positive number, got {self.eps!r}")
        check_integer("min_pts", self.min_pts, 1)
        check_integer("min_cluster_size", self.min_cluster_size, 3)


class Spans(NamedTuple):
    """Clustered pixels as row spans: pixels first..last (inclusive) of row y
    belong to cluster `label`. Spans of one cluster and row do not overlap."""

    label: np.ndarray
    y: np.ndarray
    first: np.ndarray
    last: np.ndarray


def _components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected components of nodes 0..n-1 under the edges (a[i], b[i]).

    Returns each node's component and the component count. Components are
    numbered in the order of their lowest node, which a min-root union-find
    gives as the root.
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        if (ra == rb).all():
            break
        # Hook every root under the lowest root across its edges. Links only
        # ever point to lower nodes, so they cannot form a cycle.
        low = np.minimum(ra, rb)
        np.minimum.at(root, ra, low)
        np.minimum.at(root, rb, low)
        while True:  # pointer-jump until every node links straight to its root
            up = root[root]
            if (up == root).all():
                break
            root = up
    is_root = root == np.arange(n)
    return (np.cumsum(is_root) - 1)[root], int(is_root.sum())


def _sparse_flatnonzero(a: np.ndarray) -> np.ndarray:
    """np.flatnonzero of a 1-D bool array in which few elements are True.

    np.flatnonzero spends about the same time on every element up to the last
    True one. On a long array it is faster to find the 8-byte words that hold
    a True first and look only inside those; below 2**16 elements the extra
    calls cost more than they save.
    """
    if len(a) < 1 << 16:
        return np.flatnonzero(a)
    cut = len(a) - len(a) % 8
    words = a[:cut].view(np.uint64)
    hit = np.flatnonzero(words != 0)
    at = np.flatnonzero(words[hit].view(bool))
    return np.concatenate([hit[at >> 3] * 8 + (at & 7), cut + np.flatnonzero(a[cut:])])


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


def dbscan_lattice(
    grid: np.ndarray, params: ClusterParams, codes: np.ndarray | None = None
) -> Spans:
    """DBSCAN of the True pixels of a boolean grid, or of each grid of a
    (k, H, W) stack, as row spans.

    With `codes`, grid is one 2-D grid of class codes and stands for the
    stack `grid == codes[:, None, None]`, which is never built: each code's
    membership is written straight into the padded array the clustering
    reads. The spans cover exactly the clustered pixels, each with the label
    that sequential DBSCAN gives it over the pixels' (x, y) coordinates in
    row-major order. The grids of a stack are clustered apart: labels count
    up grid by grid, and row r of grid g is row g * H + r of the spans.
    """
    if codes is None:
        member = np.asarray(grid, dtype=bool)
        if member.ndim == 2:
            member = member[None]
        grids, (height, width) = len(member), member.shape[1:]
    else:
        # A strided sample compares faster once made contiguous.
        member = np.ascontiguousarray(grid)
        grids, (height, width) = len(codes), member.shape
    # The stencil: hw[dy] for dy = 0..R is the largest dx with
    # dx^2 + dy^2 <= eps^2 in float64, as distances are compared. The squares
    # are exact integers there, so that is dx^2 + dy^2 <= floor(eps^2). R and
    # hw stop at the grid's size, past which a stencil reaches no other
    # pixel, so a huge or infinite eps stays bounded.
    top = math.floor(min(params.eps * params.eps, (height - 1) ** 2 + (width - 1) ** 2))
    reach = min(height - 1, math.isqrt(top))
    half_widths = [min(width - 1, math.isqrt(top - dy * dy)) for dy in range(reach + 1)]
    none = np.empty(0, dtype=np.int64)
    cells = 2 * sum(2 * h + 1 for h in half_widths) - (2 * half_widths[0] + 1)
    if cells == 1:
        return Spans(none, none, none, none)  # clusters of one pixel each
    hw = np.array(half_widths)
    # Members in a flat index whose rows are w apart: one empty column in
    # front of each row and hw[0], at least one, after it, so that neither a
    # run nor a stencil row's window reaches into another row.
    w = width + 1 + max(half_widths[0], 1)
    padded = np.zeros((grids, height * w), dtype=bool)
    inner = padded.reshape(grids, height, w)[:, :, 1 : width + 1]
    if codes is None:
        inner[...] = member
    else:
        np.equal(member, np.asarray(codes)[:, None, None], out=inner)
    # Core: the stencil holds at least min_pts members, the pixel included.
    # Its rows are summed from one horizontal window sum, widened to row 0's
    # half-width and then narrowed row by row outward, within each grid.
    pixels = padded.view(np.uint8)
    window = pixels.astype(np.min_scalar_type(cells))
    for half in range(1, hw[0] + 1):
        window[:, half:] += pixels[:, :-half]
        window[:, :-half] += pixels[:, half:]
    counts = window.copy()
    for dy in range(1, reach + 1):
        for half in range(hw[dy - 1], hw[dy], -1):
            window[:, half:] -= pixels[:, :-half]
            window[:, :-half] -= pixels[:, half:]
        counts[:, dy * w :] += window[:, : -dy * w]
        counts[:, : -dy * w] += window[:, dy * w :]
    del window  # the arrays below reuse its memory
    counts *= pixels  # a member keeps its count, any other pixel reads 0
    flat, counts = padded.ravel(), counts.ravel()
    core = counts >= params.min_pts
    # One scan finds both the ends of the core runs and the border
    # candidates: members that are not core, whose stencil holds another
    # member (a count of 1 is the pixel alone, with no core pixel to claim it).
    event = (counts >= 2) > core
    event[1:] |= core[1:] != core[:-1]
    at = _sparse_flatnonzero(event)
    # Column 0 is empty, so no event is at 0.
    is_edge, is_border = core[at] != core[at - 1], flat[at] & ~core[at]
    # From here on the grids are `reach` rows apart in the flat index, rows
    # that hold no memory, so no join or border window reaches another grid.
    at += at // (height * w) * (reach * w)
    # Runs of core pixels in raster order: start[i] < end[i] < start[i + 1].
    edges = at[is_edge]
    start, end = edges[0::2], edges[1::2]
    n = len(start)
    if n == 0:
        return Spans(none, none, none, none)
    # Run b in row dy below run a joins it when it meets a's columns widened
    # by hw[dy] on each side, corners included. With hw[0] >= 2 this also
    # joins runs of one row (a meets itself too, which changes nothing).
    dys = np.arange(1 if hw[0] < 2 else 0, reach + 1)
    lo = (start + (dys * w - hw[dys])[:, None]).ravel()
    hi = (end + (dys * w + hw[dys])[:, None]).ravel()
    first, stop = _runs_meeting(edges, lo, hi)
    # A window joins its run and the runs first..stop-1 into one component:
    # link its run to `first`, and each run j covered by some window's
    # first..stop-2 to j + 1, so the edges are at most windows + runs.
    met = stop > first
    run, first, last = np.flatnonzero(met) % n, first[met], stop[met] - 1
    chained = np.flatnonzero(
        np.cumsum(np.bincount(first, minlength=n) - np.bincount(last, minlength=n)) > 0
    )
    # Numbering clusters by their lowest run, the one holding their first
    # core pixel, is the sequential scan's numbering.
    cluster, k = _components(
        n, np.concatenate([run, chained]), np.concatenate([first, chained + 1])
    )
    # A border pixel takes the lowest cluster among the runs meeting the rows
    # of its stencil, before the size filter; k stands for "none". The first
    # and last run meeting a window are all the candidates. The window spans
    # 2h + 1 columns with h <= hw[0], so of the runs meeting it at most one
    # neighbouring pair is more than hw[0] columns apart, and every other pair
    # is joined within its row (with hw[0] <= 1 it meets at most two runs).
    border = at[is_border]
    rows = np.arange(-reach, reach + 1)
    halves = hw[np.abs(rows)]
    lo = (border + (rows * w - halves)[:, None]).ravel()
    hi = (border + (rows * w + halves + 1)[:, None]).ravel()
    first, stop = _runs_meeting(edges, lo, hi)
    candidate = np.append(cluster, k)
    near = np.where(stop > first, np.minimum(candidate[first], candidate[stop - 1]), k)
    best = near.reshape(len(rows), -1).min(axis=0)
    claimed = best < k
    border, owner = border[claimed], best[claimed]
    # Size: run lengths plus claimed border pixels.
    sizes = np.bincount(cluster, weights=end - start, minlength=k)
    sizes += np.bincount(owner, minlength=k)
    # Survivors count up from 0, the rest are NOISE.
    keep = sizes >= params.min_cluster_size
    label = np.where(keep, np.cumsum(keep) - 1, NOISE)[np.concatenate([cluster, owner])]
    kept = label >= 0
    lo = np.concatenate([start, border])[kept]
    hi = np.concatenate([end, border + 1])[kept]
    row = lo // w
    # Rows of the flat index to rows of the stack: drop the gaps above.
    y = row - row // (height + reach) * reach
    return Spans(label[kept], y, lo - row * w - 1, hi - row * w - 2)
