"""DBSCAN of the pixels of each class code of a grid, for any eps.

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
from collections.abc import Sequence
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


_WORD = np.dtype("<u8")  # bit i of a plane is bit i % 64 of word i // 64


def _shifted(plane: np.ndarray, s: int) -> np.ndarray:
    """The bits of a flat plane moved s places up (s < 0: down), zero filled."""
    q, r = divmod(abs(s), 64)
    out, n = np.zeros_like(plane), len(plane) - q
    if s > 0:
        np.left_shift(plane[:n], r, out=out[q:])
        if r:
            out[q + 1 :] |= plane[: n - 1] >> (64 - r)
    else:
        np.right_shift(plane[q:], r, out=out[:n])
        if r:
            out[: n - 1] |= plane[q + 1 :] << (64 - r)
    return out


def _reduce(number: list[list[np.ndarray]], most: int) -> None:
    """Add up the planes of a bit-sliced number in place with full and half
    adders, until each column holds at most `most` planes.

    Column i holds planes of weight 2**i. The callers give the number enough
    columns for its sum, so a carry out of the last one is 0 and is not made.
    """
    for i, column in enumerate(number):
        while len(column) > most:
            a, b = column.pop(), column.pop()
            x, c = a ^ b, column.pop() if column else None
            column.append(x if c is None else x ^ c)
            if i + 1 < len(number):
                number[i + 1].append(a & b if c is None else (a & b) | (x & c))


def _at_least(number: list[list[np.ndarray]], k: int, within: np.ndarray) -> np.ndarray:
    """The bits of `within` where a bit-sliced number of n columns, each with
    one plane or none, is at least k >= 1: where adding 2**n - k carries out."""
    add, carry = (1 << len(number)) - k, None
    for i, column in enumerate(number if add > 0 else ()):
        a = column[0] if column else None
        if add >> i & 1:
            carry = a if carry is None else carry if a is None else a | carry
        elif carry is not None:
            carry = None if a is None else a & carry
    return np.zeros_like(within) if carry is None else carry & within


def _set_bits(plane: np.ndarray) -> np.ndarray:
    """np.flatnonzero of a flat plane's bits. Only the bytes that hold a set
    bit are unpacked, so a sparse plane costs little more than its bytes."""
    octets = plane.astype(_WORD, copy=False).view(np.uint8)
    hit = np.flatnonzero(octets != 0)
    at = np.flatnonzero(np.unpackbits(octets[hit], bitorder="little").view(bool))
    return hit[at >> 3] * 8 + (at & 7)


def _dense_events(
    grid: np.ndarray, codes: np.ndarray, hw: np.ndarray, w: int, cells: int, min_pts: int
) -> tuple[np.ndarray, np.ndarray]:
    """The dense stage on bit planes; see `dbscan_lattice`."""
    grids, (height, width), reach, widest = len(codes), grid.shape, len(hw) - 1, int(hw[0])
    # Each code's membership, pixel x at bit x of a row of w bits, one bit
    # before its flat position. A row ends in at least 1 + max(hw[0], 1) zero
    # bits, so that no shift by up to hw[0] moves a pixel into another row.
    # As in the flat index, `reach` empty rows follow each grid, and `reach`
    # more come first, so that a row shift is an offset into one plane.
    row = w // 64
    packed = np.packbits(grid == codes[:, None, None], axis=-1, bitorder="little")
    planes = np.zeros((reach + grids * (height + reach), 8 * row), dtype=np.uint8)
    planes[reach:].reshape(grids, height + reach, -1)[:, :height, : packed.shape[2]] = packed
    member = planes.view(_WORD).ravel()
    # Stencil counts as bit-sliced numbers: lists of columns of planes. The
    # horizontal window widens one column on each side at a time; once it is
    # hw[dy] wide, it is added dy rows up and down to the counts of the rows
    # from the first grid's to the last one's.
    n = len(member) - 2 * reach * row
    window = [[member]] + [[] for _ in range((2 * widest + 1).bit_length() - 1)]
    count = [[] for _ in range(cells.bit_length())]
    for half in range(widest + 1):
        if half:
            window[0] += [_shifted(member, half), _shifted(member, -half)]
            _reduce(window, 1)
        for dy in np.flatnonzero(hw == half).tolist():
            for shift in (dy, -dy) if dy else (0,):
                start = (reach - shift) * row
                for column, sums in zip(count, window):
                    column += [plane[start : start + n] for plane in sums]
                _reduce(count, 2)
    _reduce(count, 1)
    member = member[reach * row : reach * row + n]
    core = _at_least(count, min_pts, member)
    # The ends of the core runs are where core differs from the bit before.
    # Border candidates are members that are not core, whose stencil holds
    # another member (a count of 1 is the pixel alone, with no core pixel to
    # claim it). A pixel's bit is one before its flat position.
    border = _at_least(count, 2, member ^ core)  # core pixels are members
    return _set_bits(core ^ _shifted(core, 1)) + 1, _set_bits(border) + 1


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
    grid: np.ndarray, params: ClusterParams, codes: Sequence[Any] | np.ndarray
) -> Spans:
    """DBSCAN of the pixels of each code of a 2-D grid, as row spans.

    Code g stands for the grid `grid == codes[g]`, the codes cast to the
    grid's dtype so that the compare is not widened: each code's membership
    is packed straight into the bit planes the clustering reads, so a boolean
    grid is clustered with codes (True,).
    The spans cover exactly the clustered pixels, each with the label that
    sequential DBSCAN gives it over the pixels' (x, y) coordinates in
    row-major order. The codes are clustered apart: labels count up code by
    code, and row r of code g's grid is row g * H + r of the spans.

    The dense stage, which counts each pixel's stencil and finds the ends of
    the core runs and the border candidates, works on bit planes: it packs
    each code's membership 64 pixels a word and adds the stencil's shifted
    planes with bit-sliced full adders, a few passes over planes an eighth
    the size of one byte per pixel.
    """
    # A strided sample compares faster once made contiguous.
    grid = np.ascontiguousarray(grid)
    height, width = grid.shape
    # The stencil: hw[dy] for dy = 0..R is the largest dx with
    # dx^2 + dy^2 <= eps^2 in float64, as distances are compared. The squares
    # are exact integers there, so that is dx^2 + dy^2 <= floor(eps^2). R and
    # hw stop at the grid's size, past which a stencil reaches no other
    # pixel, so a huge or infinite eps stays bounded.
    top = math.floor(min(params.eps * params.eps, (height - 1) ** 2 + (width - 1) ** 2))
    reach = min(height - 1, math.isqrt(top))
    half_widths = [min(width - 1, math.isqrt(top - dy * dy)) for dy in range(reach + 1)]
    cells = 2 * sum(2 * h + 1 for h in half_widths) - (2 * half_widths[0] + 1)
    if cells == 1:
        none = np.empty(0, dtype=np.int64)
        return Spans(none, none, none, none)  # clusters of one pixel each
    hw = np.array(half_widths)
    # The dense stage gives the ends of the core runs and the border
    # candidates as positions in a flat index whose rows are w apart: one
    # empty column in front of each row and hw[0], at least one, after it, so
    # that neither a run nor a stencil row's window reaches into another row,
    # rounded up to whole 64-bit words: the rows of the dense stage's bit
    # planes. The grids are `reach` rows apart there, rows that hold no
    # memory, so no join or border window reaches another grid.
    w = -(-(width + 1 + max(half_widths[0], 1)) // 64) * 64
    codes = np.asarray(codes, dtype=grid.dtype)
    edges, border = _dense_events(grid, codes, hw, w, cells, params.min_pts)
    # Runs of core pixels in raster order: start[i] < end[i] < start[i + 1].
    start, end = edges[0::2], edges[1::2]
    n = len(start)
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
