"""Exact 2-D convex geometry on float64 vertex arrays of shape (n, 2).

Polygons are stored counter-clockwise (positive signed shoelace area) with no
duplicate or collinear consecutive vertices. `None` stands for the degenerate
result (fewer than 3 effective vertices or zero area).

`polygon_area` serves clipping and overlap resolution; `polygon_moments`
measures a region piece, its signed area and centroid, in one shoelace pass.
"""
from __future__ import annotations

import numpy as np

# Orientation tolerance in px; emptiness tolerance in px^2. Safe for double
# precision coordinates at camera-image scale.
EPS_GEOM = 1e-9
EPS_AREA = 1e-6


def _next(v: np.ndarray) -> np.ndarray:
    """Each vertex's successor around the ring: np.roll(v, -1, axis=0)
    without its fixed per-call cost."""
    return np.concatenate((v[1:], v[:1]))


def polygon_area(vertices: np.ndarray) -> float:
    """Unsigned shoelace area."""
    v = np.asarray(vertices, dtype=np.float64)
    vn = _next(v)
    x, y, xn, yn = v[:, 0], v[:, 1], vn[:, 0], vn[:, 1]
    return abs(0.5 * float(np.sum(x * yn - xn * y)))


def polygon_moments(vertices: np.ndarray) -> tuple[float, np.ndarray]:
    """Signed shoelace area and area-weighted centroid from one set of cross
    products; a clockwise ring has negative area and the same centroid."""
    v = np.asarray(vertices, dtype=np.float64)
    vn = _next(v)
    x, y, xn, yn = v[:, 0], v[:, 1], vn[:, 0], vn[:, 1]
    cross = x * yn - xn * y
    a = 0.5 * float(np.sum(cross))
    if abs(a) <= EPS_AREA:
        raise ValueError("centroid of a zero-area polygon")
    cx = float(np.sum((x + xn) * cross)) / (6.0 * a)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * a)
    return a, np.array([cx, cy])


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _ring(vertices: np.ndarray) -> np.ndarray | None:
    """The ring without consecutive (near-)duplicate or collinear vertices;
    None when fewer than 3 remain or its area is at most EPS_AREA."""
    out: list[np.ndarray] = []
    for p in vertices:
        if not out or max(abs(p[0] - out[-1][0]), abs(p[1] - out[-1][1])) > EPS_GEOM:
            out.append(p)
    while len(out) >= 2 and max(abs(out[0][0] - out[-1][0]), abs(out[0][1] - out[-1][1])) <= EPS_GEOM:
        out.pop()
    if len(out) < 3:
        return None
    n = len(out)
    kept = [out[i] for i in range(n) if abs(_cross(out[i - 1], out[i], out[(i + 1) % n])) > EPS_GEOM]
    if len(kept) < 3:
        return None
    ring = np.array(kept)
    return ring if polygon_area(ring) > EPS_AREA else None


def _split(
    vertices: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """One Sutherland-Hodgman pass against the line through a->b, giving the
    parts left of the directed edge (the inside of a counter-clockwise
    polygon) and right of it; a part with fewer than 3 vertices is None.

    The right part is the left part's clip with d negated. Negation is exact
    and t = di / (di - dj) is unchanged by it, so both parts share each
    crossing point bit for bit.
    """
    n = len(vertices)
    ex, ey = b[0] - a[0], b[1] - a[1]
    d = ex * (vertices[:, 1] - a[1]) - ey * (vertices[:, 0] - a[0])
    left: list[np.ndarray] = []
    right: list[np.ndarray] = []
    for i in range(n):
        j = (i + 1) % n
        di, dj = d[i], d[j]
        if di >= -EPS_GEOM:
            left.append(vertices[i])
        if di <= EPS_GEOM:
            right.append(vertices[i])
        if (di > EPS_GEOM and dj < -EPS_GEOM) or (di < -EPS_GEOM and dj > EPS_GEOM):
            t = di / (di - dj)
            cut = vertices[i] + t * (vertices[j] - vertices[i])
            left.append(cut)
            right.append(cut)
    return (
        np.array(left) if len(left) >= 3 else None,
        np.array(right) if len(right) >= 3 else None,
    )


def _edge_sides(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d[k, i], `_split`'s d for vertex i of a against edge k of b."""
    e = _next(b) - b
    return e[:, :1] * (a[:, 1] - b[:, 1:]) - e[:, 1:] * (a[:, 0] - b[:, :1])


def convex_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Clip a against every edge of b; exact for convex inputs.

    A pair with a separating edge, an edge of b with every vertex of a more
    than EPS_GEOM outside its line by the measure `_split` uses, is None
    before any clipping, as the clip path would give: every polygon the
    clips make lies in a, so the clip against that edge keeps no vertex.
    Rounding can keep only points within rounding error of that threshold,
    all on one line, far too thin to pass `_ring`.
    """
    result: np.ndarray | None = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if (_edge_sides(result, bv) < -EPS_GEOM).all(axis=1).any():
        return None
    for k in range(len(bv)):
        result = _split(result, bv[k], bv[(k + 1) % len(bv)])[0]
        if result is None:
            return None
    return _ring(result)


def convex_subtract(a: np.ndarray, inner: np.ndarray | None) -> list[np.ndarray]:
    """Decompose a minus inner into convex pieces.

    inner must be contained in a: callers pass `convex_intersection(a, b)`,
    and this is not checked again. Piece k is the part of a inside the first
    k-1 half-planes of inner and beyond half-plane k, so pieces tile
    a \\ inner exactly.
    """
    av = np.asarray(a, dtype=np.float64)
    if inner is None:
        return [av]
    iv = np.asarray(inner, dtype=np.float64)
    pieces: list[np.ndarray] = []
    rest: np.ndarray | None = av
    for k in range(len(iv)):
        if rest is None:
            break
        rest, outside = _split(rest, iv[k], iv[(k + 1) % len(iv)])
        piece = None if outside is None else _ring(outside)
        if piece is not None:
            pieces.append(piece)
    return pieces


def pieces_area(pieces: list[np.ndarray]) -> float:
    return float(sum(polygon_area(p) for p in pieces))


def rasterize_pieces(pieces: list[np.ndarray], width: int, height: int) -> np.ndarray:
    """Boolean (height, width) grid of lattice points covered by any piece."""
    grid = np.zeros((height, width), dtype=bool)
    for v in pieces:
        x0 = max(int(np.floor(v[:, 0].min())), 0)
        x1 = min(int(np.ceil(v[:, 0].max())), width - 1)
        y0 = max(int(np.floor(v[:, 1].min())), 0)
        y1 = min(int(np.ceil(v[:, 1].max())), height - 1)
        if x1 < x0 or y1 < y0:
            continue
        ys, xs = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
        inside = np.ones(xs.shape, dtype=bool)
        for k in range(len(v)):
            ax, ay = v[k]
            bx, by = v[(k + 1) % len(v)]
            inside &= (bx - ax) * (ys - ay) - (by - ay) * (xs - ax) >= -EPS_GEOM
        grid[y0 : y1 + 1, x0 : x1 + 1] |= inside
    return grid
