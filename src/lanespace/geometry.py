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


def polygon_area(vertices: np.ndarray) -> float:
    """Unsigned shoelace area."""
    v = np.asarray(vertices, dtype=np.float64)
    x, y = v[:, 0], v[:, 1]
    return abs(0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def polygon_moments(vertices: np.ndarray) -> tuple[float, np.ndarray]:
    """Signed shoelace area and area-weighted centroid from one set of cross
    products; a clockwise ring has negative area and the same centroid."""
    v = np.asarray(vertices, dtype=np.float64)
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * float(np.sum(cross))
    if abs(a) <= EPS_AREA:
        raise ValueError("centroid of a zero-area polygon")
    cx = float(np.sum((x + xn) * cross)) / (6.0 * a)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * a)
    return a, np.array([cx, cy])


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


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


def _dedupe_ring(v: list[np.ndarray]) -> np.ndarray | None:
    # Drop consecutive (near-)duplicates, then collinear vertices.
    out: list[np.ndarray] = []
    for p in v:
        if not out or max(abs(p[0] - out[-1][0]), abs(p[1] - out[-1][1])) > EPS_GEOM:
            out.append(p)
    while len(out) >= 2 and max(abs(out[0][0] - out[-1][0]), abs(out[0][1] - out[-1][1])) <= EPS_GEOM:
        out.pop()
    if len(out) < 3:
        return None
    kept: list[np.ndarray] = []
    n = len(out)
    for i in range(n):
        if abs(_cross(out[i - 1], out[i], out[(i + 1) % n])) > EPS_GEOM:
            kept.append(out[i])
    if len(kept) < 3:
        return None
    return np.array(kept)


def _clip(vertices: np.ndarray, a: np.ndarray, b: np.ndarray, keep_left: bool) -> np.ndarray | None:
    """One Sutherland-Hodgman pass against the line through a->b.

    keep_left keeps the half-plane to the left of the directed edge (the inside
    of a counter-clockwise polygon); otherwise the right half-plane is kept.
    """
    n = len(vertices)
    ex, ey = b[0] - a[0], b[1] - a[1]
    d = ex * (vertices[:, 1] - a[1]) - ey * (vertices[:, 0] - a[0])
    if not keep_left:
        d = -d
    out: list[np.ndarray] = []
    for i in range(n):
        j = (i + 1) % n
        di, dj = d[i], d[j]
        if di >= -EPS_GEOM:
            out.append(vertices[i])
        if (di > EPS_GEOM and dj < -EPS_GEOM) or (di < -EPS_GEOM and dj > EPS_GEOM):
            t = di / (di - dj)
            out.append(vertices[i] + t * (vertices[j] - vertices[i]))
    if len(out) < 3:
        return None
    return np.array(out)


def convex_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Clip a against every edge of b; exact for convex inputs.

    A pair with a separating edge, an edge of b with every vertex of a more
    than EPS_GEOM outside its line by the measure `_clip` uses, is None
    before any clipping, as the clip path would give: every polygon the
    clips make lies in a, so the clip against that edge keeps no vertex.
    Rounding can keep only points within rounding error of that threshold,
    all on one line, far too thin to pass `_dedupe_ring` or EPS_AREA.
    """
    result: np.ndarray | None = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    # d[k, i] is `_clip`'s d for vertex i of a against edge k of b.
    e = np.roll(bv, -1, axis=0) - bv
    d = e[:, :1] * (result[:, 1] - bv[:, 1:]) - e[:, 1:] * (result[:, 0] - bv[:, :1])
    if (d < -EPS_GEOM).all(axis=1).any():
        return None
    for k in range(len(bv)):
        result = _clip(result, bv[k], bv[(k + 1) % len(bv)], keep_left=True)
        if result is None:
            return None
    result = _dedupe_ring(list(result))
    if result is None or polygon_area(result) <= EPS_AREA:
        return None
    return result


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
        p0, p1 = iv[k], iv[(k + 1) % len(iv)]
        outside = _clip(rest, p0, p1, keep_left=False)
        if outside is not None:
            outside = _dedupe_ring(list(outside))
            if outside is not None and polygon_area(outside) > EPS_AREA:
                pieces.append(outside)
        rest = _clip(rest, p0, p1, keep_left=True)
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
