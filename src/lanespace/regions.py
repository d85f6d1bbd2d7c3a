"""Mask to lane regions: cluster per class, hull, resolve overlaps, pick sides."""
from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .clustering import ClusterParams, Spans, check_integer, dbscan_lattice
from .core import ClassId, RoadClass, SegmentationMask, road_class_name
from .geometry import (
    EPS_AREA,
    convex_intersection,
    convex_subtract,
    pieces_area,
    polygon_moments,
)

LANE_EGO = "ego"
LANE_LEFT = "left"
LANE_RIGHT = "right"
LANE_UNASSIGNED = "unassigned"

@dataclass(frozen=True)
class DrivableRegion:
    lane: str
    pieces: list[np.ndarray]
    area: float
    centroid: np.ndarray

    @classmethod
    def from_pieces(cls, lane: str, pieces: list[np.ndarray]) -> "DrivableRegion":
        """Area and area-weighted centroid, one shoelace pass per piece; a
        piece without positive area raises ValueError."""
        area, moment = 0.0, np.zeros(2)
        for piece in pieces:
            a, centroid = polygon_moments(piece)
            area += abs(a)
            moment += abs(a) * centroid
        if area <= EPS_AREA:
            raise ValueError("a drivable region needs positive area")
        return cls(lane=lane, pieces=pieces, area=area, centroid=moment / area)

    def relabeled(self, lane: str) -> "DrivableRegion":
        return DrivableRegion(lane, self.pieces, self.area, self.centroid)


@dataclass(frozen=True)
class RegionSet:
    ego: DrivableRegion | None = None
    left: DrivableRegion | None = None
    right: DrivableRegion | None = None
    unassigned: tuple[DrivableRegion, ...] = ()

    def present(self) -> list[DrivableRegion]:
        out = [r for r in (self.ego, self.left, self.right) if r is not None]
        out.extend(self.unassigned)
        return out


@dataclass(frozen=True)
class ExtractionConfig:
    downsample_factor: int = 4
    cluster: ClusterParams = field(default_factory=ClusterParams)
    min_region_area: float = 64.0  # px^2 at full resolution

    def __post_init__(self) -> None:
        check_integer("downsample_factor", self.downsample_factor, 1)
        if isinstance(self.min_region_area, bool) or self.min_region_area < 0:
            raise ValueError("min_region_area must be a number >= 0")


def resolve_overlaps(
    regions: list[tuple[ClassId, list[np.ndarray]]],
) -> list[tuple[ClassId, list[np.ndarray]]]:
    """Make the piece sets of different regions pairwise disjoint.

    When an ego region overlaps a non-ego region the ego piece always cedes the
    intersection; otherwise the region with the smaller total area cedes it, a
    tie going against the later entry. List order is the deterministic cluster
    order, so results do not depend on scheduling.
    """
    entries = [(cls, list(pieces)) for cls, pieces in regions]
    # Ceding only shrinks pieces, so pairs already scanned stay disjoint and
    # one forward scan meets the overlaps in the order a rescan would.
    for ia, (ca, pa_list) in enumerate(entries):
        for cb, pb_list in entries[ia + 1 :]:
            na = nb = 0
            while na < len(pa_list):
                if nb == len(pb_list):
                    na, nb = na + 1, 0
                    continue
                inter = convex_intersection(pa_list[na], pb_list[nb])
                if inter is None:
                    nb += 1
                    continue
                if (ca == ClassId.EGO_LANE) != (cb == ClassId.EGO_LANE):
                    lose_a = ca == ClassId.EGO_LANE
                else:
                    lose_a = pieces_area(pa_list) < pieces_area(pb_list)
                if lose_a:
                    # Check the first replacement against all of pb_list.
                    pa_list[na : na + 1] = convex_subtract(pa_list[na], inter)
                    nb = 0
                else:
                    pb_list[nb : nb + 1] = convex_subtract(pb_list[nb], inter)
    return entries


def assign_sides(
    others: list[DrivableRegion], ego: DrivableRegion | None
) -> tuple[DrivableRegion | None, DrivableRegion | None, tuple[DrivableRegion, ...]]:
    """Split other-lane regions on the ego centroid x; keep the biggest per side.

    A region whose centroid x equals the ego's goes right. Without an ego
    region nothing can be sided and everything is returned unassigned.
    """
    if ego is None:
        return None, None, tuple(r.relabeled(LANE_UNASSIGNED) for r in others)
    x = ego.centroid[0]
    left = _largest((r for r in others if r.centroid[0] < x), LANE_LEFT)
    right = _largest((r for r in others if r.centroid[0] >= x), LANE_RIGHT)
    return left, right, ()


def _largest(regions: Iterable[DrivableRegion], lane: str) -> DrivableRegion | None:
    """The first region of the largest area, labelled lane; None when there is none."""
    best = max(regions, key=lambda r: r.area, default=None)
    return None if best is None else best.relabeled(lane)


def _convex_chains(ring: np.ndarray) -> np.ndarray:
    """The columns of ring, whose rows are (chain, x, y), that stay after
    pruning each chain to its convex side.

    Each chain is a contiguous run of equal `chain` ids, laid out in the order
    of a ring with positive shoelace area. A point stays when the cross
    product of (m - a) and (b - m) is positive, m being the point and a, b
    its neighbours in its chain; a chain's first and last point always stay.
    Passes repeat until one removes nothing. The arithmetic is exact on int64
    coordinates.
    """
    while True:
        dc, dx, dy = ring[:, 1:] - ring[:, :-1]
        # A step either side that changes chain marks a chain's end.
        stay = np.logical_or(dx[:-1] * dy[1:] > dy[:-1] * dx[1:], dc[:-1] | dc[1:])
        if stay.all():
            return ring
        ring = ring[:, np.concatenate(([True], stay, [True]))]


def _cluster_hulls(
    spans: Spans, height: int
) -> tuple[np.ndarray, list[np.ndarray | None], np.ndarray]:
    """The convex hull of every cluster of a frame, all classes in one pass.

    `spans` are the clusters of a grid's class codes, `height` rows each, as
    `dbscan_lattice` gives them: labels count up code by code, and a span's
    class index is its row // height. Returns each cluster's class index, its
    hull and the hull's area. A hull is None when it has fewer than 3
    vertices or no area.

    A cluster's hull is the hull of the leftmost and rightmost pixel of each
    row it occupies: every other pixel of a row lies between the two. Laid
    out as a ring, down the right chain (each row's rightmost pixel, rows
    increasing) and back up the left chain, these points have positive
    shoelace area. A chain point on or outside the chord between its chain
    neighbours lies between that chord and the other chain, so pruning both
    chains to strictly convex turns leaves the hull unchanged; neighbours
    removed in the same pass bend away from the outside, so they too lie on
    or inside the chord between the points that stay around them. A point
    that stays at an interior row is a corner of the hull, whose width there
    is positive, so the ring repeats a point only where the chains meet on
    the top and bottom rows. Without those repeats it is the hull's vertex
    ring; started at its least (x, y), it is the ring Andrew's monotone
    chain gives. Coordinates are integers, so the shoelace area is exact.
    """
    label, first, last = spans.label, spans.first, spans.last
    if not len(label):
        return label, [], np.zeros(0)
    grid, y = np.divmod(spans.y, height)
    owner = np.empty(int(label.max()) + 1, dtype=np.int64)
    owner[label] = grid
    width = int(last.max()) + 1
    # Spans of one cluster and row are disjoint, so the keys are unique: every
    # sort kind gives one order, and the stable one is the fastest. Sorting
    # them by first also sorts them by last: a row's first span holds its
    # leftmost pixel and its last span its rightmost.
    key = (label * height + y) * width + first
    order = np.argsort(key, kind="stable")
    row = key[order] // width
    fresh = np.ones(len(order) + 1, dtype=bool)
    fresh[1:-1] = row[1:] != row[:-1]
    bounds = np.flatnonzero(fresh)
    row = row[bounds[:-1]]
    cluster, row_y = np.divmod(row, height)
    # Row g of a cluster whose rows are [lo, hi) among all rows puts its
    # right end at ring slot lo + g and its left end at 2 * hi + lo - 1 - g.
    n_rows = np.bincount(cluster, minlength=len(owner))
    hi = np.cumsum(n_rows)[cluster]
    lo = hi - n_rows[cluster]
    g = np.arange(len(row))
    slots = np.concatenate([lo + g, 2 * hi + lo - 1 - g])
    ring = np.empty((3, 2 * len(row)), dtype=np.int64)
    ring[0, slots] = np.concatenate([2 * cluster, 2 * cluster + 1])
    ring[1, slots] = np.concatenate([last[order[bounds[1:] - 1]], first[order[bounds[:-1]]]])
    ring[2, slots] = np.concatenate([row_y, row_y])
    chain, x, y = _convex_chains(ring)
    cluster = chain // 2
    # Drop the repeats where the chains meet: a bottom row of one pixel ends
    # the right chain and starts the left one, a top row of one pixel ends
    # the left chain and starts the ring.
    n_kept = np.bincount(cluster, minlength=len(owner))
    end = np.cumsum(n_kept)
    start = end - n_kept
    repeat = np.zeros(len(x), dtype=bool)
    repeat[1:] = (x[1:] == x[:-1]) & (y[1:] == y[:-1]) & (cluster[1:] == cluster[:-1])
    repeat[end - 1] |= (x[end - 1] == x[start]) & (y[end - 1] == y[start])
    x, y, cluster = x[~repeat], y[~repeat], cluster[~repeat]
    size = np.bincount(cluster, minlength=len(owner))
    end = np.cumsum(size)
    start = end - size
    at = np.arange(len(x))
    after = at + 1
    after[end - 1] = start
    area = 0.5 * np.add.reduceat(x * y[after] - x[after] * y, start)
    # Rotate each ring to start at its least (x, y).
    rank = x * height + y
    least = np.minimum.reduceat(rank, start)[cluster]
    begin = np.minimum.reduceat(np.where(rank == least, at, len(x)), start)
    shift = at + begin[cluster] - 2 * start[cluster]
    source = start[cluster] + np.where(shift >= size[cluster], shift - size[cluster], shift)
    points = np.column_stack([x[source], y[source]]).astype(np.float64)
    hulls = [
        None if bad else points[a:b]
        for a, b, bad in zip(
            start.tolist(), end.tolist(), ((size < 3) | (area <= EPS_AREA)).tolist()
        )
    ]
    return owner, hulls, area


_CLASSES = (ClassId.EGO_LANE, ClassId.OTHER_LANES)


def extract_regions(mask: SegmentationMask, cfg: ExtractionConfig | None = None) -> RegionSet:
    """Full pipeline from mask to disjoint, side-attributed lane regions.

    Both classes are clustered on the downsampled pixel grid in one
    `dbscan_lattice` call, ego first: it gets a strided view of the mask,
    every `downsample_factor`-th pixel of every such row, whose codes were
    checked when the mask was built, and the two class codes, so no grid is
    copied out. Each cluster comes out as row spans, and the hulls of all
    clusters of the frame are built in one pass from the leftmost and
    rightmost span end of every row each occupies.
    """
    cfg = cfg or ExtractionConfig()
    factor = cfg.downsample_factor
    small = mask.data[::factor, ::factor]
    # min_region_area is stated at full resolution; hulls live on the
    # downsampled grid until the final scaling step.
    min_area_small = cfg.min_region_area / float(factor * factor)
    owner, hulls, areas = _cluster_hulls(
        dbscan_lattice(small, cfg.cluster, _CLASSES), len(small)
    )
    ordered = [
        (_CLASSES[i], [hull])
        for i, hull, area in zip(owner.tolist(), hulls, areas.tolist())
        if hull is not None and area >= min_area_small
    ]
    egos: list[DrivableRegion] = []
    others: list[DrivableRegion] = []
    for cls, pieces in resolve_overlaps(ordered):
        if not pieces:
            continue  # ceded everything to other regions
        region = DrivableRegion.from_pieces(LANE_UNASSIGNED, [p * float(factor) for p in pieces])
        (egos if cls == ClassId.EGO_LANE else others).append(region)
    ego_region = _largest(egos, LANE_EGO)
    left, right, unassigned = assign_sides(others, ego_region)
    return RegionSet(ego=ego_region, left=left, right=right, unassigned=unassigned)


def _round6(value: float) -> float:
    # +0.0 folds -0.0 so serialized output is byte-stable.
    return round(float(value), 6) + 0.0


def _region_entry(region: DrivableRegion) -> dict[str, Any]:
    return {
        "lane": region.lane,
        "area": _round6(region.area),
        "centroid": [_round6(c) for c in region.centroid.tolist()],
        "pieces": [
            [[_round6(x), _round6(y)] for x, y in piece.tolist()] for piece in region.pieces
        ],
    }


def build_document(
    frame_id: int,
    road_class: RoadClass,
    regions: RegionSet,
    advice: dict[str, Any],
) -> dict[str, Any]:
    """Region output document; key order is part of the format."""
    return {
        "frame_id": int(frame_id),
        "road_class": road_class_name(road_class),
        "regions": [_region_entry(r) for r in regions.present()],
        "advice": advice,
    }


def document_bytes(document: dict[str, Any]) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode("utf-8")
