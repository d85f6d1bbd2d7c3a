"""Mask to lane regions: cluster per class, hull, resolve overlaps, pick sides."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .clustering import ClusterParams, Spans, check_integer, dbscan_lattice
from .core import ClassId, RoadClass, SegmentationMask, downsample, road_class_name
from .geometry import (
    EPS_AREA,
    convex_hull,
    convex_intersection,
    convex_subtract,
    pieces_area,
    polygon_area,
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

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExtractionConfig":
        kw = dict(raw)
        try:
            if "cluster" in kw:
                kw["cluster"] = ClusterParams(**kw["cluster"])
            return cls(**kw)
        except TypeError as e:
            raise ValueError(f"bad extraction config: {e}") from None

    def to_dict(self) -> dict[str, Any]:
        return {
            "downsample_factor": self.downsample_factor,
            "cluster": {
                "eps": self.cluster.eps,
                "min_pts": self.cluster.min_pts,
                "min_cluster_size": self.cluster.min_cluster_size,
            },
            "min_region_area": self.min_region_area,
        }


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
    left_best: DrivableRegion | None = None
    right_best: DrivableRegion | None = None
    for region in others:
        if region.centroid[0] < ego.centroid[0]:
            if left_best is None or region.area > left_best.area:
                left_best = region
        else:
            if right_best is None or region.area > right_best.area:
                right_best = region
    left = left_best.relabeled(LANE_LEFT) if left_best is not None else None
    right = right_best.relabeled(LANE_RIGHT) if right_best is not None else None
    return left, right, ()


def _convex_chains(group: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Indices of the chain points that stay after pruning to the convex side.

    Each group is a contiguous chain with rows increasing. A point stays when
    it lies strictly left of the chord between its two neighbours in its
    group; a group's first and last point always stay. Passes repeat until
    one removes nothing. The arithmetic is exact on int64 coordinates.
    """
    keep = np.arange(len(x))
    while True:
        g, yk, xk = group[keep], y[keep], x[keep]
        ya, ym, yb = yk[:-2], yk[1:-1], yk[2:]
        # Groups are contiguous, so equal ends mean the middle shares them.
        flat = (g[:-2] == g[2:]) & (
            xk[1:-1] * (yb - ya) >= xk[:-2] * (yb - ym) + xk[2:] * (ym - ya)
        )
        if not flat.any():
            return keep
        keep = np.delete(keep, np.flatnonzero(flat) + 1)


def _row_extremes(spans: Spans) -> list[np.ndarray]:
    """Per cluster, in label order, the (x, y) of the row extremes that can be
    vertices of its hull.

    A cluster's hull is the hull of the leftmost and rightmost pixel of each
    row it occupies: every other pixel of a row lies between the two. Of
    those, a leftmost pixel on or right of the chord between its neighbours
    on the left chain lies between that chord and the row's rightmost pixel,
    and likewise on the right, so pruning both chains to their convex side
    leaves the hull unchanged. Neighbours removed in the same pass bend
    away from the chain's outside, so they too lie on or inside the chord
    between the points that stay around them.
    """
    # Spans of one cluster and row are disjoint, so sorting them by first
    # also sorts them by last: a group's first span holds its leftmost pixel
    # and its last span its rightmost.
    order = np.lexsort((spans.first, spans.y, spans.label))
    if not len(order):
        return []
    label, y = spans.label[order], spans.y[order]
    fresh = np.ones(len(order) + 1, dtype=bool)
    fresh[1:-1] = (label[1:] != label[:-1]) | (y[1:] != y[:-1])
    bounds = np.flatnonzero(fresh)
    heads = bounds[:-1]
    # The left chains of all clusters, then their right chains. Negating the
    # right chains' x turns "strictly right" into "strictly left".
    side = np.repeat([1, -1], len(heads))
    cluster = np.tile(label[heads], 2)
    rows = np.tile(y[heads], 2)
    xs = np.concatenate([spans.first[order[heads]], spans.last[order[bounds[1:] - 1]]])
    keep = _convex_chains(2 * cluster + (side < 0), rows, side * xs)
    keep = keep[np.argsort(cluster[keep], kind="stable")]
    points = np.column_stack([xs[keep], rows[keep]]).astype(np.float64)
    return np.split(points, np.flatnonzero(np.diff(cluster[keep])) + 1)


def extract_regions(mask: SegmentationMask, cfg: ExtractionConfig | None = None) -> RegionSet:
    """Full pipeline from mask to disjoint, side-attributed lane regions.

    Each class is clustered on the downsampled pixel grid by
    `dbscan_lattice`, ego first. Each cluster comes out as row spans, and its
    hull is built from the leftmost and rightmost span end of every row it
    occupies.
    """
    cfg = cfg or ExtractionConfig()
    factor = cfg.downsample_factor
    small = downsample(mask, factor)
    # min_region_area is stated at full resolution; hulls live on the
    # downsampled grid until the final scaling step.
    min_area_small = cfg.min_region_area / float(factor * factor)
    ordered: list[tuple[ClassId, list[np.ndarray]]] = []
    for class_id in (ClassId.EGO_LANE, ClassId.OTHER_LANES):
        for extremes in _row_extremes(dbscan_lattice(small.data == int(class_id), cfg.cluster)):
            hull = convex_hull(extremes)
            if hull is not None and polygon_area(hull) >= min_area_small:
                ordered.append((class_id, [hull]))
    ego_region: DrivableRegion | None = None
    others: list[DrivableRegion] = []
    for cls, pieces in resolve_overlaps(ordered):
        if not pieces:
            continue  # ceded everything to other regions
        region = DrivableRegion.from_pieces(
            LANE_EGO if cls == ClassId.EGO_LANE else LANE_UNASSIGNED,
            [p * float(factor) for p in pieces],
        )
        if cls == ClassId.EGO_LANE:
            if ego_region is None or region.area > ego_region.area:
                ego_region = region
        else:
            others.append(region)
    left, right, unassigned = assign_sides(others, ego_region)
    return RegionSet(ego=ego_region, left=left, right=right, unassigned=unassigned)


def _round6(value: float) -> float:
    # +0.0 folds -0.0 so serialized output is byte-stable.
    return round(float(value), 6) + 0.0


def _region_entry(region: DrivableRegion) -> dict[str, Any]:
    return {
        "lane": region.lane,
        "area": _round6(region.area),
        "centroid": [_round6(region.centroid[0]), _round6(region.centroid[1])],
        "pieces": [
            [[_round6(x), _round6(y)] for x, y in piece] for piece in region.pieces
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
